package imgproc

import (
	"bytes"
	"image"
	"image/color"
	"testing"
	"testing/quick"

	"tdmagic/internal/geom"
)

func TestGrayBasics(t *testing.T) {
	g := NewGray(4, 3)
	for _, v := range g.Pix {
		if v != 255 {
			t.Fatal("new gray not white")
		}
	}
	g.Set(2, 1, 7)
	if g.At(2, 1) != 7 {
		t.Error("Set/At roundtrip failed")
	}
	if g.At(-1, 0) != 255 || g.At(4, 0) != 255 || g.At(0, 3) != 255 {
		t.Error("out-of-bounds At should be white")
	}
	g.Set(-1, -1, 0) // must not panic
	if got := g.Bounds(); got != (geom.Rect{X0: 0, Y0: 0, X1: 3, Y1: 2}) {
		t.Errorf("Bounds = %v", got)
	}
}

func TestGrayCloneIndependent(t *testing.T) {
	g := NewGray(2, 2)
	c := g.Clone()
	c.Set(0, 0, 0)
	if g.At(0, 0) != 255 {
		t.Error("Clone shares pixels")
	}
}

func TestGrayCrop(t *testing.T) {
	g := NewGray(10, 10)
	g.Set(5, 5, 1)
	g.Set(6, 6, 2)
	c := g.Crop(geom.Rect{X0: 5, Y0: 5, X1: 7, Y1: 7})
	if c.W != 3 || c.H != 3 {
		t.Fatalf("crop size %dx%d", c.W, c.H)
	}
	if c.At(0, 0) != 1 || c.At(1, 1) != 2 {
		t.Error("crop content wrong")
	}
	// Crop clipped outside bounds
	c2 := g.Crop(geom.Rect{X0: 8, Y0: 8, X1: 20, Y1: 20})
	if c2.W != 2 || c2.H != 2 {
		t.Errorf("clipped crop size %dx%d", c2.W, c2.H)
	}
	c3 := g.Crop(geom.Rect{X0: 30, Y0: 30, X1: 40, Y1: 40})
	if c3.W != 0 || c3.H != 0 {
		t.Error("fully outside crop should be empty")
	}
}

func TestGrayScaleTo(t *testing.T) {
	g := NewGray(2, 2)
	g.Set(0, 0, 0)
	g.Set(1, 1, 0)
	s := g.ScaleTo(4, 4)
	if s.At(0, 0) != 0 || s.At(1, 1) != 0 || s.At(3, 3) != 0 {
		t.Error("upscale content wrong")
	}
	if s.At(3, 0) != 255 {
		t.Error("upscale should keep white corner")
	}
	d := s.ScaleTo(2, 2)
	if d.At(0, 0) != 0 || d.At(1, 1) != 0 {
		t.Error("downscale content wrong")
	}
	z := g.ScaleTo(0, 5)
	if z.W != 0 || z.H != 5 {
		t.Error("zero-width scale")
	}
}

func TestPNGRoundtrip(t *testing.T) {
	g := NewGray(8, 5)
	g.Set(3, 2, 42)
	g.Set(7, 4, 0)
	var buf bytes.Buffer
	if err := g.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.W != 8 || d.H != 5 || d.At(3, 2) != 42 || d.At(7, 4) != 0 || d.At(0, 0) != 255 {
		t.Error("PNG roundtrip mismatch")
	}
}

func TestDecodePNGError(t *testing.T) {
	if _, err := DecodePNG(bytes.NewReader([]byte("not a png"))); err == nil {
		t.Error("expected decode error")
	}
}

func TestBinaryBasics(t *testing.T) {
	b := NewBinary(4, 4)
	b.Set(1, 2, true)
	if !b.At(1, 2) || b.At(0, 0) {
		t.Error("Set/At failed")
	}
	if b.At(-1, 0) || b.At(4, 0) {
		t.Error("out-of-bounds At should be false")
	}
	if b.Count() != 1 {
		t.Errorf("Count = %d", b.Count())
	}
	c := b.Clone()
	c.Set(0, 0, true)
	if b.At(0, 0) {
		t.Error("Clone shares pixels")
	}
}

func TestThreshold(t *testing.T) {
	g := NewGray(3, 1)
	g.Set(0, 0, 0)   // ink
	g.Set(1, 0, 100) // ink
	g.Set(2, 0, 200) // paper
	b := Threshold(g, 128)
	if !b.At(0, 0) || !b.At(1, 0) || b.At(2, 0) {
		t.Error("threshold wrong")
	}
}

func TestOtsuThreshold(t *testing.T) {
	// Clean bimodal image: ink at 10, paper at 240.
	g := NewGray(20, 20)
	for y := 0; y < 20; y++ {
		for x := 0; x < 20; x++ {
			if x < 5 {
				g.Set(x, y, 10)
			} else {
				g.Set(x, y, 240)
			}
		}
	}
	thr := OtsuThreshold(g)
	if thr <= 10 || thr > 240 {
		t.Errorf("Otsu threshold %d outside (10,240]", thr)
	}
	b := Threshold(g, thr)
	if b.Count() != 5*20 {
		t.Errorf("Otsu binarisation kept %d ink pixels, want 100", b.Count())
	}
	// Degenerate: empty image must not divide by zero.
	if got := OtsuThreshold(NewGray(0, 0)); got != 128 {
		t.Errorf("empty-image Otsu = %d", got)
	}
	// Uniform image.
	u := NewGray(4, 4)
	_ = OtsuThreshold(u) // must not panic
}

func TestBinaryToGrayRoundtrip(t *testing.T) {
	b := NewBinary(3, 2)
	b.Set(1, 0, true)
	g := b.ToGray()
	if g.At(1, 0) != 0 || g.At(0, 0) != 255 {
		t.Error("ToGray wrong")
	}
	b2 := Threshold(g, 128)
	for i := range b.Words {
		if b.Words[i] != b2.Words[i] {
			t.Fatal("Binary->Gray->Binary roundtrip mismatch")
		}
	}
}

func TestComponentsSimple(t *testing.T) {
	b := NewBinary(10, 10)
	// Two blobs: one 2x2 at (1,1), one single pixel at (8,8).
	b.Set(1, 1, true)
	b.Set(2, 1, true)
	b.Set(1, 2, true)
	b.Set(2, 2, true)
	b.Set(8, 8, true)
	comps := Regions(b, 1)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if comps[0].Area != 4 || comps[0].Box != (geom.Rect{X0: 1, Y0: 1, X1: 2, Y1: 2}) {
		t.Errorf("comp0 = %+v", comps[0])
	}
	if comps[1].Area != 1 {
		t.Errorf("comp1 area = %d", comps[1].Area)
	}
	// minArea filter
	comps = Regions(b, 2)
	if len(comps) != 1 {
		t.Errorf("minArea filter kept %d", len(comps))
	}
}

func TestComponentsDiagonalConnectivity(t *testing.T) {
	b := NewBinary(4, 4)
	b.Set(0, 0, true)
	b.Set(1, 1, true)
	b.Set(2, 2, true)
	comps := Regions(b, 1)
	if len(comps) != 1 {
		t.Fatalf("8-connectivity should join diagonal pixels, got %d comps", len(comps))
	}
	if comps[0].Area != 3 {
		t.Errorf("area = %d", comps[0].Area)
	}
}

func TestComponentsLargeBlobNoStackOverflow(t *testing.T) {
	b := NewBinary(300, 300)
	b.Fill(true)
	comps := Regions(b, 1)
	if len(comps) != 1 || comps[0].Area != 300*300 {
		t.Error("full-image component wrong")
	}
}

func TestHRunsVRuns(t *testing.T) {
	b := NewBinary(10, 5)
	for x := 2; x <= 7; x++ {
		b.Set(x, 1, true)
	}
	for y := 0; y <= 4; y++ {
		b.Set(9, y, true)
	}
	b.Set(0, 3, true) // single pixel, below min lengths
	hr := HRuns(b, 3)
	if len(hr) != 1 || hr[0] != (geom.HSeg{Y: 1, X0: 2, X1: 7}) {
		t.Errorf("HRuns = %v", hr)
	}
	vr := VRuns(b, 3)
	if len(vr) != 1 || vr[0] != (geom.VSeg{X: 9, Y0: 0, Y1: 4}) {
		t.Errorf("VRuns = %v", vr)
	}
	// Runs reaching image border must be closed properly.
	hr = HRuns(b, 1)
	found := false
	for _, r := range hr {
		if r.Y == 0 && r.X0 == 9 && r.X1 == 9 {
			found = true
		}
	}
	if !found {
		t.Error("border-adjacent run missed")
	}
}

// Property: total set pixels equals sum of component areas (minArea=1).
func TestComponentsAreaProperty(t *testing.T) {
	f := func(seed int64) bool {
		b := NewBinary(30, 30)
		s := seed
		for y := 0; y < b.H; y++ {
			for x := 0; x < b.W; x++ {
				s = s*6364136223846793005 + 1442695040888963407
				if (s>>33)%3 == 0 {
					b.Set(x, y, true)
				}
			}
		}
		total := 0
		for _, c := range Regions(b, 1) {
			total += c.Area
		}
		return total == b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFromImageColor(t *testing.T) {
	rgba := image.NewRGBA(image.Rect(2, 3, 6, 7)) // non-zero origin
	rgba.Set(2, 3, color.RGBA{R: 255, G: 255, B: 255, A: 255})
	rgba.Set(3, 3, color.RGBA{A: 255}) // black
	rgba.Set(4, 3, color.RGBA{R: 255, A: 255})
	g := FromImage(rgba)
	if g.W != 4 || g.H != 4 {
		t.Fatalf("size %dx%d", g.W, g.H)
	}
	if g.At(0, 0) != 255 {
		t.Error("white pixel wrong")
	}
	if g.At(1, 0) != 0 {
		t.Error("black pixel wrong")
	}
	// Pure red converts to its luminance, strictly between black and white.
	if v := g.At(2, 0); v == 0 || v == 255 {
		t.Errorf("red luminance = %d", v)
	}
}
