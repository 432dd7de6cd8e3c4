package lad

import (
	"context"
	"math/rand"
	"testing"

	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/render"
	"tdmagic/internal/tdgen"
)

// detect runs LAD on img binarised as the pipeline binarises it.
func detect(t *testing.T, img *imgproc.Gray) *Result {
	t.Helper()
	bw, _ := Binarize(img, DefaultConfig())
	res, err := DetectBinaryCtx(context.Background(), bw, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDetectDashedVerticalLine(t *testing.T) {
	c := render.NewCanvas(200, 200)
	c.DashedLine(geom.Pt{X: 100, Y: 20}, geom.Pt{X: 100, Y: 180}, 1, 4, 4)
	res := detect(t, c.Gray())
	if len(res.V) != 1 {
		t.Fatalf("vertical contours = %d, want 1", len(res.V))
	}
	v := res.V[0]
	if v.Seg.X < 98 || v.Seg.X > 102 {
		t.Errorf("contour at x=%d, want ~100", v.Seg.X)
	}
	if v.Seg.Len() < 130 {
		t.Errorf("dashes not bridged: len=%d", v.Seg.Len())
	}
	if !Dashed(v.Density) {
		t.Errorf("dashed line density %v not recognised as dashed", v.Density)
	}
}

func TestDetectSolidVsDashedDensity(t *testing.T) {
	c := render.NewCanvas(200, 200)
	c.Line(geom.Pt{X: 50, Y: 20}, geom.Pt{X: 50, Y: 180}, 2)
	c.DashedLine(geom.Pt{X: 150, Y: 20}, geom.Pt{X: 150, Y: 180}, 1, 4, 4)
	res := detect(t, c.Gray())
	if len(res.V) != 2 {
		t.Fatalf("vertical contours = %d, want 2", len(res.V))
	}
	var solid, dashed *VContour
	for i := range res.V {
		if res.V[i].Seg.X < 100 {
			solid = &res.V[i]
		} else {
			dashed = &res.V[i]
		}
	}
	if solid == nil || dashed == nil {
		t.Fatal("contours not found at expected columns")
	}
	if Dashed(solid.Density) {
		t.Errorf("solid density %v classified dashed", solid.Density)
	}
	if !Dashed(dashed.Density) {
		t.Errorf("dashed density %v classified solid", dashed.Density)
	}
}

func TestDetectHorizontalContours(t *testing.T) {
	c := render.NewCanvas(300, 100)
	c.Line(geom.Pt{X: 20, Y: 30}, geom.Pt{X: 280, Y: 30}, 3)             // plateau
	c.DashedLine(geom.Pt{X: 50, Y: 60}, geom.Pt{X: 150, Y: 60}, 1, 4, 4) // threshold
	res := detect(t, c.Gray())
	if len(res.H) != 2 {
		t.Fatalf("horizontal contours = %d, want 2", len(res.H))
	}
	for _, h := range res.H {
		switch {
		case h.Seg.Y >= 28 && h.Seg.Y <= 32:
			if Dashed(h.Density) {
				t.Error("plateau classified dashed")
			}
		case h.Seg.Y >= 58 && h.Seg.Y <= 62:
			if !Dashed(h.Density) {
				t.Error("threshold line classified solid")
			}
		default:
			t.Errorf("unexpected contour at y=%d", h.Seg.Y)
		}
	}
}

func TestDetectFiltersTextAndDiagonals(t *testing.T) {
	c := render.NewCanvas(300, 200)
	c.Text(20, 20, "t_{D(on)} 90% V_{INA}", 2)
	c.Line(geom.Pt{X: 50, Y: 180}, geom.Pt{X: 200, Y: 60}, 3) // ramp-like diagonal
	res := detect(t, c.Gray())
	if len(res.V) != 0 {
		t.Errorf("text/diagonal produced %d vertical contours", len(res.V))
	}
	// Text rows can survive as short spurious horizontal fragments — the
	// SEI module filters them semantically. LAD must at least keep them
	// short so they can never masquerade as full arrows or threshold lines.
	for _, h := range res.H {
		if h.Seg.Len() >= 45 {
			t.Errorf("text produced long horizontal contour %v", h.Seg)
		}
	}
}

func TestDetectArrowShaft(t *testing.T) {
	c := render.NewCanvas(300, 60)
	c.HArrow(30, 40, 260, 2)
	res := detect(t, c.Gray())
	if len(res.H) != 1 {
		t.Fatalf("arrow produced %d horizontal contours, want 1", len(res.H))
	}
	h := res.H[0]
	if h.Seg.X0 > 45 || h.Seg.X1 < 255 {
		t.Errorf("arrow shaft span [%d,%d] too short", h.Seg.X0, h.Seg.X1)
	}
	if len(res.V) != 0 {
		t.Error("arrow heads produced vertical contours")
	}
}

func TestDetectStepEdgeAppearsVertical(t *testing.T) {
	// A solid step edge is genuinely a vertical contour — the paper's
	// Example 3 confusion. LAD must report it (SEI disambiguates later).
	c := render.NewCanvas(100, 200)
	c.Line(geom.Pt{X: 50, Y: 40}, geom.Pt{X: 50, Y: 160}, 3)
	res := detect(t, c.Gray())
	if len(res.V) != 1 {
		t.Fatalf("step edge not detected as vertical contour")
	}
	if Dashed(res.V[0].Density) {
		t.Error("solid step edge density should not be dashed")
	}
}

func TestDetectOnGeneratedDiagram(t *testing.T) {
	g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(3)))
	for i := 0; i < 5; i++ {
		s, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		res := detect(t, s.Image)
		// Every ground-truth vline must be matched by some vertical
		// contour within 3 px of its column covering most of its span.
		for _, gt := range s.VLines {
			found := false
			for _, v := range res.V {
				if geom.Abs(v.Seg.X-gt.X) <= 3 &&
					v.Seg.Y0 <= gt.Y0+12 && v.Seg.Y1 >= gt.Y1-12 {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("sample %d (%s): ground-truth vline x=%d not detected", i, s.Name, gt.X)
			}
		}
		// Every ground-truth threshold hline must be matched by a dashed
		// horizontal contour.
		for _, gt := range s.HLines {
			found := false
			for _, h := range res.H {
				if geom.Abs(h.Seg.Y-gt.Y) <= 3 && h.Seg.X0 <= gt.X0+12 && h.Seg.X1 >= gt.X1-12 {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("sample %d (%s): ground-truth hline y=%d not detected", i, s.Name, gt.Y)
			}
		}
	}
}

func TestDetectBinaryDirect(t *testing.T) {
	c := render.NewCanvas(100, 100)
	c.Line(geom.Pt{X: 50, Y: 10}, geom.Pt{X: 50, Y: 90}, 1)
	res, err := DetectBinaryCtx(context.Background(), c.Ink(), DefaultConfig())
	if err != nil || len(res.V) != 1 || res.BW == nil {
		t.Errorf("DetectBinaryCtx failed: %v", err)
	}
}

func TestDetectEmptyImage(t *testing.T) {
	c := render.NewCanvas(50, 50)
	res := detect(t, c.Gray())
	if len(res.V) != 0 || len(res.H) != 0 {
		t.Error("empty image produced contours")
	}
}

func TestDensityDegenerate(t *testing.T) {
	if vDensity(render.NewCanvas(5, 5).Ink(), geom.VSeg{X: 2, Y0: 3, Y1: 2}) != 0 {
		t.Error("degenerate segment density")
	}
	if hDensity(render.NewCanvas(5, 5).Ink(), geom.HSeg{Y: 2, X0: 3, X1: 2}) != 0 {
		t.Error("degenerate segment density")
	}
}
