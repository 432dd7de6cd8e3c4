package imgproc

import (
	"image"
	"image/color"
	"math/rand"
	"sort"
	"testing"

	"tdmagic/internal/geom"
)

// Differential tests of the run-based union-find component labelling, the
// banked Otsu histogram and the SWAR threshold against their obvious
// per-pixel references, on random and adversarial images.

// refRegions is the per-pixel BFS reference for 8-connected component
// labelling, ordered by regionLess.
func refRegions(s *shadowBin, minArea int) []Region {
	visited := make([]bool, len(s.pix))
	var regs []Region
	for start := range s.pix {
		if !s.pix[start] || visited[start] {
			continue
		}
		queue := []int{start}
		visited[start] = true
		box := geom.Rect{X0: s.w, Y0: s.h, X1: -1, Y1: -1}
		area := 0
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			x, y := i%s.w, i/s.w
			area++
			box = geom.Rect{X0: min(box.X0, x), Y0: min(box.Y0, y), X1: max(box.X1, x), Y1: max(box.Y1, y)}
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if nx < 0 || ny < 0 || nx >= s.w || ny >= s.h {
						continue
					}
					j := ny*s.w + nx
					if s.pix[j] && !visited[j] {
						visited[j] = true
						queue = append(queue, j)
					}
				}
			}
		}
		if area >= minArea {
			regs = append(regs, Region{Box: box, Area: area})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regionLess(regs[i], regs[j]) })
	return regs
}

// regionLess is a total order on regions that refines Regions' (Y0, X0)
// order, so two correct labellings compare equal where that order ties.
func regionLess(a, b Region) bool {
	ka := [5]int{a.Box.Y0, a.Box.X0, a.Box.Y1, a.Box.X1, a.Area}
	kb := [5]int{b.Box.Y0, b.Box.X0, b.Box.Y1, b.Box.X1, b.Area}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}

// checkRegions requires got to be in Regions' (Y0, X0) order and, with
// its ties broken by regionLess, to hold the reference's boxes and areas.
func checkRegions(t *testing.T, name string, got, want []Region) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d regions, want %d", name, len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1].Box, got[i].Box
		if a.Y0 > b.Y0 || (a.Y0 == b.Y0 && a.X0 > b.X0) {
			t.Fatalf("%s: region %d box=%+v sorts after region %d box=%+v", name, i-1, a, i, b)
		}
	}
	got = append([]Region(nil), got...)
	sort.SliceStable(got, func(i, j int) bool { return regionLess(got[i], got[j]) })
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: region %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

func TestDiffComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, w := range testWidths {
		for _, density := range []int{1, 2, 3} {
			b, s := randomPair(rng, w, 19, density)
			for _, minArea := range []int{1, 2, 8} {
				checkRegions(t, "Regions", Regions(b, minArea), refRegions(s, minArea))
			}
		}
	}
}

// adversarialImages are shapes that stress the word-packing edge cases: the
// degenerate 1-pixel-wide column, solid ink, blank paper, a checkerboard
// (maximal component count under 8-connectivity is 1: diagonals connect),
// and isolated single-pixel columns.
func adversarialImages() map[string]*Binary {
	out := map[string]*Binary{}

	thin := NewBinary(1, 40)
	for y := 0; y < 40; y += 3 {
		thin.Set(0, y, true)
		if y+1 < 40 {
			thin.Set(0, y+1, true)
		}
	}
	out["1px-wide"] = thin

	ink := NewBinary(129, 17)
	ink.Fill(true)
	out["all-ink"] = ink

	out["all-blank"] = NewBinary(130, 9)

	check := NewBinary(67, 12)
	for y := 0; y < 12; y++ {
		for x := (y & 1); x < 67; x += 2 {
			check.Set(x, y, true)
		}
	}
	out["checkerboard"] = check

	stripes := NewBinary(191, 8)
	for x := 0; x < 191; x += 3 {
		for y := 0; y < 8; y++ {
			stripes.Set(x, y, true)
		}
	}
	out["stripes"] = stripes

	return out
}

func toShadow(b *Binary) *shadowBin {
	s := newShadow(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			s.pix[y*s.w+x] = b.At(x, y)
		}
	}
	return s
}

func TestDiffComponentsAdversarial(t *testing.T) {
	for name, b := range adversarialImages() {
		s := toShadow(b)
		for _, minArea := range []int{1, 3} {
			checkRegions(t, name, Regions(b, minArea), refRegions(s, minArea))
		}
	}
}

// TestDiffFromImage pins the typed fast paths of FromImage to the generic
// color.GrayModel conversion, including non-zero bounds origins.
func TestDiffFromImage(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	bounds := image.Rect(3, 5, 3+61, 5+17)

	gray := image.NewGray(bounds)
	for i := range gray.Pix {
		gray.Pix[i] = uint8(rng.Intn(256))
	}
	rgba := image.NewRGBA(bounds)
	for i := range rgba.Pix {
		rgba.Pix[i] = uint8(rng.Intn(256))
	}
	for i := 3; i < len(rgba.Pix); i += 4 {
		rgba.Pix[i] = 255 // opaque, like any decoded picture
	}

	for name, img := range map[string]image.Image{"gray": gray, "rgba": rgba} {
		got := FromImage(img)
		b := img.Bounds()
		for y := 0; y < got.H; y++ {
			for x := 0; x < got.W; x++ {
				want := color.GrayModel.Convert(img.At(b.Min.X+x, b.Min.Y+y)).(color.Gray).Y
				if got.Pix[y*got.W+x] != want {
					t.Fatalf("%s: FromImage(%d,%d)=%d want %d", name, x, y, got.Pix[y*got.W+x], want)
				}
			}
		}
	}
}

// refOtsu is the textbook single-histogram Otsu scan, structured exactly like
// the original implementation so the banked version must match bit for bit.
func refOtsu(g *Gray) uint8 {
	total := len(g.Pix)
	if total == 0 {
		return 128
	}
	var hist [256]int
	for _, v := range g.Pix {
		hist[v]++
	}
	var sum float64
	for i, n := range hist {
		sum += float64(i) * float64(n)
	}
	var sumB, wB float64
	bestVar, best := -1.0, 128
	for tt := 0; tt < 256; tt++ {
		wB += float64(hist[tt])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(tt) * float64(hist[tt])
		mB := sumB / wB
		mF := (sum - sumB) / wF
		v := wB * wF * (mB - mF) * (mB - mF)
		if v > bestVar {
			bestVar = v
			best = tt
		}
	}
	return uint8(geom.Clamp(best+1, 1, 255))
}

func grayCases(rng *rand.Rand) map[string]*Gray {
	out := map[string]*Gray{}

	uni := NewGray(131, 41)
	for i := range uni.Pix {
		uni.Pix[i] = uint8(rng.Intn(256))
	}
	out["uniform-random"] = uni

	// Document-like bimodal: mostly paper with ink strokes.
	doc := NewGray(320, 200)
	for i := range doc.Pix {
		if rng.Intn(10) == 0 {
			doc.Pix[i] = uint8(rng.Intn(60))
		} else {
			doc.Pix[i] = uint8(200 + rng.Intn(56))
		}
	}
	out["document"] = doc

	// Pure black/white saturates the register-counted chunk paths.
	bw := NewGray(257, 77)
	for i := range bw.Pix {
		if rng.Intn(5) == 0 {
			bw.Pix[i] = 0
		} else {
			bw.Pix[i] = 255
		}
	}
	out["black-white"] = bw

	// Nearly uniform: one dissenting pixel, ragged length.
	near := NewGray(63, 5)
	for i := range near.Pix {
		near.Pix[i] = 180
	}
	near.Pix[len(near.Pix)-1] = 20
	out["near-uniform"] = near

	return out
}

func TestDiffOtsu(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for name, g := range grayCases(rng) {
		if got, want := OtsuThreshold(g), refOtsu(g); got != want {
			t.Fatalf("%s: OtsuThreshold=%d want %d", name, got, want)
		}
	}
}

// TestOtsuThresholdZeroAlloc pins OtsuThreshold's histogram banks to the
// stack: on a picture the size of the serving benchmark's it allocates
// nothing.
func TestOtsuThresholdZeroAlloc(t *testing.T) {
	g := NewGray(900, 560)
	for i := range g.Pix {
		g.Pix[i] = uint8(i * 7)
	}
	if allocs := testing.AllocsPerRun(20, func() { OtsuThreshold(g) }); allocs != 0 {
		t.Errorf("OtsuThreshold allocates %v times per call, want 0", allocs)
	}
}

func TestDiffThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for name, g := range grayCases(rng) {
		thr := OtsuThreshold(g)
		got := Threshold(g, thr)
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				want := g.Pix[y*g.W+x] < thr
				if got.At(x, y) != want {
					t.Fatalf("%s: Threshold(%d,%d)=%v want %v", name, x, y, got.At(x, y), want)
				}
			}
		}
	}
}
