package imgproc

import (
	"math/rand"
	"testing"

	"tdmagic/internal/geom"
)

// Differential tests of the bit-packed Binary against a plain []bool shadow
// image: every word-parallel kernel must agree with the obvious per-pixel
// reference on randomized images, including widths that are not multiples
// of 64 (the padding-bit edge cases).

// shadowBin is the unpacked reference representation.
type shadowBin struct {
	w, h int
	pix  []bool
}

func newShadow(w, h int) *shadowBin {
	return &shadowBin{w: w, h: h, pix: make([]bool, w*h)}
}

func (s *shadowBin) at(x, y int) bool {
	if x < 0 || y < 0 || x >= s.w || y >= s.h {
		return false
	}
	return s.pix[y*s.w+x]
}

// randomPair builds a packed Binary and its shadow with identical random
// content. density is the probability numerator out of 4.
func randomPair(rng *rand.Rand, w, h, density int) (*Binary, *shadowBin) {
	b := NewBinary(w, h)
	s := newShadow(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := rng.Intn(4) < density
			b.Set(x, y, v)
			s.pix[y*s.w+x] = v
		}
	}
	return b, s
}

func checkAgainstShadow(t *testing.T, b *Binary, s *shadowBin) {
	t.Helper()
	for y := 0; y < s.h; y++ {
		for x := 0; x < s.w; x++ {
			if b.At(x, y) != s.at(x, y) {
				t.Fatalf("pixel (%d,%d): packed=%v shadow=%v", x, y, b.At(x, y), s.at(x, y))
			}
		}
	}
	// Padding bits must stay clear: Count relies on the invariant.
	n := 0
	for _, v := range s.pix {
		if v {
			n++
		}
	}
	if b.Count() != n {
		t.Fatalf("Count=%d shadow=%d (padding bits dirty?)", b.Count(), n)
	}
}

// testWidths exercises word boundaries: sub-word, exactly one word, one bit
// over, and multi-word with a ragged tail.
var testWidths = []int{1, 57, 63, 64, 65, 129}

func TestDiffSetAtCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range testWidths {
		b, s := randomPair(rng, w, 17, 2)
		checkAgainstShadow(t, b, s)
		// Random clears must agree too (Set false path).
		for i := 0; i < 50; i++ {
			x, y := rng.Intn(w), rng.Intn(17)
			b.Set(x, y, false)
			s.pix[y*s.w+x] = false
		}
		checkAgainstShadow(t, b, s)
	}
}

func TestDiffClearRect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range testWidths {
		for trial := 0; trial < 20; trial++ {
			b, s := randomPair(rng, w, 15, 3)
			r := geom.Rect{
				X0: rng.Intn(w+10) - 5, Y0: rng.Intn(20) - 5,
				X1: rng.Intn(w+10) - 5, Y1: rng.Intn(20) - 5,
			}
			b.ClearRect(r)
			for y := 0; y < s.h; y++ {
				for x := 0; x < s.w; x++ {
					if x >= r.X0 && x <= r.X1 && y >= r.Y0 && y <= r.Y1 {
						s.pix[y*s.w+x] = false
					}
				}
			}
			checkAgainstShadow(t, b, s)
		}
	}
}

func TestDiffThresholdToGray(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range testWidths {
		g := NewGray(w, 9)
		for i := range g.Pix {
			g.Pix[i] = uint8(rng.Intn(256))
		}
		// Thresholds on both sides of the 128 boundary exercise both MSB
		// branches of the SWAR compare, plus the degenerate extremes.
		for _, thr := range []uint8{0, 1, 100, 127, 128, 129, 200, 255} {
			bt := Threshold(g, thr)
			for y := 0; y < 9; y++ {
				for x := 0; x < w; x++ {
					want := g.Pix[y*w+x] < thr
					if bt.At(x, y) != want {
						t.Fatalf("w=%d thr=%d Threshold(%d,%d)=%v want %v", w, thr, x, y, bt.At(x, y), want)
					}
				}
			}
		}
		b := Threshold(g, 128)
		back := b.ToGray()
		for i := range back.Pix {
			want := uint8(255)
			if g.Pix[i] < 128 {
				want = 0
			}
			if back.Pix[i] != want {
				t.Fatalf("w=%d ToGray[%d]=%d want %d", w, i, back.Pix[i], want)
			}
		}
	}
}

func refHRuns(s *shadowBin, minLen int) []geom.HSeg {
	var runs []geom.HSeg
	for y := 0; y < s.h; y++ {
		x := 0
		for x < s.w {
			if !s.at(x, y) {
				x++
				continue
			}
			start := x
			for x < s.w && s.at(x, y) {
				x++
			}
			if x-start >= minLen {
				runs = append(runs, geom.HSeg{Y: y, X0: start, X1: x - 1})
			}
		}
	}
	return runs
}

// refVRuns is the per-pixel reference for VRuns, in column-major order.
func refVRuns(s *shadowBin, minLen int) []geom.VSeg {
	var runs []geom.VSeg
	for x := 0; x < s.w; x++ {
		y := 0
		for y < s.h {
			if !s.at(x, y) {
				y++
				continue
			}
			start := y
			for y < s.h && s.at(x, y) {
				y++
			}
			if y-start >= minLen {
				runs = append(runs, geom.VSeg{X: x, Y0: start, Y1: y - 1})
			}
		}
	}
	return runs
}

func TestDiffRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range testWidths {
		for _, minLen := range []int{1, 2, 4} {
			b, s := randomPair(rng, w, 19, 3)
			hr := HRuns(b, minLen)
			hrRef := refHRuns(s, minLen)
			if len(hr) != len(hrRef) {
				t.Fatalf("w=%d minLen=%d HRuns count %d want %d", w, minLen, len(hr), len(hrRef))
			}
			for i := range hr {
				if hr[i] != hrRef[i] {
					t.Fatalf("w=%d HRuns[%d]=%v want %v", w, i, hr[i], hrRef[i])
				}
			}
			vr := VRuns(b, minLen)
			vrRef := refVRuns(s, minLen)
			if len(vr) != len(vrRef) {
				t.Fatalf("w=%d minLen=%d VRuns count %d want %d", w, minLen, len(vr), len(vrRef))
			}
			for i := range vr {
				if vr[i] != vrRef[i] {
					t.Fatalf("w=%d VRuns[%d]=%v want %v", w, i, vr[i], vrRef[i])
				}
			}
		}
	}
}

func TestDiffRowAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, w := range testWidths {
		b, s := randomPair(rng, w, 9, 2)
		for trial := 0; trial < 200; trial++ {
			y := rng.Intn(13) - 2
			x0 := rng.Intn(w+8) - 4
			x1 := rng.Intn(w+8) - 4
			cnt, any := 0, false
			first, last := -1, -1
			for x := x0; x <= x1; x++ {
				if s.at(x, y) {
					cnt++
					any = true
					if first < 0 {
						first = x
					}
					last = x
				}
			}
			if got := b.RowCount(y, x0, x1); got != cnt {
				t.Fatalf("w=%d RowCount(%d,%d,%d)=%d want %d", w, y, x0, x1, got, cnt)
			}
			if got := b.RowAny(y, x0, x1); got != any {
				t.Fatalf("w=%d RowAny(%d,%d,%d)=%v want %v", w, y, x0, x1, got, any)
			}
			gf, gl, ok := b.RowSpan(y, x0, x1)
			if ok != any || (ok && (gf != first || gl != last)) {
				t.Fatalf("w=%d RowSpan(%d,%d,%d)=(%d,%d,%v) want (%d,%d,%v)",
					w, y, x0, x1, gf, gl, ok, first, last, any)
			}
		}
		for trial := 0; trial < 50; trial++ {
			r := geom.Rect{
				X0: rng.Intn(w+8) - 4, Y0: rng.Intn(13) - 2,
				X1: rng.Intn(w+8) - 4, Y1: rng.Intn(13) - 2,
			}
			want := 0
			ink := geom.Rect{X0: w, Y0: b.H, X1: -1, Y1: -1}
			for y := r.Y0; y <= r.Y1; y++ {
				for x := r.X0; x <= r.X1; x++ {
					if s.at(x, y) {
						want++
						ink = geom.Rect{X0: min(ink.X0, x), Y0: min(ink.Y0, y), X1: max(ink.X1, x), Y1: max(ink.Y1, y)}
					}
				}
			}
			if got := b.CountRect(r); got != want {
				t.Fatalf("w=%d CountRect(%+v)=%d want %d", w, r, got, want)
			}
			if got, ok := b.InkBox(r); ok != (want > 0) || (ok && got != ink) {
				t.Fatalf("w=%d InkBox(%+v)=(%+v,%v) want (%+v,%v)", w, r, got, ok, ink, want > 0)
			}
		}
	}
}

func TestDiffFill(t *testing.T) {
	for _, w := range testWidths {
		b := NewBinary(w, 5)
		b.Fill(true)
		if b.Count() != w*5 {
			t.Fatalf("w=%d Fill(true) count=%d want %d", w, b.Count(), w*5)
		}
		b.Fill(false)
		if b.Count() != 0 {
			t.Fatalf("w=%d Fill(false) count=%d", w, b.Count())
		}
	}
}
