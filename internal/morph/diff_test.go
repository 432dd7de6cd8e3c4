package morph

import (
	"math/rand"
	"testing"

	"tdmagic/internal/imgproc"
)

// Differential tests of the word-parallel kernels against the obvious
// per-pixel reference: for every pixel, probe the full centred window.

// refAt is the out-of-bounds-is-clear probe of the reference semantics.
func refAt(b *imgproc.Binary, x, y int) bool {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return false
	}
	return b.At(x, y)
}

// refDilate sets a pixel when any pixel under the centred element is set.
func refDilate(b *imgproc.Binary, se SE) *imgproc.Binary {
	left := (se.W - 1) / 2
	right := se.W - 1 - left
	up := (se.H - 1) / 2
	down := se.H - 1 - up
	out := imgproc.NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			hit := false
			for dy := -up; dy <= down && !hit; dy++ {
				for dx := -left; dx <= right; dx++ {
					if refAt(b, x+dx, y+dy) {
						hit = true
						break
					}
				}
			}
			out.Set(x, y, hit)
		}
	}
	return out
}

// refErode sets a pixel only when every pixel under the centred element is
// set; out-of-image pixels count as clear, so erosion fails near borders.
func refErode(b *imgproc.Binary, se SE) *imgproc.Binary {
	left := (se.W - 1) / 2
	right := se.W - 1 - left
	up := (se.H - 1) / 2
	down := se.H - 1 - up
	out := imgproc.NewBinary(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			all := true
			for dy := -up; dy <= down && all; dy++ {
				for dx := -left; dx <= right; dx++ {
					if !refAt(b, x+dx, y+dy) {
						all = false
						break
					}
				}
			}
			out.Set(x, y, all)
		}
	}
	return out
}

func diffOne(t *testing.T, name string, got, want *imgproc.Binary) {
	t.Helper()
	for y := 0; y < want.H; y++ {
		for x := 0; x < want.W; x++ {
			if got.At(x, y) != want.At(x, y) {
				t.Fatalf("%s: pixel (%d,%d)=%v want %v", name, x, y, got.At(x, y), want.At(x, y))
			}
		}
	}
}

func TestDiffDilateErode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// Widths straddling word boundaries; elements covering odd, even, line
	// and rectangular shapes (even sizes exercise the asymmetric split).
	widths := []int{9, 63, 64, 65, 130}
	elements := []SE{
		{1, 1}, {2, 1}, {1, 2}, {3, 3}, {2, 4},
		HLine(5), HLine(8), VLine(5), VLine(8), Rect(5, 3), Rect(7, 7),
	}
	for _, w := range widths {
		b := imgproc.NewBinary(w, 23)
		fillRand(b, rng, 3)
		for _, se := range elements {
			diffOne(t, "dilate", Dilate(b, se), refDilate(b, se))
			diffOne(t, "erode", Erode(b, se), refErode(b, se))
		}
	}
}

func TestDiffSparseAndDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, denom := range []int{1, 2, 20} { // solid, half, sparse
		b := imgproc.NewBinary(70, 40)
		fillRand(b, rng, denom)
		for _, se := range []SE{Rect(3, 3), HLine(9), VLine(9)} {
			diffOne(t, "dilate", Dilate(b, se), refDilate(b, se))
			diffOne(t, "erode", Erode(b, se), refErode(b, se))
		}
	}
}
