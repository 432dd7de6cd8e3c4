package imgproc

import (
	"fmt"
	"testing"
)

// degenerateImages covers the pathological shapes the perception stack
// must survive: empty, single-pixel, single-row/column, and uniform
// all-white / all-black canvases.
func degenerateImages() map[string]*Gray {
	white := NewGray(32, 32)
	for i := range white.Pix {
		white.Pix[i] = 255
	}
	black := NewGray(32, 32) // NewGray zero-fills: all ink
	return map[string]*Gray{
		"0x0":       NewGray(0, 0),
		"1x1":       NewGray(1, 1),
		"row":       NewGray(64, 1),
		"col":       NewGray(1, 64),
		"all-white": white,
		"all-black": black,
	}
}

func TestThresholdDegenerate(t *testing.T) {
	for name, img := range degenerateImages() {
		t.Run(name, func(t *testing.T) {
			bw := Threshold(img, 128)
			if bw.W != img.W || bw.H != img.H {
				t.Errorf("binary %dx%d != input %dx%d", bw.W, bw.H, img.W, img.H)
			}
			// Count must be consistent with the pixel data, not garbage
			// from out-of-bounds word reads.
			want := 0
			for y := 0; y < img.H; y++ {
				for x := 0; x < img.W; x++ {
					if img.At(x, y) < 128 {
						want++
					}
				}
			}
			if got := bw.Count(); got != want {
				t.Errorf("Count() = %d, want %d", got, want)
			}
		})
	}
}

func TestOtsuThresholdDegenerate(t *testing.T) {
	for name, img := range degenerateImages() {
		t.Run(name, func(t *testing.T) {
			thr := OtsuThreshold(img) // must not panic or divide by zero
			_ = Threshold(img, thr)
		})
	}
}

func TestComponentsDegenerate(t *testing.T) {
	for name, img := range degenerateImages() {
		t.Run(name, func(t *testing.T) {
			bw := Threshold(img, 128)
			_ = Regions(bw, 1)
		})
	}
}

func TestScaleToDegenerate(t *testing.T) {
	src := NewGray(16, 16)
	for _, dims := range [][2]int{{0, 0}, {1, 1}, {1, 32}, {32, 1}} {
		got := src.ScaleTo(dims[0], dims[1])
		if got.W != dims[0] || got.H != dims[1] {
			t.Errorf("ScaleTo(%v) = %dx%d", fmt.Sprint(dims), got.W, got.H)
		}
	}
}
