package lad

import (
	"testing"

	"tdmagic/internal/imgproc"
)

// TestDetectDegenerate feeds the line detector the pathological shapes
// that used to be able to reach it only after a corrupted decode: empty,
// single-pixel, single-row/column, and uniform canvases. Detection must
// return a well-formed (possibly empty) result, never panic.
func TestDetectDegenerate(t *testing.T) {
	white := imgproc.NewGray(48, 48)
	for i := range white.Pix {
		white.Pix[i] = 255
	}
	cases := map[string]*imgproc.Gray{
		"0x0":       imgproc.NewGray(0, 0),
		"1x1":       imgproc.NewGray(1, 1),
		"row":       imgproc.NewGray(96, 1),
		"col":       imgproc.NewGray(1, 96),
		"all-white": white,
		"all-black": imgproc.NewGray(48, 48),
	}
	for name, img := range cases {
		t.Run(name, func(t *testing.T) {
			res := detect(t, img)
			if res == nil || res.BW == nil {
				t.Fatal("nil result")
			}
			if res.BW.W != img.W || res.BW.H != img.H {
				t.Errorf("binary %dx%d != input %dx%d", res.BW.W, res.BW.H, img.W, img.H)
			}
			for _, v := range res.V {
				if v.Seg.Y1 < v.Seg.Y0 || v.Seg.X < 0 || v.Seg.X >= img.W {
					t.Errorf("malformed vertical contour %+v", v)
				}
			}
			for _, h := range res.H {
				if h.Seg.X1 < h.Seg.X0 || h.Seg.Y < 0 || h.Seg.Y >= img.H {
					t.Errorf("malformed horizontal contour %+v", h)
				}
			}
		})
	}
}
