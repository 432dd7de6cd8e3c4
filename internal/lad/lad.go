// Package lad implements the paper's LAD (line-and-arrow detection) module:
// it binarises the input picture into the inverse binary image imgBW and
// applies morphological vertical/horizontal contour detection, which
// (1) strengthens dashed structures into solid lines, (2) filters out
// everything not line-shaped, and (3) collects the surviving contours with
// their coordinates.
//
// LAD is purely geometric; deciding which vertical contours are event
// annotation lines, which horizontal contours are threshold lines, and which
// are timing-constraint arrows requires the edge boxes from SED and is the
// job of the SEI module.
package lad

import (
	"context"
	"math/bits"

	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/morph"
)

// Config holds the morphology parameters.
type Config struct {
	// Threshold is the binarisation cut; 0 selects Otsu's method.
	Threshold uint8
	// VBridge / HBridge are the closing element lengths that join dash
	// gaps; VMinLen / HMinLen are the opening element lengths that remove
	// everything shorter.
	VBridge, VMinLen int
	HBridge, HMinLen int
	// MaxThick rejects contours thicker than this across their axis —
	// text blobs and filled regions are not lines.
	MaxThick int
	// Workers is ignored; tdbench/traced.go still sets it.
	//
	// Deprecated: the kernels run on the calling goroutine.
	Workers int
}

// DefaultConfig returns parameters tuned for the generated 900×540 pictures
// (dash pattern 4 on / 4 off).
func DefaultConfig() Config {
	return Config{
		VBridge: 9, VMinLen: 30,
		HBridge: 9, HMinLen: 25,
		MaxThick: 10,
	}
}

// VContour is a detected vertical structure.
type VContour struct {
	Seg geom.VSeg
	// Density is the ink fraction along the contour in the *raw* binary
	// image: ~1 for solid strokes, ~0.5 for dashed annotation lines.
	Density float64
}

// HContour is a detected horizontal structure.
type HContour struct {
	Seg geom.HSeg
	// Density is the raw ink fraction along the contour row.
	Density float64
}

// Result holds LAD's output.
type Result struct {
	BW *imgproc.Binary // the inverse binary image the contours came from
	V  []VContour
	H  []HContour
}

// Binarize converts img into the inverse binary image imgBW at
// cfg.Threshold, or at Otsu's threshold when that is 0, and returns the
// image and the threshold it used. The image comes from imgproc's scratch
// pool; a caller done with it may give it back with imgproc.PutBinary.
func Binarize(img *imgproc.Gray, cfg Config) (*imgproc.Binary, uint8) {
	thr := cfg.Threshold
	if thr == 0 {
		thr = imgproc.OtsuThreshold(img)
	}
	return imgproc.Threshold(img, thr), thr
}

// DetectBinaryCtx runs contour extraction on the inverse binary image bw.
// The context is checked between the morphology passes and along the
// per-contour density scans, so a pathological picture cannot run past
// its deadline by more than one pass.
func DetectBinaryCtx(ctx context.Context, bw *imgproc.Binary, cfg Config) (*Result, error) {
	res := &Result{BW: bw}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, seg := range morph.VerticalContours(bw, cfg.VBridge, cfg.VMinLen, cfg.MaxThick) {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		res.V = append(res.V, VContour{Seg: seg, Density: vDensity(bw, seg)})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, seg := range morph.HorizontalContours(bw, cfg.HBridge, cfg.HMinLen, cfg.MaxThick) {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		res.H = append(res.H, HContour{Seg: seg, Density: hDensity(bw, seg)})
	}
	return res, nil
}

// vDensity measures the raw ink fraction along a vertical segment, probing
// one column to each side to tolerate thick or slightly tilted strokes.
func vDensity(bw *imgproc.Binary, s geom.VSeg) float64 {
	if s.Len() <= 0 {
		return 0
	}
	hits := 0
	for y := s.Y0; y <= s.Y1; y++ {
		if bw.RowAny(y, s.X-1, s.X+1) {
			hits++
		}
	}
	return float64(hits) / float64(s.Len())
}

// hDensity measures the raw ink fraction along a horizontal segment. The
// three probed rows are OR-ed word-wise, so the column scan popcounts 64
// pixels at a time.
func hDensity(bw *imgproc.Binary, s geom.HSeg) float64 {
	if s.Len() <= 0 {
		return 0
	}
	x0, x1 := s.X0, s.X1
	if x0 < 0 {
		x0 = 0
	}
	if x1 >= bw.W {
		x1 = bw.W - 1
	}
	if x0 > x1 {
		return 0
	}
	w0, w1 := x0>>6, x1>>6
	m0 := ^uint64(0) << (uint(x0) & 63)
	m1 := ^uint64(0) >> (63 - uint(x1)&63)
	hits := 0
	for j := w0; j <= w1; j++ {
		var w uint64
		for dy := -1; dy <= 1; dy++ {
			if y := s.Y + dy; y >= 0 && y < bw.H {
				w |= bw.Row(y)[j]
			}
		}
		if j == w0 {
			w &= m0
		}
		if j == w1 {
			w &= m1
		}
		hits += bits.OnesCount64(w)
	}
	return float64(hits) / float64(s.Len())
}

// Dashed reports whether a contour density indicates a dashed stroke.
func Dashed(density float64) bool { return density < 0.85 }
