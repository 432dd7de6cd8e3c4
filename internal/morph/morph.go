// Package morph implements the binary mathematical-morphology operations the
// LAD module relies on: erosion, dilation, opening and closing with
// rectangular structuring elements, specialised fast paths for line-shaped
// elements, and contour (run) extraction.
//
// The paper's LAD module "applies vertical contour detection" that
// (1) strengthens vertical structures (turning dashed vertical lines into
// solid lines), (2) filters out all non-vertical elements, and (3) collects
// the surviving vertical contours. In morphology terms that is a closing with
// a vertical line element followed by an opening with a (longer) vertical
// line element; this package provides those building blocks.
//
// All kernels run word-parallel on the bit-packed imgproc.Binary: a line
// erosion/dilation of length n is a logarithmic sequence of shifted word
// ANDs/ORs (the window smear doubles its coverage each pass), so the cost is
// O(W·H/64 · log n) word operations instead of O(W·H) per-pixel probes.
package morph

import (
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
)

// SE is a flat rectangular structuring element, centred. W and H must be
// >= 1. Even-sized extents are biased toward the top-left: an element of
// width 2 covers offsets {0, +1} during erosion and the mirrored {-1, 0}
// during dilation-equivalent coverage, so odd sizes are preferred.
type SE struct {
	W, H int
}

// HLine returns a horizontal line structuring element of length n.
func HLine(n int) SE { return SE{W: n, H: 1} }

// VLine returns a vertical line structuring element of length n.
func VLine(n int) SE { return SE{W: 1, H: n} }

// Rect returns a w×h rectangular structuring element.
func Rect(w, h int) SE { return SE{W: w, H: h} }

// Dilate returns the dilation of b by se: a pixel is set in the result when
// any pixel under the (centred) element is set in b.
func Dilate(b *imgproc.Binary, se SE) *imgproc.Binary {
	return rectOp(b, se, false)
}

// Erode returns the erosion of b by se: a pixel is set in the result only
// when every pixel under the (centred) element is set in b. Pixels outside
// the image are treated as clear, so erosion shrinks structures touching the
// border.
func Erode(b *imgproc.Binary, se SE) *imgproc.Binary {
	return rectOp(b, se, true)
}

// rectOp is the separable rectangle reduction: horizontal then vertical
// line windows, OR for dilation (and=false) and AND for erosion. Line
// elements skip the unit-length direction — a line op with n <= 1 is a
// full-image copy.
func rectOp(b *imgproc.Binary, se SE, and bool) *imgproc.Binary {
	if se.H <= 1 {
		return hLineOp(b, se.W, and) // W <= 1 copies, preserving ownership
	}
	if se.W <= 1 {
		return vLineOp(b, se.H, and)
	}
	tmp := hLineOp(b, se.W, and)
	res := vLineOp(tmp, se.H, and)
	imgproc.PutBinary(tmp)
	return res
}

// Open returns the opening of b by se (erosion then dilation). Opening with a
// vertical line element keeps only structures at least as tall as the
// element.
func Open(b *imgproc.Binary, se SE) *imgproc.Binary {
	tmp := Erode(b, se)
	res := Dilate(tmp, se)
	imgproc.PutBinary(tmp)
	return res
}

// Close returns the closing of b by se (dilation then erosion). Closing with
// a vertical line element bridges vertical gaps shorter than the element —
// this is what turns dashed annotation lines into solid ones.
func Close(b *imgproc.Binary, se SE) *imgproc.Binary {
	tmp := Dilate(b, se)
	res := Erode(tmp, se)
	imgproc.PutBinary(tmp)
	return res
}

// hLineOp applies the centred length-n horizontal window reduction in a
// single pass over the image. The centred window [x-left, x+right] is the
// forward window [x, x+n-1] evaluated at x-left, so each row is smeared
// forward in a row buffer with logarithmic in-register shift-combines
// (coverage doubles each pass) and then stored through one final shift — one
// load and one store per image word, no intermediate images. The buffer is
// padded with pw leading zero words so the smear also produces the window
// values at negative positions that the shift reads back for pixels near the
// left border. The reduction is OR for dilation (and=false) and AND for
// erosion (and=true); bits beyond the row borders are clear, which gives
// both reference border semantics (OR ignores clipped pixels, AND treats
// them as misses).
func hLineOp(b *imgproc.Binary, n int, and bool) *imgproc.Binary {
	if n <= 1 {
		return imgproc.GetCopy(b)
	}
	left := (n - 1) / 2
	res := imgproc.GetBinary(b.W, b.H)
	stride := b.Stride
	tail := uint(b.W) & 63
	tailMask := ^uint64(0)
	if tail != 0 {
		tailMask = uint64(1)<<tail - 1
	}
	pw := left>>6 + 1 // leading pad words covering positions [-64·pw, 0)
	s := pw*64 - left // dst bit x reads padded smear bit x+s, s >= 1
	ws, bs := s>>6, uint(s)&63
	plen := stride + pw + 1 // one trailing zero word for uniform word-pair reads
	// The padded row, taken as one scratch image a word wide so it
	// recycles with the full-frame images.
	scratch := imgproc.GetBinary(64, plen)
	defer imgproc.PutBinary(scratch)
	buf := scratch.Words
	for y := 0; y < b.H; y++ {
		for i := 0; i < pw; i++ {
			buf[i] = 0
		}
		copy(buf[pw:], b.Words[y*stride:(y+1)*stride])
		buf[plen-1] = 0
		// The trailing pad word stays zero through the smear: positions
		// at and past the row width reduce over virtual clear pixels
		// only. Shifts by 64 are defined as 0 in Go, so word-aligned
		// offsets need no special path anywhere below.
		rowSmearFwd(buf[:plen-1], n-1, and)
		drow := res.Words[y*stride : (y+1)*stride]
		for j := range drow {
			drow[j] = buf[j+ws]>>bs | buf[j+ws+1]<<(64-bs)
		}
		// The shift can expose smear values in the padding positions;
		// mask to keep the padding-bits-zero invariant.
		drow[stride-1] &= tailMask
	}
	return res
}

// rowSmearFwd reduces each pixel of the packed row over the window
// [x, x+dist], doubling coverage each pass. Pixel x+1 is the next-higher
// bit, so looking forward means combining down-shifted copies.
func rowSmearFwd(row []uint64, dist int, and bool) {
	for cov := 1; cov <= dist; {
		step := cov
		if cov+step > dist+1 {
			step = dist + 1 - cov
		}
		rowShiftDownCombine(row, step, and)
		cov += step
	}
}

// rowShiftDownCombine folds row OP (row >> k bits, carrying across words)
// into row in place, iterating low-to-high.
func rowShiftDownCombine(row []uint64, k int, and bool) {
	ws, bs := k>>6, uint(k)&63
	n := len(row)
	if ws == 0 && n > 0 {
		if and {
			for j := 0; j < n-1; j++ {
				row[j] &= row[j]>>bs | row[j+1]<<(64-bs)
			}
			row[n-1] &= row[n-1] >> bs
		} else {
			for j := 0; j < n-1; j++ {
				row[j] |= row[j]>>bs | row[j+1]<<(64-bs)
			}
			row[n-1] |= row[n-1] >> bs
		}
		return
	}
	hi := max(n-ws-1, 0)
	if and {
		for j := 0; j < hi; j++ {
			row[j] &= row[j+ws]>>bs | row[j+ws+1]<<(64-bs)
		}
		if ws < n {
			row[n-ws-1] &= row[n-1] >> bs
		}
		for j := max(n-ws, 0); j < n; j++ {
			row[j] = 0
		}
	} else {
		for j := 0; j < hi; j++ {
			row[j] |= row[j+ws]>>bs | row[j+ws+1]<<(64-bs)
		}
		if ws < n {
			row[n-ws-1] |= row[n-1] >> bs
		}
	}
}

// vLineOp applies the centred length-n vertical window reduction using the
// van Herk/Gil-Werman sliding-window algorithm per word-column: each padded
// column is split into blocks of n rows, a backward (suffix) and forward
// (prefix) running reduction is computed per block, and every output row is
// then the combine of one suffix and one prefix entry — three passes per
// column word regardless of n, versus O(log n) full-image passes for the
// shift-smear formulation. Virtual rows beyond the image are clear, giving
// the same border semantics as the horizontal kernels.
func vLineOp(b *imgproc.Binary, n int, and bool) *imgproc.Binary {
	if n <= 1 {
		return imgproc.GetCopy(b)
	}
	res := imgproc.GetBinary(b.W, b.H)
	h, stride := b.H, b.Stride
	up := (n - 1) / 2 // window [y-up, y+down]
	pn := h + n - 1   // padded column: index p = y+up, y in [-up, h-1+(n-1-up)]
	nb := (pn + n - 1) / n
	plen := nb * n
	// The padded column and its suffix and prefix reductions, taken as one
	// scratch image a word wide so they recycle with the full-frame images.
	scratch := imgproc.GetBinary(64, 3*plen)
	defer imgproc.PutBinary(scratch)
	col, suf, pre := scratch.Words[:plen], scratch.Words[plen:2*plen], scratch.Words[2*plen:]
	for j := 0; j < stride; j++ {
		for i := 0; i < up; i++ {
			col[i] = 0
		}
		for i := up + h; i < plen; i++ {
			col[i] = 0
		}
		for y := 0; y < h; y++ {
			col[up+y] = b.Words[y*stride+j]
		}
		for blk := 0; blk < plen; blk += n {
			end := blk + n - 1
			acc := col[end]
			suf[end] = acc
			if and {
				for i := end - 1; i >= blk; i-- {
					acc &= col[i]
					suf[i] = acc
				}
				acc = col[blk]
				pre[blk] = acc
				for i := blk + 1; i <= end; i++ {
					acc &= col[i]
					pre[i] = acc
				}
			} else {
				for i := end - 1; i >= blk; i-- {
					acc |= col[i]
					suf[i] = acc
				}
				acc = col[blk]
				pre[blk] = acc
				for i := blk + 1; i <= end; i++ {
					acc |= col[i]
					pre[i] = acc
				}
			}
		}
		// Window of y in padded coords is [y, y+n-1]: exactly n wide, so it
		// spans one block (suffix == prefix == window) or two adjacent ones
		// (suffix tail + prefix head partition it exactly).
		if and {
			for y := 0; y < h; y++ {
				res.Words[y*stride+j] = suf[y] & pre[y+n-1]
			}
		} else {
			for y := 0; y < h; y++ {
				res.Words[y*stride+j] = suf[y] | pre[y+n-1]
			}
		}
	}
	return res
}

// VerticalContours extracts vertical structures from b: it first closes with
// a vertical line of length bridge (joining dash gaps), then opens with a
// vertical line of length minLen (removing everything shorter), and finally
// collects each surviving connected component as a vertical segment at the
// component's centre column. Components wider than maxThick are not
// line-shaped (text blobs, filled areas) and are dropped; maxThick <= 0
// disables the filter.
func VerticalContours(b *imgproc.Binary, bridge, minLen, maxThick int) []geom.VSeg {
	work := b
	if bridge > 1 {
		work = Close(b, VLine(bridge))
	}
	opened := Open(work, VLine(minLen))
	if work != b {
		imgproc.PutBinary(work)
	}
	regs := imgproc.Regions(opened, minLen)
	imgproc.PutBinary(opened)
	segs := make([]geom.VSeg, 0, len(regs))
	for _, c := range regs {
		if maxThick > 0 && c.Box.W() > maxThick {
			continue
		}
		segs = append(segs, geom.VSeg{
			X:  c.Box.CenterX(),
			Y0: c.Box.Y0,
			Y1: c.Box.Y1,
		})
	}
	return segs
}

// HorizontalContours is the horizontal counterpart of VerticalContours;
// components taller than maxThick are dropped.
func HorizontalContours(b *imgproc.Binary, bridge, minLen, maxThick int) []geom.HSeg {
	work := b
	if bridge > 1 {
		work = Close(b, HLine(bridge))
	}
	opened := Open(work, HLine(minLen))
	if work != b {
		imgproc.PutBinary(work)
	}
	regs := imgproc.Regions(opened, minLen)
	imgproc.PutBinary(opened)
	segs := make([]geom.HSeg, 0, len(regs))
	for _, c := range regs {
		if maxThick > 0 && c.Box.H() > maxThick {
			continue
		}
		segs = append(segs, geom.HSeg{
			Y:  c.Box.CenterY(),
			X0: c.Box.X0,
			X1: c.Box.X1,
		})
	}
	return segs
}
