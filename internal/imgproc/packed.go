package imgproc

import (
	"math/bits"

	"tdmagic/internal/geom"
)

// Word-level accessors of the packed Binary representation. The per-pixel
// At/Set API stays as the compatibility surface; the pipeline's inner loops
// (SED feature extraction, OCR glyph sampling, LAD density probes) go
// through these instead, trading one bounds-checked load per pixel for one
// popcount per 64 pixels.

// Row returns the packed words of row y (shared, not a copy). The caller
// must not disturb the padding-bit invariant.
func (b *Binary) Row(y int) []uint64 {
	return b.Words[y*b.Stride : (y+1)*b.Stride]
}

// clipRow clips a column range to the image and reports whether anything
// remains.
func (b *Binary) clipRow(y int, x0, x1 int) (int, int, bool) {
	if y < 0 || y >= b.H {
		return 0, 0, false
	}
	if x0 < 0 {
		x0 = 0
	}
	if x1 >= b.W {
		x1 = b.W - 1
	}
	if x0 > x1 {
		return 0, 0, false
	}
	return x0, x1, true
}

// RowCount returns the number of set pixels in row y between columns x0 and
// x1 inclusive (clipped to the image; out-of-range rows count zero).
func (b *Binary) RowCount(y, x0, x1 int) int {
	x0, x1, ok := b.clipRow(y, x0, x1)
	if !ok {
		return 0
	}
	row := b.Row(y)
	w0, w1 := x0>>6, x1>>6
	m0 := ^uint64(0) << (uint(x0) & 63)
	m1 := ^uint64(0) >> (63 - uint(x1)&63)
	if w0 == w1 {
		return bits.OnesCount64(row[w0] & m0 & m1)
	}
	n := bits.OnesCount64(row[w0]&m0) + bits.OnesCount64(row[w1]&m1)
	for j := w0 + 1; j < w1; j++ {
		n += bits.OnesCount64(row[j])
	}
	return n
}

// RowAny reports whether any pixel is set in row y between columns x0 and x1
// inclusive (clipped; out-of-range rows are empty).
func (b *Binary) RowAny(y, x0, x1 int) bool {
	x0, x1, ok := b.clipRow(y, x0, x1)
	if !ok {
		return false
	}
	row := b.Row(y)
	w0, w1 := x0>>6, x1>>6
	m0 := ^uint64(0) << (uint(x0) & 63)
	m1 := ^uint64(0) >> (63 - uint(x1)&63)
	if w0 == w1 {
		return row[w0]&m0&m1 != 0
	}
	if row[w0]&m0 != 0 || row[w1]&m1 != 0 {
		return true
	}
	for j := w0 + 1; j < w1; j++ {
		if row[j] != 0 {
			return true
		}
	}
	return false
}

// RowSpan returns the first and last set column of row y within [x0, x1]
// (clipped). ok is false when the range contains no ink.
func (b *Binary) RowSpan(y, x0, x1 int) (first, last int, ok bool) {
	x0, x1, valid := b.clipRow(y, x0, x1)
	if !valid {
		return 0, 0, false
	}
	row := b.Row(y)
	w0, w1 := x0>>6, x1>>6
	m0 := ^uint64(0) << (uint(x0) & 63)
	m1 := ^uint64(0) >> (63 - uint(x1)&63)
	first = -1
	for j := w0; j <= w1; j++ {
		w := row[j]
		if j == w0 {
			w &= m0
		}
		if j == w1 {
			w &= m1
		}
		if w != 0 {
			first = j<<6 + bits.TrailingZeros64(w)
			break
		}
	}
	if first < 0 {
		return 0, 0, false
	}
	for j := w1; j >= w0; j-- {
		w := row[j]
		if j == w0 {
			w &= m0
		}
		if j == w1 {
			w &= m1
		}
		if w != 0 {
			return first, j<<6 + 63 - bits.LeadingZeros64(w), true
		}
	}
	return 0, 0, false // unreachable: first >= 0 implies a non-empty word
}

// InkBox returns the bounding box of the set pixels inside r (clipped to
// the image). ok is false when r contains no ink.
func (b *Binary) InkBox(r geom.Rect) (box geom.Rect, ok bool) {
	r = r.Clip(b.Bounds())
	box = geom.Rect{X0: 0, Y0: 0, X1: -1, Y1: -1} // empty until a row has ink
	for y := r.Y0; y <= r.Y1; y++ {
		if first, last, inked := b.RowSpan(y, r.X0, r.X1); inked {
			box = box.Union(geom.Rect{X0: first, Y0: y, X1: last, Y1: y})
		}
	}
	return box, !box.Empty()
}

// CountRect returns the number of set pixels inside r (clipped to the
// image).
func (b *Binary) CountRect(r geom.Rect) int {
	r = r.Clip(b.Bounds())
	if r.Empty() {
		return 0
	}
	w0, w1 := r.X0>>6, r.X1>>6
	m0 := ^uint64(0) << (uint(r.X0) & 63)
	m1 := ^uint64(0) >> (63 - uint(r.X1)&63)
	n := 0
	if w0 == w1 {
		m := m0 & m1
		for y := r.Y0; y <= r.Y1; y++ {
			n += bits.OnesCount64(b.Words[y*b.Stride+w0] & m)
		}
		return n
	}
	for y := r.Y0; y <= r.Y1; y++ {
		row := b.Words[y*b.Stride : (y+1)*b.Stride]
		n += bits.OnesCount64(row[w0]&m0) + bits.OnesCount64(row[w1]&m1)
		for j := w0 + 1; j < w1; j++ {
			n += bits.OnesCount64(row[j])
		}
	}
	return n
}

// nextSet returns the first set column >= x in the packed row, or w (the
// row width) when none remains.
func nextSet(row []uint64, x, w int) int {
	if x >= w {
		return w
	}
	wi := x >> 6
	word := row[wi] & (^uint64(0) << (uint(x) & 63))
	for word == 0 {
		wi++
		if wi >= len(row) {
			return w
		}
		word = row[wi]
	}
	n := wi<<6 + bits.TrailingZeros64(word)
	if n > w {
		return w
	}
	return n
}

// nextClear returns the first clear column >= x in the packed row, or w when
// the row is solid to its end. Padding bits are zero, so the scan terminates
// at the row border without extra guards.
func nextClear(row []uint64, x, w int) int {
	if x >= w {
		return w
	}
	wi := x >> 6
	word := ^row[wi] & (^uint64(0) << (uint(x) & 63))
	for word == 0 {
		wi++
		if wi >= len(row) {
			return w
		}
		word = ^row[wi]
	}
	n := wi<<6 + bits.TrailingZeros64(word)
	if n > w {
		return w
	}
	return n
}
