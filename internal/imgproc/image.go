// Package imgproc provides the raster substrate of the TD-Magic pipeline:
// grayscale and binary image types, thresholding, connected-component
// labelling, row/column profiles, cropping and nearest-neighbour scaling.
//
// Timing-diagram pictures are dark ink on light paper. The pipeline works on
// the inverse binary image ("imgBW" in the paper): a pixel is set (true) when
// it carries ink. All algorithms in this package follow that convention.
package imgproc

import (
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math/bits"
	"sync"

	"tdmagic/internal/geom"
)

// Gray is a dense 8-bit grayscale image. 0 is black, 255 is white.
type Gray struct {
	W, H int
	Pix  []uint8 // row-major, len = W*H
}

// NewGray returns a Gray of the given size filled with white (255).
func NewGray(w, h int) *Gray {
	g := newGrayNoFill(w, h)
	for i := range g.Pix {
		g.Pix[i] = 255
	}
	return g
}

// newGrayNoFill returns a zero-valued Gray for callers that overwrite every
// pixel before the image escapes.
func newGrayNoFill(w, h int) *Gray {
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y); out-of-bounds reads return white.
func (g *Gray) At(x, y int) uint8 {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return 255
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (g *Gray) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Bounds returns the image rectangle in geom coordinates.
func (g *Gray) Bounds() geom.Rect { return geom.Rect{X0: 0, Y0: 0, X1: g.W - 1, Y1: g.H - 1} }

// Clone returns a deep copy of g.
func (g *Gray) Clone() *Gray {
	c := &Gray{W: g.W, H: g.H, Pix: make([]uint8, len(g.Pix))}
	copy(c.Pix, g.Pix)
	return c
}

// Crop returns a copy of the region r of g (clipped to the image).
func (g *Gray) Crop(r geom.Rect) *Gray {
	r = r.Clip(g.Bounds())
	if r.Empty() {
		return NewGray(0, 0)
	}
	out := newGrayNoFill(r.W(), r.H())
	for y := 0; y < out.H; y++ {
		src := (r.Y0+y)*g.W + r.X0
		copy(out.Pix[y*out.W:(y+1)*out.W], g.Pix[src:src+out.W])
	}
	return out
}

// ScaleTo returns g resampled to w×h using nearest-neighbour interpolation.
func (g *Gray) ScaleTo(w, h int) *Gray {
	if g.W == 0 || g.H == 0 || w == 0 || h == 0 {
		return NewGray(w, h)
	}
	out := newGrayNoFill(w, h)
	for y := 0; y < h; y++ {
		sy := y * g.H / h
		for x := 0; x < w; x++ {
			sx := x * g.W / w
			out.Pix[y*w+x] = g.Pix[sy*g.W+sx]
		}
	}
	return out
}

// ToImage converts g to a stdlib *image.Gray.
func (g *Gray) ToImage() *image.Gray {
	img := image.NewGray(image.Rect(0, 0, g.W, g.H))
	for y := 0; y < g.H; y++ {
		copy(img.Pix[y*img.Stride:y*img.Stride+g.W], g.Pix[y*g.W:(y+1)*g.W])
	}
	return img
}

// FromImage converts any stdlib image to a Gray using the luminance of each
// pixel.
func FromImage(img image.Image) *Gray {
	b := img.Bounds()
	g := newGrayNoFill(b.Dx(), b.Dy())
	switch src := img.(type) {
	case *image.Gray:
		// Already 8-bit gray (the common PNG case): copy rows directly
		// instead of round-tripping every pixel through the color
		// interfaces — same bytes, an order of magnitude cheaper.
		for y := 0; y < g.H; y++ {
			copy(g.Pix[y*g.W:(y+1)*g.W], src.Pix[src.PixOffset(b.Min.X, b.Min.Y+y):])
		}
	case *image.RGBA:
		// The same luma weights color.GrayModel uses (JFIF, 16-bit
		// fixed point), applied straight to the raw RGBA bytes.
		for y := 0; y < g.H; y++ {
			row := src.Pix[src.PixOffset(b.Min.X, b.Min.Y+y):]
			for x := 0; x < g.W; x++ {
				// Match color.GrayModel bit for bit: it works on 16-bit
				// channels (v | v<<8, i.e. v*0x101) and shifts the JFIF
				// weighted sum down by 24.
				r := uint32(row[x*4]) * 0x101
				gg := uint32(row[x*4+1]) * 0x101
				bb := uint32(row[x*4+2]) * 0x101
				g.Pix[y*g.W+x] = uint8((19595*r + 38470*gg + 7471*bb + 1<<15) >> 24)
			}
		}
	default:
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				c := color.GrayModel.Convert(img.At(b.Min.X+x, b.Min.Y+y)).(color.Gray)
				g.Pix[y*g.W+x] = c.Y
			}
		}
	}
	return g
}

// EncodePNG writes g as a PNG to w.
func (g *Gray) EncodePNG(w io.Writer) error { return png.Encode(w, g.ToImage()) }

// DecodePNG reads a PNG from r and converts it to a Gray. A gray PNG of 8
// bits or fewer decodes to an *image.Gray with zero origin and Stride == W,
// whose pixels are already a Gray's: DecodePNG keeps that buffer as the
// picture instead of copying it, and converts every other image through
// FromImage.
func DecodePNG(r io.Reader) (*Gray, error) {
	img, err := png.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("imgproc: decode png: %w", err)
	}
	if g, ok := img.(*image.Gray); ok && g.Rect.Min == (image.Point{}) && g.Stride == g.Rect.Dx() {
		w, h := g.Rect.Dx(), g.Rect.Dy()
		return &Gray{W: w, H: h, Pix: g.Pix[:w*h]}, nil
	}
	return FromImage(img), nil
}

// Binary is a dense 1-bit image, bit-packed into 64-pixel words. Set pixels
// (true, bit 1) carry ink.
//
// Rows are stored row-major with a per-row word stride: pixel (x, y) lives
// in bit x%64 of Words[y*Stride + x/64]. The padding bits of each row (bit
// positions >= W in the last word) are kept zero by every operation — the
// word kernels (Count, Or, profiles, morphology) rely on that invariant, so
// code writing Words directly must preserve it (Set does).
type Binary struct {
	W, H   int
	Stride int      // words per row, (W+63)/64
	Words  []uint64 // packed rows, len = H*Stride
}

// NewBinary returns an all-clear Binary of the given size.
func NewBinary(w, h int) *Binary {
	stride := (w + 63) / 64
	return &Binary{W: w, H: h, Stride: stride, Words: make([]uint64, h*stride)}
}

// binPools recycles full-frame scratch images: pool c holds Binaries whose
// Words capacity is at least 1<<c, so pictures of any size share the pools
// without a large request ever receiving a short buffer.
var binPools [bits.UintSize]sync.Pool

// GetBinary returns a w×h Binary from the scratch pool with undefined
// content: the caller must write every word, padding bits zero, before
// reading any. It is the one source of the pipeline's transient full-frame
// images (the binarised picture, the morphology smears, the working copies
// SED and OCR erase into). Whoever takes one gives it back with PutBinary
// once nothing references it; one never given back is ordinary garbage.
func GetBinary(w, h int) *Binary {
	stride := (w + 63) / 64
	n := h * stride
	if n <= 0 {
		return &Binary{W: w, H: h, Stride: stride}
	}
	c := bits.Len(uint(n - 1)) // the smallest c with 1<<c >= n
	if v := binPools[c].Get(); v != nil {
		b := v.(*Binary)
		b.W, b.H, b.Stride, b.Words = w, h, stride, b.Words[:n]
		return b
	}
	return &Binary{W: w, H: h, Stride: stride, Words: make([]uint64, n, 1<<c)}
}

// GetCopy returns a copy of b taken from the scratch pool.
func GetCopy(b *Binary) *Binary {
	c := GetBinary(b.W, b.H)
	copy(c.Words, b.Words)
	return c
}

// PutBinary gives b back to the scratch pool; nil is ignored. The caller
// must not touch b, or anything sharing its Words, afterwards.
func PutBinary(b *Binary) {
	if b == nil || cap(b.Words) == 0 {
		return
	}
	binPools[bits.Len(uint(cap(b.Words)))-1].Put(b)
}

// At returns the pixel at (x, y); out-of-bounds reads return false.
func (b *Binary) At(x, y int) bool {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return false
	}
	return b.Words[y*b.Stride+x>>6]>>(uint(x)&63)&1 != 0
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (b *Binary) Set(x, y int, v bool) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	if v {
		b.Words[y*b.Stride+x>>6] |= 1 << (uint(x) & 63)
	} else {
		b.Words[y*b.Stride+x>>6] &^= 1 << (uint(x) & 63)
	}
}

// Bounds returns the image rectangle in geom coordinates.
func (b *Binary) Bounds() geom.Rect { return geom.Rect{X0: 0, Y0: 0, X1: b.W - 1, Y1: b.H - 1} }

// Clone returns a deep copy of b.
func (b *Binary) Clone() *Binary {
	c := &Binary{W: b.W, H: b.H, Stride: b.Stride, Words: make([]uint64, len(b.Words))}
	copy(c.Words, b.Words)
	return c
}

// Fill sets every pixel of b to v.
func (b *Binary) Fill(v bool) {
	if !v {
		for i := range b.Words {
			b.Words[i] = 0
		}
		return
	}
	for i := range b.Words {
		b.Words[i] = ^uint64(0)
	}
	b.maskPadding()
}

// maskPadding zeroes the padding bits of every row, restoring the packing
// invariant after whole-word writes.
func (b *Binary) maskPadding() {
	tail := uint(b.W) & 63
	if tail == 0 || b.Stride == 0 {
		return
	}
	mask := uint64(1)<<tail - 1
	for y := 0; y < b.H; y++ {
		b.Words[y*b.Stride+b.Stride-1] &= mask
	}
}

// Count returns the number of set pixels.
func (b *Binary) Count() int {
	n := 0
	for _, w := range b.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// ClearRect clears every pixel inside r.
func (b *Binary) ClearRect(r geom.Rect) {
	r = r.Clip(b.Bounds())
	if r.Empty() {
		return
	}
	w0, w1 := r.X0>>6, r.X1>>6
	m0 := ^uint64(0) << (uint(r.X0) & 63)    // bits >= X0 within word w0
	m1 := ^uint64(0) >> (63 - uint(r.X1)&63) // bits <= X1 within word w1
	for y := r.Y0; y <= r.Y1; y++ {
		row := b.Words[y*b.Stride : (y+1)*b.Stride]
		if w0 == w1 {
			row[w0] &^= m0 & m1
			continue
		}
		row[w0] &^= m0
		for j := w0 + 1; j < w1; j++ {
			row[j] = 0
		}
		row[w1] &^= m1
	}
}

// ToGray converts b to a Gray image: set pixels become black (0), clear
// pixels white (255).
func (b *Binary) ToGray() *Gray {
	g := NewGray(b.W, b.H)
	for y := 0; y < b.H; y++ {
		row := b.Words[y*b.Stride : (y+1)*b.Stride]
		out := g.Pix[y*g.W : (y+1)*g.W]
		for wi, w := range row {
			for w != 0 {
				out[wi<<6+bits.TrailingZeros64(w)] = 0
				w &= w - 1
			}
		}
	}
	return g
}

// Threshold converts g to an inverse binary image: a pixel is set when its
// gray value is strictly below thr (i.e. the pixel carries ink). The packed
// words are written directly, one 64-pixel word at a time.
//
// The result comes from the scratch pool (GetBinary), every word written; a
// caller done with it may give it back with PutBinary.
func Threshold(g *Gray, thr uint8) *Binary {
	b := GetBinary(g.W, g.H)
	thresholdRows(g, b, thr)
	return b
}

// ThresholdW is Threshold; workers is ignored. tdbench/traced.go still
// calls it.
//
// Deprecated: the kernels run on the calling goroutine. Use Threshold.
func ThresholdW(g *Gray, thr uint8, workers int) *Binary { return Threshold(g, thr) }

// thresholdRows binarizes every row of g into b.
func thresholdRows(g *Gray, b *Binary, thr uint8) {
	const (
		ones uint64 = 0x0101010101010101
		hi   uint64 = 0x8080808080808080
		// mm gathers the per-byte MSBs of a masked word into bits 56..63:
		// every product term 2^(8i+7) · 2^(49-7j) lands on a distinct bit
		// position mod 64, so the multiply is carry-free and exact.
		mm uint64 = 0x0002040810204081
	)
	t7 := uint64(thr&0x7f) * ones
	// sel is all-ones when thr >= 128, folding the two MSB cases of the
	// compare into one branchless expression: pixels with MSB clear are
	// then automatically below thr, pixels with MSB set compare low bits.
	var sel uint64
	if thr >= 128 {
		sel = ^uint64(0)
	}
	nsel := ^sel
	t32 := uint32(thr)
	for y := 0; y < g.H; y++ {
		src := g.Pix[y*g.W : (y+1)*g.W]
		row := b.Words[y*b.Stride : (y+1)*b.Stride]
		x, wi := 0, 0
		for ; x+64 <= len(src); x, wi = x+64, wi+1 {
			var w uint64
			for k := 0; k < 64; k += 8 {
				// SWAR compare of 8 pixels at once: (v|0x80)-t7 has its
				// byte MSB clear exactly when (v&0x7f) < (thr&0x7f), and
				// the v MSBs resolve the 128 boundary.
				x8 := binary.LittleEndian.Uint64(src[x+k:])
				if x8 == ^uint64(0) {
					// All-white chunk: 255 is never below a uint8
					// threshold, so these 8 pixels contribute no ink.
					continue
				}
				loLT := ^((x8 | hi) - t7) & hi
				lt := (loLT & (x8 ^ nsel)) | (sel & hi & ^x8)
				w |= (lt * mm) >> 56 << uint(k)
			}
			row[wi] = w
		}
		if x < len(src) {
			// Ragged tail: branchless per-pixel pack,
			// (v - thr) >> 31 is 1 exactly when v < thr.
			var w uint64
			for i, v := range src[x:] {
				w |= uint64((uint32(v)-t32)>>31) << uint(i)
			}
			row[wi] = w
		}
	}
}

// histogram8 accumulates the gray histogram of pix into eight interleaved
// counter banks, one per byte lane of a 64-bit read. Document images are
// dominated by a single background value, so a single [256] array serializes
// on store-forwarding of one hot bucket; giving every lane its own bank
// keeps eight increment chains in flight. The banks are summed by the
// caller, so the combined counts are exactly the plain histogram.
func histogram8(pix []uint8, h *[8][256]uint32) {
	// Uniform all-white and all-black chunks — the overwhelming majority in
	// a document scan — are tallied in registers and folded into the banks
	// afterwards, skipping the memory increments entirely.
	var white, black uint32
	i, n := 0, len(pix)
	for ; i+8 <= n; i += 8 {
		x8 := binary.LittleEndian.Uint64(pix[i:])
		if x8 == ^uint64(0) {
			white++
			continue
		}
		if x8 == 0 {
			black++
			continue
		}
		h[0][uint8(x8)]++
		h[1][uint8(x8>>8)]++
		h[2][uint8(x8>>16)]++
		h[3][uint8(x8>>24)]++
		h[4][uint8(x8>>32)]++
		h[5][uint8(x8>>40)]++
		h[6][uint8(x8>>48)]++
		h[7][uint8(x8>>56)]++
	}
	for ; i < n; i++ {
		h[0][pix[i]]++
	}
	h[0][255] += 8 * white
	h[0][0] += 8 * black
}

// OtsuThreshold computes the Otsu threshold of g: the gray level that
// maximises the between-class variance of the ink/paper split. It returns a
// value suitable to pass to Threshold. The histogram banks live on the
// stack, so the call allocates nothing.
func OtsuThreshold(g *Gray) uint8 {
	total := len(g.Pix)
	if total == 0 {
		return 128
	}
	var banks [8][256]uint32
	histogram8(g.Pix, &banks)
	var hist [256]int
	for bank := range banks {
		for v := range hist {
			hist[v] += int(banks[bank][v])
		}
	}
	var sum float64
	for i, n := range hist {
		sum += float64(i) * float64(n)
	}
	var sumB, wB float64
	bestVar, best := -1.0, 128
	for t := 0; t < 256; t++ {
		wB += float64(hist[t])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(hist[t])
		mB := sumB / wB
		mF := (sum - sumB) / wF
		v := wB * wF * (mB - mF) * (mB - mF)
		if v > bestVar {
			bestVar = v
			best = t
		}
	}
	// Threshold() uses "strictly below", so split just above the class
	// boundary.
	return uint8(geom.Clamp(best+1, 1, 255))
}

// OtsuThresholdW is OtsuThreshold; workers is ignored. tdbench/traced.go
// still calls it.
//
// Deprecated: the kernels run on the calling goroutine. Use OtsuThreshold.
func OtsuThresholdW(g *Gray, workers int) uint8 { return OtsuThreshold(g) }
