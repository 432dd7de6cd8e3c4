package imgproc

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"runtime"
	"testing"
)

// rawPNG writes a w×h PNG of 8-bit channels by hand, for the layouts
// image/png never writes: gray+alpha (colorType 4) and Adam7 interlacing.
// px returns the channel bytes of pixel (x, y); every row is unfiltered.
func rawPNG(t testing.TB, w, h int, colorType byte, interlaced bool, px func(x, y int) []byte) []byte {
	t.Helper()
	// Each pass is x offset, y offset, x step, y step; one pass covering
	// every pixel when not interlaced.
	passes := [][4]int{{0, 0, 1, 1}}
	var interlace byte
	if interlaced {
		passes = [][4]int{{0, 0, 8, 8}, {4, 0, 8, 8}, {0, 4, 4, 8}, {2, 0, 4, 4}, {0, 2, 2, 4}, {1, 0, 2, 2}, {0, 1, 1, 2}}
		interlace = 1
	}
	var raw bytes.Buffer
	for _, p := range passes {
		if p[0] >= w {
			continue // an empty pass has no rows at all
		}
		for y := p[1]; y < h; y += p[3] {
			raw.WriteByte(0)
			for x := p[0]; x < w; x += p[2] {
				raw.Write(px(x, y))
			}
		}
	}
	var idat bytes.Buffer
	zw := zlib.NewWriter(&idat)
	if _, err := zw.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.WriteString("\x89PNG\r\n\x1a\n")
	chunk := func(typ string, data []byte) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(data)))
		out.Write(n[:])
		body := append([]byte(typ), data...)
		out.Write(body)
		binary.BigEndian.PutUint32(n[:], crc32.ChecksumIEEE(body))
		out.Write(n[:])
	}
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:], uint32(w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(h))
	ihdr[8], ihdr[9], ihdr[12] = 8, colorType, interlace
	chunk("IHDR", ihdr)
	chunk("IDAT", idat.Bytes())
	chunk("IEND", nil)
	return out.Bytes()
}

// encodePNG is png.Encode into a byte slice.
func encodePNG(t testing.TB, img image.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeSeeds returns one small PNG per layout DecodePNG meets: 8-bit gray
// (the layout it keeps), 16-bit gray, paletted, opaque and translucent
// truecolor, gray+alpha, interlaced gray and a picture one pixel wide.
func decodeSeeds(t testing.TB) [][]byte {
	const w, h = 37, 23
	level := func(x, y int) uint8 { return uint8(x*7 + y*13) }
	gray := image.NewGray(image.Rect(0, 0, w, h))
	gray16 := image.NewGray16(image.Rect(0, 0, w, h))
	pal := image.NewPaletted(image.Rect(0, 0, w, h), color.Palette{color.Black, color.White, color.RGBA{200, 40, 90, 255}})
	rgba := image.NewRGBA(image.Rect(0, 0, w, h))
	nrgba := image.NewNRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := level(x, y)
			gray.SetGray(x, y, color.Gray{Y: v})
			gray16.SetGray16(x, y, color.Gray16{Y: uint16(v)<<8 | uint16(x)})
			pal.SetColorIndex(x, y, v%3)
			rgba.SetRGBA(x, y, color.RGBA{v, 255 - v, v / 2, 255})
			nrgba.SetNRGBA(x, y, color.NRGBA{v, 255 - v, v / 2, uint8(x * 6)})
		}
	}
	thin := image.NewGray(image.Rect(0, 0, 1, 17))
	for y := 0; y < 17; y++ {
		thin.SetGray(0, y, color.Gray{Y: uint8(y * 15)})
	}
	return [][]byte{
		encodePNG(t, gray),
		encodePNG(t, gray16),
		encodePNG(t, pal),
		encodePNG(t, rgba),
		encodePNG(t, nrgba),
		rawPNG(t, w, h, 4, false, func(x, y int) []byte { return []byte{level(x, y), uint8(y * 11)} }),
		rawPNG(t, w, h, 0, true, func(x, y int) []byte { return []byte{level(x, y)} }),
		encodePNG(t, thin),
	}
}

// TestDecodeSeedLayouts pins what the fuzz seeds exercise: each decodes to
// the image type its layout names (the seeds themselves run as
// FuzzDecodePNG's corpus).
func TestDecodeSeedLayouts(t *testing.T) {
	seeds := decodeSeeds(t)
	want := []string{"*image.Gray", "*image.Gray16", "*image.Paletted", "*image.RGBA", "*image.NRGBA", "*image.NRGBA", "*image.Gray", "*image.Gray"}
	for i, data := range seeds {
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if got := fmt.Sprintf("%T", img); got != want[i] {
			t.Errorf("seed %d decodes to %s, want %s", i, got, want[i])
		}
	}
}

// checkDecodeMatches asserts DecodePNG(data) is what it replaced,
// FromImage(png.Decode(data)): the same error text, or the same picture.
func checkDecodeMatches(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodePNG(bytes.NewReader(data))
	img, refErr := png.Decode(bytes.NewReader(data))
	if refErr != nil {
		if want := "imgproc: decode png: " + refErr.Error(); err == nil || err.Error() != want {
			t.Fatalf("DecodePNG error %v, want %q", err, want)
		}
		return
	}
	if err != nil {
		t.Fatalf("DecodePNG: %v, but png.Decode succeeded", err)
	}
	want := FromImage(img)
	if got.W != want.W || got.H != want.H || len(got.Pix) != got.W*got.H || !bytes.Equal(got.Pix, want.Pix) {
		t.Fatalf("DecodePNG gave %dx%d (%d pixels), FromImage %dx%d: pixels differ",
			got.W, got.H, len(got.Pix), want.W, want.H)
	}
}

// FuzzDecodePNG checks DecodePNG against the path it replaced, FromImage
// over png.Decode, for arbitrary bytes. Headers claiming more than a
// megapixel are skipped: both paths would allocate the whole picture.
func FuzzDecodePNG(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if cfg, err := png.DecodeConfig(bytes.NewReader(data)); err == nil && cfg.Width*cfg.Height > 1<<20 {
			return
		}
		checkDecodeMatches(t, data)
	})
}

// TestDecodePNGAllocBytes pins the decoder's garbage on a picture the size
// of the serving benchmark's: an 8-bit gray PNG decodes into the decoder's
// own buffer, which DecodePNG keeps, so it allocates W×H bytes once plus
// inflate's state, under 1.5 × W×H. A copy through FromImage doubled the
// pixels, to over 2 × W×H.
func TestDecodePNGAllocBytes(t *testing.T) {
	const w, h, runs = 900, 560, 10
	g := NewGray(w, h)
	for y := 40; y < h-40; y += 60 {
		for x := 30; x < w-30; x++ {
			g.Set(x, y, 0)
		}
	}
	var buf bytes.Buffer
	if err := g.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := DecodePNG(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("DecodePNG of a %dx%d 8-bit gray PNG: %.0f B allocated per decode (%.2f × W×H)", w, h, perOp, perOp/(w*h))
	if perOp >= 1.5*w*h {
		t.Errorf("DecodePNG allocated %.0f B per decode, want < 1.5 × W×H = %d", perOp, 3*w*h/2)
	}
}

// TestScratchPoolSizes checks GetBinary's geometry for sizes on both sides
// of the pool's class boundaries, with and without a recycled buffer, and
// that a buffer of any capacity given back serves only requests it holds.
func TestScratchPoolSizes(t *testing.T) {
	check := func(w, h int) {
		t.Helper()
		b := GetBinary(w, h)
		if b.W != w || b.H != h || b.Stride != (w+63)/64 || len(b.Words) != b.H*b.Stride {
			t.Fatalf("GetBinary(%d, %d) = %dx%d stride %d with %d words", w, h, b.W, b.H, b.Stride, len(b.Words))
		}
		for i := range b.Words {
			b.Words[i] = ^uint64(0)
		}
		PutBinary(b)
	}
	for _, sz := range [][2]int{{0, 5}, {5, 0}, {1, 1}, {64, 1}, {65, 1}, {64, 2}, {64, 3}, {128, 4}, {900, 560}, {1000, 600}} {
		check(sz[0], sz[1])
		check(sz[0], sz[1])
	}
	PutBinary(NewBinary(64, 100)) // pooled with the buffers of at least 64 words
	check(64, 100)
	check(64, 64)
	check(64, 65)
}
