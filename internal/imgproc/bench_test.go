package imgproc

import (
	"testing"

	"tdmagic/internal/geom"
)

// benchBinary builds a deterministic 900×540 test image shaped like a timing
// diagram: long horizontal plateau runs, dashed vertical lines and scattered
// glyph-sized blobs, at roughly the ink density of the generated pictures.
func benchBinary(w, h int) *Binary {
	b := NewBinary(w, h)
	// Plateaus: long horizontal runs every 60 rows.
	for y := 30; y < h; y += 60 {
		for x := 20; x < w-20; x++ {
			b.Set(x, y, true)
			b.Set(x, y+1, true)
		}
	}
	// Dashed vertical annotation lines (4 on / 4 off).
	for x := 100; x < w; x += 160 {
		for y := 0; y < h; y++ {
			if y%8 < 4 {
				b.Set(x, y, true)
			}
		}
	}
	// Glyph-ish blobs.
	s := uint64(12345)
	for i := 0; i < 400; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		x := int((s >> 33) % uint64(w-8))
		y := int((s >> 13) % uint64(h-10))
		for dy := 0; dy < 9; dy++ {
			for dx := 0; dx < 7; dx++ {
				if (dx+dy)%2 == 0 {
					b.Set(x+dx, y+dy, true)
				}
			}
		}
	}
	return b
}

// benchGray is benchBinary rendered to grayscale, for Threshold benchmarks.
func benchGray(w, h int) *Gray { return benchBinary(w, h).ToGray() }

// BenchmarkBinaryOps measures the dense word-level kernels of Binary on a
// diagram-shaped 900×540 image (widths deliberately not a multiple of 64).
func BenchmarkBinaryOps(b *testing.B) {
	const w, h = 900, 540
	img := benchBinary(w, h)
	gray := benchGray(w, h)
	b.Run("Count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = img.Count()
		}
	})
	b.Run("ClearRect", func(b *testing.B) {
		dst := img.Clone()
		r := geom.Rect{X0: 101, Y0: 50, X1: 797, Y1: 489}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.ClearRect(r)
		}
	})
	b.Run("Threshold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = Threshold(gray, 128)
		}
	})
	b.Run("Otsu", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = OtsuThreshold(gray)
		}
	})
	b.Run("HRuns", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = HRuns(img, 26)
		}
	})
	b.Run("VRuns", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = VRuns(img, 24)
		}
	})
	b.Run("Regions", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = Regions(img, 4)
		}
	})
}
