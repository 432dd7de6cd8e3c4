package font

import (
	"reflect"
	"testing"

	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
)

func renderToBinary(w, h int, draw func(set SetFunc)) *imgproc.Binary {
	b := imgproc.NewBinary(w, h)
	draw(func(x, y int) { b.Set(x, y, true) })
	return b
}

func TestGlyphLookup(t *testing.T) {
	if _, ok := Glyph('A'); !ok {
		t.Error("'A' should be supported")
	}
	if _, ok := Glyph('µ'); !ok {
		t.Error("'µ' should map to 'u'")
	}
	g, ok := Glyph('日')
	if ok {
		t.Error("CJK should not be supported")
	}
	q, _ := Glyph('?')
	if g != q {
		t.Error("unsupported rune should fall back to '?'")
	}
}

func TestGlyphShapes(t *testing.T) {
	// Spot-check structural properties of a few glyphs rather than exact
	// bitmaps: 'I' is vertically symmetric, '-' occupies a single row,
	// '_' occupies the bottom row only.
	dash, _ := Glyph('-')
	for _, col := range dash {
		if col != 0 && col != 0x08 {
			t.Errorf("'-' column %02x not single middle row", col)
		}
	}
	under, _ := Glyph('_')
	for _, col := range under {
		if col != 0x40 {
			t.Errorf("'_' column %02x not bottom row", col)
		}
	}
	sp, _ := Glyph(' ')
	for _, col := range sp {
		if col != 0 {
			t.Error("space glyph has ink")
		}
	}
}

func TestAllGlyphsFitSevenRows(t *testing.T) {
	for ch := rune(32); ch <= 126; ch++ {
		g, _ := Glyph(ch)
		for i, col := range g {
			if col&0x80 != 0 {
				t.Errorf("glyph %q column %d uses bit 7", ch, i)
			}
		}
	}
}

func TestDrawGlyphScale1(t *testing.T) {
	b := renderToBinary(10, 10, func(set SetFunc) {
		adv := DrawGlyph(set, 0, 0, '|', 1)
		if adv != AdvanceW {
			t.Errorf("advance = %d", adv)
		}
	})
	// '|' is a full-height vertical bar in column 2.
	for y := 0; y < GlyphH; y++ {
		if !b.At(2, y) {
			t.Errorf("missing bar pixel at y=%d", y)
		}
	}
	if b.At(0, 0) || b.At(4, 0) {
		t.Error("stray pixels")
	}
}

func TestDrawGlyphScale2(t *testing.T) {
	b1 := renderToBinary(12, 16, func(set SetFunc) { DrawGlyph(set, 0, 0, 'T', 1) })
	b2 := renderToBinary(12, 16, func(set SetFunc) { DrawGlyph(set, 0, 0, 'T', 2) })
	if b2.Count() != 4*b1.Count() {
		t.Errorf("scale-2 ink %d != 4× scale-1 ink %d", b2.Count(), b1.Count())
	}
}

func TestDrawGlyphScaleClamped(t *testing.T) {
	b0 := renderToBinary(10, 10, func(set SetFunc) { DrawGlyph(set, 0, 0, 'A', 0) })
	b1 := renderToBinary(10, 10, func(set SetFunc) { DrawGlyph(set, 0, 0, 'A', 1) })
	for i := range b0.Words {
		if b0.Words[i] != b1.Words[i] {
			t.Fatal("scale 0 should clamp to 1")
		}
	}
}

func TestDrawString(t *testing.T) {
	var box geom.Rect
	b := renderToBinary(60, 12, func(set SetFunc) {
		box = DrawString(set, 2, 1, "AB", 1)
	})
	if b.Count() == 0 {
		t.Fatal("no ink")
	}
	want := geom.Rect{X0: 2, Y0: 1, X1: 2 + 2*AdvanceW - 1 - 1, Y1: 1 + GlyphH - 1}
	if box != want {
		t.Errorf("box = %v, want %v", box, want)
	}
	// Ink must stay inside the reported box.
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.At(x, y) && !box.Contains(geom.Rect{X0: x, Y0: y, X1: x, Y1: y}) {
				t.Errorf("ink outside box at (%d,%d)", x, y)
			}
		}
	}
}

func TestDrawStringEmpty(t *testing.T) {
	box := DrawString(func(x, y int) { t.Error("ink for empty string") }, 5, 5, "", 1)
	if !box.Empty() {
		t.Errorf("empty string box = %v", box)
	}
}

func TestStringWidth(t *testing.T) {
	if StringWidth("", 1) != 0 {
		t.Error("empty width")
	}
	if got := StringWidth("A", 1); got != GlyphW {
		t.Errorf("width(A) = %d, want %d", got, GlyphW)
	}
	if got := StringWidth("AB", 2); got != (2*AdvanceW-1)*2 {
		t.Errorf("width(AB,2) = %d", got)
	}
}

func TestParseRich(t *testing.T) {
	cases := []struct {
		in   string
		want []Span
	}{
		{"plain", []Span{{Text: "plain"}}},
		{"t_{D(on)}", []Span{{Text: "t"}, {Text: "D(on)", Sub: true}}},
		{"V_{INA}", []Span{{Text: "V"}, {Text: "INA", Sub: true}}},
		{"a_{b}c_{d}", []Span{{Text: "a"}, {Text: "b", Sub: true}, {Text: "c"}, {Text: "d", Sub: true}}},
		{"90%", []Span{{Text: "90%"}}},
		{`a\_b`, []Span{{Text: "a_b"}}},
		{"t_{unterminated", []Span{{Text: "t"}, {Text: "unterminated", Sub: true}}},
		{"_x", []Span{{Text: "_x"}}}, // bare underscore not followed by '{'
		{"", nil},
	}
	for _, c := range cases {
		got := ParseRich(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseRich(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestSubScale(t *testing.T) {
	if SubScale(3) != 2 || SubScale(1) != 1 || SubScale(6) != 4 {
		t.Error("SubScale wrong")
	}
}

func TestMeasureRichVsDraw(t *testing.T) {
	for _, s := range []string{"t_{D(on)}", "V_{INA}", "90%", "t_{s}", "6ns", "GND"} {
		for _, scale := range []int{1, 2, 3} {
			w, h := MeasureRich(s, scale)
			var box geom.Rect
			renderToBinary(400, 100, func(set SetFunc) {
				box = DrawRich(set, 0, 0, s, scale)
			})
			if box.W() > w || box.H() > h {
				t.Errorf("%q scale %d: box %dx%d exceeds measure %dx%d",
					s, scale, box.W(), box.H(), w, h)
			}
		}
	}
}

func TestDrawRichSubscriptBelowBaseline(t *testing.T) {
	// In "t_{s}", the subscript ink must start below the top of the base
	// glyph's midline.
	b := renderToBinary(60, 30, func(set SetFunc) {
		DrawRich(set, 0, 0, "t_{s}", 2)
	})
	// Base 't' at scale 2 occupies x in [0,9]; subscript starts after.
	subTop := 30
	for y := 0; y < b.H; y++ {
		for x := 12; x < b.W; x++ {
			if b.At(x, y) && y < subTop {
				subTop = y
			}
		}
	}
	if subTop < GlyphH*2*2/5 {
		t.Errorf("subscript top %d not shifted down", subTop)
	}
}

func TestDrawRichPlainEqualsDrawString(t *testing.T) {
	a := renderToBinary(100, 20, func(set SetFunc) { DrawString(set, 0, 0, "SCK", 2) })
	b := renderToBinary(100, 20, func(set SetFunc) { DrawRich(set, 0, 0, "SCK", 2) })
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			t.Fatal("DrawRich on plain text differs from DrawString")
		}
	}
}

func TestRichBoxContainsInk(t *testing.T) {
	for _, s := range []string{"t_{D(on)}", "V_{CC}", "50%"} {
		var box geom.Rect
		b := renderToBinary(300, 60, func(set SetFunc) {
			box = DrawRich(set, 3, 4, s, 2)
		})
		for y := 0; y < b.H; y++ {
			for x := 0; x < b.W; x++ {
				if b.At(x, y) && !box.Contains(geom.Rect{X0: x, Y0: y, X1: x, Y1: y}) {
					t.Errorf("%q: ink at (%d,%d) outside box %v", s, x, y, box)
				}
			}
		}
	}
}

func TestDistinctGlyphs(t *testing.T) {
	// Characters the OCR must distinguish should have distinct bitmaps.
	critical := "0123456789%()stDVINACKGOnofh"
	seen := map[[GlyphW]byte]rune{}
	for _, ch := range critical {
		g, _ := Glyph(ch)
		if prev, dup := seen[g]; dup {
			t.Errorf("glyphs %q and %q identical", prev, ch)
		}
		seen[g] = ch
	}
}
