// Package font provides a self-contained 5×7 bitmap font and a small rich-
// text layout engine used to annotate generated timing diagrams and as the
// glyph reference for the OCR module.
//
// Timing-diagram labels are heavy on subscripts (t_D(on), V_INA, t_s). Rich
// strings therefore support the markup "_{...}": the bracketed part is
// rendered at a reduced scale, shifted below the baseline, mirroring how
// datasheets typeset such labels. A literal underscore can be written as
// "\\_".
package font

import "tdmagic/internal/geom"

// GlyphW and GlyphH are the pixel dimensions of one unscaled glyph cell
// (excluding inter-glyph spacing).
const (
	GlyphW = 5
	GlyphH = 7
	// AdvanceW is the horizontal advance per glyph: cell width plus one
	// column of spacing.
	AdvanceW = GlyphW + 1
)

// Glyph returns the 5-column bitmap of ch (bit 0 of each byte is the top
// row) and whether the font covers ch. Unsupported runes map to the '?'
// glyph with ok == false.
func Glyph(ch rune) ([GlyphW]byte, bool) {
	if ch == 'µ' {
		ch = 'u'
	}
	if ch < 32 || ch > 126 {
		return glyphs['?'-32], false
	}
	return glyphs[ch-32], true
}

// SetFunc receives ink pixels during rendering.
type SetFunc func(x, y int)

// DrawGlyph renders ch at scale into set, with the glyph-cell origin at
// (x, y). It returns the horizontal advance in pixels.
func DrawGlyph(set SetFunc, x, y int, ch rune, scale int) int {
	if scale < 1 {
		scale = 1
	}
	g, _ := Glyph(ch)
	for col := 0; col < GlyphW; col++ {
		bits := g[col]
		for row := 0; row < GlyphH; row++ {
			if bits&(1<<uint(row)) == 0 {
				continue
			}
			for dy := 0; dy < scale; dy++ {
				for dx := 0; dx < scale; dx++ {
					set(x+col*scale+dx, y+row*scale+dy)
				}
			}
		}
	}
	return AdvanceW * scale
}

// DrawString renders a plain string at scale with the cell origin at (x, y)
// and returns its bounding box (empty for an empty string).
func DrawString(set SetFunc, x, y int, s string, scale int) geom.Rect {
	if scale < 1 {
		scale = 1
	}
	cx := x
	n := 0
	for _, ch := range s {
		cx += DrawGlyph(set, cx, y, ch, scale)
		n++
	}
	if n == 0 {
		return geom.Rect{X0: x, Y0: y, X1: x - 1, Y1: y - 1}
	}
	return geom.Rect{X0: x, Y0: y, X1: cx - scale - 1, Y1: y + GlyphH*scale - 1}
}

// StringWidth returns the pixel width of a plain string at scale.
func StringWidth(s string, scale int) int {
	if scale < 1 {
		scale = 1
	}
	n := 0
	for range s {
		n++
	}
	if n == 0 {
		return 0
	}
	return n*AdvanceW*scale - scale // trailing spacing column removed
}

// Span is one run of a rich string: consecutive characters at the same
// subscript level.
type Span struct {
	Text string
	Sub  bool // rendered subscripted when true
}

// ParseRich splits a rich string into spans. The markup "_{...}" opens a
// subscript span (no nesting; an unterminated brace extends to the end).
// "\\_" escapes a literal underscore.
func ParseRich(s string) []Span {
	var spans []Span
	var cur []rune
	flush := func(sub bool) {
		if len(cur) > 0 {
			spans = append(spans, Span{Text: string(cur), Sub: sub})
			cur = cur[:0]
		}
	}
	runes := []rune(s)
	for i := 0; i < len(runes); i++ {
		ch := runes[i]
		switch {
		case ch == '\\' && i+1 < len(runes) && runes[i+1] == '_':
			cur = append(cur, '_')
			i++
		case ch == '_' && i+1 < len(runes) && runes[i+1] == '{':
			flush(false)
			i += 2
			for i < len(runes) && runes[i] != '}' {
				cur = append(cur, runes[i])
				i++
			}
			flush(true)
		default:
			cur = append(cur, ch)
		}
	}
	flush(false)
	return spans
}

// SubScale returns the scale used for subscript spans at a base scale.
func SubScale(scale int) int {
	sub := scale * 2 / 3
	if sub < 1 {
		sub = 1
	}
	return sub
}

// subOffset is the downward baseline shift of subscript spans, in unscaled
// glyph rows of the base scale.
func subOffset(scale int) int { return GlyphH * scale * 2 / 5 }

// MeasureRich returns the width and height of a rich string at scale. The
// measurement mirrors DrawRich's cursor advance exactly, so DrawRich's
// bounding box always fits within the measured extent.
func MeasureRich(s string, scale int) (w, h int) {
	if scale < 1 {
		scale = 1
	}
	h = GlyphH * scale
	cx, maxX := 0, 0
	for _, sp := range ParseRich(s) {
		if sp.Text == "" {
			continue
		}
		if sp.Sub {
			sub := SubScale(scale)
			sw := StringWidth(sp.Text, sub)
			if end := cx + sw; end > maxX {
				maxX = end
			}
			cx += sw + sub
			if bottom := subOffset(scale) + GlyphH*sub; bottom > h {
				h = bottom
			}
		} else {
			sw := StringWidth(sp.Text, scale)
			if end := cx + sw; end > maxX {
				maxX = end
			}
			cx += sw + scale
		}
	}
	return maxX, h
}

// DrawRich renders a rich string with the cell origin at (x, y) and returns
// its bounding box.
func DrawRich(set SetFunc, x, y int, s string, scale int) geom.Rect {
	if scale < 1 {
		scale = 1
	}
	spans := ParseRich(s)
	box := geom.Rect{X0: x, Y0: y, X1: x - 1, Y1: y - 1}
	cx := x
	for _, sp := range spans {
		if sp.Text == "" {
			continue
		}
		if sp.Sub {
			sub := SubScale(scale)
			b := DrawString(set, cx, y+subOffset(scale), sp.Text, sub)
			box = box.Union(b)
			cx = b.X1 + 1 + sub
		} else {
			b := DrawString(set, cx, y, sp.Text, scale)
			box = box.Union(b)
			cx = b.X1 + 1 + scale
		}
	}
	return box
}
