// Package render provides the raster canvas used to draw timing diagrams:
// Bresenham lines with stroke thickness, dashed strokes, double-headed
// arrows, polylines, rectangles and rich text (via internal/font), all on an
// ink/paper binary layer that converts to grayscale or PNG.
//
// Both the synthetic training generator (L-TD-G) and the industrial-corpus
// generator draw through this package, so every picture the pipeline sees is
// produced by the same primitives a datasheet plotting tool would use.
package render

import (
	"io"

	"tdmagic/internal/font"
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
)

// Canvas is an ink-on-paper drawing surface.
type Canvas struct {
	ink *imgproc.Binary
}

// NewCanvas returns a blank w×h canvas.
func NewCanvas(w, h int) *Canvas {
	return &Canvas{ink: imgproc.NewBinary(w, h)}
}

// W returns the canvas width in pixels.
func (c *Canvas) W() int { return c.ink.W }

// H returns the canvas height in pixels.
func (c *Canvas) H() int { return c.ink.H }

// Ink returns the underlying binary ink layer (shared, not a copy).
func (c *Canvas) Ink() *imgproc.Binary { return c.ink }

// Gray converts the canvas to a grayscale image (ink black, paper white).
func (c *Canvas) Gray() *imgproc.Gray { return c.ink.ToGray() }

// EncodePNG writes the canvas as a PNG.
func (c *Canvas) EncodePNG(w io.Writer) error { return c.Gray().EncodePNG(w) }

// SetPixel places ink at (x, y); out-of-canvas coordinates are ignored.
func (c *Canvas) SetPixel(x, y int) { c.ink.Set(x, y, true) }

// stamp draws a filled square of the given stroke thickness centred at
// (x, y). Thickness 1 is a single pixel.
func (c *Canvas) stamp(x, y, thick int) {
	if thick <= 1 {
		c.SetPixel(x, y)
		return
	}
	r := thick / 2
	for dy := -r; dy <= r-(1-thick%2); dy++ {
		for dx := -r; dx <= r-(1-thick%2); dx++ {
			c.SetPixel(x+dx, y+dy)
		}
	}
}

// Line draws a straight stroke from p to q with the given thickness using
// Bresenham's algorithm.
func (c *Canvas) Line(p, q geom.Pt, thick int) {
	c.dashedLine(p, q, thick, 0, 0)
}

// DashedLine draws a stroke from p to q with on-pixels-long dashes separated
// by off-pixel gaps. on <= 0 draws a solid line.
func (c *Canvas) DashedLine(p, q geom.Pt, thick, on, off int) {
	c.dashedLine(p, q, thick, on, off)
}

func (c *Canvas) dashedLine(p, q geom.Pt, thick, on, off int) {
	dx := geom.Abs(q.X - p.X)
	dy := -geom.Abs(q.Y - p.Y)
	sx, sy := 1, 1
	if p.X > q.X {
		sx = -1
	}
	if p.Y > q.Y {
		sy = -1
	}
	err := dx + dy
	x, y := p.X, p.Y
	step := 0
	period := on + off
	for {
		if on <= 0 || step%period < on {
			c.stamp(x, y, thick)
		}
		if x == q.X && y == q.Y {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x += sx
		}
		if e2 <= dx {
			err += dx
			y += sy
		}
		step++
	}
}

// ArrowHead draws a triangular arrow head at tip pointing in direction
// (dirX, dirY) — one of the four axis directions. size is the head length in
// pixels.
func (c *Canvas) ArrowHead(tip geom.Pt, dirX, dirY, size, thick int) {
	for i := 0; i <= size; i++ {
		// The head widens as we move back from the tip.
		bx := tip.X - dirX*i
		by := tip.Y - dirY*i
		if dirX != 0 { // horizontal arrow: widen vertically
			c.Line(geom.Pt{X: bx, Y: by - i/2}, geom.Pt{X: bx, Y: by + i/2}, thick)
		} else { // vertical arrow: widen horizontally
			c.Line(geom.Pt{X: bx - i/2, Y: by}, geom.Pt{X: bx + i/2, Y: by}, thick)
		}
	}
}

// HArrow draws a horizontal double-headed arrow on row y spanning columns
// [x0, x1], the standard timing-constraint annotation.
func (c *Canvas) HArrow(y, x0, x1, thick int) {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	size := (x1 - x0) / 4
	if size > 6 {
		size = 6
	}
	if size < 2 {
		size = 2
	}
	c.Line(geom.Pt{X: x0, Y: y}, geom.Pt{X: x1, Y: y}, thick)
	c.ArrowHead(geom.Pt{X: x0, Y: y}, -1, 0, size, thick)
	c.ArrowHead(geom.Pt{X: x1, Y: y}, 1, 0, size, thick)
}

// HArrowOutward draws the outward variant used when the annotated span is
// too narrow: two arrows outside the vertical lines pointing inwards at the
// span boundaries (the "6ns" style of paper Fig. 7).
func (c *Canvas) HArrowOutward(y, x0, x1, tail, thick int) {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	size := 3
	c.Line(geom.Pt{X: x0 - tail, Y: y}, geom.Pt{X: x0, Y: y}, thick)
	c.ArrowHead(geom.Pt{X: x0, Y: y}, 1, 0, size, thick)
	c.Line(geom.Pt{X: x1, Y: y}, geom.Pt{X: x1 + tail, Y: y}, thick)
	c.ArrowHead(geom.Pt{X: x1, Y: y}, -1, 0, size, thick)
}

// VArrow draws a vertical arrow from (x, y0) to a head at (x, y1).
func (c *Canvas) VArrow(x, y0, y1, thick int) {
	c.Line(geom.Pt{X: x, Y: y0}, geom.Pt{X: x, Y: y1}, thick)
	dir := 1
	if y1 < y0 {
		dir = -1
	}
	c.ArrowHead(geom.Pt{X: x, Y: y1}, 0, dir, 4, thick)
}

// Text draws a rich string (see internal/font markup) with the text-cell
// origin at (x, y) and returns the ink bounding box.
func (c *Canvas) Text(x, y int, s string, scale int) geom.Rect {
	return font.DrawRich(c.SetPixel, x, y, s, scale)
}

// TextCentered draws a rich string horizontally centred on cx with the cell
// top at y.
func (c *Canvas) TextCentered(cx, y int, s string, scale int) geom.Rect {
	w, _ := font.MeasureRich(s, scale)
	return c.Text(cx-w/2, y, s, scale)
}

// MeasureText returns the extent a rich string would occupy at scale.
func (c *Canvas) MeasureText(s string, scale int) (w, h int) {
	return font.MeasureRich(s, scale)
}
