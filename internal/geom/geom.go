// Package geom provides the small planar-geometry vocabulary shared by every
// stage of the TD-Magic pipeline: integer points, axis-aligned rectangles
// (bounding boxes), segments, and the intersection / IoU predicates used for
// feature association and detection scoring.
//
// Coordinates follow raster conventions: x grows rightwards, y grows
// downwards, and rectangles are half-open neither — both bounds are
// inclusive, matching how bounding boxes are reported by detectors.
package geom

import "fmt"

// Pt is an integer point in raster coordinates.
type Pt struct {
	X, Y int
}

func (p Pt) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with inclusive integer bounds.
// A Rect with X1 < X0 or Y1 < Y0 is empty.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.X1 < r.X0 || r.Y1 < r.Y0 }

// W returns the width of r in pixels (inclusive bounds), 0 if empty.
func (r Rect) W() int {
	if r.Empty() {
		return 0
	}
	return r.X1 - r.X0 + 1
}

// H returns the height of r in pixels (inclusive bounds), 0 if empty.
func (r Rect) H() int {
	if r.Empty() {
		return 0
	}
	return r.Y1 - r.Y0 + 1
}

// Area returns the number of pixels covered by r.
func (r Rect) Area() int { return r.W() * r.H() }

// CenterX returns the x coordinate of the centre of r.
func (r Rect) CenterX() int { return (r.X0 + r.X1) / 2 }

// CenterY returns the y coordinate of the centre of r.
func (r Rect) CenterY() int { return (r.Y0 + r.Y1) / 2 }

// Intersect returns the intersection of r and s; the result is empty when
// they do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{max(r.X0, s.X0), max(r.Y0, s.Y0), min(r.X1, s.X1), min(r.Y1, s.Y1)}
}

// Overlaps reports whether r and s share at least one pixel.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// Union returns the smallest Rect containing both r and s. The union of an
// empty rect with s is s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{min(r.X0, s.X0), min(r.Y0, s.Y0), max(r.X1, s.X1), max(r.Y1, s.Y1)}
}

// Contains reports whether s lies entirely within r.
func (r Rect) Contains(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.X0 <= s.X0 && s.X1 <= r.X1 && r.Y0 <= s.Y0 && s.Y1 <= r.Y1
}

// Expand grows r by dx horizontally and dy vertically on every side.
// Negative values shrink the rect; the result may become empty.
func (r Rect) Expand(dx, dy int) Rect {
	return Rect{r.X0 - dx, r.Y0 - dy, r.X1 + dx, r.Y1 + dy}
}

// Translate shifts r by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

// Clip restricts r to the bounds rectangle.
func (r Rect) Clip(bounds Rect) Rect { return r.Intersect(bounds) }

// IoU returns the intersection-over-union of r and s in [0, 1].
// Two empty rectangles have IoU 0.
func (r Rect) IoU(s Rect) float64 {
	inter := r.Intersect(s)
	if inter.Empty() {
		return 0
	}
	ia := inter.Area()
	ua := r.Area() + s.Area() - ia
	if ua <= 0 {
		return 0
	}
	return float64(ia) / float64(ua)
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d..%d,%d]", r.X0, r.Y0, r.X1, r.Y1)
}

// HSeg is a horizontal segment at row Y spanning columns [X0, X1].
type HSeg struct {
	Y, X0, X1 int
}

// Rect returns the 1-pixel-tall bounding rectangle of s.
func (s HSeg) Rect() Rect { return Rect{s.X0, s.Y, s.X1, s.Y} }

// Len returns the length of s in pixels.
func (s HSeg) Len() int { return s.X1 - s.X0 + 1 }

// VSeg is a vertical segment at column X spanning rows [Y0, Y1].
type VSeg struct {
	X, Y0, Y1 int
}

// Rect returns the 1-pixel-wide bounding rectangle of s.
func (s VSeg) Rect() Rect { return Rect{s.X, s.Y0, s.X, s.Y1} }

// Len returns the length of s in pixels.
func (s VSeg) Len() int { return s.Y1 - s.Y0 + 1 }

// CrossPoint returns the intersection point of a horizontal and a vertical
// segment and whether they actually cross (or touch).
func CrossPoint(h HSeg, v VSeg) (Pt, bool) {
	if v.X < h.X0 || v.X > h.X1 || h.Y < v.Y0 || h.Y > v.Y1 {
		return Pt{}, false
	}
	return Pt{v.X, h.Y}, true
}

// Abs returns the absolute value of x.
func Abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Clamp limits v to the range [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
