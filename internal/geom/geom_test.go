package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectEmptyAndDims(t *testing.T) {
	r := Rect{2, 3, 5, 4}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if r.W() != 4 || r.H() != 2 || r.Area() != 8 {
		t.Errorf("W/H/Area = %d/%d/%d, want 4/2/8", r.W(), r.H(), r.Area())
	}
	e := Rect{5, 3, 2, 4}
	if !e.Empty() {
		t.Fatal("inverted rect not empty")
	}
	if e.W() != 0 || e.H() != 0 || e.Area() != 0 {
		t.Errorf("empty rect dims nonzero: %d %d %d", e.W(), e.H(), e.Area())
	}
}

func TestRectCenter(t *testing.T) {
	r := Rect{0, 0, 10, 4}
	if r.CenterX() != 5 || r.CenterY() != 2 {
		t.Errorf("CenterX/Y = %d/%d", r.CenterX(), r.CenterY())
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	got := a.Intersect(b)
	if got != (Rect{5, 5, 10, 10}) {
		t.Errorf("Intersect = %v", got)
	}
	c := Rect{20, 20, 30, 30}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint rects intersect")
	}
	if !a.Overlaps(b) || a.Overlaps(c) {
		t.Error("Overlaps wrong")
	}
}

func TestRectTouchingOverlap(t *testing.T) {
	// Inclusive bounds: rects sharing exactly one edge column overlap.
	a := Rect{0, 0, 5, 5}
	b := Rect{5, 0, 9, 5}
	if !a.Overlaps(b) {
		t.Error("edge-sharing rects should overlap under inclusive bounds")
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{5, 5, 7, 9}
	if got := a.Union(b); got != (Rect{0, 0, 7, 9}) {
		t.Errorf("Union = %v", got)
	}
	empty := Rect{1, 1, 0, 0}
	if got := empty.Union(b); got != b {
		t.Errorf("empty.Union(b) = %v, want %v", got, b)
	}
	if got := b.Union(empty); got != b {
		t.Errorf("b.Union(empty) = %v, want %v", got, b)
	}
}

func TestRectContains(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	if !a.Contains(Rect{2, 2, 8, 8}) {
		t.Error("inner rect not contained")
	}
	if a.Contains(Rect{2, 2, 11, 8}) {
		t.Error("overflowing rect contained")
	}
	if !a.Contains(Rect{5, 5, 4, 4}) {
		t.Error("empty rect should be contained in anything")
	}
}

func TestRectExpandTranslateClip(t *testing.T) {
	r := Rect{5, 5, 10, 10}
	if got := r.Expand(2, 3); got != (Rect{3, 2, 12, 13}) {
		t.Errorf("Expand = %v", got)
	}
	if got := r.Translate(-5, 1); got != (Rect{0, 6, 5, 11}) {
		t.Errorf("Translate = %v", got)
	}
	if got := r.Clip(Rect{0, 0, 7, 7}); got != (Rect{5, 5, 7, 7}) {
		t.Errorf("Clip = %v", got)
	}
}

func TestIoU(t *testing.T) {
	a := Rect{0, 0, 9, 9} // 100 px
	if got := a.IoU(a); got != 1 {
		t.Errorf("self IoU = %v", got)
	}
	b := Rect{5, 0, 14, 9} // overlap 50, union 150
	if got := a.IoU(b); got < 0.333 || got > 0.334 {
		t.Errorf("IoU = %v, want ~1/3", got)
	}
	if got := a.IoU(Rect{100, 100, 110, 110}); got != 0 {
		t.Errorf("disjoint IoU = %v", got)
	}
}

func TestIoUProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randRect := func() Rect {
		x, y := rng.Intn(50), rng.Intn(50)
		return Rect{x, y, x + rng.Intn(30), y + rng.Intn(30)}
	}
	f := func() bool {
		a, b := randRect(), randRect()
		iou := a.IoU(b)
		if iou < 0 || iou > 1 {
			return false
		}
		// symmetry
		if iou != b.IoU(a) {
			return false
		}
		return true
	}
	for i := 0; i < 500; i++ {
		if !f() {
			t.Fatal("IoU property violated")
		}
	}
}

func TestSegments(t *testing.T) {
	h := HSeg{Y: 5, X0: 2, X1: 9}
	if h.Len() != 8 {
		t.Errorf("HSeg.Len = %d", h.Len())
	}
	if h.Rect() != (Rect{2, 5, 9, 5}) {
		t.Errorf("HSeg.Rect = %v", h.Rect())
	}
	v := VSeg{X: 4, Y0: 0, Y1: 9}
	if v.Len() != 10 {
		t.Errorf("VSeg.Len = %d", v.Len())
	}
	if v.Rect() != (Rect{4, 0, 4, 9}) {
		t.Errorf("VSeg.Rect = %v", v.Rect())
	}
}

func TestCrossPoint(t *testing.T) {
	h := HSeg{Y: 5, X0: 0, X1: 10}
	v := VSeg{X: 4, Y0: 0, Y1: 9}
	p, ok := CrossPoint(h, v)
	if !ok || p != (Pt{4, 5}) {
		t.Errorf("CrossPoint = %v %v", p, ok)
	}
	// touching at an endpoint counts as crossing
	v2 := VSeg{X: 10, Y0: 5, Y1: 9}
	if _, ok := CrossPoint(h, v2); !ok {
		t.Error("endpoint touch should cross")
	}
	v3 := VSeg{X: 11, Y0: 0, Y1: 9}
	if _, ok := CrossPoint(h, v3); ok {
		t.Error("x out of span should not cross")
	}
	v4 := VSeg{X: 4, Y0: 6, Y1: 9}
	if _, ok := CrossPoint(h, v4); ok {
		t.Error("y out of span should not cross")
	}
}

func TestAbsClamp(t *testing.T) {
	if Abs(-4) != 4 || Abs(4) != 4 || Abs(0) != 0 {
		t.Error("Abs wrong")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}

// Property: Intersect is commutative and contained in both operands.
func TestIntersectProperty(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := Rect{int(ax), int(ay), int(ax) + int(aw%40), int(ay) + int(ah%40)}
		b := Rect{int(bx), int(by), int(bx) + int(bw%40), int(by) + int(bh%40)}
		i1 := a.Intersect(b)
		i2 := b.Intersect(a)
		if i1 != i2 {
			return false
		}
		if !i1.Empty() && (!a.Contains(i1) || !b.Contains(i1)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Union contains both operands.
func TestUnionProperty(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := Rect{int(ax), int(ay), int(ax) + int(aw%40), int(ay) + int(ah%40)}
		b := Rect{int(bx), int(by), int(bx) + int(bw%40), int(by) + int(bh%40)}
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	if s := (Pt{1, 2}).String(); s != "(1,2)" {
		t.Errorf("Pt.String = %q", s)
	}
	if s := (Rect{1, 2, 3, 4}).String(); s != "[1,2..3,4]" {
		t.Errorf("Rect.String = %q", s)
	}
}
