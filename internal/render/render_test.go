package render

import (
	"bytes"
	"testing"

	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
)

func TestNewCanvasBlank(t *testing.T) {
	c := NewCanvas(20, 10)
	if c.W() != 20 || c.H() != 10 {
		t.Fatalf("size %dx%d", c.W(), c.H())
	}
	if c.Ink().Count() != 0 {
		t.Error("new canvas has ink")
	}
}

func TestLineHorizontal(t *testing.T) {
	c := NewCanvas(20, 5)
	c.Line(geom.Pt{X: 2, Y: 2}, geom.Pt{X: 17, Y: 2}, 1)
	for x := 2; x <= 17; x++ {
		if !c.Ink().At(x, 2) {
			t.Errorf("missing pixel at x=%d", x)
		}
	}
	if c.Ink().Count() != 16 {
		t.Errorf("count = %d, want 16", c.Ink().Count())
	}
}

func TestLineVerticalAndReversed(t *testing.T) {
	c := NewCanvas(5, 20)
	c.Line(geom.Pt{X: 2, Y: 17}, geom.Pt{X: 2, Y: 3}, 1) // bottom-to-top
	for y := 3; y <= 17; y++ {
		if !c.Ink().At(2, y) {
			t.Errorf("missing pixel at y=%d", y)
		}
	}
}

func TestLineDiagonal(t *testing.T) {
	c := NewCanvas(12, 12)
	c.Line(geom.Pt{X: 0, Y: 0}, geom.Pt{X: 10, Y: 10}, 1)
	for i := 0; i <= 10; i++ {
		if !c.Ink().At(i, i) {
			t.Errorf("missing diagonal pixel at %d", i)
		}
	}
	if c.Ink().Count() != 11 {
		t.Errorf("count = %d", c.Ink().Count())
	}
}

func TestLineThickness(t *testing.T) {
	c := NewCanvas(20, 9)
	c.Line(geom.Pt{X: 3, Y: 4}, geom.Pt{X: 16, Y: 4}, 3)
	for x := 3; x <= 16; x++ {
		for dy := -1; dy <= 1; dy++ {
			if !c.Ink().At(x, 4+dy) {
				t.Errorf("thick line missing (%d,%d)", x, 4+dy)
			}
		}
	}
	if c.Ink().At(10, 1) || c.Ink().At(10, 7) {
		t.Error("thick line too fat")
	}
}

func TestLineSinglePoint(t *testing.T) {
	c := NewCanvas(5, 5)
	c.Line(geom.Pt{X: 2, Y: 2}, geom.Pt{X: 2, Y: 2}, 1)
	if c.Ink().Count() != 1 || !c.Ink().At(2, 2) {
		t.Error("degenerate line wrong")
	}
}

func TestLineClipping(t *testing.T) {
	c := NewCanvas(5, 5)
	c.Line(geom.Pt{X: -10, Y: 2}, geom.Pt{X: 10, Y: 2}, 1) // must not panic
	for x := 0; x < 5; x++ {
		if !c.Ink().At(x, 2) {
			t.Error("clipped line incomplete inside canvas")
		}
	}
}

func TestDashedLine(t *testing.T) {
	c := NewCanvas(30, 3)
	c.DashedLine(geom.Pt{X: 0, Y: 1}, geom.Pt{X: 29, Y: 1}, 1, 4, 3)
	if !c.Ink().At(0, 1) || !c.Ink().At(3, 1) {
		t.Error("first dash missing")
	}
	if c.Ink().At(4, 1) || c.Ink().At(6, 1) {
		t.Error("first gap inked")
	}
	if !c.Ink().At(7, 1) {
		t.Error("second dash missing")
	}
	// solid when on <= 0
	c2 := NewCanvas(30, 3)
	c2.DashedLine(geom.Pt{X: 0, Y: 1}, geom.Pt{X: 29, Y: 1}, 1, 0, 5)
	if c2.Ink().Count() != 30 {
		t.Error("on<=0 should be solid")
	}
}

func TestHArrow(t *testing.T) {
	c := NewCanvas(60, 21)
	c.HArrow(10, 10, 49, 1)
	// Shaft present.
	for x := 10; x <= 49; x++ {
		if !c.Ink().At(x, 10) {
			t.Errorf("shaft missing at x=%d", x)
		}
	}
	// Heads flare above and below the shaft near both ends.
	flareLeft, flareRight := false, false
	for x := 10; x <= 18; x++ {
		if c.Ink().At(x, 8) {
			flareLeft = true
		}
	}
	for x := 41; x <= 49; x++ {
		if c.Ink().At(x, 8) {
			flareRight = true
		}
	}
	if !flareLeft || !flareRight {
		t.Error("arrow heads missing")
	}
	// Reversed argument order tolerated.
	c2 := NewCanvas(60, 21)
	c2.HArrow(10, 49, 10, 1)
	if c2.Ink().Count() != c.Ink().Count() {
		t.Error("reversed HArrow differs")
	}
}

func TestHArrowNarrowSpan(t *testing.T) {
	c := NewCanvas(30, 11)
	c.HArrow(5, 10, 14, 1) // very narrow: head size clamps small, no panic
	if c.Ink().Count() == 0 {
		t.Error("narrow arrow drew nothing")
	}
}

func TestHArrowOutward(t *testing.T) {
	c := NewCanvas(60, 11)
	c.HArrowOutward(5, 20, 30, 8, 1)
	// Tails outside the span.
	if !c.Ink().At(13, 5) || !c.Ink().At(37, 5) {
		t.Error("outward tails missing")
	}
	// Gap strictly inside the span (between heads) has no shaft.
	if c.Ink().At(25, 5) {
		t.Error("outward arrow should leave the span interior clear")
	}
}

func TestVArrow(t *testing.T) {
	c := NewCanvas(11, 30)
	c.VArrow(5, 2, 25, 1)
	for y := 2; y <= 25; y++ {
		if !c.Ink().At(5, y) {
			t.Errorf("shaft missing at y=%d", y)
		}
	}
	// Head flares horizontally near the tip.
	flare := false
	for y := 19; y <= 25; y++ {
		if c.Ink().At(3, y) || c.Ink().At(7, y) {
			flare = true
		}
	}
	if !flare {
		t.Error("vertical arrow head missing")
	}
}

func TestTextOnCanvas(t *testing.T) {
	c := NewCanvas(120, 30)
	box := c.Text(5, 5, "V_{INA}", 2)
	if box.Empty() || c.Ink().Count() == 0 {
		t.Fatal("text drew nothing")
	}
	// Ink within the returned box only.
	ink := c.Ink()
	for y := 0; y < ink.H; y++ {
		for x := 0; x < ink.W; x++ {
			if ink.At(x, y) && !(geom.Pt{X: x, Y: y}).In(box) {
				t.Errorf("ink outside text box at (%d,%d)", x, y)
			}
		}
	}
}

func TestTextCentered(t *testing.T) {
	c := NewCanvas(100, 20)
	box := c.TextCentered(50, 3, "ABC", 1)
	mid := (box.X0 + box.X1) / 2
	if mid < 47 || mid > 53 {
		t.Errorf("centred text midpoint %d not near 50", mid)
	}
}

func TestMeasureText(t *testing.T) {
	c := NewCanvas(10, 10)
	w, h := c.MeasureText("AB", 1)
	if w <= 0 || h <= 0 {
		t.Error("measure returned nonpositive size")
	}
}

func TestGrayAndPNG(t *testing.T) {
	c := NewCanvas(10, 10)
	c.SetPixel(3, 3)
	g := c.Gray()
	if g.At(3, 3) != 0 || g.At(0, 0) != 255 {
		t.Error("Gray conversion wrong")
	}
	var buf bytes.Buffer
	if err := c.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := imgproc.DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(3, 3) != 0 {
		t.Error("PNG roundtrip lost ink")
	}
}
