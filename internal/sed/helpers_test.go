package sed

import (
	"context"
	"testing"

	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/lad"
	"tdmagic/internal/render"
)

func TestMergeBoxes(t *testing.T) {
	boxes := []geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 10},
		{X0: 15, Y0: 0, X1: 25, Y1: 10}, // gap 4 <= 8
		{X0: 100, Y0: 0, X1: 110, Y1: 10},
	}
	areas := []int{50, 50, 30}
	got, gotAreas := mergeBoxes(boxes, areas, 8)
	if len(got) != 2 {
		t.Fatalf("merged to %d boxes: %v", len(got), got)
	}
	if got[0] != (geom.Rect{X0: 0, Y0: 0, X1: 25, Y1: 10}) {
		t.Errorf("merged box = %v", got[0])
	}
	if gotAreas[0] != 100 || gotAreas[1] != 30 {
		t.Errorf("areas = %v", gotAreas)
	}
}

func TestMergeBoxesChain(t *testing.T) {
	// A-B far apart, C in between bridges both: all three must merge.
	boxes := []geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 10},
		{X0: 40, Y0: 0, X1: 50, Y1: 10},
		{X0: 18, Y0: 0, X1: 32, Y1: 10},
	}
	areas := []int{1, 1, 1}
	got, _ := mergeBoxes(boxes, areas, 8)
	if len(got) != 1 {
		t.Fatalf("chain merged to %d boxes", len(got))
	}
}

func TestStitchDiagonalJoinsSparsePieces(t *testing.T) {
	// Two sparse diagonal pieces offset like a cut ramp.
	boxes := []geom.Rect{
		{X0: 100, Y0: 50, X1: 160, Y1: 80},
		{X0: 180, Y0: 82, X1: 240, Y1: 110},
	}
	areas := []int{120, 120} // density ~0.06: sparse strokes
	got, _ := stitchDiagonal(boxes, areas)
	if len(got) != 1 {
		t.Fatalf("sparse diagonal pieces not stitched: %v", got)
	}
}

func TestStitchDiagonalLeavesTextAlone(t *testing.T) {
	// Two dense glyph-like boxes on the same row.
	boxes := []geom.Rect{
		{X0: 100, Y0: 50, X1: 110, Y1: 64},
		{X0: 120, Y0: 50, X1: 130, Y1: 64},
	}
	areas := []int{90, 90} // density ~0.5: text
	got, _ := stitchDiagonal(boxes, areas)
	if len(got) != 2 {
		t.Fatalf("text fragments were stitched: %v", got)
	}
	// Same-row sparse pieces also stay apart (centres align).
	boxes = []geom.Rect{
		{X0: 100, Y0: 50, X1: 160, Y1: 80},
		{X0: 180, Y0: 50, X1: 240, Y1: 80},
	}
	areas = []int{100, 100}
	got, _ = stitchDiagonal(boxes, areas)
	if len(got) != 2 {
		t.Fatalf("same-row pieces were stitched: %v", got)
	}
}

func TestLineResidueDetection(t *testing.T) {
	lines := &lad.Result{
		V: []lad.VContour{{Seg: geom.VSeg{X: 50, Y0: 10, Y1: 200}, Density: 0.5}},
		H: []lad.HContour{{Seg: geom.HSeg{Y: 80, X0: 10, X1: 300}, Density: 0.5}},
	}
	// Narrow sliver on the dashed vline column.
	if !lineResidue(geom.Rect{X0: 48, Y0: 100, X1: 52, Y1: 115}, lines) {
		t.Error("vline residue not detected")
	}
	// Short flat sliver on the dashed hline row.
	if !lineResidue(geom.Rect{X0: 120, Y0: 78, X1: 140, Y1: 82}, lines) {
		t.Error("hline residue not detected")
	}
	// A tall step-like component is not residue.
	if lineResidue(geom.Rect{X0: 48, Y0: 50, X1: 52, Y1: 180}, lines) {
		t.Error("tall component misjudged as residue")
	}
	// A component away from any line is not residue.
	if lineResidue(geom.Rect{X0: 200, Y0: 100, X1: 204, Y1: 115}, lines) {
		t.Error("distant component misjudged as residue")
	}
}

func TestCleanupErasesLongSolidVLine(t *testing.T) {
	// A long solid annotation line crossing a plateau: the isolated parts
	// must be erased, the plateau crossing preserved, and a short solid
	// step edge left untouched.
	c := render.NewCanvas(200, 400)
	c.Line(geom.Pt{X: 100, Y: 10}, geom.Pt{X: 100, Y: 390}, 2)  // long solid vline
	c.Line(geom.Pt{X: 20, Y: 200}, geom.Pt{X: 180, Y: 200}, 3)  // plateau
	c.Line(geom.Pt{X: 160, Y: 100}, geom.Pt{X: 160, Y: 160}, 3) // step edge (short)
	bw := c.Ink()
	lines, _ := lad.DetectBinaryCtx(context.Background(), bw, lad.DefaultConfig())
	work := cleanup(bw, lines, DefaultConfig())
	if work.At(100, 50) || work.At(100, 350) {
		t.Error("isolated stretches of the solid vline survived cleanup")
	}
	for y := 110; y <= 150; y++ {
		if !work.At(160, y) {
			t.Fatalf("short step edge erased at y=%d", y)
		}
	}
}

func TestPartitionSingleGroupTallOverlap(t *testing.T) {
	dets := []Detection{
		{Box: geom.Rect{X0: 10, Y0: 10, X1: 20, Y1: 100}},
		{Box: geom.Rect{X0: 50, Y0: 90, X1: 60, Y1: 180}}, // overlaps first vertically
	}
	SortDetections(dets)
	if groups := Partition(dets); len(groups) != 1 {
		t.Errorf("overlapping spans split into %d groups", len(groups))
	}
}

func TestInkCentroidY(t *testing.T) {
	bw := imgproc.NewBinary(10, 10)
	// Ink only in the top row of the probe region.
	bw.Set(2, 0, true)
	top := inkCentroidY(bw, geom.Rect{X0: 0, Y0: 0, X1: 9, Y1: 9})
	if top != 0 {
		t.Errorf("top centroid = %v", top)
	}
	bw2 := imgproc.NewBinary(10, 10)
	bw2.Set(2, 9, true)
	bot := inkCentroidY(bw2, geom.Rect{X0: 0, Y0: 0, X1: 9, Y1: 9})
	if bot != 1 {
		t.Errorf("bottom centroid = %v", bot)
	}
	// Empty and degenerate regions.
	if inkCentroidY(bw, geom.Rect{X0: 5, Y0: 5, X1: 8, Y1: 8}) != 0.5 {
		t.Error("empty centroid not 0.5")
	}
	if inkCentroidY(bw, geom.Rect{X0: 0, Y0: 0, X1: 9, Y1: 0}) != 0.5 {
		t.Error("single-row centroid not 0.5")
	}
}
