// Package sei implements the paper's SEI (semantic interpretation) module:
// it consumes the edge boxes from SED, the contours from LAD and the text
// boxes from OCR, associates events to edge boxes (Algorithm 1), associates
// arrows to pairs of vertical lines (Algorithm 2), and generates the SPO.
//
// Deviations from the paper's pseudocode, both documented in DESIGN.md:
//   - Algorithm 2 line 16 pairs *every* two vlines crossing an arrow at the
//     same height; this implementation pairs only horizontally adjacent
//     crossings, so an unrelated line grazing the shaft cannot create a
//     phantom constraint.
//   - A secondary pass recognises the outward-arrow idiom (two short
//     inward-pointing arrows outside the measured span, paper Fig. 7) that
//     the pseudocode does not cover but the paper's tool handles.
package sei

import (
	"fmt"
	"sort"

	"tdmagic/internal/dataset"
	"tdmagic/internal/diag"
	"tdmagic/internal/geom"
	"tdmagic/internal/lad"
	"tdmagic/internal/ocr"
	"tdmagic/internal/sed"
	"tdmagic/internal/spo"
)

// Config holds the association tolerances.
type Config struct {
	// Expand is the edge-box expansion of Algorithm 2 (EXPAND), letting a
	// touching plateau count as intersecting.
	Expand int
	// YTol is the tolerance when comparing the two crossing heights of an
	// arrow (Algorithm 2's y1 = y2).
	YTol int
	// FullSpanFrac defines FULLSPAN: a horizontal line longer than this
	// fraction of the image width is an axis, not an arrow.
	FullSpanFrac float64
	// TopTol is the distance allowed between a vline's top and the edge
	// box it takes its event from.
	TopTol int
	// OutwardMaxTail bounds the shaft length of outward-arrow halves.
	OutwardMaxTail int
	// NameLexicon, when set, snaps recognised signal names to the nearest
	// dictionary entry (the paper's "prepared database for common signal
	// names").
	NameLexicon *ocr.Lexicon
	// ValueLexicon, when set, snaps recognised threshold texts to the
	// nearest known signal-value annotation (the paper's "empirical study
	// on the style of annotating signal values").
	ValueLexicon *ocr.Lexicon
	// Strict restores the fail-fast behaviour: a cyclic or degenerate
	// interpretation returns an error instead of dropping the minimal
	// offending constraints and reporting diagnostics. The oracle
	// experiments use it to keep structural failures visible as failures.
	Strict bool
}

// DefaultConfig returns tolerances for the generated pictures.
func DefaultConfig() Config {
	return Config{
		Expand:         6,
		YTol:           3,
		FullSpanFrac:   0.75,
		TopTol:         8,
		OutwardMaxTail: 40,
	}
}

// Input bundles the upstream module outputs.
type Input struct {
	Width, Height int
	Edges         []sed.Detection
	Lines         *lad.Result
	Texts         []ocr.Result
}

// Event is one edge-box/vertical-line association (Algorithm 1 output).
type Event struct {
	X, Y   int // the threshold crossing point
	BoxIdx int // index into Input.Edges
	VIdx   int // index into Input.Lines.V (the event's annotation line)
	HIdx   int // index into Input.Lines.H (the threshold line; -1 if none)
	VLine  geom.VSeg
	HLine  *geom.HSeg // the threshold line used, nil for step edges
}

// Output is the full semantic interpretation.
type Output struct {
	SPO *spo.SPO
	// Classified annotation structure, for Table II scoring.
	VLines []geom.VSeg
	HLines []geom.HSeg
	Arrows []dataset.Arrow
	// Role-classified texts, for Table III scoring.
	Names       []ocr.Result
	Values      []ocr.Result
	Constraints []ocr.Result
	// Events lists every edge-box event found by Algorithm 1.
	Events []Event
	// Diags records every degradation the interpretation worked around
	// (dropped constraints, repaired structure). Empty on a clean run.
	Diags []diag.Diagnostic
}

// Interpret runs the full semantic analysis.
func Interpret(in Input, cfg Config) (*Output, error) {
	out := &Output{}

	// Per-signal partition of edge boxes (defines signal index and edge
	// index of every event).
	sed.SortDetections(in.Edges)
	groups := sed.Partition(in.Edges)

	// Algorithm 1: edge-box-event association.
	out.Events = edgeBoxEvents(in, cfg)

	// Algorithm 2: arrow association.
	arrows := arrowAssociate(in, cfg)

	// Classify texts by role.
	names, values, constraints, nameIdx, valueIdx, consIdx := classifyTexts(in, arrows, cfg)
	out.Names, out.Values, out.Constraints = names, values, constraints

	// Classified lines for scoring: V-lines are lines carrying an event or
	// an arrow endpoint; H-lines are the dashed threshold lines crossing an
	// edge box (whether or not they mark an event — dense annotations count
	// too).
	out.VLines = eventVLines(out.Events, arrows)
	for _, h := range in.Lines.H {
		if !lad.Dashed(h.Density) {
			continue
		}
		for _, b := range in.Edges {
			if h.Seg.Y >= b.Box.Y0-2 && h.Seg.Y <= b.Box.Y1+2 &&
				h.Seg.X1 >= b.Box.X0 && h.Seg.X0 <= b.Box.X1 {
				out.HLines = appendHSegUnique(out.HLines, h.Seg)
				break
			}
		}
	}

	// SPO generation.
	p, labelled, diags, err := buildSPO(in, cfg, groups, out.Events, arrows,
		names, values, constraints, nameIdx, valueIdx, consIdx)
	if err != nil {
		return nil, err
	}
	out.SPO = p
	out.Arrows = labelled
	out.Diags = diags
	return out, nil
}

// edgeBoxEvents implements Algorithm 1. An event is created for every
// vertical line whose top lies in (or near) an edge box; the event point is
// the crossing with a threshold H-line inside the box (FINDHLINE) or the
// box centre for step-like boxes.
func edgeBoxEvents(in Input, cfg Config) []Event {
	var events []Event
	for bi, b := range in.Edges {
		for vi := range in.Lines.V {
			v := in.Lines.V[vi]
			box := b.Box.Expand(2, cfg.TopTol)
			if v.Seg.X < box.X0 || v.Seg.X > box.X1 {
				continue
			}
			// The line must start at this box: tops far above it belong
			// to a signal higher up.
			if v.Seg.Y0 < box.Y0 || v.Seg.Y0 > box.Y1 {
				continue
			}
			// An event line runs down towards the annotation band; a
			// vertical contour confined to the box is the stroke of a
			// step edge itself, not an annotation.
			if v.Seg.Y1 < b.Box.Y1+10 {
				continue
			}
			x := v.Seg.X
			y, h, hi := findHLine(in, b.Box, x)
			events = append(events, Event{X: x, Y: y, BoxIdx: bi, VIdx: vi, HIdx: hi, VLine: v.Seg, HLine: h})
		}
	}
	return events
}

// findHLine implements FINDHLINE: it looks for a dashed threshold line
// crossing column x inside box b and returns the crossing row plus the
// contour's index in Input.Lines.H; without one it falls back to the box
// centre (index -1).
func findHLine(in Input, b geom.Rect, x int) (int, *geom.HSeg, int) {
	for i := range in.Lines.H {
		h := in.Lines.H[i]
		if !lad.Dashed(h.Density) {
			continue
		}
		if h.Seg.Y < b.Y0-2 || h.Seg.Y > b.Y1+2 {
			continue
		}
		if x < h.Seg.X0 || x > h.Seg.X1 {
			continue
		}
		// The line must actually cross the box horizontally.
		if h.Seg.X1 < b.X0 || h.Seg.X0 > b.X1 {
			continue
		}
		return h.Seg.Y, &h.Seg, i
	}
	return b.CenterY(), nil, -1
}

// rawArrow is an unlabelled detected arrow, carrying the indices of the
// LAD contours that evidence it (for provenance): the vlines anchoring
// its endpoints and the H contour(s) forming the shaft.
type rawArrow struct {
	y          int
	x0, x1     int
	v0Idx      int   // Input.Lines.V index of the left anchor
	v1Idx      int   // Input.Lines.V index of the right anchor
	shaftLines []int // Input.Lines.H indices of the shaft contour(s)
}

// arrowAssociate implements Algorithm 2 plus the outward-arrow pass.
func arrowAssociate(in Input, cfg Config) []rawArrow {
	fullSpan := int(cfg.FullSpanFrac * float64(in.Width))
	type hcand struct {
		seg geom.HSeg
		idx int // index into in.Lines.H
	}
	var candidates []hcand
	for hi := range in.Lines.H {
		h := in.Lines.H[hi]
		if h.Seg.Len() >= fullSpan {
			continue // FULLSPAN: axis
		}
		touches := false
		for _, b := range in.Edges {
			if b.Box.Expand(cfg.Expand, cfg.Expand).Overlaps(h.Seg.Rect()) {
				touches = true
				break
			}
		}
		if touches {
			continue // plateau, rail or threshold line
		}
		candidates = append(candidates, hcand{seg: h.Seg, idx: hi})
	}

	var arrows []rawArrow
	var halves []hcand // candidates anchored to a vline at one end only
	for _, h := range candidates {
		// An arrow's shaft runs between the two vertical lines it
		// measures: both endpoints anchor on a vline. Interior crossings
		// (another event's line passing through the shaft) are
		// incidental and ignored.
		vi0, v0 := vlineNear(in, h.seg.X0, h.seg.Y, cfg.YTol)
		vi1, v1 := vlineNear(in, h.seg.X1, h.seg.Y, cfg.YTol)
		switch {
		case v0 != nil && v1 != nil && v0.X < v1.X:
			arrows = append(arrows, rawArrow{
				y: h.seg.Y, x0: v0.X, x1: v1.X,
				v0Idx: vi0, v1Idx: vi1, shaftLines: []int{h.idx},
			})
		case (v0 != nil) != (v1 != nil) && h.seg.Len() <= cfg.OutwardMaxTail:
			halves = append(halves, h)
		}
	}

	// Outward-arrow pass: two short halves at the same height, each
	// crossing one vline, spanning a gap between adjacent vlines.
	for i := 0; i < len(halves); i++ {
		for j := i + 1; j < len(halves); j++ {
			a, b := halves[i], halves[j]
			if geom.Abs(a.seg.Y-b.seg.Y) > cfg.YTol {
				continue
			}
			if a.seg.X0 > b.seg.X0 {
				a, b = b, a
			}
			// a must end at a vline and b start at another, with the
			// measured span between them.
			via, va := vlineNear(in, a.seg.X1, a.seg.Y, cfg.YTol)
			vib, vb := vlineNear(in, b.seg.X0, b.seg.Y, cfg.YTol)
			if va == nil || vb == nil || va.X >= vb.X {
				continue
			}
			arrows = append(arrows, rawArrow{
				y: a.seg.Y, x0: va.X, x1: vb.X,
				v0Idx: via, v1Idx: vib, shaftLines: []int{a.idx, b.idx},
			})
		}
	}

	// Deduplicate. The stable sort keeps the y/x0 ordering the SPO
	// builder depends on while making the dedup winner (and therefore the
	// surviving provenance) deterministic for tied keys.
	sort.SliceStable(arrows, func(i, j int) bool {
		if arrows[i].y != arrows[j].y {
			return arrows[i].y < arrows[j].y
		}
		return arrows[i].x0 < arrows[j].x0
	})
	var uniq []rawArrow
	for _, a := range arrows {
		dup := false
		for _, u := range uniq {
			if geom.Abs(u.y-a.y) <= cfg.YTol && geom.Abs(u.x0-a.x0) <= 2 && geom.Abs(u.x1-a.x1) <= 2 {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, a)
		}
	}
	return uniq
}

// vlineNear returns the vline whose column is within tol of x and whose
// span covers row y (tolerantly), plus its Input.Lines.V index, or
// (-1, nil).
func vlineNear(in Input, x, y, tol int) (int, *geom.VSeg) {
	for i := range in.Lines.V {
		v := in.Lines.V[i].Seg
		if geom.Abs(v.X-x) <= tol+2 && y >= v.Y0-tol && y <= v.Y1+tol {
			return i, &v
		}
	}
	return -1, nil
}

// classifyTexts assigns roles by position: texts sitting at the left end of
// a dashed threshold line are signal values even in the left margin,
// far-left texts are signal names, texts just above an arrow span are
// timing constraints, and the rest are signal values (thresholds, boundary
// values). The index slices run parallel to the role lists and hold each
// text's original position in Input.Texts, so provenance can point at the
// OCR box a role-classified text came from.
func classifyTexts(in Input, arrows []rawArrow, cfg Config) (names, values, constraints []ocr.Result, nameIdx, valueIdx, consIdx []int) {
	leftMargin := in.Width * 13 / 100
	for ti, t := range in.Texts {
		cx := t.Box.CenterX()
		switch {
		case isThresholdLabel(t.Box, in):
			values = append(values, t)
			valueIdx = append(valueIdx, ti)
		case t.Box.X0 < leftMargin && cx < leftMargin*3/2:
			names = append(names, t)
			nameIdx = append(nameIdx, ti)
		case isConstraintLabel(t.Box, arrows):
			constraints = append(constraints, t)
			consIdx = append(consIdx, ti)
		default:
			values = append(values, t)
			valueIdx = append(valueIdx, ti)
		}
	}
	return names, values, constraints, nameIdx, valueIdx, consIdx
}

// isThresholdLabel reports whether a text box sits immediately beside a
// dashed horizontal line at the same height — the threshold annotation
// position (either end of the line).
func isThresholdLabel(box geom.Rect, in Input) bool {
	for _, h := range in.Lines.H {
		if !lad.Dashed(h.Density) {
			continue
		}
		if geom.Abs(box.CenterY()-h.Seg.Y) > 8 {
			continue
		}
		leftGap := h.Seg.X0 - box.X1
		if leftGap >= -12 && leftGap <= 30 && h.Seg.X1 > box.X1+20 {
			return true
		}
		rightGap := box.X0 - h.Seg.X1
		if rightGap >= -12 && rightGap <= 30 && h.Seg.X0 < box.X0-20 {
			return true
		}
	}
	return false
}

// isConstraintLabel reports whether a text box sits just above an arrow,
// inside its span.
func isConstraintLabel(box geom.Rect, arrows []rawArrow) bool {
	cx := box.CenterX()
	for _, a := range arrows {
		if cx >= a.x0 && cx <= a.x1 && box.Y1 <= a.y && box.Y1 >= a.y-28 {
			return true
		}
	}
	return false
}

// eventVLines collects the unique vertical lines that carry an event or an
// arrow endpoint.
func eventVLines(events []Event, arrows []rawArrow) []geom.VSeg {
	var out []geom.VSeg
	add := func(v geom.VSeg) {
		for _, u := range out {
			if u == v {
				return
			}
		}
		out = append(out, v)
	}
	for _, e := range events {
		add(e.VLine)
	}
	_ = arrows
	return out
}

func appendHSegUnique(segs []geom.HSeg, s geom.HSeg) []geom.HSeg {
	for _, u := range segs {
		if u == s {
			return segs
		}
	}
	return append(segs, s)
}

// buildSPO generates the SPO: one node per unique vline referenced by a
// timing constraint (paper Sec. V.3), attributed through its edge-box event;
// one constraint per arrow, ordered left to right. When the interpretation
// is not a strict partial order, the minimal offending constraints are
// dropped and reported as diagnostics — unless cfg.Strict, which keeps the
// historical hard failure.
func buildSPO(in Input, cfg Config, groups [][]sed.Detection, events []Event,
	arrows []rawArrow, names, values, constraints []ocr.Result,
	nameIdx, valueIdx, consIdx []int) (*spo.SPO, []dataset.Arrow, []diag.Diagnostic, error) {

	// Map each edge box to (signal index, edge index within signal).
	type sigPos struct{ signal, edge int }
	boxPos := map[int]sigPos{}
	for si, g := range groups {
		for ei, d := range g {
			for bi := range in.Edges {
				if in.Edges[bi].Box == d.Box && in.Edges[bi].Type == d.Type {
					boxPos[bi] = sigPos{signal: si, edge: ei + 1}
				}
			}
		}
	}

	// Signal names: nearest name text to each group's vertical centre.
	// groupNameIdx remembers which Input.Texts entry supplied each name
	// (-1 for the synthesized S<n> fallback), for provenance.
	groupName := make([]string, len(groups))
	groupNameIdx := make([]int, len(groups))
	for si, g := range groups {
		groupNameIdx[si] = -1
		if len(g) == 0 {
			continue
		}
		y0, y1 := g[0].Box.Y0, g[0].Box.Y1
		for _, d := range g {
			if d.Box.Y0 < y0 {
				y0 = d.Box.Y0
			}
			if d.Box.Y1 > y1 {
				y1 = d.Box.Y1
			}
		}
		cy := (y0 + y1) / 2
		best, bestD, bestI := "", 1<<30, -1
		for ni, n := range names {
			if d := geom.Abs(n.Box.CenterY() - cy); d < bestD {
				best, bestD, bestI = n.Text, d, nameIdx[ni]
			}
		}
		if best == "" {
			best = fmt.Sprintf("S%d", si+1)
		} else if cfg.NameLexicon != nil {
			best = cfg.NameLexicon.Correct(best)
		}
		groupName[si] = best
		groupNameIdx[si] = bestI
	}

	// Events used by arrows, deduplicated by vline column.
	type nodeInfo struct {
		x     int
		event *Event
	}
	nodeByX := map[int]*nodeInfo{}
	findEvent := func(x int) *Event {
		for i := range events {
			if geom.Abs(events[i].X-x) <= 2 {
				return &events[i]
			}
		}
		return nil
	}
	for _, a := range arrows {
		for _, x := range []int{a.x0, a.x1} {
			if _, ok := nodeByX[x]; !ok {
				nodeByX[x] = &nodeInfo{x: x, event: findEvent(x)}
			}
		}
	}
	xs := make([]int, 0, len(nodeByX))
	for x := range nodeByX {
		xs = append(xs, x)
	}
	sort.Ints(xs)

	p := &spo.SPO{}
	nodeIdx := map[int]int{}
	for _, x := range xs {
		ni := nodeByX[x]
		node := spo.Node{Signal: "?", EdgeIndex: 0, Type: spo.RiseStep, Threshold: spo.NoThreshold}
		prov := spo.NodeProv{EdgeBox: -1, VLine: -1, HLine: -1, NameText: -1, ThresholdText: -1}
		if ni.event != nil {
			b := in.Edges[ni.event.BoxIdx]
			node.Type = b.Type
			prov.EdgeBox = ni.event.BoxIdx
			prov.VLine = ni.event.VIdx
			prov.HLine = ni.event.HIdx
			if pos, ok := boxPos[ni.event.BoxIdx]; ok {
				node.Signal = groupName[pos.signal]
				node.EdgeIndex = pos.edge
				prov.NameText = groupNameIdx[pos.signal]
			}
			if !b.Type.IsStep() {
				th, ti := thresholdText(ni.event, values)
				if ti >= 0 {
					prov.ThresholdText = valueIdx[ti]
				}
				if th != "?" && cfg.ValueLexicon != nil {
					th = cfg.ValueLexicon.Correct(th)
				}
				node.Threshold = th
			}
		}
		nodeIdx[x] = p.AddNode(node)
		p.NodeProv = append(p.NodeProv, prov)
	}

	var labelled []dataset.Arrow
	for _, a := range arrows {
		x0, x1 := a.x0, a.x1
		v0, v1 := a.v0Idx, a.v1Idx
		if x0 > x1 {
			x0, x1 = x1, x0
			v0, v1 = v1, v0
		}
		label, ci := arrowLabel(a, constraints)
		if err := p.AddConstraint(nodeIdx[x0], nodeIdx[x1], label); err != nil {
			return nil, nil, nil, err
		}
		cprov := spo.ConstraintProv{SrcVLine: v0, DstVLine: v1, LabelText: -1}
		if ci >= 0 {
			cprov.LabelText = consIdx[ci]
		}
		cprov.HLines = append(cprov.HLines, a.shaftLines...)
		p.ConstraintProv = append(p.ConstraintProv, cprov)
		labelled = append(labelled, dataset.Arrow{Y: a.y, X0: x0, X1: x1, Label: label})
	}
	if err := p.Validate(); err != nil {
		if cfg.Strict {
			// A cyclic or degenerate interpretation is a structural
			// failure: report it rather than emit a non-SPO.
			return nil, nil, nil, fmt.Errorf("sei: interpretation is not a strict partial order: %w", err)
		}
		// Best-effort mode: drop the minimal offending constraints and
		// keep the rest of the interpretation usable.
		var diags []diag.Diagnostic
		p.Constraints, labelled, diags = repairOrder(p, labelled)
		return p, labelled, diags, nil
	}
	return p, labelled, nil, nil
}

// repairOrder makes the constraint graph a strict partial order again by
// dropping the minimal offending constraints: self-loops first, then one
// constraint per remaining cycle (deterministically the last-added
// constraint inside the cyclic residue, i.e. the rightmost arrow — later
// arrows are likelier misreadings than the constraints they contradict).
// labelled is the per-constraint arrow list and is pruned in lockstep.
func repairOrder(p *spo.SPO, labelled []dataset.Arrow) ([]spo.Constraint, []dataset.Arrow, []diag.Diagnostic) {
	var diags []diag.Diagnostic
	cons := p.Constraints
	prov := p.ConstraintProv
	drop := func(k int, why string) {
		loc := geom.Rect{X0: labelled[k].X0, Y0: labelled[k].Y - 2, X1: labelled[k].X1, Y1: labelled[k].Y + 2}
		diags = append(diags, diag.At(diag.StageSEI, diag.Warning, loc,
			"dropped constraint %q (%d -> %d): %s", labelled[k].Label, cons[k].Src, cons[k].Dst, why))
		cons = append(cons[:k], cons[k+1:]...)
		labelled = append(labelled[:k], labelled[k+1:]...)
		// ConstraintProv runs parallel to Constraints; prune in lockstep.
		if k < len(prov) {
			prov = append(prov[:k], prov[k+1:]...)
		}
	}
	for k := 0; k < len(cons); k++ {
		if cons[k].Src == cons[k].Dst {
			drop(k, "self-loop violates irreflexivity")
			k--
		}
	}
	for {
		p.Constraints = cons
		p.ConstraintProv = prov
		residue := cyclicResidue(p)
		if len(residue) == 0 {
			return cons, labelled, diags
		}
		// Remove the last-added constraint that runs inside the residue.
		removed := false
		for k := len(cons) - 1; k >= 0; k-- {
			if residue[cons[k].Src] && residue[cons[k].Dst] {
				drop(k, "breaks a constraint cycle")
				removed = true
				break
			}
		}
		if !removed {
			// Cannot happen: a non-empty residue always contains a
			// constraint. Guard against an infinite loop regardless.
			return cons, labelled, diags
		}
	}
}

// cyclicResidue runs Kahn's algorithm and returns the set of nodes left
// unordered — exactly the nodes involved in (or downstream-locked by)
// constraint cycles. An empty map means the graph is acyclic.
func cyclicResidue(p *spo.SPO) map[int]bool {
	n := len(p.Nodes)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, c := range p.Constraints {
		adj[c.Src] = append(adj[c.Src], c.Dst)
		indeg[c.Dst]++
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		done++
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if done == n {
		return nil
	}
	residue := make(map[int]bool)
	for i := 0; i < n; i++ {
		if indeg[i] > 0 {
			residue[i] = true
		}
	}
	return residue
}

// thresholdText finds the printed threshold of an event: the value text
// closest to the event's threshold line, to its left. The second result is
// the chosen text's index in values (-1 if none matched).
func thresholdText(e *Event, values []ocr.Result) (string, int) {
	if e.HLine == nil {
		return "?", -1
	}
	best, bestD, bestI := "?", 1<<30, -1
	for vi, v := range values {
		dy := geom.Abs(v.Box.CenterY() - e.HLine.Y)
		if dy > 8 {
			continue
		}
		// Labels sit at either end of the line; the detected contour may
		// have absorbed the label itself, so allow some overlap.
		var dx int
		switch {
		case v.Box.X0 <= e.HLine.X0: // left side
			dx = e.HLine.X0 - v.Box.X1
		case v.Box.X1 >= e.HLine.X1: // right side
			dx = v.Box.X0 - e.HLine.X1
		default:
			continue // inside the line span: not a threshold label
		}
		if dx > 60 || dx < -40 {
			continue
		}
		if dx < 0 {
			dx = 0
		}
		if d := dy*4 + dx; d < bestD {
			best, bestD, bestI = v.Text, d, vi
		}
	}
	return best, bestI
}

// arrowLabel finds the timing-parameter text of an arrow: the constraint
// text just above the shaft, inside its span. The second result is the
// chosen text's index in constraints (-1 if none matched).
func arrowLabel(a rawArrow, constraints []ocr.Result) (string, int) {
	best, bestD, bestI := "t?", 1<<30, -1
	for ci, c := range constraints {
		cx := c.Box.CenterX()
		if cx < a.x0 || cx > a.x1 {
			continue
		}
		dy := a.y - c.Box.Y1
		if dy < 0 || dy > 28 {
			continue
		}
		if dy < bestD {
			best, bestD, bestI = c.Text, dy, ci
		}
	}
	return best, bestI
}
