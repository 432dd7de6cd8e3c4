// Package industrial generates the 30-picture extrapolation corpus that
// stands in for the paper's industrial timing diagrams (29 from
// STMicroelectronics / Infineon datasheets plus the hand-drawn Fig. 1).
//
// The corpus reproduces the statistics the paper reports in Sec. VI.1 —
// 6/19/5 diagrams with 1/2/3 signals, and 59 signals of which 14/38/4/3
// carry 1/2/3/4 edges — and deliberately leaves the synthetic training
// distribution in the ways Sec. VI.3 names as error sources: solid vertical
// annotation lines next to thick step edges (Example 3), dense threshold
// annotations (Fig. 7), outward arrows, subscript-heavy timing labels,
// varied stroke widths and text scales, and scanner noise. Extrapolation
// error in the evaluation therefore emerges from genuinely harder inputs,
// not injected randomness.
package industrial

import (
	"fmt"
	"math"
	"math/rand"

	"tdmagic/internal/dataset"
	"tdmagic/internal/diagram"
	"tdmagic/internal/spo"
)

// tdSpec describes one corpus entry's structure.
type tdSpec struct {
	edges []int // per-signal edge counts
	// corner-case switches
	thickSteps  bool // thick step edges + solid vlines (Example 3)
	denseThresh bool // extra threshold lines (Fig. 7)
	outward     bool // outward arrows on the narrowest span
	noisy       bool // scanner specks
	bigText     bool // text scale 3
	arrows      int  // number of timing constraints to draw
}

// specs is the fixed 30-entry corpus plan. Signal-count histogram: 6 / 19 /
// 5 diagrams with 1 / 2 / 3 signals; edge-count histogram over the 59
// signals: 14 / 38 / 4 / 3 with 1 / 2 / 3 / 4 edges.
var specs = []tdSpec{
	// Six one-signal diagrams.
	{edges: []int{2}, arrows: 1},
	{edges: []int{2}, arrows: 1, bigText: true},
	{edges: []int{3}, arrows: 2},
	{edges: []int{4}, arrows: 3},              // Fig. 1-style double pulse
	{edges: []int{4}, arrows: 3, noisy: true}, // Fig. 1 with scan noise
	{edges: []int{2}, arrows: 1, outward: true},
	// Five three-signal diagrams.
	{edges: []int{2, 1, 2}, arrows: 3},
	{edges: []int{1, 2, 1}, arrows: 2, thickSteps: true},
	{edges: []int{2, 3, 1}, arrows: 4, denseThresh: true},
	{edges: []int{1, 2, 2}, arrows: 3},
	{edges: []int{4, 1, 2}, arrows: 4},
	// Nineteen two-signal diagrams.
	{edges: []int{2, 1}, arrows: 2},
	{edges: []int{2, 1}, arrows: 2, noisy: true},
	{edges: []int{2, 1}, arrows: 1},
	{edges: []int{2, 1}, arrows: 2, outward: true},
	{edges: []int{2, 1}, arrows: 2},
	{edges: []int{2, 1}, arrows: 1, bigText: true},
	{edges: []int{2, 1}, arrows: 2},
	{edges: []int{2, 1}, arrows: 2, thickSteps: true},
	{edges: []int{3, 2}, arrows: 3},
	{edges: []int{3, 2}, arrows: 4, denseThresh: true},
	{edges: []int{2, 2}, arrows: 2},
	{edges: []int{2, 2}, arrows: 2},
	{edges: []int{2, 2}, arrows: 3, noisy: true},
	{edges: []int{2, 2}, arrows: 2, thickSteps: true},
	{edges: []int{2, 2}, arrows: 2},
	{edges: []int{2, 2}, arrows: 3},
	{edges: []int{2, 2}, arrows: 2, bigText: true},
	{edges: []int{2, 2}, arrows: 2, denseThresh: true},
	{edges: []int{2, 2}, arrows: 3},
}

// Industrial vocabulary: overlapping with, but not identical to, the
// synthetic pools — datasheets use house styles.
var (
	namePool = []string{
		"V_{INA}", "V_{OUTA}", "SI", "SCK", "STCP", "SHCP", "MR", "Q_{7S}",
		"CLK", "RESET", "V_{IO}", "TXD", "RXD", "INH", "OUT", "IN",
		"CS", "EN", "V_{BAT}", "WAKE", "NRES", "D_{IN}", "D_{OUT}",
	}
	delayPool = []string{
		"t_{D(on)}", "t_{D(off)}", "t_{s}", "t_{h}", "t_{W}", "t_{r}",
		"t_{f}", "t_{PLH}", "t_{PHL}", "t_{su(D)}", "t_{W(RST)}", "6ns",
		"t_{REC}", "t_{1}", "t_{2}", "t_{3}", "t_{startup}", "t_{to(SIL)}",
	}
)

// Corpus generates the deterministic 30-diagram corpus for a seed.
func Corpus(seed int64) ([]*dataset.Sample, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*dataset.Sample, 0, len(specs))
	for i, sp := range specs {
		s, err := buildTD(rng, i, sp)
		if err != nil {
			return nil, fmt.Errorf("industrial: TD %d: %w", i+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// buildTD renders one corpus entry, retrying geometry until event columns
// are separated.
func buildTD(rng *rand.Rand, idx int, sp tdSpec) (*dataset.Sample, error) {
	var last *dataset.Sample
	var err error
	for attempt := 0; attempt < 30; attempt++ {
		d := buildDiagram(rng, idx, sp)
		last, err = d.Render()
		if err != nil {
			continue // layout collision: re-draw
		}
		if separated(last, 8) {
			return last, nil
		}
	}
	if err != nil {
		return nil, err
	}
	return last, nil
}

func separated(s *dataset.Sample, minDX int) bool {
	for i := 0; i < len(s.VLines); i++ {
		for j := i + 1; j < len(s.VLines); j++ {
			dx := s.VLines[i].X - s.VLines[j].X
			if dx < 0 {
				dx = -dx
			}
			if dx < minDX {
				return false
			}
		}
	}
	return true
}

// buildDiagram assembles the abstract diagram for a spec.
func buildDiagram(rng *rand.Rand, idx int, sp tdSpec) *diagram.Diagram {
	st := diagram.DefaultStyle()
	st.Width = 820 + rng.Intn(180)
	st.Height = 500 + rng.Intn(120)
	st.ShowAxes = rng.Float64() < 0.5
	st.Stroke = 2 + rng.Intn(2)
	if sp.bigText {
		st.TextScale = 3
		st.LeftMargin = 150
	}
	if sp.noisy {
		st.NoiseDots = 40 + rng.Intn(60)
		st.NoiseSeed = rng.Int63()
	}
	if sp.thickSteps {
		st.SolidVLines = true
		st.LineStroke = 2
	}
	st.AnnotFrac = 0.14 + 0.08*float64(sp.arrows)
	if st.AnnotFrac > 0.46 {
		st.AnnotFrac = 0.46
	}

	d := &diagram.Diagram{
		Name:  fmt.Sprintf("ind-%02d", idx+1),
		Style: st,
	}

	names := pick(rng, namePool, len(sp.edges))
	for si, n := range sp.edges {
		kind := pickKind(rng, n)
		sig := buildSignal(rng, names[si], kind, n, sp)
		d.Signals = append(d.Signals, sig)
	}
	if rng.Float64() < 0.4 {
		si := rng.Intn(len(d.Signals))
		d.Signals[si].BoundHigh = "V_{CC}"
		d.Signals[si].BoundLow = "GND"
	}

	addArrows(rng, d, sp)
	return d
}

// pickKind draws a signal kind; single-edge signals lean digital (a lone
// reset or enable transition), longer ones lean analog.
func pickKind(rng *rand.Rand, edges int) diagram.SignalKind {
	r := rng.Float64()
	switch {
	case r < 0.55:
		return diagram.Ramp
	case r < 0.85:
		return diagram.Digital
	default:
		if edges > 3 {
			return diagram.Digital // long bus pulses drawn digital
		}
		return diagram.DoubleRamp
	}
}

// buildSignal lays out n alternating edges across the plot width.
func buildSignal(rng *rand.Rand, name string, kind diagram.SignalKind, n int, sp tdSpec) diagram.Signal {
	s := diagram.Signal{Name: name, Kind: kind}
	lo := 0.08 + 0.10*rng.Float64()
	hi := 0.78 + 0.16*rng.Float64()
	riseFirst := rng.Float64() < 0.5
	// Slot layout with jitter.
	left, right := 0.05, 0.95
	slot := (right - left) / float64(n)
	for i := 0; i < n; i++ {
		isRise := riseFirst == (i%2 == 0)
		var w float64
		if kind == diagram.Digital {
			w = 0.012
		} else {
			w = slot * (0.25 + 0.35*rng.Float64())
		}
		x0 := left + slot*float64(i) + slot*0.15*rng.Float64()
		x1 := x0 + w
		if x1 > right {
			x1 = right
		}
		var et spo.EdgeType
		switch kind {
		case diagram.Digital:
			if isRise {
				et = spo.RiseStep
			} else {
				et = spo.FallStep
			}
		case diagram.Ramp:
			if isRise {
				et = spo.RiseRamp
			} else {
				et = spo.FallRamp
			}
		default:
			et = spo.Double
		}
		e := diagram.Edge{Type: et, X0: x0, X1: x1, YLow: lo, YHigh: hi}
		switch et {
		case spo.RiseRamp:
			e.Threshold, e.ThresholdText = pickThreshold(rng, true)
		case spo.FallRamp:
			e.Threshold, e.ThresholdText = pickThreshold(rng, false)
		case spo.Double:
			e.Threshold, e.ThresholdText = 0.5, "50%"
		}
		if sp.thickSteps && et.IsStep() {
			e.Thick = true
		}
		if sp.denseThresh && !et.IsStep() && rng.Float64() < 0.6 {
			e.ExtraThresholds = []diagram.ThresholdMark{
				{Level: 0.28 + 0.1*rng.Float64(), Text: "1V"},
				{Level: 0.62 + 0.1*rng.Float64(), Text: "2V"},
			}
		}
		s.Edges = append(s.Edges, e)
	}
	return s
}

func pickThreshold(rng *rand.Rand, rise bool) (float64, string) {
	riseOpts := []struct {
		f float64
		t string
	}{{0.9, "90%"}, {0.8, "80%"}, {0.5, "50%"}, {0.7, "70%"}}
	fallOpts := []struct {
		f float64
		t string
	}{{0.1, "10%"}, {0.2, "20%"}, {0.5, "50%"}, {0.3, "30%"}}
	if rise {
		o := riseOpts[rng.Intn(len(riseOpts))]
		return o.f, o.t
	}
	o := fallOpts[rng.Intn(len(fallOpts))]
	return o.f, o.t
}

// eventX estimates the abstract x of an edge's event.
func eventX(e diagram.Edge) float64 {
	switch e.Type {
	case spo.RiseRamp:
		return e.X0 + e.Threshold*(e.X1-e.X0)
	case spo.FallRamp:
		return e.X0 + (1-e.Threshold)*(e.X1-e.X0)
	default:
		return (e.X0 + e.X1) / 2
	}
}

// addArrows selects sp.arrows timing constraints among the diagram's
// events, preferring inter-signal pairs, all pointing left to right.
func addArrows(rng *rand.Rand, d *diagram.Diagram, sp tdSpec) {
	type ev struct {
		ref diagram.EventRef
		x   float64
	}
	var events []ev
	for si, s := range d.Signals {
		for ei, e := range s.Edges {
			events = append(events, ev{ref: diagram.EventRef{Signal: si, Edge: ei}, x: eventX(e)})
		}
	}
	type pair struct{ a, b int }
	var inter, intra []pair
	for i := range events {
		for j := range events {
			if events[j].x-events[i].x < 0.04 {
				continue
			}
			p := pair{i, j}
			if events[i].ref.Signal != events[j].ref.Signal {
				inter = append(inter, p)
			} else {
				intra = append(intra, p)
			}
		}
	}
	rng.Shuffle(len(inter), func(i, j int) { inter[i], inter[j] = inter[j], inter[i] })
	rng.Shuffle(len(intra), func(i, j int) { intra[i], intra[j] = intra[j], intra[i] })
	candidates := append(inter, intra...)

	delays := pick(rng, delayPool, sp.arrows)
	rows := arrowRows(sp.arrows)
	used := map[diagram.EventRef]int{} // events already targeted
	n := 0
	outwardLeft := sp.outward
	for _, p := range candidates {
		if n >= sp.arrows {
			break
		}
		// Keep the constraint graph simple: at most two arrows per event
		// and no duplicate pairs.
		if used[events[p.a].ref] >= 2 || used[events[p.b].ref] >= 2 {
			continue
		}
		dup := false
		for _, a := range d.Arrows {
			if a.From == events[p.a].ref && a.To == events[p.b].ref {
				dup = true
			}
		}
		if dup {
			continue
		}
		arrow := diagram.Arrow{
			From:  events[p.a].ref,
			To:    events[p.b].ref,
			Label: delays[n],
			Y:     rows[n],
		}
		if outwardLeft && events[p.b].x-events[p.a].x < 0.16 {
			arrow.Outward = true
			outwardLeft = false
		}
		d.Arrows = append(d.Arrows, arrow)
		used[events[p.a].ref]++
		used[events[p.b].ref]++
		d.Signals[arrow.From.Signal].Edges[arrow.From.Edge].HasEvent = true
		d.Signals[arrow.To.Signal].Edges[arrow.To.Edge].HasEvent = true
		n++
	}
}

// arrowRows spreads n arrow rows over the annotation band.
func arrowRows(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{0.45}
	}
	rows := make([]float64, n)
	for i := range rows {
		rows[i] = 0.08 + 0.84*float64(i)/float64(n-1)
	}
	return rows
}

// pick draws n distinct entries from pool.
func pick(rng *rand.Rand, pool []string, n int) []string {
	perm := rng.Perm(len(pool))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = pool[perm[i%len(pool)]]
	}
	return out
}

// Stats summarises a corpus the way the paper's Sec. VI.1 does.
type Stats struct {
	TDs          int
	SignalHist   map[int]int // #signals per TD -> count
	EdgeHist     map[int]int // #edges per signal -> count
	Signals      int
	Constraints  int
	MeanW, MeanH float64
	StdW, StdH   float64
}

// ComputeStats tallies corpus statistics.
func ComputeStats(samples []*dataset.Sample) Stats {
	st := Stats{
		TDs:        len(samples),
		SignalHist: map[int]int{},
		EdgeHist:   map[int]int{},
	}
	var sw, sh, sw2, sh2 float64
	for _, s := range samples {
		perSignal := map[int]int{}
		for _, e := range s.Edges {
			perSignal[e.Signal]++
		}
		st.SignalHist[len(perSignal)]++
		st.Signals += len(perSignal)
		for _, n := range perSignal {
			st.EdgeHist[n]++
		}
		st.Constraints += len(s.Arrows)
		w, h := float64(s.Image.W), float64(s.Image.H)
		sw += w
		sh += h
		sw2 += w * w
		sh2 += h * h
	}
	if st.TDs > 0 {
		n := float64(st.TDs)
		st.MeanW, st.MeanH = sw/n, sh/n
		// Rounding can leave a zero variance slightly negative.
		st.StdW = math.Sqrt(max(sw2/n-st.MeanW*st.MeanW, 0))
		st.StdH = math.Sqrt(max(sh2/n-st.MeanH*st.MeanH, 0))
	}
	return st
}
