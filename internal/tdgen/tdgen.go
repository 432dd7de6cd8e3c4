// Package tdgen implements L-TD-G, the paper's synthetic labelled
// timing-diagram generator (Sec. IV).
//
// A generated TD is produced in three stages, following the paper:
//
//  1. Signal/edge selection — two stacked signals (Signal_1 rise-then-fall,
//     Signal_2 fall-then-rise), each with a randomly chosen kind, giving the
//     edge types of the four bounding boxes b11, b12, b21, b22.
//  2. Inter/intra-relation selection — one of the five supported
//     inter-relation cases ((1) b11<b21, (2) b12<b21, (3) b11<b21 ∧ b12<b22,
//     (4) b11<b22, (5) b12<b22), plus randomly annotated intra-relations
//     b_i1 < b_i2.
//  3. Constraint solving — the layout inequalities of Groups 1–3 are
//     assembled into a linear system and a concrete layout is drawn
//     uniformly from the feasible polytope with hit-and-run MCMC
//     (internal/polytope, replacing the anyHR library).
//
// The paper counts 18 layout variables; two of them are fixed by the
// equalities y_{1,1u} = y_{1,2u} and y_{2,1d} = y_{2,2d} (shared plateau
// levels), which this implementation eliminates by variable identification
// so that the sampled polytope is full-dimensional. Case 3 therefore samples
// 16 free dimensions, the single-inter-arrow cases 15.
package tdgen

import (
	"fmt"
	"math"
	"math/rand"

	"tdmagic/internal/dataset"
	"tdmagic/internal/diagram"
	"tdmagic/internal/parallel"
	"tdmagic/internal/polytope"
	"tdmagic/internal/spo"
)

// Mode selects the generation regime of Sec. VI.1: G1 is the default
// two-signal mode, G2 renders one big signal per picture, and G3 uses
// simplified constraints with a special focus on ramp signals.
type Mode int

// Generation modes.
const (
	G1 Mode = iota + 1
	G2
	G3
)

// String returns the paper's group name.
func (m Mode) String() string {
	switch m {
	case G1:
		return "G1"
	case G2:
		return "G2"
	case G3:
		return "G3"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config holds the layout-ratio parameters of constraint Groups 1–3 and the
// rendering style.
type Config struct {
	Mode  Mode
	Style diagram.Style

	// Group 1 ratios: box height, bottom margin, top margin.
	RYh, RYd, RYu float64
	// Group 2 ratios: box width, left/intra/right margins, inter-signal
	// distance.
	RXw, RXl, RXm, RXr, RXi float64
	// Group 3: label clearance above an arrow and clearance below, as
	// fractions of the annotation band.
	L1, L2 float64

	// BurnIn is the number of hit-and-run warm-up steps per diagram.
	BurnIn int
}

// DefaultConfig returns the configuration used for the experiments.
func DefaultConfig(mode Mode) Config {
	c := Config{
		Mode:  mode,
		Style: diagram.DefaultStyle(),
		RYh:   0.40, RYd: 0.06, RYu: 0.06,
		RXw: 0.06, RXl: 0.04, RXm: 0.10, RXr: 0.04, RXi: 0.04,
		L1: 0.30, L2: 0.10,
		BurnIn: 64,
	}
	switch mode {
	case G2:
		// One big signal per picture.
		c.Style.AnnotFrac = 0.22
		c.RYh = 0.6
		c.RXw = 0.10
	case G3:
		// Simplified constraints, focus on ramp signals: wider boxes,
		// gentler slopes, generous margins.
		c.RXw = 0.12
		c.RXm = 0.14
		c.RYh = 0.5
	}
	return c
}

// Generator produces labelled synthetic timing diagrams.
//
// A generator built with New draws every sample from one shared random
// stream, so samples depend on generation order. A generator built with
// NewSeeded instead derives an independent child stream per sample index
// from the master seed, which makes each sample a self-contained unit of
// work: GenerateNWorkers produces the identical sample set for any worker
// count.
type Generator struct {
	cfg    Config
	rng    *rand.Rand // shared-stream mode (New)
	seed   int64      // per-sample-stream mode (NewSeeded)
	seeded bool
	n      int // serial for names / next sample index
}

// New returns a generator for the given config, drawing randomness from rng.
func New(cfg Config, rng *rand.Rand) *Generator {
	return &Generator{cfg: cfg, rng: rng}
}

// NewSeeded returns a generator whose i-th sample is drawn from its own
// random stream derived from (seed, i). Sample content then depends only on
// the seed and the sample index — not on how many samples were generated
// before it on this Generator, nor on how many workers GenerateNWorkers
// fans out over.
func NewSeeded(cfg Config, seed int64) *Generator {
	return &Generator{cfg: cfg, seed: seed, seeded: true}
}

// gen is the per-sample generation context: one random stream plus the
// config. In seeded mode each sample gets a fresh gen, so concurrent
// workers share nothing mutable.
type gen struct {
	cfg Config
	rng *rand.Rand
}

// signal-name and timing-parameter pools, mirroring common datasheet
// vocabulary.
var (
	signalNamePool = []string{
		"V_{INA}", "V_{OUTA}", "V_{INB}", "V_{OUTB}", "SI", "SO", "SCK",
		"CLK", "EN", "CS", "RST", "V_{CC}", "DATA", "STCP", "SHCP", "MR",
		"TXD", "RXD", "INH", "OUT", "IN",
	}
	delayPool = []string{
		"t_{1}", "t_{2}", "t_{3}", "t_{s}", "t_{h}", "t_{D(on)}",
		"t_{D(off)}", "t_{r}", "t_{f}", "t_{W}", "t_{su}", "t_{PLH}",
		"t_{PHL}", "t_{REC}", "t_{THL}", "t_{TLH}",
	}
	riseThresholds = []struct {
		frac float64
		text string
	}{{0.9, "90%"}, {0.8, "80%"}, {0.5, "50%"}, {0.7, "70%"}}
	fallThresholds = []struct {
		frac float64
		text string
	}{{0.1, "10%"}, {0.2, "20%"}, {0.5, "50%"}, {0.3, "30%"}}
)

// pickKind draws a signal kind with the class balance that produces the
// paper's Table I label mix (ramps dominate, doubles are rare).
func (g *gen) pickKind() diagram.SignalKind {
	switch r := g.rng.Float64(); {
	case r < 0.776:
		return diagram.Ramp
	case r < 0.934:
		return diagram.Digital
	default:
		return diagram.DoubleRamp
	}
}

// pickKindG3 focuses on ramp and double signals (Group G3).
func (g *gen) pickKindG3() diagram.SignalKind {
	if g.rng.Float64() < 0.7 {
		return diagram.Ramp
	}
	return diagram.DoubleRamp
}

// layoutVars names the sampled dimensions.
type layoutVars struct {
	x11l, x11r, x12l, x12r int
	x21l, x21r, x22l, x22r int
	y11d, y1u, y12d        int
	y21u, y2d, y22u        int
	ya                     []int // arrow rows (annotation-band fractions)
}

// Generate produces one labelled timing diagram. Layouts whose event
// columns nearly coincide are re-drawn: two events on the same vertical
// line would merge into a single annotation line, which a designer avoids.
func (g *Generator) Generate() (*dataset.Sample, error) {
	i := g.n
	g.n++
	return g.generateAt(i)
}

// GenerateAt produces the sample with index i (0-based) of a seeded
// generator's stream, independently of any other sample. It panics on a
// generator built with New, whose samples share one random stream.
func (g *Generator) GenerateAt(i int) (*dataset.Sample, error) {
	if !g.seeded {
		panic("tdgen: GenerateAt requires a NewSeeded generator")
	}
	return g.generateAt(i)
}

// generateAt builds sample i using the appropriate random stream: the
// per-index child stream in seeded mode, the shared stream otherwise.
func (g *Generator) generateAt(i int) (*dataset.Sample, error) {
	rng := g.rng
	if g.seeded {
		rng = rand.New(rand.NewSource(parallel.Seed(g.seed, int64(i))))
	}
	return (&gen{cfg: g.cfg, rng: rng}).generate(i + 1)
}

// generate builds one sample with the given name serial, retrying layouts
// whose event columns nearly coincide.
func (g *gen) generate(serial int) (*dataset.Sample, error) {
	const retries = 24
	var last *dataset.Sample
	var err error
	for attempt := 0; attempt < retries; attempt++ {
		switch g.cfg.Mode {
		case G2:
			last, err = g.generateSingle(fmt.Sprintf("g2-%05d", serial), false)
		case G3:
			if g.rng.Float64() < 0.4 {
				last, err = g.generateSingle(fmt.Sprintf("g3-%05d", serial), true)
			} else {
				last, err = g.generatePair(fmt.Sprintf("g3-%05d", serial), true)
			}
		default:
			last, err = g.generatePair(fmt.Sprintf("g1-%05d", serial), false)
		}
		if err != nil {
			return nil, err
		}
		if eventColumnsSeparated(last, 8) {
			return last, nil
		}
	}
	return last, nil
}

// eventColumnsSeparated reports whether every pair of event lines is at
// least minDX pixels apart.
func eventColumnsSeparated(s *dataset.Sample, minDX int) bool {
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

// GenerateN produces n labelled diagrams.
func (g *Generator) GenerateN(n int) ([]*dataset.Sample, error) {
	return g.GenerateNWorkers(n, 1)
}

// GenerateNWorkers produces n labelled diagrams, fanning the work out over
// workers goroutines (<= 0 means GOMAXPROCS). On a seeded generator the
// output is identical for any worker count, because each sample draws from
// its own index-derived random stream; a shared-stream generator (New)
// falls back to sequential generation to preserve its stream order.
func (g *Generator) GenerateNWorkers(n, workers int) ([]*dataset.Sample, error) {
	out := make([]*dataset.Sample, n)
	if !g.seeded {
		for i := 0; i < n; i++ {
			s, err := g.Generate()
			if err != nil {
				return nil, fmt.Errorf("tdgen: sample %d: %w", i, err)
			}
			out[i] = s
		}
		return out, nil
	}
	base := g.n
	g.n += n
	err := parallel.ForErr(workers, n, func(i int) error {
		s, err := g.generateAt(base + i)
		if err != nil {
			return fmt.Errorf("tdgen: sample %d: %w", base+i, err)
		}
		out[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// interCase describes one of the five supported inter-relation orders.
type interCase struct {
	// pairs of (signal-1 box, signal-2 box) indices (0 or 1) that are
	// related; each pair receives an inter-relation arrow.
	pairs [][2]int
}

var interCases = []interCase{
	{pairs: [][2]int{{0, 0}}},         // (1) b11 < b21
	{pairs: [][2]int{{1, 0}}},         // (2) b12 < b21
	{pairs: [][2]int{{0, 0}, {1, 1}}}, // (3) b11 < b21 and b12 < b22
	{pairs: [][2]int{{0, 1}}},         // (4) b11 < b22
	{pairs: [][2]int{{1, 1}}},         // (5) b12 < b22
}

// generatePair builds the default two-signal TD (modes G1/G3).
func (g *gen) generatePair(name string, rampFocus bool) (*dataset.Sample, error) {
	cfg := g.cfg
	caseIdx := g.rng.Intn(len(interCases))
	ic := interCases[caseIdx]
	intra1 := g.rng.Float64() < 0.5
	intra2 := g.rng.Float64() < 0.5
	if len(ic.pairs) == 0 && !intra1 && !intra2 {
		intra1 = true
	}
	nArrows := len(ic.pairs)
	nIntra := 0
	if intra1 {
		nIntra++
	}
	if intra2 {
		nIntra++
	}

	// Assemble the constraint system. Variables 0..13 as in layoutVars,
	// then one annotation-row variable per inter arrow.
	v := layoutVars{
		x11l: 0, x11r: 1, x12l: 2, x12r: 3,
		x21l: 4, x21r: 5, x22l: 6, x22r: 7,
		y11d: 8, y1u: 9, y12d: 10,
		y21u: 11, y2d: 12, y22u: 13,
	}
	dim := 14
	for i := 0; i < nArrows; i++ {
		v.ya = append(v.ya, dim)
		dim++
	}
	sys := polytope.NewSystem(dim)

	// Group 2: x-constraints for both signals (bounds, ordering, widths,
	// margins).
	addXChain := func(l1, r1, l2, r2 int) {
		sys.AddGE(map[int]float64{l1: 1}, cfg.RXl)   // 2.3(1) left margin
		sys.AddDiffGE(r1, l1, cfg.RXw)               // 2.2(1) width
		sys.AddDiffGE(l2, r1, cfg.RXm)               // 2.3(2) intra margin
		sys.AddDiffGE(r2, l2, cfg.RXw)               // 2.2(2) width
		sys.AddLE(map[int]float64{r2: 1}, 1-cfg.RXr) // 2.3(3) right margin
	}
	addXChain(v.x11l, v.x11r, v.x12l, v.x12r)
	addXChain(v.x21l, v.x21r, v.x22l, v.x22r)
	// 2.4 inter-relation distances for the selected case.
	s1r := []int{v.x11r, v.x12r}
	s2l := []int{v.x21l, v.x22l}
	for _, p := range ic.pairs {
		sys.AddDiffGE(s2l[p[1]], s1r[p[0]], cfg.RXi)
	}

	// Group 1: y-constraints. Signal 1 shares its top plateau (y1u);
	// Signal 2 shares its bottom plateau (y2d).
	sys.AddGE(map[int]float64{v.y11d: 1}, cfg.RYd)   // 1.3(1)
	sys.AddGE(map[int]float64{v.y12d: 1}, cfg.RYd)   // 1.3(2)
	sys.AddLE(map[int]float64{v.y1u: 1}, 1-cfg.RYu)  // 1.3(3)
	sys.AddDiffGE(v.y1u, v.y11d, cfg.RYh)            // 1.2(1)
	sys.AddDiffGE(v.y1u, v.y12d, cfg.RYh)            // 1.2(2)
	sys.AddLE(map[int]float64{v.y21u: 1}, 1-cfg.RYu) // 1.4(1)
	sys.AddLE(map[int]float64{v.y22u: 1}, 1-cfg.RYu) // 1.4(2)
	sys.AddGE(map[int]float64{v.y2d: 1}, cfg.RYd)    // 1.4(3)
	sys.AddDiffGE(v.y21u, v.y2d, cfg.RYh)
	sys.AddDiffGE(v.y22u, v.y2d, cfg.RYh)

	// Group 3: annotation rows of the inter-relation arrows (fractions of
	// the annotation band, 0 = top). Each needs label clearance above
	// (3.2/3.3 — l1 is a function of the text height) and clearance below.
	eps := 0.04 + 0.04*g.rng.Float64() // the sampled ε of Sec. IV
	for _, ya := range v.ya {
		sys.AddGE(map[int]float64{ya: 1}, cfg.L1)
		sys.AddLE(map[int]float64{ya: 1}, 1-cfg.L2)
	}
	if len(v.ya) == 2 {
		sys.AddDiffGE(v.ya[1], v.ya[0], cfg.L1+eps) // 3.4 overlap avoidance
	}

	sampler, err := polytope.NewSampler(sys, g.rng)
	if err != nil {
		return nil, fmt.Errorf("tdgen: constraint system: %w", err)
	}
	sampler.Thin = 4
	for i := 0; i < cfg.BurnIn; i++ {
		_ = sampler.Next()
	}
	x := sampler.Next()

	// Build the diagram from the sampled layout.
	kind1, kind2 := g.pickKind(), g.pickKind()
	if rampFocus {
		kind1, kind2 = g.pickKindG3(), g.pickKindG3()
	}
	names := g.pickNames(2)
	delays := g.pickDelays(nArrows + nIntra)

	sig1 := g.buildSignal(names[0], kind1, true,
		[4]float64{x[v.x11l], x[v.x11r], x[v.x12l], x[v.x12r]},
		[3]float64{x[v.y11d], x[v.y1u], x[v.y12d]})
	sig2 := g.buildSignal(names[1], kind2, false,
		[4]float64{x[v.x21l], x[v.x21r], x[v.x22l], x[v.x22r]},
		[3]float64{x[v.y21u], x[v.y2d], x[v.y22u]})

	d := &diagram.Diagram{
		Name:    name,
		Signals: []diagram.Signal{sig1, sig2},
		Style:   cfg.Style,
	}
	di := 0
	for k, p := range ic.pairs {
		d.Arrows = append(d.Arrows, diagram.Arrow{
			From:  diagram.EventRef{Signal: 0, Edge: p[0]},
			To:    diagram.EventRef{Signal: 1, Edge: p[1]},
			Label: delays[di],
			Y:     x[v.ya[k]],
		})
		di++
	}
	// Intra-relation arrows go above or below the inter rows (Sec. IV:
	// "above or below these two pseudo-rectangles").
	intraRows := g.intraRows(x, v, nIntra)
	ri := 0
	if intra1 {
		d.Arrows = append(d.Arrows, diagram.Arrow{
			From:  diagram.EventRef{Signal: 0, Edge: 0},
			To:    diagram.EventRef{Signal: 0, Edge: 1},
			Label: delays[di], Y: intraRows[ri],
		})
		di++
		ri++
	}
	if intra2 {
		d.Arrows = append(d.Arrows, diagram.Arrow{
			From:  diagram.EventRef{Signal: 1, Edge: 0},
			To:    diagram.EventRef{Signal: 1, Edge: 1},
			Label: delays[di], Y: intraRows[ri],
		})
		ri++
	}
	g.markEvents(d)
	g.decorate(d)
	d.Style.AnnotFrac = annotFrac(len(d.Arrows))
	return d.Render()
}

// intraRows chooses annotation rows for intra arrows that avoid the
// sampled inter rows.
func (g *gen) intraRows(x []float64, v layoutVars, n int) []float64 {
	used := make([]float64, 0, len(v.ya))
	for _, ya := range v.ya {
		used = append(used, x[ya])
	}
	var rows []float64
	candidates := []float64{0.08, 0.5, 0.92, 0.3, 0.7}
	for _, c := range candidates {
		if len(rows) == n {
			break
		}
		ok := true
		for _, u := range append(used, rows...) {
			if math.Abs(c-u) < 0.22 {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, c)
		}
	}
	for len(rows) < n { // fallback: stack at the bottom
		rows = append(rows, 0.95)
	}
	return rows
}

// annotFrac sizes the annotation band for the number of arrow rows.
func annotFrac(nArrows int) float64 {
	f := 0.16 + 0.07*float64(nArrows)
	if f > 0.44 {
		f = 0.44
	}
	return f
}

// buildSignal converts sampled box coordinates into a diagram signal.
// riseFirst selects the rise-then-fall (Signal_1) or fall-then-rise
// (Signal_2) pattern. ys holds, for riseFirst, {y11d, y1u, y12d}; otherwise
// {y21u, y2d, y22u}.
func (g *gen) buildSignal(name string, kind diagram.SignalKind, riseFirst bool, xs [4]float64, ys [3]float64) diagram.Signal {
	s := diagram.Signal{Name: name, Kind: kind}
	mk := func(t spo.EdgeType, x0, x1, lo, hi float64) diagram.Edge {
		e := diagram.Edge{Type: t, X0: x0, X1: x1, YLow: lo, YHigh: hi}
		if t == spo.RiseRamp {
			th := riseThresholds[g.rng.Intn(len(riseThresholds))]
			e.Threshold, e.ThresholdText = th.frac, th.text
		}
		if t == spo.FallRamp {
			th := fallThresholds[g.rng.Intn(len(fallThresholds))]
			e.Threshold, e.ThresholdText = th.frac, th.text
		}
		if t == spo.Double {
			e.Threshold, e.ThresholdText = 0.5, "50%"
		}
		return e
	}
	var riseT, fallT spo.EdgeType
	switch kind {
	case diagram.Digital:
		riseT, fallT = spo.RiseStep, spo.FallStep
	case diagram.Ramp:
		riseT, fallT = spo.RiseRamp, spo.FallRamp
	default:
		riseT, fallT = spo.Double, spo.Double
	}
	if kind == diagram.DoubleRamp {
		// Bus signals keep common rails; use the first box's levels.
		lo, hi := min(ys[0], ys[1]), max(ys[0], ys[1])
		if hi-lo < 0.2 {
			lo, hi = 0.15, 0.85
		}
		s.Edges = []diagram.Edge{
			mk(spo.Double, xs[0], xs[1], lo, hi),
			mk(spo.Double, xs[2], xs[3], lo, hi),
		}
		return s
	}
	if riseFirst {
		s.Edges = []diagram.Edge{
			mk(riseT, xs[0], xs[1], ys[0], ys[1]),
			mk(fallT, xs[2], xs[3], ys[2], ys[1]),
		}
	} else {
		s.Edges = []diagram.Edge{
			mk(fallT, xs[0], xs[1], ys[1], ys[0]),
			mk(riseT, xs[2], xs[3], ys[1], ys[2]),
		}
	}
	return s
}

// markEvents sets HasEvent on every edge referenced by an arrow.
func (g *gen) markEvents(d *diagram.Diagram) {
	for _, a := range d.Arrows {
		for _, r := range []diagram.EventRef{a.From, a.To} {
			d.Signals[r.Signal].Edges[r.Edge].HasEvent = true
		}
	}
}

// decorate adds the optional features of Sec. IV ("Other Features") — axes
// and boundary values — and varies the drawing style so the trained models
// see the stroke widths, text sizes and canvas shapes found in real
// datasheets ("maximise the diversity of their shapes").
func (g *gen) decorate(d *diagram.Diagram) {
	d.Style.ShowAxes = g.rng.Float64() < 0.5
	if g.rng.Float64() < 0.4 {
		si := g.rng.Intn(len(d.Signals))
		d.Signals[si].BoundHigh = "V_{CC}"
		d.Signals[si].BoundLow = "GND"
	}
	d.Style.Stroke = 2 + g.rng.Intn(3)
	d.Style.Width = 820 + g.rng.Intn(180)
	d.Style.Height = 500 + g.rng.Intn(120)
	if g.rng.Float64() < 0.25 {
		d.Style.TextScale = 3
		d.Style.LeftMargin = 150
	}
	if g.rng.Float64() < 0.2 {
		d.Style.LineStroke = 2
	}
}

// generateSingle builds a one-big-signal TD (mode G2, and part of G3).
func (g *gen) generateSingle(name string, rampFocus bool) (*dataset.Sample, error) {
	cfg := g.cfg
	sys := polytope.NewSystem(7)
	const (
		xl0, xr0, xl1, xr1 = 0, 1, 2, 3
		yd0, yu, yd1       = 4, 5, 6
	)
	sys.AddGE(map[int]float64{xl0: 1}, cfg.RXl)
	sys.AddDiffGE(xr0, xl0, cfg.RXw)
	sys.AddDiffGE(xl1, xr0, cfg.RXm)
	sys.AddDiffGE(xr1, xl1, cfg.RXw)
	sys.AddLE(map[int]float64{xr1: 1}, 1-cfg.RXr)
	sys.AddGE(map[int]float64{yd0: 1}, cfg.RYd)
	sys.AddGE(map[int]float64{yd1: 1}, cfg.RYd)
	sys.AddLE(map[int]float64{yu: 1}, 1-cfg.RYu)
	sys.AddDiffGE(yu, yd0, cfg.RYh)
	sys.AddDiffGE(yu, yd1, cfg.RYh)

	sampler, err := polytope.NewSampler(sys, g.rng)
	if err != nil {
		return nil, fmt.Errorf("tdgen: single-signal system: %w", err)
	}
	sampler.Thin = 4
	for i := 0; i < cfg.BurnIn; i++ {
		_ = sampler.Next()
	}
	x := sampler.Next()

	kind := g.pickKind()
	if rampFocus {
		kind = g.pickKindG3()
	}
	sig := g.buildSignal(g.pickNames(1)[0], kind, true,
		[4]float64{x[xl0], x[xr0], x[xl1], x[xr1]},
		[3]float64{x[yd0], x[yu], x[yd1]})
	d := &diagram.Diagram{
		Name:    name,
		Signals: []diagram.Signal{sig},
		Arrows: []diagram.Arrow{{
			From:  diagram.EventRef{Signal: 0, Edge: 0},
			To:    diagram.EventRef{Signal: 0, Edge: 1},
			Label: g.pickDelays(1)[0],
			Y:     0.4,
		}},
		Style: cfg.Style,
	}
	g.markEvents(d)
	g.decorate(d)
	d.Style.AnnotFrac = annotFrac(1)
	return d.Render()
}

// pickNames draws n distinct signal names.
func (g *gen) pickNames(n int) []string {
	perm := g.rng.Perm(len(signalNamePool))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = signalNamePool[perm[i]]
	}
	return out
}

// pickDelays draws n distinct timing-parameter labels.
func (g *gen) pickDelays(n int) []string {
	perm := g.rng.Perm(len(delayPool))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = delayPool[perm[i]]
	}
	return out
}
