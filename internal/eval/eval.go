// Package eval implements the paper's experimental evaluation (Sec. VI):
// training-set preparation, the synthetic-validation experiments (Table I
// and the OCR validation), the extrapolation experiments on the industrial
// corpus (Tables II and III), and the overall-performance measurement
// (template-level / totally-correct SPO extraction). Each experiment
// returns a typed result and can print itself in the paper's table format.
package eval

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"tdmagic/internal/core"
	"tdmagic/internal/dataset"
	"tdmagic/internal/detect"
	"tdmagic/internal/geom"
	"tdmagic/internal/industrial"
	"tdmagic/internal/lad"
	"tdmagic/internal/spo"
	"tdmagic/internal/tdgen"
)

// Options configures an evaluation run. The paper trains on 8000/4000/3000
// pictures; the defaults here scale that mix down (same 8:4:3 ratio) so a
// full run finishes in seconds. Raising the counts approaches the paper's
// regime.
type Options struct {
	Seed       int64
	TrainG1    int
	TrainG2    int
	TrainG3    int
	Validation int // held-out synthetic pictures for Table I / OCR val
	CorpusSeed int64
	// Lexicon enables the SEI signal-name dictionary.
	Lexicon bool
	// Workers fans sample generation and training over this many
	// goroutines (<= 0 means GOMAXPROCS). Results are bit-identical for
	// any worker count: every sample draws from its own index-derived
	// rng stream and gradients reduce in a fixed order.
	Workers int
}

// DefaultOptions returns the configuration used by cmd/tdeval and the
// benchmarks.
func DefaultOptions() Options {
	return Options{
		Seed:       1,
		TrainG1:    64,
		TrainG2:    32,
		TrainG3:    24,
		Validation: 40,
		CorpusSeed: 1,
		Lexicon:    true,
	}
}

// nameLexicon is the "prepared database for common signal names" of the
// paper, shared by the evaluation and the CLI.
var nameLexicon = []string{
	"V_{INA}", "V_{OUTA}", "V_{INB}", "V_{OUTB}", "SI", "SO", "SCK", "CLK",
	"EN", "CS", "RST", "RESET", "V_{CC}", "V_{IO}", "DATA", "STCP", "SHCP",
	"MR", "TXD", "RXD", "INH", "OUT", "IN", "Q_{7S}", "V_{BAT}", "WAKE",
	"NRES", "D_{IN}", "D_{OUT}",
}

// NameLexicon returns a copy of the built-in signal-name dictionary.
func NameLexicon() []string { return append([]string(nil), nameLexicon...) }

// valueLexicon covers the common signal-value annotation styles (the
// paper's "empirical study on the style of annotating signal values").
var valueLexicon = []string{
	"10%", "20%", "30%", "40%", "50%", "60%", "70%", "80%", "90%",
	"1V", "2V", "5V", "GND", "V_{CC}",
}

// ValueLexicon returns a copy of the built-in signal-value dictionary.
func ValueLexicon() []string { return append([]string(nil), valueLexicon...) }

// GenTrainingSet produces the G1+G2+G3 synthetic mix.
func GenTrainingSet(opts Options) ([]*dataset.Sample, error) {
	var out []*dataset.Sample
	for _, part := range []struct {
		mode tdgen.Mode
		n    int
	}{{tdgen.G1, opts.TrainG1}, {tdgen.G2, opts.TrainG2}, {tdgen.G3, opts.TrainG3}} {
		if part.n == 0 {
			continue
		}
		g := tdgen.NewSeeded(tdgen.DefaultConfig(part.mode), opts.Seed+int64(part.mode))
		samples, err := g.GenerateNWorkers(part.n, opts.Workers)
		if err != nil {
			return nil, err
		}
		out = append(out, samples...)
	}
	return out, nil
}

// GenValidationSet produces held-out synthetic pictures (G1 mode, disjoint
// seed stream).
func GenValidationSet(opts Options) ([]*dataset.Sample, error) {
	g := tdgen.NewSeeded(tdgen.DefaultConfig(tdgen.G1), opts.Seed+1000)
	return g.GenerateNWorkers(opts.Validation, opts.Workers)
}

// TrainPipeline trains the full pipeline on the synthetic mix.
func TrainPipeline(opts Options) (*core.Pipeline, error) {
	train, err := GenTrainingSet(opts)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultTrainConfig()
	if opts.Lexicon {
		cfg.NameLexicon = nameLexicon
		cfg.ValueLexicon = valueLexicon
	}
	cfg.Workers = opts.Workers
	return core.Train(rand.New(rand.NewSource(opts.Seed)), train, cfg)
}

// edgeClassNames maps detection class ids (= spo.EdgeType) to Table I row
// names, in the paper's order.
var edgeClassOrder = []spo.EdgeType{spo.RiseRamp, spo.FallRamp, spo.RiseStep, spo.FallStep, spo.Double}

// TableIResult holds experiment E1.
type TableIResult struct {
	Rows []detect.ClassReport
}

// TableI runs the edge-detection validation experiment on synthetic data
// (paper Table I).
func TableI(pipe *core.Pipeline, val []*dataset.Sample) *TableIResult {
	var dets []detect.Detection
	var gts []detect.GroundTruth
	for i, s := range val {
		lines := lad.Detect(s.Image, pipe.LADCfg)
		for _, d := range pipe.SED.Detect(s.Image, lines) {
			dets = append(dets, detect.Detection{Box: d.Box, Class: int(d.Type), Score: d.Score, Image: i})
		}
		for _, g := range s.Edges {
			gts = append(gts, detect.GroundTruth{Box: g.Box, Class: int(g.Type), Image: i})
		}
	}
	classes := make([]int, len(edgeClassOrder))
	for i, et := range edgeClassOrder {
		classes[i] = int(et)
	}
	return &TableIResult{Rows: detect.Report(dets, gts, classes)}
}

// Print writes the result in the paper's Table I format.
func (r *TableIResult) Print(w io.Writer) {
	fmt.Fprintf(w, "TABLE I: Validation Accuracy of Edge Detection.\n")
	fmt.Fprintf(w, "%-10s %7s %8s %8s %8s %12s\n", "Class", "Labels", "P", "R", "mAP@.5", "mAP@.5:.95")
	for _, row := range r.Rows {
		name := "all"
		if row.Class >= 0 {
			name = spo.EdgeType(row.Class).String()
		}
		fmt.Fprintf(w, "%-10s %7d %8.4f %8.4f %8.3f %12.3f\n",
			name, row.Labels, row.P, row.R, row.MAP50, row.MAP5095)
	}
}

// OCRValResult holds the OCR experiments, split by text role: E2 on
// held-out synthetic pictures (the paper reports 1.0 for both PaddleOCR
// tasks) and E5 (Table III) on the industrial corpus. TableIIIRun
// measures both.
type OCRValResult struct {
	Accuracy map[dataset.TextRole]float64
	Counts   map[dataset.TextRole]int
}

// Print writes the OCR result as a Table III style row set.
func (r *OCRValResult) Print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-18s %8s %8s\n", "Metrics", "Count", "Accuracy")
	roles := []dataset.TextRole{dataset.RoleSignalName, dataset.RoleSignalValue, dataset.RoleTimeConstraint}
	for _, role := range roles {
		fmt.Fprintf(w, "%-18s %8d %8.3f\n", role, r.Counts[role], r.Accuracy[role])
	}
}

// StatsResult holds experiment E3: corpus basic statistics.
type StatsResult struct {
	Stats industrial.Stats
}

// CorpusStats generates the extrapolation corpus and tallies Sec. VI.1's
// statistics.
func CorpusStats(opts Options) (*StatsResult, []*dataset.Sample, error) {
	corpus, err := industrial.Corpus(opts.CorpusSeed)
	if err != nil {
		return nil, nil, err
	}
	return &StatsResult{Stats: industrial.ComputeStats(corpus)}, corpus, nil
}

// Print writes the statistics the way Sec. VI.1 reports them.
func (r *StatsResult) Print(w io.Writer) {
	st := r.Stats
	fmt.Fprintf(w, "Extrapolation corpus basic statistics (Sec. VI.1)\n")
	fmt.Fprintf(w, "TDs: %d (size %.0f±%.0f x %.0f±%.0f)\n", st.TDs, st.MeanW, st.StdW, st.MeanH, st.StdH)
	fmt.Fprintf(w, "signals per TD: ")
	for n := 1; n <= 3; n++ {
		fmt.Fprintf(w, "%d:%d (%.1f%%) ", n, st.SignalHist[n], 100*float64(st.SignalHist[n])/float64(st.TDs))
	}
	fmt.Fprintf(w, "\nsignals: %d; edges per signal: ", st.Signals)
	for n := 1; n <= 4; n++ {
		fmt.Fprintf(w, "%d:%d (%.1f%%) ", n, st.EdgeHist[n], 100*float64(st.EdgeHist[n])/float64(st.Signals))
	}
	fmt.Fprintf(w, "\ntiming constraints: %d\n", st.Constraints)
}

// TableIIRow is one class row of Table II.
type TableIIRow struct {
	Name   string
	Number int
	P, R   float64
}

// TableIIResult holds experiment E4.
type TableIIResult struct {
	Rows []TableIIRow
}

// Print writes Table II in the paper's format.
func (r *TableIIResult) Print(w io.Writer) {
	fmt.Fprintf(w, "TABLE II: Object Detection Accuracy in Extrapolation.\n")
	fmt.Fprintf(w, "%-10s %7s %8s %8s\n", "Metrics", "number", "P", "R")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %7d %8.3f %8.3f\n", row.Name, row.Number, row.P, row.R)
	}
}

// matchCand is one admissible detection/ground-truth pairing, ranked for
// the order-independent greedy assignment in assignNearest. Cost is the
// primary rank (smaller is closer); overlap breaks cost ties (larger is
// better); dKey/gKey are the pair's full geometry, so the final sort order
// depends only on coordinates, never on input order.
type matchCand struct {
	cost    int
	overlap int
	dKey    [3]int
	gKey    [3]int
	d, g    int
}

// assignNearest performs a globally ranked greedy one-to-one assignment:
// candidate pairs are sorted nearest-first (with purely geometric
// tie-breaking) and consumed in that order, each binding one unused
// detection to one unused ground truth. Because the ranking ignores slice
// positions, tp/fp/fn are invariant under any permutation of the
// detections and the ground truth.
func assignNearest(nDets, nGts int, cands []matchCand) (tp, fp, fn int) {
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.cost != b.cost {
			return a.cost < b.cost
		}
		if a.overlap != b.overlap {
			return a.overlap > b.overlap
		}
		if a.dKey != b.dKey {
			return lessKey(a.dKey, b.dKey)
		}
		return lessKey(a.gKey, b.gKey)
	})
	usedD := make([]bool, nDets)
	usedG := make([]bool, nGts)
	for _, c := range cands {
		if usedD[c.d] || usedG[c.g] {
			continue
		}
		usedD[c.d], usedG[c.g] = true, true
		tp++
	}
	return tp, nDets - tp, nGts - tp
}

func lessKey(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// segSpanMatch reports whether a detection within axis distance dist of a
// ground-truth segment of length gLen covers at least half of it. The
// half-length threshold is computed without integer division: requiring
// overlap >= gLen/2 would truncate to 0 for a length-1 ground truth and
// admit an adjacent, zero-overlap detection.
func segSpanMatch(dist, overlap, gLen int) bool {
	return dist <= 4 && 2*overlap >= gLen
}

// matchVLines matches detected event lines to ground truth by column
// proximity and span overlap, binding each detection to the nearest unused
// candidate (by column distance, then overlap).
func matchVLines(dets, gts []geom.VSeg) (tp, fp, fn int) {
	var cands []matchCand
	for di, d := range dets {
		for gi, g := range gts {
			dist := geom.Abs(d.X - g.X)
			ov := overlap1D(d.Y0, d.Y1, g.Y0, g.Y1)
			if !segSpanMatch(dist, ov, g.Len()) {
				continue
			}
			cands = append(cands, matchCand{
				cost: dist, overlap: ov,
				dKey: [3]int{d.X, d.Y0, d.Y1},
				gKey: [3]int{g.X, g.Y0, g.Y1},
				d:    di, g: gi,
			})
		}
	}
	return assignNearest(len(dets), len(gts), cands)
}

// matchHLines matches threshold lines by row proximity and span overlap,
// binding each detection to the nearest unused candidate.
func matchHLines(dets, gts []geom.HSeg) (tp, fp, fn int) {
	var cands []matchCand
	for di, d := range dets {
		for gi, g := range gts {
			dist := geom.Abs(d.Y - g.Y)
			ov := overlap1D(d.X0, d.X1, g.X0, g.X1)
			if !segSpanMatch(dist, ov, g.Len()) {
				continue
			}
			cands = append(cands, matchCand{
				cost: dist, overlap: ov,
				dKey: [3]int{d.Y, d.X0, d.X1},
				gKey: [3]int{g.Y, g.X0, g.X1},
				d:    di, g: gi,
			})
		}
	}
	return assignNearest(len(dets), len(gts), cands)
}

// matchArrows matches arrows by row and endpoint proximity, binding each
// detection to the unused candidate with the smallest total displacement.
func matchArrows(dets []dataset.Arrow, gts []dataset.Arrow) (tp, fp, fn int) {
	var cands []matchCand
	for di, d := range dets {
		for gi, g := range gts {
			dy, dx0, dx1 := geom.Abs(d.Y-g.Y), geom.Abs(d.X0-g.X0), geom.Abs(d.X1-g.X1)
			if dy > 5 || dx0 > 6 || dx1 > 6 {
				continue
			}
			cands = append(cands, matchCand{
				cost: dy + dx0 + dx1,
				dKey: [3]int{d.Y, d.X0, d.X1},
				gKey: [3]int{g.Y, g.X0, g.X1},
				d:    di, g: gi,
			})
		}
	}
	return assignNearest(len(dets), len(gts), cands)
}

func overlap1D(a0, a1, b0, b1 int) int {
	lo := a0
	if b0 > lo {
		lo = b0
	}
	hi := a1
	if b1 < hi {
		hi = b1
	}
	if hi < lo {
		return 0
	}
	return hi - lo + 1
}

// OverallResult holds experiment E6: Sec. VI.3's overall performance.
type OverallResult struct {
	Total         int
	TemplateLevel int // structurally correct SPOs
	TotallyOK     int // structurally and textually correct
	// PartialRecall is the mean fraction of ground-truth constraints
	// recovered on the structurally incorrect diagrams.
	PartialRecall float64
	// PerSample lists each diagram's outcome for inspection.
	PerSample []SampleOutcome
}

// SampleOutcome is one diagram's result.
type SampleOutcome struct {
	Name     string
	Template bool
	Total    bool
	Recall   float64
	Err      error
	Got      *spo.SPO
}

// Print writes the overall-performance summary (Sec. VI.3 numbers).
func (r *OverallResult) Print(w io.Writer, verbose bool) {
	fmt.Fprintf(w, "Overall performance (Sec. VI.3)\n")
	fmt.Fprintf(w, "template-level correct SPOs: %d/%d (%.1f%%)\n",
		r.TemplateLevel, r.Total, 100*float64(r.TemplateLevel)/float64(r.Total))
	fmt.Fprintf(w, "totally correct SPOs:        %d/%d (%.1f%%)\n",
		r.TotallyOK, r.Total, 100*float64(r.TotallyOK)/float64(r.Total))
	fmt.Fprintf(w, "mean constraint recall on structurally incorrect TDs: %.2f\n", r.PartialRecall)
	if verbose {
		for _, s := range r.PerSample {
			status := "partial"
			switch {
			case s.Err != nil:
				status = "error: " + s.Err.Error()
			case s.Total:
				status = "total"
			case s.Template:
				status = "template"
			}
			fmt.Fprintf(w, "  %-8s %-9s recall %.2f\n", s.Name, status, s.Recall)
			if s.Got != nil && !s.Total {
				fmt.Fprint(w, indent(s.Got.SpecText(), "    "))
			}
		}
	}
}

func indent(s, prefix string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += prefix + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += prefix + s[start:] + "\n"
	}
	return out
}
