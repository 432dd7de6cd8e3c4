// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. VI), plus ablations of the design choices DESIGN.md calls out. The
// reproduced quantities are attached to each benchmark via ReportMetric, so
// `go test -bench=. -benchmem` prints both the runtime cost and the
// paper-facing numbers (EXPERIMENTS.md records the correspondence).
package tdmagic

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"tdmagic/internal/core"
	"tdmagic/internal/dataset"
	"tdmagic/internal/eval"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/lad"
	"tdmagic/internal/polytope"
	"tdmagic/internal/spo"
	"tdmagic/internal/tdgen"
)

// Shared fixtures, trained/generated once per benchmark binary.
var (
	benchOnce   sync.Once
	benchPipe   *core.Pipeline
	benchVal    []*dataset.Sample
	benchCorpus []*dataset.Sample
	benchErr    error
)

func benchSetup(b *testing.B) (*core.Pipeline, []*dataset.Sample, []*dataset.Sample) {
	b.Helper()
	benchOnce.Do(func() {
		opts := eval.DefaultOptions()
		benchPipe, benchErr = eval.TrainPipeline(opts)
		if benchErr != nil {
			return
		}
		benchVal, benchErr = eval.GenValidationSet(opts)
		if benchErr != nil {
			return
		}
		_, benchCorpus, benchErr = eval.CorpusStats(opts)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchPipe, benchVal, benchCorpus
}

// ocrScores scores exact-string OCR over in-memory samples.
func ocrScores(b *testing.B, pipe *core.Pipeline, samples []*dataset.Sample) *eval.OCRValResult {
	res, err := eval.TableIIIRun(pipe, eval.SliceCorpus(samples))
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// overallScores scores Sec. VI.3's SPO extraction over an in-memory corpus.
func overallScores(b *testing.B, pipe *core.Pipeline, corpus []*dataset.Sample) *eval.OverallResult {
	res, err := eval.OverallRun(pipe, eval.SliceCorpus(corpus), eval.RunOpts{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTableI_EdgeDetectionValidation regenerates Table I: edge
// detection accuracy on held-out synthetic pictures. Paper: P 0.999, R 1,
// mAP@.5 0.995, mAP@.5:.95 0.995.
func BenchmarkTableI_EdgeDetectionValidation(b *testing.B) {
	pipe, val, _ := benchSetup(b)
	var res *eval.TableIResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.TableI(pipe, val)
	}
	all := res.Rows[0]
	b.ReportMetric(all.P, "P")
	b.ReportMetric(all.R, "R")
	b.ReportMetric(all.MAP50, "mAP@.5")
	b.ReportMetric(all.MAP5095, "mAP@.5:.95")
}

// BenchmarkOCRSyntheticValidation regenerates the Sec. VI OCR validation on
// synthetic data. Paper: accuracy 1.0 for both PaddleOCR tasks.
func BenchmarkOCRSyntheticValidation(b *testing.B) {
	pipe, val, _ := benchSetup(b)
	var res *eval.OCRValResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = ocrScores(b, pipe, val)
	}
	b.ReportMetric(res.Accuracy[dataset.RoleSignalName], "acc-name")
	b.ReportMetric(res.Accuracy[dataset.RoleSignalValue], "acc-value")
	b.ReportMetric(res.Accuracy[dataset.RoleTimeConstraint], "acc-constraint")
}

// BenchmarkCorpusBasicStatistics regenerates Sec. VI.1's corpus statistics.
// Paper: 30 TDs (6/19/5 with 1/2/3 signals), 59 signals (14/38/4/3 with
// 1-4 edges).
func BenchmarkCorpusBasicStatistics(b *testing.B) {
	var res *eval.StatsResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = eval.CorpusStats(eval.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.TDs), "TDs")
	b.ReportMetric(float64(res.Stats.Signals), "signals")
	b.ReportMetric(float64(res.Stats.Constraints), "constraints")
}

// BenchmarkTableII_ExtrapolationDetection regenerates Table II: object
// detection on the industrial-style corpus. Paper: edge P=1 with R
// 0.889-1, V-line 1/0.969, H-line 1/0.972, arrow 0.951/0.929.
func BenchmarkTableII_ExtrapolationDetection(b *testing.B) {
	pipe, _, corpus := benchSetup(b)
	var res *eval.TableIIResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = eval.TableIIRun(pipe, eval.SliceCorpus(corpus), eval.RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.P, "P-"+row.Name)
		b.ReportMetric(row.R, "R-"+row.Name)
	}
}

// BenchmarkTableIII_ExtrapolationOCR regenerates Table III: OCR accuracy on
// the corpus. Paper: names 0.915, values 0.925, time constraints 0.845.
func BenchmarkTableIII_ExtrapolationOCR(b *testing.B) {
	pipe, _, corpus := benchSetup(b)
	var res *eval.OCRValResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = ocrScores(b, pipe, corpus)
	}
	b.ReportMetric(res.Accuracy[dataset.RoleSignalName], "acc-name")
	b.ReportMetric(res.Accuracy[dataset.RoleSignalValue], "acc-value")
	b.ReportMetric(res.Accuracy[dataset.RoleTimeConstraint], "acc-constraint")
}

// BenchmarkOverallPipelineExtrapolation regenerates Sec. VI.3's overall
// performance. Paper: 76.7% template-level, 50.0% totally correct.
func BenchmarkOverallPipelineExtrapolation(b *testing.B) {
	pipe, _, corpus := benchSetup(b)
	var res *eval.OverallResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = overallScores(b, pipe, corpus)
	}
	b.ReportMetric(100*float64(res.TemplateLevel)/float64(res.Total), "template-pct")
	b.ReportMetric(100*float64(res.TotallyOK)/float64(res.Total), "total-pct")
	b.ReportMetric(res.PartialRecall, "partial-recall")
}

// fig1Diagram is the quickstart's reconstruction of paper Fig. 1.
func fig1Diagram() *Diagram {
	return &Diagram{
		Name: "fig1-D",
		Signals: []Signal{
			{Name: "X", Kind: Digital, Edges: []Edge{
				{Type: RiseStep, X0: 0.08, X1: 0.12, YLow: 0.1, YHigh: 0.9, HasEvent: true},
				{Type: FallStep, X0: 0.30, X1: 0.34, YLow: 0.1, YHigh: 0.9, HasEvent: true},
				{Type: RiseStep, X0: 0.58, X1: 0.62, YLow: 0.1, YHigh: 0.9, HasEvent: true},
				{Type: FallStep, X0: 0.82, X1: 0.86, YLow: 0.1, YHigh: 0.9},
			}},
			{Name: "Y", Kind: Digital, Edges: []Edge{
				{Type: RiseStep, X0: 0.42, X1: 0.46, YLow: 0.1, YHigh: 0.9, HasEvent: true},
				{Type: FallStep, X0: 0.70, X1: 0.74, YLow: 0.1, YHigh: 0.9},
			}},
		},
		Arrows: []Arrow{
			{From: EventRef{Signal: 0, Edge: 0}, To: EventRef{Signal: 0, Edge: 1}, Label: "t_{1}", Y: 0.1},
			{From: EventRef{Signal: 0, Edge: 0}, To: EventRef{Signal: 1, Edge: 0}, Label: "t_{2}", Y: 0.5},
			{From: EventRef{Signal: 0, Edge: 1}, To: EventRef{Signal: 0, Edge: 2}, Label: "t_{3}", Y: 0.9},
		},
		Style: DefaultStyle(),
	}
}

// BenchmarkFig1PipelineSingleImage measures the translate latency on the
// paper's Fig. 1 diagram and reports whether the SPO comes out exactly
// right (Fig. 3).
func BenchmarkFig1PipelineSingleImage(b *testing.B) {
	pipe, _, _ := benchSetup(b)
	sample, err := fig1Diagram().Render()
	if err != nil {
		b.Fatal(err)
	}
	var got *spo.SPO
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err = pipe.Translate(sample.Image)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(boolMetric(got.TotalEqual(sample.Truth)), "totally-correct")
}

// BenchmarkFig4LeftDatasheet translates the Fig. 4 (left) diagram in both
// the clean and the Example-3 (thick steps, solid lines) variant.
func BenchmarkFig4LeftDatasheet(b *testing.B) {
	pipe, _, _ := benchSetup(b)
	clean, thick := fig4LeftVariant(false), fig4LeftVariant(true)
	cs, err := clean.Render()
	if err != nil {
		b.Fatal(err)
	}
	ts, err := thick.Render()
	if err != nil {
		b.Fatal(err)
	}
	var cleanOK, thickOK bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, _, err := pipe.Translate(cs.Image); err == nil {
			cleanOK = got.TemplateEqual(cs.Truth)
		}
		if got, _, err := pipe.Translate(ts.Image); err == nil {
			thickOK = got.TemplateEqual(ts.Truth)
		} else {
			thickOK = false
		}
	}
	b.ReportMetric(boolMetric(cleanOK), "clean-template-ok")
	b.ReportMetric(boolMetric(thickOK), "thick-template-ok")
}

func fig4LeftVariant(thick bool) *Diagram {
	st := DefaultStyle()
	if thick {
		st.SolidVLines = true
		st.LineStroke = 2
	}
	return &Diagram{
		Name: "fig4-left",
		Signals: []Signal{
			{Name: "V_{INA}", Kind: Digital, Edges: []Edge{
				{Type: RiseStep, X0: 0.10, X1: 0.16, YLow: 0.1, YHigh: 0.9, HasEvent: true, Thick: thick},
				{Type: FallStep, X0: 0.55, X1: 0.61, YLow: 0.1, YHigh: 0.9, HasEvent: true, Thick: thick},
			}},
			{Name: "V_{OUTA}", Kind: Ramp, BoundHigh: "V_{CC}", BoundLow: "GND", Edges: []Edge{
				{Type: RiseRamp, X0: 0.20, X1: 0.38, YLow: 0.1, YHigh: 0.9, Threshold: 0.9, ThresholdText: "90%", HasEvent: true},
				{Type: FallRamp, X0: 0.65, X1: 0.85, YLow: 0.1, YHigh: 0.9, Threshold: 0.1, ThresholdText: "10%", HasEvent: true},
			}},
		},
		Arrows: []Arrow{
			{From: EventRef{Signal: 0, Edge: 0}, To: EventRef{Signal: 1, Edge: 0}, Label: "t_{D(on)}", Y: 0.3},
			{From: EventRef{Signal: 0, Edge: 1}, To: EventRef{Signal: 1, Edge: 1}, Label: "t_{D(off)}", Y: 0.7},
		},
		Style: st,
	}
}

// BenchmarkFig4RightSPISetupHold translates the Fig. 4 (right) SI/SCK
// setup-hold diagram (paper Example 2 — reported all-correct).
func BenchmarkFig4RightSPISetupHold(b *testing.B) {
	pipe, _, _ := benchSetup(b)
	d := &Diagram{
		Name: "fig4-right",
		Signals: []Signal{
			{Name: "SI", Kind: DoubleRamp, Edges: []Edge{
				{Type: Double, X0: 0.15, X1: 0.22, YLow: 0.15, YHigh: 0.85, Threshold: 0.5, ThresholdText: "50%", HasEvent: true},
				{Type: Double, X0: 0.70, X1: 0.77, YLow: 0.15, YHigh: 0.85, Threshold: 0.5, ThresholdText: "50%", HasEvent: true},
			}},
			{Name: "SCK", Kind: Ramp, Edges: []Edge{
				{Type: RiseRamp, X0: 0.42, X1: 0.50, YLow: 0.15, YHigh: 0.85, Threshold: 0.5, ThresholdText: "50%", HasEvent: true},
			}},
		},
		Arrows: []Arrow{
			{From: EventRef{Signal: 0, Edge: 0}, To: EventRef{Signal: 1, Edge: 0}, Label: "t_{s}", Y: 0.35},
			{From: EventRef{Signal: 1, Edge: 0}, To: EventRef{Signal: 0, Edge: 1}, Label: "t_{h}", Y: 0.65},
		},
		Style: DefaultStyle(),
	}
	sample, err := d.Render()
	if err != nil {
		b.Fatal(err)
	}
	var ok bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := pipe.Translate(sample.Image)
		if err != nil {
			b.Fatal(err)
		}
		ok = got.TotalEqual(sample.Truth)
	}
	b.ReportMetric(boolMetric(ok), "totally-correct")
}

// BenchmarkFig5ConstraintSampling measures the L-TD-G core algorithm
// (paper Fig. 5): building the case-3 constraint system over the layout
// variables and drawing a uniform sample with hit-and-run MCMC.
func BenchmarkFig5ConstraintSampling(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		sys := polytope.NewSystem(16)
		for v := 0; v < 16; v++ {
			sys.AddBounds(v, 0, 1)
		}
		// Case-3 inter-relation distances and margins (Sec. IV Group 2.4).
		sys.AddDiffGE(1, 0, 0.06)
		sys.AddDiffGE(3, 2, 0.06)
		sys.AddDiffGE(2, 1, 0.10)
		sys.AddDiffGE(5, 4, 0.06)
		sys.AddDiffGE(7, 6, 0.06)
		sys.AddDiffGE(6, 5, 0.10)
		sys.AddDiffGE(4, 1, 0.04)
		sys.AddDiffGE(6, 3, 0.04)
		sampler, err := polytope.NewSampler(sys, rng)
		if err != nil {
			b.Fatal(err)
		}
		_ = sampler.Next()
	}
}

// BenchmarkFig6Fig7Extrapolation translates two corpus entries in the
// styles of paper Figs. 6 and 7: a multi-signal TD (Fig. 6 shows TD-Magic
// extrapolating to three signals) and a dense-threshold TD with outward
// arrows (Fig. 7).
func BenchmarkFig6Fig7Extrapolation(b *testing.B) {
	pipe, _, corpus := benchSetup(b)
	multi := corpus[6] // ind-07: three signals
	dense := corpus[8] // ind-09: dense thresholds
	var recall float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recall = 0
		for _, s := range []*dataset.Sample{multi, dense} {
			if got, _, err := pipe.Translate(s.Image); err == nil {
				recall += got.ConstraintRecall(s.Truth)
			}
		}
		recall /= 2
	}
	b.ReportMetric(recall, "constraint-recall")
}

// BenchmarkAblationArrowExpand toggles Algorithm 2's EXPAND step: without
// edge-box expansion, touching plateaus are not filtered and masquerade as
// arrow candidates.
func BenchmarkAblationArrowExpand(b *testing.B) {
	pipe, _, corpus := benchSetup(b)
	run := func(expand int) float64 {
		p := *pipe
		p.SEICfg.Expand = expand
		res := overallScores(b, &p, corpus)
		return 100 * float64(res.TemplateLevel) / float64(res.Total)
	}
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = run(pipe.SEICfg.Expand)
		without = run(-3) // shrink instead of expand
	}
	b.ReportMetric(with, "template-pct-expand")
	b.ReportMetric(without, "template-pct-noexpand")
}

// BenchmarkAblationDashBridging toggles LAD's dash bridging (the closing
// that turns dashed annotation lines into solid contours).
func BenchmarkAblationDashBridging(b *testing.B) {
	pipe, _, corpus := benchSetup(b)
	run := func(cfg lad.Config) float64 {
		p := *pipe
		p.LADCfg = cfg
		res := overallScores(b, &p, corpus)
		return 100 * float64(res.TemplateLevel) / float64(res.Total)
	}
	noBridge := pipe.LADCfg
	noBridge.VBridge, noBridge.HBridge = 1, 1
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = run(pipe.LADCfg)
		without = run(noBridge)
	}
	b.ReportMetric(with, "template-pct-bridged")
	b.ReportMetric(without, "template-pct-unbridged")
}

// BenchmarkAblationTrainingMix compares training on G1 only against the
// full G1+G2+G3 mix (the paper motivates G2/G3 with big signals and ramp
// shapes).
func BenchmarkAblationTrainingMix(b *testing.B) {
	_, _, corpus := benchSetup(b)
	g1Only := eval.DefaultOptions()
	g1Only.TrainG2, g1Only.TrainG3 = 0, 0
	pipeG1, err := eval.TrainPipeline(g1Only)
	if err != nil {
		b.Fatal(err)
	}
	var mixed, only float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mixed = 100 * float64(overallScores(b, benchPipe, corpus).TemplateLevel) / 30
		only = 100 * float64(overallScores(b, pipeG1, corpus).TemplateLevel) / 30
	}
	b.ReportMetric(mixed, "template-pct-g123")
	b.ReportMetric(only, "template-pct-g1only")
}

// BenchmarkAblationOCRLexicon toggles the signal-name/value lexicons
// (the paper's "prepared database for common signal names takes effect").
func BenchmarkAblationOCRLexicon(b *testing.B) {
	pipe, _, corpus := benchSetup(b)
	bare := *pipe
	bare.SEICfg.NameLexicon = nil
	bare.SEICfg.ValueLexicon = nil
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = 100 * float64(overallScores(b, pipe, corpus).TotallyOK) / 30
		without = 100 * float64(overallScores(b, &bare, corpus).TotallyOK) / 30
	}
	b.ReportMetric(with, "total-pct-lexicon")
	b.ReportMetric(without, "total-pct-nolexicon")
}

// BenchmarkGenerateSyntheticTD measures L-TD-G throughput (one labelled
// picture per iteration, the paper generated 15,000).
func BenchmarkGenerateSyntheticTD(b *testing.B) {
	g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// boolMetric encodes a success flag as a 0/1 metric.
func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// Silence the unused-import check for sei when configs change shape.

// BenchmarkNoiseRobustness runs the noise-degradation extension experiment
// (EXPERIMENTS.md): scanner specks are added to synthetic pictures and SPO
// extraction is re-measured.
func BenchmarkNoiseRobustness(b *testing.B) {
	pipe, _, _ := benchSetup(b)
	var res *eval.RobustnessResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.NoiseRobustness(pipe, 2001, 10, []int{0, 2000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[0].TemplateLevel, "template-clean")
	b.ReportMetric(res.Points[1].TemplateLevel, "template-noisy")
}

// BenchmarkAnalyze measures the perception stages alone (binarise, LAD
// morphology, SED proposal+classify, OCR detect+read) on the Fig. 1 picture —
// the per-image hot path the bit-packed kernels accelerate, without the SEI
// graph construction.
func BenchmarkAnalyze(b *testing.B) {
	pipe, _, _ := benchSetup(b)
	sample, err := fig1Diagram().Render()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipe.Analyze(sample.Image)
	}
}

// BenchmarkBatchTranslateThroughput measures concurrent batch translation
// over the industrial corpus (pictures per second with all cores).
func BenchmarkBatchTranslateThroughput(b *testing.B) {
	pipe, _, corpus := benchSetup(b)
	imgs := make([]*imgproc.Gray, len(corpus))
	for i, s := range corpus {
		imgs[i] = s.Image
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.TranslateAllCtx(context.Background(), imgs, core.BatchOptions{})
	}
	b.ReportMetric(float64(len(imgs)), "pictures/op")
}
