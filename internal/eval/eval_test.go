package eval

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tdmagic/internal/core"
	"tdmagic/internal/corrupt"
	"tdmagic/internal/dataset"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/tdgen"
)

// Small, shared pipeline so the suite trains once.
var (
	testOnce sync.Once
	testPipe *core.Pipeline
	testVal  []*dataset.Sample
	testErr  error
)

func testOptions() Options {
	opts := DefaultOptions()
	opts.TrainG1, opts.TrainG2, opts.TrainG3 = 24, 10, 8
	opts.Validation = 8
	return opts
}

func setup(t *testing.T) (*core.Pipeline, []*dataset.Sample) {
	t.Helper()
	testOnce.Do(func() {
		opts := testOptions()
		testPipe, testErr = TrainPipeline(opts)
		if testErr != nil {
			return
		}
		testVal, testErr = GenValidationSet(opts)
	})
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testPipe, testVal
}

func TestGenTrainingSetMix(t *testing.T) {
	opts := testOptions()
	train, err := GenTrainingSet(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 24+10+8 {
		t.Fatalf("training set size %d", len(train))
	}
	modes := map[byte]int{}
	for _, s := range train {
		modes[s.Name[1]]++ // g1-/g2-/g3- prefix
	}
	if modes['1'] != 24 || modes['2'] != 10 || modes['3'] != 8 {
		t.Errorf("mode mix = %v", modes)
	}
}

func TestNameLexiconCopy(t *testing.T) {
	a := NameLexicon()
	a[0] = "MUTATED"
	if NameLexicon()[0] == "MUTATED" {
		t.Error("NameLexicon exposes internal slice")
	}
}

func TestTableIShape(t *testing.T) {
	pipe, val := setup(t)
	res := TableI(pipe, val)
	if len(res.Rows) != 6 { // all + 5 classes
		t.Fatalf("rows = %d", len(res.Rows))
	}
	all := res.Rows[0]
	if all.Class != -1 || all.Labels == 0 {
		t.Errorf("aggregate row = %+v", all)
	}
	if all.P < 0.9 || all.R < 0.9 {
		t.Errorf("synthetic validation P=%.3f R=%.3f, want both >= 0.9", all.P, all.R)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{"TABLE I", "riseRamp", "double", "mAP@.5:.95"} {
		if !strings.Contains(out, want) {
			t.Errorf("printout missing %q", want)
		}
	}
}

func TestOCRSyntheticHigh(t *testing.T) {
	pipe, val := setup(t)
	res, err := TableIIIRun(pipe, SliceCorpus(val))
	if err != nil {
		t.Fatal(err)
	}
	for role, acc := range res.Accuracy {
		if acc < 0.8 {
			t.Errorf("synthetic OCR accuracy for %v = %.3f, want >= 0.8", role, acc)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf, "title")
	if !strings.Contains(buf.String(), "Signal Name") {
		t.Error("printout missing role")
	}
}

func TestCorpusStatsMatchPaper(t *testing.T) {
	res, corpus, err := CorpusStats(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 30 || res.Stats.Signals != 59 {
		t.Errorf("corpus stats: %d TDs, %d signals", len(corpus), res.Stats.Signals)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "signals per TD") {
		t.Error("stats printout wrong")
	}
}

func TestTableIIAndOverall(t *testing.T) {
	pipe, _ := setup(t)
	_, corpus, err := CorpusStats(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := TableIIRun(pipe, SliceCorpus(corpus), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 8 { // 5 edges + V-line + H-line + arrow
		t.Fatalf("Table II rows = %d", len(t2.Rows))
	}
	names := map[string]bool{}
	for _, r := range t2.Rows {
		names[r.Name] = true
		if r.P < 0 || r.P > 1 || r.R < 0 || r.R > 1 {
			t.Errorf("row %s out of range: %+v", r.Name, r)
		}
	}
	for _, want := range []string{"riseRamp", "V-line", "H-line", "arrow"} {
		if !names[want] {
			t.Errorf("Table II missing row %s", want)
		}
	}
	var buf bytes.Buffer
	t2.Print(&buf)
	if !strings.Contains(buf.String(), "TABLE II") {
		t.Error("Table II printout wrong")
	}

	overall, err := OverallRun(pipe, SliceCorpus(corpus), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if overall.Total != 30 {
		t.Fatalf("overall total = %d", overall.Total)
	}
	if overall.TotallyOK > overall.TemplateLevel {
		t.Error("totally correct exceeds template-level")
	}
	// With the small test-scale training the rates are below the headline
	// run, but structure extraction must still work on a majority.
	if overall.TemplateLevel < 12 {
		t.Errorf("template-level = %d/30, want >= 12 even at test scale", overall.TemplateLevel)
	}
	buf.Reset()
	overall.Print(&buf, true)
	out := buf.String()
	if !strings.Contains(out, "template-level") || !strings.Contains(out, "ind-01") {
		t.Error("overall printout wrong")
	}
}

// TestTableIIIReadsPipelineTexts pins that Table III scores the texts the
// pipeline's own stages read: on a contrast-faded picture, with
// LADCfg.Threshold well below Otsu's choice (which binarises the faded
// paper's noise to ink), a ground truth made of exactly the texts
// pipe.Analyze reads must score 1.
func TestTableIIIReadsPipelineTexts(t *testing.T) {
	base, val := setup(t)
	img := corrupt.ContrastFade(val[0].Image, 4, 1)
	pipe := *base
	pipe.LADCfg.Threshold = imgproc.OtsuThreshold(img) - 40
	s := &dataset.Sample{Name: "faded", Image: img}
	for _, r := range pipe.Analyze(img).Texts {
		s.Texts = append(s.Texts, dataset.TextBox{Box: r.Box, Text: r.Text, Role: dataset.RoleSignalName})
	}
	if len(s.Texts) == 0 {
		t.Fatal("the pipeline read no text")
	}
	res, err := TableIIIRun(&pipe, SliceCorpus([]*dataset.Sample{s}))
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy[dataset.RoleSignalName]; acc != 1 {
		t.Errorf("Table III read %.3f of the %d texts the pipeline reads, want all", acc, len(s.Texts))
	}
}

func TestTableIIIRoles(t *testing.T) {
	pipe, _ := setup(t)
	_, corpus, err := CorpusStats(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := TableIIIRun(pipe, SliceCorpus(corpus))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[dataset.RoleSignalName] != 59 {
		t.Errorf("signal-name count = %d, want 59", res.Counts[dataset.RoleSignalName])
	}
	for role, acc := range res.Accuracy {
		if acc < 0.5 {
			t.Errorf("extrapolation OCR %v = %.3f suspiciously low", role, acc)
		}
	}
}

func TestMatchHelpers(t *testing.T) {
	// matchArrows tolerances.
	det := []dataset.Arrow{{Y: 10, X0: 5, X1: 50}}
	gt := []dataset.Arrow{{Y: 12, X0: 7, X1: 48}}
	tp, fp, fn := matchArrows(det, gt)
	if tp != 1 || fp != 0 || fn != 0 {
		t.Errorf("matchArrows = %d/%d/%d", tp, fp, fn)
	}
	tp, fp, fn = matchArrows(det, []dataset.Arrow{{Y: 30, X0: 7, X1: 48}})
	if tp != 0 || fp != 1 || fn != 1 {
		t.Errorf("matchArrows far = %d/%d/%d", tp, fp, fn)
	}
}

func TestOverlap1D(t *testing.T) {
	if overlap1D(0, 10, 5, 20) != 6 {
		t.Error("overlap wrong")
	}
	if overlap1D(0, 4, 5, 9) != 0 {
		t.Error("disjoint overlap nonzero")
	}
}

func TestIndent(t *testing.T) {
	if got := indent("a\nb\n", "  "); got != "  a\n  b\n" {
		t.Errorf("indent = %q", got)
	}
	if got := indent("a", "."); got != ".a\n" {
		t.Errorf("indent no-newline = %q", got)
	}
}

// TestNoiseRobustness checks the noise sweep's shape and requires every
// point to equal a plain sequential Translate loop over the same pictures
// exactly, the way TestSweepCleanMatchesDirectPath checks the sweep.
func TestNoiseRobustness(t *testing.T) {
	pipe, _ := setup(t)
	const seed, n = 500, 6
	levels := []int{0, 2000}
	res, err := NoiseRobustness(pipe, seed, n, levels)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	clean, noisy := res.Points[0], res.Points[1]
	if clean.EdgeRecall < 0.8 {
		t.Errorf("clean edge recall = %.3f", clean.EdgeRecall)
	}
	if noisy.EdgeRecall > clean.EdgeRecall+1e-9 {
		t.Errorf("noise should not improve recall: %.3f vs %.3f", noisy.EdgeRecall, clean.EdgeRecall)
	}
	for i, dots := range levels {
		g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(seed)))
		samples, err := g.GenerateN(n)
		if err != nil {
			t.Fatal(err)
		}
		var tmpl, total, edgesFound, edgesAll int
		for j, s := range samples {
			img := s.Image.Clone()
			rng := rand.New(rand.NewSource(seed + int64(j)))
			for k := 0; k < dots; k++ {
				img.Set(rng.Intn(img.W), rng.Intn(img.H), 0)
			}
			got, rep, err := pipe.Translate(img)
			edgesAll += len(s.Edges)
			if rep != nil {
				for _, gt := range s.Edges {
					for _, d := range rep.Edges {
						if d.Box.IoU(gt.Box) >= 0.5 && d.Type == gt.Type {
							edgesFound++
							break
						}
					}
				}
			}
			if err != nil {
				continue
			}
			if got.TemplateEqual(s.Truth) {
				tmpl++
			}
			if got.TotalEqual(s.Truth) {
				total++
			}
		}
		want := RobustnessPoint{NoiseDots: dots, TemplateLevel: float64(tmpl) / n,
			TotallyOK: float64(total) / n, EdgeRecall: float64(edgesFound) / float64(edgesAll)}
		if res.Points[i] != want {
			t.Errorf("noise %d: batch-backed point %+v != direct path %+v", dots, res.Points[i], want)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Noise robustness") {
		t.Error("printout wrong")
	}
}

// TestScaleRobustness checks the resolution sweep's shape and requires
// every point to equal a plain sequential Translate loop exactly.
func TestScaleRobustness(t *testing.T) {
	pipe, _ := setup(t)
	_, corpus, err := CorpusStats(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	corpus = corpus[:8]
	scales := []float64{1.0, 0.7}
	res := ScaleRobustness(pipe, corpus, scales)
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].TemplateLevel < res.Points[1].TemplateLevel {
		t.Logf("note: downscaling unexpectedly improved template level: %+v", res.Points)
	}
	for i, sc := range scales {
		var tmpl int
		for _, s := range corpus {
			img := s.Image
			if sc != 1.0 {
				img = img.ScaleTo(int(float64(img.W)*sc+0.5), int(float64(img.H)*sc+0.5))
			}
			got, _, err := pipe.Translate(img)
			if err == nil && got.TemplateEqual(s.Truth) {
				tmpl++
			}
		}
		want := ScalePoint{Scale: sc, TemplateLevel: float64(tmpl) / float64(len(corpus))}
		if res.Points[i] != want {
			t.Errorf("scale %.2f: batch-backed point %+v != direct path %+v", sc, res.Points[i], want)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Resolution robustness") {
		t.Error("printout wrong")
	}
}
