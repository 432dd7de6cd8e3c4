package eval

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/dataset"
	"tdmagic/internal/detect"
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/lad"
	"tdmagic/internal/store"
)

// Corpus is a streaming view of a labelled sample set: N samples,
// materialised one at a time by At. The executor-backed table runners pull
// samples through it lazily, so an on-disk corpus is never resident in
// full — at most O(workers) samples are loaded at once.
type Corpus struct {
	N  int
	At func(i int) (*dataset.Sample, error)
}

// SliceCorpus wraps an in-memory sample list.
func SliceCorpus(samples []*dataset.Sample) Corpus {
	return Corpus{N: len(samples), At: func(i int) (*dataset.Sample, error) { return samples[i], nil }}
}

// DirCorpus enumerates a directory of <name>.png / <name>.json sample
// pairs (dataset.Save layout) without loading any of them; samples stream
// in sorted-name order as the batch engine asks for them.
func DirCorpus(dir string) (Corpus, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Corpus{}, fmt.Errorf("eval: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".png") {
			names = append(names, strings.TrimSuffix(e.Name(), ".png"))
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return Corpus{}, fmt.Errorf("eval: no samples in %s", dir)
	}
	return Corpus{
		N:  len(names),
		At: func(i int) (*dataset.Sample, error) { return dataset.Load(dir, names[i]) },
	}, nil
}

// RunOpts configures the executor-backed evaluation runners.
type RunOpts struct {
	// Workers fans translation out (<= 0 means GOMAXPROCS).
	Workers int
	// Store, when non-nil, is a persistent result cache keyed on the
	// pipeline's ConfigHash: a re-run of the same evaluation recomputes
	// only what the store does not already hold.
	Store *store.Store
}

// sampleHold parks each in-flight sample between its Load (on an executor
// worker) and its ordered emit, where scoring consumes and releases it.
// The executor's admission window bounds its size by the worker count.
type sampleHold struct {
	mu sync.Mutex
	m  map[int]*dataset.Sample
}

func newSampleHold() *sampleHold { return &sampleHold{m: make(map[int]*dataset.Sample)} }

func (h *sampleHold) put(i int, s *dataset.Sample) {
	h.mu.Lock()
	h.m[i] = s
	h.mu.Unlock()
}

func (h *sampleHold) pop(i int) *dataset.Sample {
	h.mu.Lock()
	s := h.m[i]
	delete(h.m, i)
	h.mu.Unlock()
	return s
}

// source adapts the corpus to a batch source, parking each loaded sample
// in hold for the emit-side scorer.
func (c Corpus) source(hold *sampleHold) batch.Source {
	return batch.Func(c.N, func(i int) batch.Item {
		return batch.Item{
			Name: fmt.Sprintf("sample-%05d", i),
			Load: func() (*imgproc.Gray, error) {
				s, err := c.At(i)
				if err != nil {
					return nil, err
				}
				hold.put(i, s)
				return s.Image, nil
			},
		}
	})
}

// batchOptions translates RunOpts for the executor; scoring consumers need
// the perception report, so store artifacts are persisted with it.
func (o RunOpts) batchOptions(pipe *core.Pipeline, persistReport bool) batch.Options {
	opts := batch.Options{Workers: o.Workers, PersistReport: persistReport}
	if o.Store != nil {
		opts.Store = o.Store
		opts.Config = pipe.ConfigHash()
	}
	return opts
}

// OverallRun measures Sec. VI.3's overall performance: it runs the full
// pipeline over the corpus and scores SPO extraction at the template and
// total level. Translation fans out over the batch engine (cache-aware
// when a store is attached) while scoring accumulates at the ordered emit,
// so the metrics are bit-identical to a sequential loop for any worker
// count.
func OverallRun(pipe *core.Pipeline, c Corpus, opts RunOpts) (*OverallResult, error) {
	res := &OverallResult{Total: c.N}
	var partials []float64
	hold := newSampleHold()
	_, err := batch.Run(context.Background(), pipe, c.source(hold), opts.batchOptions(pipe, false),
		func(r batch.Result) error {
			s := hold.pop(r.Index)
			if s == nil {
				// Load failed before parking the sample; surface the error
				// as this item's outcome under its positional name.
				s = &dataset.Sample{Name: r.Name}
			}
			out := SampleOutcome{Name: s.Name}
			if r.Err != nil {
				out.Err = r.Err
				partials = append(partials, 0)
				res.PerSample = append(res.PerSample, out)
				return nil
			}
			out.Got = r.SPO
			out.Template = r.SPO.TemplateEqual(s.Truth)
			out.Total = r.SPO.TotalEqual(s.Truth)
			out.Recall = r.SPO.ConstraintRecall(s.Truth)
			if out.Template {
				res.TemplateLevel++
			} else {
				partials = append(partials, out.Recall)
			}
			if out.Total {
				res.TotallyOK++
			}
			res.PerSample = append(res.PerSample, out)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if len(partials) > 0 {
		sum := 0.0
		for _, v := range partials {
			sum += v
		}
		res.PartialRecall = sum / float64(len(partials))
	}
	sort.Slice(res.PerSample, func(i, j int) bool { return res.PerSample[i].Name < res.PerSample[j].Name })
	return res, nil
}

// TableIIRun runs the object-detection extrapolation experiment (paper
// Table II): the trained pipeline's edges, V-lines, H-lines and arrows
// scored against the corpus ground truth. Detections and tallies
// accumulate in input order at the emit callback, so the matching — which
// is already input-order independent — sees exactly the sequence a
// sequential loop builds.
func TableIIRun(pipe *core.Pipeline, c Corpus, opts RunOpts) (*TableIIResult, error) {
	var dets []detect.Detection
	var gts []detect.GroundTruth
	type tally struct{ tp, fp, fn int }
	var vT, hT, aT tally
	hold := newSampleHold()

	_, err := batch.Run(context.Background(), pipe, c.source(hold), opts.batchOptions(pipe, true),
		func(r batch.Result) error {
			s := hold.pop(r.Index)
			if s == nil {
				return fmt.Errorf("eval: sample %d failed to load: %w", r.Index, r.Err)
			}
			i := r.Index
			var outV []geom.VSeg
			var outH []geom.HSeg
			var outA []dataset.Arrow
			if r.Err == nil && r.Rep != nil && r.Rep.SEI != nil {
				outV, outH, outA = r.Rep.SEI.VLines, r.Rep.SEI.HLines, r.Rep.SEI.Arrows
			}
			if r.Rep != nil {
				for _, d := range r.Rep.Edges {
					dets = append(dets, detect.Detection{Box: d.Box, Class: int(d.Type), Score: d.Score, Image: i})
				}
			}
			for _, g := range s.Edges {
				gts = append(gts, detect.GroundTruth{Box: g.Box, Class: int(g.Type), Image: i})
			}
			tp, fp, fn := matchVLines(outV, s.VLines)
			vT.tp += tp
			vT.fp += fp
			vT.fn += fn
			tp, fp, fn = matchHLines(outH, s.HLines)
			hT.tp += tp
			hT.fp += fp
			hT.fn += fn
			tp, fp, fn = matchArrows(outA, s.Arrows)
			aT.tp += tp
			aT.fp += fp
			aT.fn += fn
			return nil
		})
	if err != nil {
		return nil, err
	}

	res := &TableIIResult{}
	for _, et := range edgeClassOrder {
		var d []detect.Detection
		var g []detect.GroundTruth
		for _, x := range dets {
			if x.Class == int(et) {
				d = append(d, x)
			}
		}
		for _, x := range gts {
			if x.Class == int(et) {
				g = append(g, x)
			}
		}
		m := detect.Match(d, g, 0.5)
		p, r := m.PR()
		res.Rows = append(res.Rows, TableIIRow{Name: et.String(), Number: len(g), P: p, R: r})
	}
	pr := func(t tally) (float64, float64) {
		p, r := 1.0, 1.0
		if t.tp+t.fp > 0 {
			p = float64(t.tp) / float64(t.tp+t.fp)
		}
		if t.tp+t.fn > 0 {
			r = float64(t.tp) / float64(t.tp+t.fn)
		}
		return p, r
	}
	p, r := pr(vT)
	res.Rows = append(res.Rows, TableIIRow{Name: "V-line", Number: vT.tp + vT.fn, P: p, R: r})
	p, r = pr(hT)
	res.Rows = append(res.Rows, TableIIRow{Name: "H-line", Number: hT.tp + hT.fn, P: p, R: r})
	p, r = pr(aT)
	res.Rows = append(res.Rows, TableIIRow{Name: "arrow", Number: aT.tp + aT.fn, P: p, R: r})
	return res, nil
}

// TableIIIRun measures exact-string OCR accuracy against ground truth
// (paper Table III on the industrial corpus, the Sec. VI OCR validation on
// synthetic pictures): pure OCR scoring, one sample resident at a time, on
// the picture binarised as the pipeline binarises it.
func TableIIIRun(pipe *core.Pipeline, c Corpus) (*OCRValResult, error) {
	ctx := context.Background() // never ends, so the stages return no error
	correct := map[dataset.TextRole]int{}
	total := map[dataset.TextRole]int{}
	for i := 0; i < c.N; i++ {
		s, err := c.At(i)
		if err != nil {
			return nil, fmt.Errorf("eval: sample %d: %w", i, err)
		}
		bw, _ := lad.Binarize(s.Image, pipe.LADCfg)
		lines, _ := lad.DetectBinaryCtx(ctx, bw, pipe.LADCfg)
		results, _ := pipe.OCR.ReadAllCtx(ctx, bw, lines, pipe.OCRCfg)
		imgproc.PutBinary(bw)
		for _, gt := range s.Texts {
			total[gt.Role]++
			for _, r := range results {
				if r.Box.IoU(gt.Box) >= 0.3 && r.Text == gt.Text {
					correct[gt.Role]++
					break
				}
			}
		}
	}
	res := &OCRValResult{Accuracy: map[dataset.TextRole]float64{}, Counts: total}
	for role, n := range total {
		if n > 0 {
			res.Accuracy[role] = float64(correct[role]) / float64(n)
		}
	}
	return res, nil
}
