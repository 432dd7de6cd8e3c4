package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/corrupt"
	"tdmagic/internal/dataset"
	"tdmagic/internal/imgproc"
)

// SweepOptions configures the corruption-robustness sweep.
type SweepOptions struct {
	// Seed drives every corruption operator; the whole sweep is a pure
	// function of (pipeline, samples, options), so two runs with the
	// same seed produce byte-identical JSON.
	Seed int64
	// Severities are the degradation levels per operator (default 1–5).
	Severities []int
	// OpNames selects operators from the corrupt registry (default all).
	OpNames []string
	// Workers fans each cell's batch translation out (<= 0 GOMAXPROCS).
	Workers int
	// Timeout is the per-picture deadline inside a cell; pathological
	// corrupted pictures surface as structured per-item errors instead
	// of stalling the sweep. Zero selects a generous default.
	Timeout time.Duration
}

// DefaultSweepOptions returns the configuration used by tdeval.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{Seed: 1, Timeout: 30 * time.Second}
}

// SweepCell is one (operator, severity) grid point on one dataset.
type SweepCell struct {
	Op       string
	Severity int
	N        int // pictures evaluated
	// EdgeRecall is the fraction of ground-truth edges recovered
	// (IoU >= 0.5, type match); TextAcc the fraction of ground-truth
	// texts read exactly (IoU >= 0.3). Template and Total are the
	// fractions of structurally / totally correct SPOs.
	EdgeRecall float64
	TextAcc    float64
	Template   float64
	Total      float64
	// Errors counts pictures whose translation failed outright
	// (deadline, panic, degenerate refusal under Strict); Diags the
	// structured diagnostics accumulated across the cell's reports.
	Errors int
	Diags  int
}

// OpSummary condenses one operator's damage on a dataset, ImageNet-C
// style: mean accuracy across severities and the drop against clean.
type OpSummary struct {
	Op           string
	MeanTemplate float64
	TemplateDrop float64 // clean Template minus MeanTemplate
	MeanEdgeR    float64
	EdgeRDrop    float64
}

// SweepDataset is the full grid over one picture set.
type SweepDataset struct {
	Name    string
	Clean   SweepCell // severity-0 baseline, identical to the clean path
	Cells   []SweepCell
	Summary []OpSummary
}

// SweepResult is the complete robustness sweep.
type SweepResult struct {
	Seed     int64
	Datasets []SweepDataset
}

// sweepOps resolves the selected operators.
func sweepOps(opts SweepOptions) ([]corrupt.Op, error) {
	if len(opts.OpNames) == 0 {
		return corrupt.Ops(), nil
	}
	ops := make([]corrupt.Op, 0, len(opts.OpNames))
	for _, name := range opts.OpNames {
		op, ok := corrupt.ByName(name)
		if !ok {
			return nil, fmt.Errorf("eval: unknown corruption operator %q", name)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// cellSeed derives the deterministic per-picture corruption seed.
func cellSeed(seed int64, opIdx, severity, item int) int64 {
	return seed*1_000_003 + int64(opIdx)*101_159 + int64(severity)*10_007 + int64(item)
}

// RobustnessSweep runs the corruption-type × severity grid over both
// picture sets (either may be nil) and returns the full result. The
// severity-0 baseline translates the untouched pictures, so its metrics
// are bit-identical to the clean evaluation path.
func RobustnessSweep(pipe *core.Pipeline, synth, corpus []*dataset.Sample, opts SweepOptions) (*SweepResult, error) {
	if opts.Timeout == 0 {
		opts.Timeout = DefaultSweepOptions().Timeout
	}
	if len(opts.Severities) == 0 {
		opts.Severities = []int{1, 2, 3, 4, 5}
	}
	ops, err := sweepOps(opts)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Seed: opts.Seed}
	for _, set := range []struct {
		name    string
		samples []*dataset.Sample
	}{{"synthetic", synth}, {"industrial", corpus}} {
		if len(set.samples) == 0 {
			continue
		}
		ds := SweepDataset{Name: set.name}
		ds.Clean = sweepCell(pipe, set.samples, corrupt.Op{Name: "none"}, 0, 0, opts)
		for opIdx, op := range ops {
			var sum OpSummary
			sum.Op = op.Name
			for _, sev := range opts.Severities {
				cell := sweepCell(pipe, set.samples, op, sev, opIdx, opts)
				ds.Cells = append(ds.Cells, cell)
				sum.MeanTemplate += cell.Template
				sum.MeanEdgeR += cell.EdgeRecall
			}
			n := float64(len(opts.Severities))
			sum.MeanTemplate /= n
			sum.MeanEdgeR /= n
			sum.TemplateDrop = ds.Clean.Template - sum.MeanTemplate
			sum.EdgeRDrop = ds.Clean.EdgeRecall - sum.MeanEdgeR
			ds.Summary = append(ds.Summary, sum)
		}
		res.Datasets = append(res.Datasets, ds)
	}
	return res, nil
}

// sweepCell runs one (op, severity) grid point. Corruption seeds derive
// from (seed, op, severity, item), so the grid is the same for any worker
// count.
func sweepCell(pipe *core.Pipeline, samples []*dataset.Sample, op corrupt.Op, sev, opIdx int, opts SweepOptions) SweepCell {
	var offset func(s *dataset.Sample) (dx, dy int)
	if sev > 0 && op.Offset != nil {
		offset = func(s *dataset.Sample) (int, int) { return op.Offset(sev, s.Image.W, s.Image.H) }
	}
	cell := scoreCell(pipe, samples, batch.Options{Workers: opts.Workers, Timeout: opts.Timeout}, offset,
		func(i int) *imgproc.Gray {
			if sev == 0 {
				return samples[i].Image // untouched: bit-identical to the clean path
			}
			return op.Fn(samples[i].Image, sev, cellSeed(opts.Seed, opIdx, sev, i))
		})
	cell.Op, cell.Severity = op.Name, sev
	return cell
}

// scoreCell translates one variant of every sample — picture(i) makes
// sample i's, lazily on a worker when its turn comes — through the
// streaming batch executor and scores it against the sample's ground
// truth, shifted by offset when the variant moved the content. Each
// picture is released right after scoring, so a cell holds O(workers)
// variants, and scoring runs at the ordered emit, so the cell equals a
// sequential Translate loop for any worker count. The corruption sweep
// and the noise and scale experiments all score through it.
func scoreCell(pipe *core.Pipeline, samples []*dataset.Sample, opts batch.Options,
	offset func(s *dataset.Sample) (dx, dy int), picture func(i int) *imgproc.Gray) SweepCell {
	cell := SweepCell{N: len(samples)}
	src := batch.Func(len(samples), func(i int) batch.Item {
		return batch.Item{
			Name: samples[i].Name,
			Load: func() (*imgproc.Gray, error) { return picture(i), nil },
		}
	})

	var tmpl, total int
	var edgesFound, edgesAll, textsOK, textsAll int
	// The source cannot fail and the scorer never aborts, so Run's error
	// is nil by construction.
	_, _ = batch.Run(context.Background(), pipe, src, opts, func(r batch.Result) error {
		s := samples[r.Index]
		var dx, dy int
		if offset != nil {
			dx, dy = offset(s)
		}
		if r.Rep != nil {
			cell.Diags += len(r.Rep.Diags)
			for _, gt := range s.Edges {
				gtBox := gt.Box.Translate(dx, dy)
				for _, d := range r.Rep.Edges {
					if d.Box.IoU(gtBox) >= 0.5 && d.Type == gt.Type {
						edgesFound++
						break
					}
				}
			}
			for _, gt := range s.Texts {
				gtBox := gt.Box.Translate(dx, dy)
				for _, t := range r.Rep.Texts {
					if t.Box.IoU(gtBox) >= 0.3 && t.Text == gt.Text {
						textsOK++
						break
					}
				}
			}
		}
		edgesAll += len(s.Edges)
		textsAll += len(s.Texts)
		if r.Err != nil {
			cell.Errors++
			return nil
		}
		if r.SPO.TemplateEqual(s.Truth) {
			tmpl++
		}
		if r.SPO.TotalEqual(s.Truth) {
			total++
		}
		return nil
	})
	if cell.N > 0 {
		cell.Template = float64(tmpl) / float64(cell.N)
		cell.Total = float64(total) / float64(cell.N)
	}
	if edgesAll > 0 {
		cell.EdgeRecall = float64(edgesFound) / float64(edgesAll)
	}
	if textsAll > 0 {
		cell.TextAcc = float64(textsOK) / float64(textsAll)
	}
	return cell
}

// WriteJSON emits the sweep as deterministic, indented JSON (BENCH_03
// format): no timestamps, no map iteration — two identical runs produce
// identical bytes.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Print writes the sweep as tables, one per dataset.
func (r *SweepResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Robustness sweep (corruption type x severity; extension beyond the paper)\n")
	for _, ds := range r.Datasets {
		fmt.Fprintf(w, "\n[%s] %d pictures\n", ds.Name, ds.Clean.N)
		fmt.Fprintf(w, "%-12s %4s %8s %8s %10s %8s %7s %7s\n",
			"op", "sev", "edge-R", "text", "template", "total", "errs", "diags")
		printCell := func(c SweepCell) {
			fmt.Fprintf(w, "%-12s %4d %8.3f %8.3f %10.3f %8.3f %7d %7d\n",
				c.Op, c.Severity, c.EdgeRecall, c.TextAcc, c.Template, c.Total, c.Errors, c.Diags)
		}
		printCell(ds.Clean)
		for _, c := range ds.Cells {
			printCell(c)
		}
		fmt.Fprintf(w, "corruption-error summary (mean over severities, drop vs clean):\n")
		for _, s := range ds.Summary {
			fmt.Fprintf(w, "  %-12s template %5.3f (drop %+5.3f)  edge-R %5.3f (drop %+5.3f)\n",
				s.Op, s.MeanTemplate, -s.TemplateDrop, s.MeanEdgeR, -s.EdgeRDrop)
		}
	}
}
