// Package core wires the TD-Magic pipeline together: binarisation, LAD
// contour detection, SED edge detection, OCR text reading, and SEI semantic
// interpretation, turning a bitmap timing diagram into its SPO formal
// specification (paper Fig. 2).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"tdmagic/internal/dataset"
	"tdmagic/internal/diag"
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/lad"
	"tdmagic/internal/ocr"
	"tdmagic/internal/parallel"
	"tdmagic/internal/sed"
	"tdmagic/internal/sei"
	"tdmagic/internal/spo"
)

// Pipeline is a trained TD-Magic instance.
//
// A Pipeline is safe for concurrent use: once trained (or loaded), every
// translation entry point — Translate, TranslateContext, TranslateAllCtx,
// Analyze — only reads the model state, and the per-call scratch buffers
// in the SED and OCR models are pooled per goroutine (sync.Pool), so one
// shared instance serves any number of concurrent callers. This is the
// contract the tdserve worker pool and the batch path rely on;
// TestConcurrentTranslateShared pins it under the race detector. The
// mutable knobs (Strict, Metrics) must be set before the pipeline is
// shared.
type Pipeline struct {
	SED    *sed.Model
	OCR    *ocr.Model
	LADCfg lad.Config
	OCRCfg ocr.DetectConfig
	SEICfg sei.Config
	// Strict restores fail-fast behaviour: degenerate inputs and
	// non-partial-order interpretations return errors instead of partial
	// results with diagnostics. The oracle experiments set it so
	// structural failures stay visible as failures.
	Strict bool
	// Metrics, when non-nil, records every translation's outcome and
	// latency. The same bundle is shared by the CLI, the batch path and
	// tdserve, so their counters are directly comparable. Set it before
	// the pipeline is shared between goroutines; recording itself is
	// atomic and concurrency-safe.
	Metrics *PipelineMetrics
}

// Report exposes every intermediate result of a translation, for
// evaluation, debugging and rendering.
type Report struct {
	// Lines is LAD's result without its binary image: Lines.BW is nil
	// once a translation returns (the image went back to imgproc's pool).
	Lines *lad.Result
	Edges []sed.Detection
	Texts []ocr.Result
	SEI   *sei.Output
	// Diags records every degradation the translation worked around:
	// refused degenerate inputs, repaired interpretations, suspicious
	// stage outputs. Empty on a clean run.
	Diags []diag.Diagnostic
}

// MaxPixels bounds the accepted picture area (width x height). Larger
// inputs are refused up front: the morphology and proposal stages are
// sized for document scans, and an adversarially huge bitmap must not be
// able to stall a batch or exhaust memory.
const MaxPixels = 1 << 26 // 67 Mpx, ~8192 x 8192

// minDimension is the smallest width/height that can plausibly contain a
// timing diagram; anything thinner is refused as degenerate.
const minDimension = 8

// validateInput screens a picture before any stage runs. It returns nil
// when the picture is translatable, otherwise the diagnostics explaining
// the refusal.
func validateInput(img *imgproc.Gray) []diag.Diagnostic {
	switch {
	case img == nil:
		return []diag.Diagnostic{diag.New(diag.StageInput, diag.Error, "nil image")}
	case img.W <= 0 || img.H <= 0:
		return []diag.Diagnostic{diag.New(diag.StageInput, diag.Error, "empty %dx%d image", img.W, img.H)}
	case img.W < minDimension || img.H < minDimension:
		return []diag.Diagnostic{diag.New(diag.StageInput, diag.Error,
			"degenerate %dx%d image: both dimensions must be at least %d", img.W, img.H, minDimension)}
	case img.W*img.H > MaxPixels:
		return []diag.Diagnostic{diag.New(diag.StageInput, diag.Error,
			"oversized %dx%d image exceeds the %d-pixel limit", img.W, img.H, MaxPixels)}
	}
	// A uniform picture (all paper or all ink) has no contrast to
	// binarise; Otsu would split noise-free nothing.
	uniform := true
	for _, v := range img.Pix {
		if v != img.Pix[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return []diag.Diagnostic{diag.New(diag.StageInput, diag.Error,
			"uniform image (every pixel %d): no ink/paper contrast", img.Pix[0])}
	}
	return nil
}

// TrainConfig bundles the training knobs of both learned modules.
type TrainConfig struct {
	SEDCfg       sed.Config
	SEDTrain     sed.TrainConfig
	OCRCfg       ocr.DetectConfig
	LADCfg       lad.Config
	SEICfg       sei.Config
	NameLexicon  []string // optional signal-name dictionary for SEI
	ValueLexicon []string // optional signal-value dictionary for SEI
	// Workers fans the data-parallel training stages (per-picture
	// featurisation, minibatch gradients) out over this many goroutines
	// (<= 0 means GOMAXPROCS). The trained pipeline is bit-identical for
	// any worker count.
	Workers int
}

// DefaultTrainConfig returns the configuration used in the experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		SEDCfg:   sed.DefaultConfig(),
		SEDTrain: sed.DefaultTrainConfig(),
		OCRCfg:   ocr.DefaultDetectConfig(),
		LADCfg:   lad.DefaultConfig(),
		SEICfg:   sei.DefaultConfig(),
	}
}

// Train fits a pipeline on labelled synthetic samples: the SED classifier
// is trained from scratch, and the OCR glyph templates are refined from the
// samples' text crops. Each sample is binarised exactly once (in parallel)
// and the packed image is shared between the two trainers — SED and OCR
// previously each ran their own Otsu pass over every picture.
func Train(rng *rand.Rand, samples []*dataset.Sample, cfg TrainConfig) (*Pipeline, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no training samples")
	}
	if cfg.SEDTrain.Workers == 0 {
		cfg.SEDTrain.Workers = cfg.Workers
	}
	bws := make([]*imgproc.Binary, len(samples))
	parallel.For(cfg.Workers, len(samples), func(i int) {
		img := samples[i].Image
		bws[i] = imgproc.Threshold(img, imgproc.OtsuThreshold(img))
	})
	sedModel, err := sed.Train(rng, samples, bws, cfg.SEDCfg, cfg.SEDTrain)
	if err != nil {
		return nil, fmt.Errorf("core: SED training: %w", err)
	}
	ocrModel := ocr.NewFontModel()
	ocrModel.Train(samples, bws)
	seiCfg := cfg.SEICfg
	if len(cfg.NameLexicon) > 0 {
		seiCfg.NameLexicon = ocr.NewLexicon(cfg.NameLexicon)
	}
	if len(cfg.ValueLexicon) > 0 {
		seiCfg.ValueLexicon = ocr.NewLexicon(cfg.ValueLexicon)
	}
	return &Pipeline{
		SED:    sedModel,
		OCR:    ocrModel,
		LADCfg: cfg.LADCfg,
		OCRCfg: cfg.OCRCfg,
		SEICfg: seiCfg,
	}, nil
}

// Translate converts a timing-diagram picture into its SPO. Unless
// p.Strict is set, a degenerate input or a repaired interpretation
// returns a best-effort (possibly empty) SPO with the degradations
// recorded in Report.Diags rather than an error.
func (p *Pipeline) Translate(img *imgproc.Gray) (*spo.SPO, *Report, error) {
	return p.TranslateContext(context.Background(), img)
}

// TranslateContext is Translate under a context: the perception stages
// check ctx cooperatively, so a deadline or cancellation stops the
// translation within one stage pass and surfaces as ctx's error. The
// translation is the "core.translate" layer with one layer per stage
// under it, each feeding its span (traced ctx) and histogram (metrics).
func (p *Pipeline) TranslateContext(ctx context.Context, img *imgproc.Gray) (out *spo.SPO, rep *Report, err error) {
	l := p.layer(ctx, "core.translate")
	defer func() {
		if rep != nil {
			l.Int("diags", int64(len(rep.Diags)))
		}
		l.Bool("error", err != nil)
		l.End()
		p.Metrics.observe(rep, err)
	}()
	if ds := validateInput(img); ds != nil {
		l.Bool("refused", true)
		rep = &Report{Diags: ds}
		if p.Strict {
			return nil, rep, fmt.Errorf("core: %s", ds[0].Message)
		}
		return &spo.SPO{}, rep, nil
	}
	l.Int("width", int64(img.W)).Int("height", int64(img.H))
	ctx = l.Context(ctx)
	if rep, err = p.analyzeStagesCtx(ctx, img); err != nil {
		return nil, rep, err
	}
	return p.interpret(ctx, img, rep)
}

// interpret runs SEI over a perception report and threads the semantic
// diagnostics onto it.
func (p *Pipeline) interpret(ctx context.Context, img *imgproc.Gray, rep *Report) (*spo.SPO, *Report, error) {
	l := p.layer(ctx, "sei.interpret")
	cfg := p.SEICfg
	cfg.Strict = p.Strict
	out, err := sei.Interpret(sei.Input{
		Width:  img.W,
		Height: img.H,
		Edges:  rep.Edges,
		Lines:  rep.Lines,
		Texts:  rep.Texts,
	}, cfg)
	if err != nil {
		l.Bool("error", true)
		l.End()
		return nil, rep, err
	}
	l.Int("events", int64(len(out.Events))).
		Int("nodes", int64(len(out.SPO.Nodes))).
		Int("constraints", int64(len(out.SPO.Constraints))).
		Int("diags", int64(len(out.Diags)))
	l.End()
	rep.SEI = out
	rep.Diags = append(rep.Diags, out.Diags...)
	return out.SPO, rep, nil
}

// Analyze runs only the perception stages (binarisation, LAD, SED, OCR) on
// img, without semantic interpretation. It is the unit the perception
// micro-benchmarks measure and is also useful for debugging tools that want
// the intermediate report without an SPO.
func (p *Pipeline) Analyze(img *imgproc.Gray) *Report {
	rep, _ := p.analyzeStagesCtx(context.Background(), img)
	return rep
}

// analyzeStagesCtx binarises the picture, runs LAD, then SED and OCR
// concurrently. The picture is binarised exactly once here in core — its
// own "imgproc.binarize" layer — and both LAD and the downstream stages
// read the shared packed image (and the contour result) without mutating
// either, so they are free to overlap; the text/edge cross-check runs
// after the join and the report is bit-identical to the sequential order.
// Edge detections that coincide with recognised text are discarded: a
// glyph like the signal name "X" is itself a small double-ramp shape, and
// only the cross-check against OCR separates the two readings.
//
// The packed image is imgproc scratch: it goes back to the pool once the
// stages that read it have returned, so the report's Lines.BW is nil.
//
// Every stage checks ctx cooperatively; the first stage error (only ever
// a context error) aborts the translation.
func (p *Pipeline) analyzeStagesCtx(ctx context.Context, img *imgproc.Gray) (*Report, error) {
	l := p.layer(ctx, "imgproc.binarize")
	bw, thr := lad.Binarize(img, p.LADCfg)
	l.Int("threshold", int64(thr))
	l.End()
	rep, err := p.perceive(ctx, img, bw)
	// perceive returns only after every stage reading bw has returned (a
	// panic skips this and leaves bw to the garbage collector).
	if rep.Lines != nil {
		rep.Lines.BW = nil
	}
	imgproc.PutBinary(bw)
	return rep, err
}

// perceive runs LAD on the binarised picture bw, then SED (when the
// pipeline has a detector) and OCR concurrently, and returns once none of
// them is running.
func (p *Pipeline) perceive(ctx context.Context, img *imgproc.Gray, bw *imgproc.Binary) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return &Report{}, err
	}
	l := p.layer(ctx, "lad.detect")
	lines, err := lad.DetectBinaryCtx(ctx, bw, p.LADCfg)
	if err != nil {
		l.Bool("error", true)
		l.End()
		return &Report{}, err
	}
	l.Int("v_contours", int64(len(lines.V))).Int("h_contours", int64(len(lines.H)))
	l.End()
	rep := &Report{Lines: lines}
	if frac := float64(bw.Count()) / float64(img.W*img.H); frac > 0.5 {
		rep.Diags = append(rep.Diags, diag.New(diag.StageLAD, diag.Warning,
			"%.0f%% of the picture binarised to ink: saturated or inverted scan", 100*frac))
	}
	var edges []sed.Detection
	var sedErr error
	var wg sync.WaitGroup
	if p.SED != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// SED runs concurrently with OCR; its span is a sibling of
			// OCR's under the same parent, recorded goroutine-safely.
			l := p.layer(ctx, "sed.detect")
			edges, sedErr = p.SED.DetectCtx(ctx, img, lines)
			l.Int("edge_boxes", int64(len(edges))).Bool("error", sedErr != nil)
			l.End()
		}()
	}
	if p.OCR != nil {
		l := p.layer(ctx, "ocr.read")
		texts, ocrErr := p.OCR.ReadAllCtx(ctx, bw, lines, p.OCRCfg)
		l.Int("text_boxes", int64(len(texts))).Bool("error", ocrErr != nil)
		l.End()
		if ocrErr != nil {
			wg.Wait()
			return rep, ocrErr
		}
		rep.Texts = texts
	}
	if p.SED != nil {
		wg.Wait()
		if sedErr != nil {
			return rep, sedErr
		}
		rep.Edges = dropTextOverlaps(edges, rep.Texts)
	}
	return rep, nil
}

// dropTextOverlaps filters edge detections that coincide with recognised
// text: IoU >= 0.4 with a text box, or containment in the text box expanded
// by 2 px. The expanded boxes are computed once up front rather than inside
// the O(edges × texts) scan. Filtering is in place; the returned slice
// reuses dets' backing array.
func dropTextOverlaps(dets []sed.Detection, texts []ocr.Result) []sed.Detection {
	if len(dets) == 0 || len(texts) == 0 {
		return dets
	}
	expanded := make([]geom.Rect, len(texts))
	for i, t := range texts {
		expanded[i] = t.Box.Expand(2, 2)
	}
	kept := dets[:0]
	for _, d := range dets {
		isText := false
		for i, t := range texts {
			if d.Box.IoU(t.Box) >= 0.4 || expanded[i].Contains(d.Box) {
				isText = true
				break
			}
		}
		if !isText {
			kept = append(kept, d)
		}
	}
	return kept
}
