// Package sed implements the paper's SED (signal-edge detector) module.
//
// The paper trains a YOLO5 network on synthetic L-TD-G pictures to emit
// typed edge bounding boxes. This implementation keeps the same contract and
// training regime with a two-stage detector built from scratch:
//
//  1. Proposal — the waveform is stripped of annotation structure (dashed
//     lines via LAD, long horizontal runs = plateaus/rails/arrow shafts) and
//     the remaining ink components become candidate boxes.
//  2. Classification — a small MLP (internal/nn), trained purely on
//     synthetic data, labels each candidate as one of the five edge types
//     or background (text, arrow heads, leftovers).
//
// Like the paper's SED, the module finally sorts detections top-to-bottom
// then left-to-right and partitions them per signal.
package sed

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"tdmagic/internal/dataset"
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/lad"
	"tdmagic/internal/nn"
	"tdmagic/internal/parallel"
	"tdmagic/internal/spo"
)

// background is the classifier label for non-edge candidates.
const background = int(spo.NumEdgeTypes)

// Config controls proposal generation and detection.
type Config struct {
	// MinPlateauRun is the horizontal run length treated as plateau /
	// rail / shaft ink and erased before component analysis.
	MinPlateauRun int
	// MinHeight and MinArea filter tiny candidate components.
	MinHeight int
	MinArea   int
	// BridgeGap merges candidate components whose boxes, expanded by this
	// many pixels, intersect — re-joining edge strokes that were nicked
	// where an erased annotation line crossed them.
	BridgeGap int
	// ScoreThreshold drops low-confidence classifications.
	ScoreThreshold float64
	// MaxProposals bounds the candidate components entering the O(n²)
	// merge passes; beyond it the smallest components are discarded
	// (deterministically). Clean pictures produce tens of candidates, so
	// the cap only engages on pathological inputs — dense speckle noise
	// can shatter into tens of thousands of single-pixel components and
	// turn proposal merging quadratic. <= 0 selects DefaultMaxProposals.
	MaxProposals int
	// Workers tiles the component labelling inside one picture: 0 or 1
	// runs sequentially, < 0 uses every core. The proposals are
	// bit-identical for any value. Not serialised with the model; the
	// pipeline sets it per call from its IntraWorkers knob.
	Workers int
}

// DefaultMaxProposals is the proposal cap used when Config.MaxProposals
// is unset (also by models deserialised from before the field existed).
const DefaultMaxProposals = 4000

// DefaultConfig returns parameters tuned for the generated 900×540 pictures.
func DefaultConfig() Config {
	return Config{
		MinPlateauRun:  26,
		MinHeight:      12,
		MinArea:        14,
		BridgeGap:      11,
		ScoreThreshold: 0.5,
	}
}

// Detection is one typed edge box.
type Detection struct {
	Box   geom.Rect
	Type  spo.EdgeType
	Score float64
}

// Model is a trained edge classifier.
type Model struct {
	Net *nn.Net
	Cfg Config

	// scratch pools per-goroutine inference buffers so Detect performs no
	// transient allocation in its classify loop, including when many
	// goroutines translate pictures concurrently (batch.Run, tdserve).
	scratch sync.Pool
}

// detectScratch is the reusable working state of one Detect call.
type detectScratch struct {
	feat []float64
	nn   *nn.Scratch
}

func (m *Model) getScratch() *detectScratch {
	if sc, ok := m.scratch.Get().(*detectScratch); ok {
		return sc
	}
	return &detectScratch{feat: make([]float64, FeatureSize), nn: m.Net.NewScratch()}
}

// cleanup returns the proposal working image: bw minus dashed annotation
// structure and long horizontal runs.
//
// Annotation lines are erased only where they are *locally* dashed: a solid
// step edge that shares its column with the dashed event line below it (the
// paper's Example 3 geometry) keeps its solid stretch while the dashes are
// removed. A solid-drawn annotation line therefore survives cleanup and can
// genuinely confuse the detector, exactly the failure mode the paper
// reports.
func cleanup(bw *imgproc.Binary, lines *lad.Result, cfg Config) *imgproc.Binary {
	work := bw.Clone()
	const win, localSolid = 5, 0.9
	// Long solid vertical contours are annotation lines drawn solid (an
	// industrial style): erase the stretches where the line runs alone,
	// keeping crossings with waveform ink. Short solid verticals are step
	// edges and stay. A thin step edge sharing its column with a long solid
	// line is erased with it — the paper's Example 3 failure, preserved by
	// design.
	for _, v := range lines.V {
		if lad.Dashed(v.Density) || v.Seg.Len() < bw.H*35/100 {
			continue
		}
		for y := v.Seg.Y0; y <= v.Seg.Y1; y++ {
			alone := true
			for dy := -1; dy <= 1; dy++ {
				if bw.RowAny(y+dy, v.Seg.X-8, v.Seg.X-3) || bw.RowAny(y+dy, v.Seg.X+3, v.Seg.X+8) {
					alone = false
					break
				}
			}
			if alone {
				work.ClearRect(geom.Rect{X0: v.Seg.X - 2, Y0: y, X1: v.Seg.X + 2, Y1: y})
			}
		}
	}
	for _, v := range lines.V {
		if !lad.Dashed(v.Density) {
			continue
		}
		// Probe each row's 3-column band once, then answer every sliding
		// window from the prefix sum.
		y0, y1 := v.Seg.Y0, v.Seg.Y1
		pre := make([]int, y1-y0+2)
		for i, yy := 0, y0; yy <= y1; i, yy = i+1, yy+1 {
			hit := 0
			if bw.RowAny(yy, v.Seg.X-1, v.Seg.X+1) {
				hit = 1
			}
			pre[i+1] = pre[i] + hit
		}
		for y := y0; y <= y1; y++ {
			lo, hi := y-win, y+win
			if lo < y0 {
				lo = y0
			}
			if hi > y1 {
				hi = y1
			}
			hits := pre[hi-y0+1] - pre[lo-y0]
			if float64(hits)/float64(hi-lo+1) < localSolid {
				work.ClearRect(geom.Rect{X0: v.Seg.X - 2, Y0: y, X1: v.Seg.X + 2, Y1: y})
			}
		}
	}
	for _, h := range lines.H {
		if !lad.Dashed(h.Density) {
			continue
		}
		// OR the 3-row band word-wise once, then answer every sliding
		// window from the prefix sum of the per-column occupancy.
		acc := make([]uint64, bw.Stride)
		for dy := -1; dy <= 1; dy++ {
			if yy := h.Seg.Y + dy; yy >= 0 && yy < bw.H {
				row := bw.Row(yy)
				for j := range acc {
					acc[j] |= row[j]
				}
			}
		}
		x0, x1 := h.Seg.X0, h.Seg.X1
		pre := make([]int, x1-x0+2)
		for i, xx := 0, x0; xx <= x1; i, xx = i+1, xx+1 {
			hit := 0
			if acc[xx>>6]>>(uint(xx)&63)&1 != 0 {
				hit = 1
			}
			pre[i+1] = pre[i] + hit
		}
		for x := x0; x <= x1; x++ {
			lo, hi := x-win, x+win
			if lo < x0 {
				lo = x0
			}
			if hi > x1 {
				hi = x1
			}
			hits := pre[hi-x0+1] - pre[lo-x0]
			if float64(hits)/float64(hi-lo+1) < localSolid {
				work.ClearRect(geom.Rect{X0: x, Y0: h.Seg.Y - 2, X1: x, Y1: h.Seg.Y + 2})
			}
		}
	}
	for _, run := range imgproc.HRuns(work, cfg.MinPlateauRun) {
		work.ClearRect(run.Rect())
	}
	return work
}

// Propose returns candidate edge boxes from the working image.
func Propose(bw *imgproc.Binary, lines *lad.Result, cfg Config) []geom.Rect {
	work := cleanup(bw, lines, cfg)
	w := cfg.Workers
	if w == 0 {
		w = 1
	}
	comps := imgproc.RegionsW(work, 4, w)
	boxes := make([]geom.Rect, 0, len(comps))
	areas := make([]int, 0, len(comps))
	for _, c := range comps {
		if lineResidue(c.Box, lines) {
			continue
		}
		boxes = append(boxes, c.Box)
		areas = append(areas, c.Area)
	}
	boxes, areas = capProposals(boxes, areas, cfg.MaxProposals)
	boxes, areas = mergeBoxes(boxes, areas, cfg.BridgeGap)
	boxes, areas = stitchDiagonal(boxes, areas)
	var out []geom.Rect
	for i, b := range boxes {
		if b.H() < cfg.MinHeight || areas[i] < cfg.MinArea {
			continue
		}
		out = append(out, tightBox(work, b).Expand(1, 1).Clip(work.Bounds()))
	}
	return out
}

// capProposals enforces Config.MaxProposals: when a degraded picture
// shatters into more candidate components than the cap, only the largest
// survive (ties broken by original order), keeping the quadratic merge
// passes bounded. The kept boxes stay in their original order, so below
// the cap the function is the identity and the clean path is unchanged.
func capProposals(boxes []geom.Rect, areas []int, max int) ([]geom.Rect, []int) {
	if max <= 0 {
		max = DefaultMaxProposals
	}
	if len(boxes) <= max {
		return boxes, areas
	}
	idx := make([]int, len(boxes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return areas[idx[a]] > areas[idx[b]] })
	keep := idx[:max]
	sort.Ints(keep)
	outB := make([]geom.Rect, len(keep))
	outA := make([]int, len(keep))
	for i, k := range keep {
		outB[i] = boxes[k]
		outA[i] = areas[k]
	}
	return outB, outA
}

// stitchDiagonal re-joins the pieces of a gentle ramp that a crossing
// annotation line cut apart: the gap grows with 1/slope, so plain
// proximity merging cannot close it. Two boxes are stitched when they are
// horizontally close, vertically adjacent, and offset like a diagonal
// continuation (same-row text fragments have matching centres and are left
// alone).
func stitchDiagonal(boxes []geom.Rect, areas []int) ([]geom.Rect, []int) {
	for {
		merged := false
		for i := 0; i < len(boxes); i++ {
			for j := i + 1; j < len(boxes); j++ {
				a, b := boxes[i], boxes[j]
				if a.X0 > b.X0 {
					a, b = b, a
				}
				gapX := b.X0 - a.X1
				if gapX < 1 || gapX > 34 {
					continue
				}
				if b.Y0-a.Y1 > 10 || a.Y0-b.Y1 > 10 {
					continue // vertically apart
				}
				if geom.Abs(a.CenterY()-b.CenterY()) < 8 {
					continue // same-row structure (text), not a ramp cut
				}
				// Both pieces must look like stroke segments: tall enough
				// and sparse (a diagonal stroke fills little of its box,
				// while text blocks and arrow heads are dense).
				if a.H() < 6 || b.H() < 6 {
					continue
				}
				if float64(areas[i]) > 0.3*float64(boxes[i].Area()) ||
					float64(areas[j]) > 0.3*float64(boxes[j].Area()) {
					continue
				}
				boxes[i] = boxes[i].Union(boxes[j])
				areas[i] += areas[j]
				boxes = append(boxes[:j], boxes[j+1:]...)
				areas = append(areas[:j], areas[j+1:]...)
				merged = true
				j--
			}
		}
		if !merged {
			return boxes, areas
		}
	}
}

// lineResidue reports whether a small component is left-over ink of a
// dashed annotation line (locally solid where it crossed another stroke):
// a narrow, short sliver sitting on a dashed contour's column or row.
func lineResidue(box geom.Rect, lines *lad.Result) bool {
	if box.W() <= 5 && box.H() <= 24 {
		for _, v := range lines.V {
			if lad.Dashed(v.Density) && geom.Abs(box.CenterX()-v.Seg.X) <= 3 &&
				box.Y0 >= v.Seg.Y0-3 && box.Y1 <= v.Seg.Y1+3 {
				return true
			}
		}
	}
	if box.H() <= 5 && box.W() <= 24 {
		for _, h := range lines.H {
			if lad.Dashed(h.Density) && geom.Abs(box.CenterY()-h.Seg.Y) <= 3 &&
				box.X0 >= h.Seg.X0-3 && box.X1 <= h.Seg.X1+3 {
				return true
			}
		}
	}
	return false
}

// mergeBoxes repeatedly unions boxes whose gap-expanded extents intersect,
// until stable. Areas are summed on merge.
func mergeBoxes(boxes []geom.Rect, areas []int, gap int) ([]geom.Rect, []int) {
	for {
		merged := false
		for i := 0; i < len(boxes); i++ {
			for j := i + 1; j < len(boxes); j++ {
				if boxes[i].Expand(gap, gap).Overlaps(boxes[j]) {
					boxes[i] = boxes[i].Union(boxes[j])
					areas[i] += areas[j]
					boxes = append(boxes[:j], boxes[j+1:]...)
					areas = append(areas[:j], areas[j+1:]...)
					merged = true
					j--
				}
			}
		}
		if !merged {
			return boxes, areas
		}
	}
}

// tightBox shrinks a candidate box to the raw ink it contains.
func tightBox(bw *imgproc.Binary, box geom.Rect) geom.Rect {
	box = box.Clip(bw.Bounds())
	out := geom.Rect{X0: box.X1 + 1, Y0: box.Y1 + 1, X1: box.X0 - 1, Y1: box.Y0 - 1}
	for y := box.Y0; y <= box.Y1; y++ {
		if first, last, ok := bw.RowSpan(y, box.X0, box.X1); ok {
			out = out.Union(geom.Rect{X0: first, Y0: y, X1: last, Y1: y})
		}
	}
	if out.Empty() {
		return box
	}
	return out
}

// FeatureSize is the classifier input dimension.
const FeatureSize = gridN*gridN + 4 + 8 + 3

const gridN = 12

// Features extracts the classifier input for a candidate box: a 12×12
// occupancy grid of the box ink, four geometry features, and eight context
// features describing where the surrounding waveform ink sits (the plateau
// positions disambiguate rise from fall).
func Features(bw *imgproc.Binary, box geom.Rect, imgW, imgH int) []float64 {
	return FeaturesInto(make([]float64, 0, FeatureSize), bw, box, imgW, imgH)
}

// FeaturesInto is Features writing into dst's backing array (dst needs
// capacity FeatureSize to stay allocation-free). It returns the filled
// slice, the hot-path variant used by Detect and training workers.
func FeaturesInto(dst []float64, bw *imgproc.Binary, box geom.Rect, imgW, imgH int) []float64 {
	f := dst[:0]
	w, h := box.W(), box.H()
	// Occupancy grid.
	for gy := 0; gy < gridN; gy++ {
		for gx := 0; gx < gridN; gx++ {
			x0 := box.X0 + gx*w/gridN
			x1 := box.X0 + (gx+1)*w/gridN - 1
			y0 := box.Y0 + gy*h/gridN
			y1 := box.Y0 + (gy+1)*h/gridN - 1
			if x1 < x0 {
				x1 = x0
			}
			if y1 < y0 {
				y1 = y0
			}
			f = append(f, inkFrac(bw, geom.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}))
		}
	}
	// Geometry.
	aspect := float64(w) / float64(h)
	if aspect > 4 {
		aspect = 4
	}
	f = append(f,
		aspect,
		float64(h)/float64(imgH),
		float64(w)/float64(imgW),
		inkFrac(bw, box),
	)
	// Context strips: a strip one-third of the box width (min 8 px) to the
	// left and right, split into top/bottom halves; plus strips above and
	// below, split left/right.
	sw := w / 3
	if sw < 8 {
		sw = 8
	}
	sh := h / 3
	if sh < 8 {
		sh = 8
	}
	midY := box.CenterY()
	midX := box.CenterX()
	f = append(f,
		inkFrac(bw, geom.Rect{X0: box.X0 - sw, Y0: box.Y0, X1: box.X0 - 1, Y1: midY}),     // left-top
		inkFrac(bw, geom.Rect{X0: box.X0 - sw, Y0: midY + 1, X1: box.X0 - 1, Y1: box.Y1}), // left-bottom
		inkFrac(bw, geom.Rect{X0: box.X1 + 1, Y0: box.Y0, X1: box.X1 + sw, Y1: midY}),     // right-top
		inkFrac(bw, geom.Rect{X0: box.X1 + 1, Y0: midY + 1, X1: box.X1 + sw, Y1: box.Y1}), // right-bottom
		inkFrac(bw, geom.Rect{X0: box.X0, Y0: box.Y0 - sh, X1: midX, Y1: box.Y0 - 1}),     // above-left
		inkFrac(bw, geom.Rect{X0: midX + 1, Y0: box.Y0 - sh, X1: box.X1, Y1: box.Y0 - 1}), // above-right
		inkFrac(bw, geom.Rect{X0: box.X0, Y0: box.Y1 + 1, X1: midX, Y1: box.Y1 + sh}),     // below-left
		inkFrac(bw, geom.Rect{X0: midX + 1, Y0: box.Y1 + 1, X1: box.X1, Y1: box.Y1 + sh}), // below-right
	)
	// Directional cue: the normalised vertical centroid of the waveform
	// ink entering from the left and leaving to the right. A falling edge
	// enters high (near 0) and leaves low (near 1); a rising edge the
	// opposite. Decisive for step edges whose occupancy grid is a plain
	// vertical bar.
	// The strips extend a few rows beyond the box: proposal boxes are ink-
	// tight, so the adjoining plateau stroke can sit just outside them.
	leftC := inkCentroidY(bw, geom.Rect{X0: box.X0 - sw, Y0: box.Y0 - 4, X1: box.X0 - 1, Y1: box.Y1 + 4})
	rightC := inkCentroidY(bw, geom.Rect{X0: box.X1 + 1, Y0: box.Y0 - 4, X1: box.X1 + sw, Y1: box.Y1 + 4})
	f = append(f, leftC, rightC, leftC-rightC+0.5)
	return f
}

// inkCentroidY returns the mean row of the ink in r, normalised to [0, 1]
// within r (0 = top). Empty regions report 0.5.
func inkCentroidY(bw *imgproc.Binary, r geom.Rect) float64 {
	r = r.Clip(bw.Bounds())
	if r.Empty() || r.H() <= 1 {
		return 0.5
	}
	sum, n := 0, 0
	for y := r.Y0; y <= r.Y1; y++ {
		c := bw.RowCount(y, r.X0, r.X1)
		sum += c * (y - r.Y0)
		n += c
	}
	if n == 0 {
		return 0.5
	}
	return float64(sum) / float64(n) / float64(r.H()-1)
}

// inkFrac returns the fraction of set pixels in r (clipped to the image).
func inkFrac(bw *imgproc.Binary, r geom.Rect) float64 {
	r = r.Clip(bw.Bounds())
	if r.Empty() {
		return 0
	}
	return float64(bw.CountRect(r)) / float64(r.Area())
}

// TrainConfig controls model training.
type TrainConfig struct {
	Hidden    int
	Epochs    int
	BatchSize int
	LR        float64
	// Workers fans the per-sample featurisation and the minibatch gradient
	// computation out over a worker pool (<= 0 means GOMAXPROCS). The
	// trained model is identical for any worker count.
	Workers int
}

// DefaultTrainConfig mirrors the paper's 30-epoch regime at a small scale.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Hidden: 48, Epochs: 30, BatchSize: 64, LR: 3e-3}
}

// exampleSet extracts the training examples of one labelled picture:
// binarise, detect lines, propose candidates, featurise. This per-sample
// stage is independent across samples and runs on the worker pool. A
// pre-binarised image may be supplied to avoid repeating the Otsu pass
// (core.Train shares one binarisation between SED and OCR); bw == nil
// computes it here.
func exampleSet(s *dataset.Sample, bw *imgproc.Binary, cfg Config) []nn.Sample {
	var out []nn.Sample
	if bw == nil {
		bw = imgproc.Threshold(s.Image, imgproc.OtsuThreshold(s.Image))
	}
	lines := lad.DetectBinary(bw, lad.DefaultConfig())
	props := Propose(bw, lines, cfg)
	for _, p := range props {
		label := background
		bestIoU := 0.0
		for _, gt := range s.Edges {
			if iou := p.IoU(gt.Box); iou > bestIoU {
				bestIoU = iou
				if iou >= 0.5 {
					label = int(gt.Type)
				}
			}
		}
		if bestIoU >= 0.2 && label == background {
			continue // ambiguous: skip
		}
		out = append(out, nn.Sample{X: Features(bw, p, s.Image.W, s.Image.H), Y: label})
	}
	for _, gt := range s.Edges {
		out = append(out, nn.Sample{X: Features(bw, gt.Box, s.Image.W, s.Image.H), Y: int(gt.Type)})
	}
	return out
}

// Train fits an edge classifier on labelled samples. Positives come from
// matched proposals and from the ground-truth boxes themselves; unmatched
// proposals become background examples.
//
// The binarise→LAD→propose→featurise stage runs per sample on tc.Workers
// goroutines; examples are collected in input order, so the resulting model
// does not depend on the worker count.
//
// bws optionally carries the samples' pre-binarised images (parallel to
// samples); nil binarises internally.
func Train(rng *rand.Rand, samples []*dataset.Sample, bws []*imgproc.Binary, cfg Config, tc TrainConfig) (*Model, error) {
	perSample := make([][]nn.Sample, len(samples))
	parallel.For(tc.Workers, len(samples), func(i int) {
		var bw *imgproc.Binary
		if bws != nil {
			bw = bws[i]
		}
		perSample[i] = exampleSet(samples[i], bw, cfg)
	})
	total := 0
	for _, ex := range perSample {
		total += len(ex)
	}
	train := make([]nn.Sample, 0, total)
	for _, ex := range perSample {
		train = append(train, ex...)
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("sed: no training examples from %d samples", len(samples))
	}
	net := nn.NewNet(rng, FeatureSize, tc.Hidden, background+1)
	if _, err := net.Train(rng, train, nn.TrainConfig{
		Epochs: tc.Epochs, BatchSize: tc.BatchSize, LR: tc.LR, Workers: tc.Workers,
	}); err != nil {
		return nil, err
	}
	return &Model{Net: net, Cfg: cfg}, nil
}

// Detect runs the full detector on a picture: propose, classify, filter.
// The classify loop reuses pooled feature and activation buffers, so it
// performs no transient allocation per candidate.
func (m *Model) Detect(img *imgproc.Gray, lines *lad.Result) []Detection {
	dets, _ := m.DetectCtx(context.Background(), img, lines)
	return dets
}

// DetectCtx is Detect with cooperative cancellation: the context is
// checked before proposal generation and along the classify loop, so a
// pathological picture cannot run past its deadline by more than one
// proposal pass (itself bounded by Config.MaxProposals).
func (m *Model) DetectCtx(ctx context.Context, img *imgproc.Gray, lines *lad.Result) ([]Detection, error) {
	return m.DetectCtxW(ctx, img, lines, m.Cfg.Workers)
}

// DetectCtxW is DetectCtx with the intra-picture component labelling tiled
// over workers goroutines (0 or 1 sequential, < 0 every core). Detections
// are bit-identical for any worker count.
func (m *Model) DetectCtxW(ctx context.Context, img *imgproc.Gray, lines *lad.Result, workers int) ([]Detection, error) {
	bw := lines.BW
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := m.Cfg
	cfg.Workers = workers
	props := Propose(bw, lines, cfg)
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	var dets []Detection
	for i, p := range props {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sc.feat = FeaturesInto(sc.feat, bw, p, img.W, img.H)
		class, prob := m.Net.PredictScratch(sc.nn, sc.feat)
		if class == background || prob < m.Cfg.ScoreThreshold {
			continue
		}
		dets = append(dets, Detection{Box: p, Type: spo.EdgeType(class), Score: prob})
	}
	SortDetections(dets)
	return dets, nil
}

// SortDetections orders detections top-to-bottom then left-to-right, the
// L_B ordering of the paper.
func SortDetections(dets []Detection) {
	sort.Slice(dets, func(i, j int) bool {
		if dets[i].Box.Y0 != dets[j].Box.Y0 {
			return dets[i].Box.Y0 < dets[j].Box.Y0
		}
		return dets[i].Box.X0 < dets[j].Box.X0
	})
}

// Partition splits sorted detections into per-signal groups by clustering
// their vertical extents: two boxes belong to the same signal when their
// vertical spans overlap.
func Partition(dets []Detection) [][]Detection {
	if len(dets) == 0 {
		return nil
	}
	type group struct {
		y0, y1 int
		dets   []Detection
	}
	var groups []*group
	for _, d := range dets {
		placed := false
		for _, g := range groups {
			if d.Box.Y0 <= g.y1 && d.Box.Y1 >= g.y0 {
				g.dets = append(g.dets, d)
				if d.Box.Y0 < g.y0 {
					g.y0 = d.Box.Y0
				}
				if d.Box.Y1 > g.y1 {
					g.y1 = d.Box.Y1
				}
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, &group{y0: d.Box.Y0, y1: d.Box.Y1, dets: []Detection{d}})
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].y0 < groups[j].y0 })
	out := make([][]Detection, len(groups))
	for i, g := range groups {
		sort.Slice(g.dets, func(a, b int) bool { return g.dets[a].Box.X0 < g.dets[b].Box.X0 })
		out[i] = g.dets
	}
	return out
}
