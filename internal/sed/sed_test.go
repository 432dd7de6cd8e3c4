package sed

import (
	"context"
	"math/rand"
	"testing"

	"tdmagic/internal/dataset"
	"tdmagic/internal/detect"
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/lad"
	"tdmagic/internal/spo"
	"tdmagic/internal/tdgen"
)

// binarize binarises each sample at Otsu's threshold, as core.Train does.
func binarize(samples []*dataset.Sample) []*imgproc.Binary {
	bws := make([]*imgproc.Binary, len(samples))
	for i, s := range samples {
		bws[i] = imgproc.Threshold(s.Image, imgproc.OtsuThreshold(s.Image))
	}
	return bws
}

// genSamples produces n deterministic synthetic samples.
func genSamples(t *testing.T, mode tdgen.Mode, seed int64, n int) []*dataset.Sample {
	t.Helper()
	g := tdgen.New(tdgen.DefaultConfig(mode), rand.New(rand.NewSource(seed)))
	samples, err := g.GenerateN(n)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestProposeCoversGroundTruth(t *testing.T) {
	samples := genSamples(t, tdgen.G1, 31, 8)
	totalGT, covered := 0, 0
	for _, s := range samples {
		bw := imgproc.Threshold(s.Image, imgproc.OtsuThreshold(s.Image))
		lines, _ := lad.DetectBinaryCtx(context.Background(), bw, lad.DefaultConfig())
		props := Propose(bw, lines, DefaultConfig())
		for _, gt := range s.Edges {
			totalGT++
			for _, p := range props {
				if p.IoU(gt.Box) >= 0.5 {
					covered++
					break
				}
			}
		}
	}
	frac := float64(covered) / float64(totalGT)
	if frac < 0.9 {
		t.Errorf("proposals cover %.2f of ground truth (%d/%d), want >= 0.9", frac, covered, totalGT)
	}
}

func TestFeaturesShapeAndRange(t *testing.T) {
	s := genSamples(t, tdgen.G1, 5, 1)[0]
	bw := imgproc.Threshold(s.Image, 128)
	for _, gt := range s.Edges {
		f := Features(bw, gt.Box, s.Image.W, s.Image.H)
		if len(f) != FeatureSize {
			t.Fatalf("feature size %d, want %d", len(f), FeatureSize)
		}
		for i, v := range f {
			if v < -0.5 || v > 4 {
				t.Errorf("feature %d = %v out of range", i, v)
			}
		}
	}
}

func TestFeaturesDistinguishRiseFall(t *testing.T) {
	// Rise and fall ramps of the same shape must differ in context
	// features (plateau positions).
	s := genSamples(t, tdgen.G1, 5, 1)[0]
	bw := imgproc.Threshold(s.Image, 128)
	var rise, fall []float64
	for _, gt := range s.Edges {
		switch gt.Type {
		case spo.RiseRamp, spo.RiseStep:
			rise = Features(bw, gt.Box, s.Image.W, s.Image.H)
		case spo.FallRamp, spo.FallStep:
			fall = Features(bw, gt.Box, s.Image.W, s.Image.H)
		}
	}
	if rise == nil || fall == nil {
		t.Skip("sample lacks rise/fall pair")
	}
	diff := 0.0
	for i := range rise {
		d := rise[i] - fall[i]
		diff += d * d
	}
	if diff < 0.01 {
		t.Errorf("rise/fall features nearly identical (%.4f)", diff)
	}
}

func TestTrainAndDetectSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	trainSet := genSamples(t, tdgen.G1, 100, 40)
	valSet := genSamples(t, tdgen.G1, 200, 8)
	rng := rand.New(rand.NewSource(1))
	tc := DefaultTrainConfig()
	model, err := Train(rng, trainSet, binarize(trainSet), DefaultConfig(), tc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var dets []detect.Detection
	var gts []detect.GroundTruth
	for i, s := range valSet {
		bw, _ := lad.Binarize(s.Image, lad.DefaultConfig())
		lines, _ := lad.DetectBinaryCtx(ctx, bw, lad.DefaultConfig())
		found, err := model.DetectCtx(ctx, s.Image, lines)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range found {
			dets = append(dets, detect.Detection{Box: d.Box, Class: int(d.Type), Score: d.Score, Image: i})
		}
		for _, g := range s.Edges {
			gts = append(gts, detect.GroundTruth{Box: g.Box, Class: int(g.Type), Image: i})
		}
	}
	m := detect.Match(dets, gts, 0.5)
	p, r := m.PR()
	if p < 0.85 || r < 0.85 {
		t.Errorf("validation P=%.3f R=%.3f (TP=%d FP=%d FN=%d), want both >= 0.85",
			p, r, m.TP, m.FP, m.FN)
	}
}

func TestTrainNoSamples(t *testing.T) {
	if _, err := Train(rand.New(rand.NewSource(1)), nil, nil, DefaultConfig(), DefaultTrainConfig()); err == nil {
		t.Error("training on empty set should fail")
	}
}

func TestSortDetections(t *testing.T) {
	dets := []Detection{
		{Box: geom.Rect{X0: 50, Y0: 100, X1: 60, Y1: 120}},
		{Box: geom.Rect{X0: 10, Y0: 10, X1: 20, Y1: 30}},
		{Box: geom.Rect{X0: 5, Y0: 100, X1: 15, Y1: 120}},
	}
	SortDetections(dets)
	if dets[0].Box.Y0 != 10 || dets[1].Box.X0 != 5 || dets[2].Box.X0 != 50 {
		t.Errorf("sort order wrong: %v", dets)
	}
}

func TestPartition(t *testing.T) {
	dets := []Detection{
		{Box: geom.Rect{X0: 10, Y0: 10, X1: 20, Y1: 50}},
		{Box: geom.Rect{X0: 100, Y0: 15, X1: 110, Y1: 55}},
		{Box: geom.Rect{X0: 50, Y0: 200, X1: 60, Y1: 250}},
	}
	SortDetections(dets)
	groups := Partition(dets)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if len(groups[0]) != 2 || len(groups[1]) != 1 {
		t.Errorf("group sizes: %d, %d", len(groups[0]), len(groups[1]))
	}
	if groups[0][0].Box.X0 != 10 {
		t.Error("within-group x order wrong")
	}
	if Partition(nil) != nil {
		t.Error("empty partition should be nil")
	}
}

func TestPartitionMatchesSignals(t *testing.T) {
	// Ground-truth boxes of a two-signal diagram partition into exactly
	// two groups matching the signal assignment.
	samples := genSamples(t, tdgen.G1, 77, 5)
	for _, s := range samples {
		var dets []Detection
		for _, gt := range s.Edges {
			dets = append(dets, Detection{Box: gt.Box, Type: gt.Type, Score: 1})
		}
		SortDetections(dets)
		groups := Partition(dets)
		sigs := map[int]bool{}
		for _, gt := range s.Edges {
			sigs[gt.Signal] = true
		}
		if len(groups) != len(sigs) {
			t.Errorf("%s: %d groups, want %d signals", s.Name, len(groups), len(sigs))
		}
	}
}

func TestTightBox(t *testing.T) {
	bw := imgproc.NewBinary(20, 20)
	bw.Set(5, 5, true)
	bw.Set(8, 9, true)
	got := tightBox(bw, geom.Rect{X0: 0, Y0: 0, X1: 19, Y1: 19})
	if got != (geom.Rect{X0: 5, Y0: 5, X1: 8, Y1: 9}) {
		t.Errorf("tightBox = %v", got)
	}
	// Empty region returns the original box.
	empty := geom.Rect{X0: 15, Y0: 15, X1: 18, Y1: 18}
	if got := tightBox(bw, empty); got != empty {
		t.Errorf("empty tightBox = %v", got)
	}
}

func TestInkFrac(t *testing.T) {
	bw := imgproc.NewBinary(10, 10)
	for x := 0; x < 5; x++ {
		bw.Set(x, 0, true)
	}
	if got := inkFrac(bw, geom.Rect{X0: 0, Y0: 0, X1: 9, Y1: 0}); got != 0.5 {
		t.Errorf("inkFrac = %v", got)
	}
	if inkFrac(bw, geom.Rect{X0: -10, Y0: -10, X1: -5, Y1: -5}) != 0 {
		t.Error("out-of-bounds inkFrac not 0")
	}
}
