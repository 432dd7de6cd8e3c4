package sed

import (
	"math/rand"
	"reflect"
	"testing"

	"tdmagic/internal/imgproc"
	"tdmagic/internal/tdgen"
)

// TestFeaturesIntoMatchesFeatures pins the buffer-reusing variant to the
// allocating one.
func TestFeaturesIntoMatchesFeatures(t *testing.T) {
	s := genSamples(t, tdgen.G1, 11, 1)[0]
	bw := imgproc.Threshold(s.Image, 128)
	buf := make([]float64, 0, FeatureSize)
	for _, gt := range s.Edges {
		want := Features(bw, gt.Box, s.Image.W, s.Image.H)
		buf = FeaturesInto(buf, bw, gt.Box, s.Image.W, s.Image.H)
		if !reflect.DeepEqual(want, buf) {
			t.Fatalf("FeaturesInto differs from Features for box %v", gt.Box)
		}
	}
}

// TestFeaturesIntoZeroAlloc guards the inference hot path: featurising into
// a pre-sized buffer must not allocate.
func TestFeaturesIntoZeroAlloc(t *testing.T) {
	s := genSamples(t, tdgen.G1, 11, 1)[0]
	if len(s.Edges) == 0 {
		t.Skip("sample has no edges")
	}
	bw := imgproc.Threshold(s.Image, 128)
	box := s.Edges[0].Box
	buf := make([]float64, FeatureSize)
	allocs := testing.AllocsPerRun(100, func() {
		buf = FeaturesInto(buf, bw, box, s.Image.W, s.Image.H)
	})
	if allocs != 0 {
		t.Errorf("FeaturesInto allocates %v times per call, want 0", allocs)
	}
}

// TestTrainWorkerCountInvariant pins the tentpole guarantee at the sed
// layer: the trained model is bit-identical for any worker count.
func TestTrainWorkerCountInvariant(t *testing.T) {
	samples := genSamples(t, tdgen.G1, 21, 10)
	cfg := DefaultConfig()
	tc := DefaultTrainConfig()
	tc.Epochs = 4
	train := func(workers int) *Model {
		tc.Workers = workers
		m, err := Train(rand.New(rand.NewSource(5)), samples, binarize(samples), cfg, tc)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base := train(1)
	for _, workers := range []int{3, 8} {
		got := train(workers)
		if !reflect.DeepEqual(base.Net.Weights, got.Net.Weights) {
			t.Errorf("workers=%d: weights differ from workers=1", workers)
		}
		if !reflect.DeepEqual(base.Net.Biases, got.Net.Biases) {
			t.Errorf("workers=%d: biases differ from workers=1", workers)
		}
	}
}
