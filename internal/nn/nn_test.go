package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewNetShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNet(rng, 4, 8, 3)
	if len(n.Weights) != 2 || n.InputSize() != 4 || n.OutputSize() != 3 {
		t.Fatalf("shape wrong: %d %d %d", len(n.Weights), n.InputSize(), n.OutputSize())
	}
	if len(n.Weights[0]) != 4*8 || len(n.Weights[1]) != 8*3 {
		t.Error("weight tensor sizes wrong")
	}
	if len(n.Biases[0]) != 8 || len(n.Biases[1]) != 3 {
		t.Error("bias sizes wrong")
	}
}

func TestNewNetPanicsOnTooFewLayers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewNet(rand.New(rand.NewSource(1)), 4)
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	sum := 0.0
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Errorf("prob %v out of (0,1)", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("sum = %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Error("softmax not monotone")
	}
	// Large logits must not overflow.
	p = Softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		t.Error("softmax overflowed")
	}
}

func TestLogitsSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n := NewNet(rand.New(rand.NewSource(1)), 4, 2)
	n.Logits([]float64{1, 2})
}

func TestTrainXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := NewNet(rng, 2, 16, 2)
	var samples []Sample
	for i := 0; i < 200; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x := []float64{float64(a), float64(b)}
		// jitter inputs slightly for robustness
		x[0] += rng.NormFloat64() * 0.05
		x[1] += rng.NormFloat64() * 0.05
		samples = append(samples, Sample{X: x, Y: a ^ b})
	}
	loss, err := n.Train(rng, samples, TrainConfig{Epochs: 120, BatchSize: 16, LR: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.2 {
		t.Errorf("final loss %v too high", loss)
	}
	if acc := n.Accuracy(samples); acc < 0.95 {
		t.Errorf("XOR accuracy = %v", acc)
	}
	// Check the four corners explicitly.
	for _, c := range []struct {
		x []float64
		y int
	}{
		{[]float64{0, 0}, 0}, {[]float64{1, 1}, 0},
		{[]float64{0, 1}, 1}, {[]float64{1, 0}, 1},
	} {
		if got, _ := n.Predict(c.x); got != c.y {
			t.Errorf("Predict(%v) = %d, want %d", c.x, got, c.y)
		}
	}
}

func TestTrainMulticlassBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	centers := [][2]float64{{0, 0}, {4, 0}, {0, 4}, {4, 4}}
	var samples []Sample
	for i := 0; i < 400; i++ {
		c := rng.Intn(4)
		samples = append(samples, Sample{
			X: []float64{centers[c][0] + rng.NormFloat64()*0.4, centers[c][1] + rng.NormFloat64()*0.4},
			Y: c,
		})
	}
	n := NewNet(rng, 2, 24, 4)
	if _, err := n.Train(rng, samples, TrainConfig{Epochs: 60, BatchSize: 32, LR: 5e-3}); err != nil {
		t.Fatal(err)
	}
	if acc := n.Accuracy(samples); acc < 0.97 {
		t.Errorf("blob accuracy = %v", acc)
	}
}

func TestTrainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNet(rng, 2, 4, 2)
	if _, err := n.Train(rng, nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := n.Train(rng, []Sample{{X: []float64{1}, Y: 0}}, TrainConfig{}); err == nil {
		t.Error("wrong feature size accepted")
	}
	if _, err := n.Train(rng, []Sample{{X: []float64{1, 2}, Y: 5}}, TrainConfig{}); err == nil {
		t.Error("out-of-range label accepted")
	}
}

// Accuracy returns the fraction of samples whose predicted class matches.
func (n *Net) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	sc := n.NewScratch()
	ok := 0
	for _, s := range samples {
		if c, _ := n.PredictScratch(sc, s.X); c == s.Y {
			ok++
		}
	}
	return float64(ok) / float64(len(samples))
}

func TestAccuracyEmpty(t *testing.T) {
	n := NewNet(rand.New(rand.NewSource(1)), 2, 2)
	if n.Accuracy(nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() []float64 {
		rng := rand.New(rand.NewSource(123))
		n := NewNet(rng, 2, 6, 2)
		samples := []Sample{
			{X: []float64{0, 0}, Y: 0},
			{X: []float64{1, 0}, Y: 1},
			{X: []float64{0, 1}, Y: 1},
			{X: []float64{1, 1}, Y: 0},
		}
		if _, err := n.Train(rng, samples, TrainConfig{Epochs: 10, BatchSize: 2}); err != nil {
			t.Fatal(err)
		}
		return n.Logits([]float64{0.5, 0.5})
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training not deterministic under fixed seed")
		}
	}
}

func TestGradientCheck(t *testing.T) {
	// Numerical gradient check of backprop on a tiny net.
	rng := rand.New(rand.NewSource(17))
	n := NewNet(rng, 3, 4, 2)
	s := Sample{X: []float64{0.2, -0.5, 0.9}, Y: 1}

	gW := [][]float64{make([]float64, len(n.Weights[0])), make([]float64, len(n.Weights[1]))}
	gB := [][]float64{make([]float64, len(n.Biases[0])), make([]float64, len(n.Biases[1]))}
	n.backprop(n.NewScratch(), s, gW, gB)

	loss := func() float64 {
		p := Softmax(n.Logits(s.X))
		return -math.Log(p[s.Y])
	}
	const h = 1e-6
	for l := range n.Weights {
		for i := 0; i < len(n.Weights[l]); i += 3 { // sample every 3rd param
			orig := n.Weights[l][i]
			n.Weights[l][i] = orig + h
			lp := loss()
			n.Weights[l][i] = orig - h
			lm := loss()
			n.Weights[l][i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-gW[l][i]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("layer %d weight %d: numeric %v vs backprop %v", l, i, num, gW[l][i])
			}
		}
	}
}
