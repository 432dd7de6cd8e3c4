// Package nn implements the small supervised-learning substrate that stands
// in for the paper's deep models (YOLO5 for edge detection, PaddleOCR for
// text recognition): a dense multi-layer perceptron with ReLU hidden layers,
// a softmax cross-entropy head, Adam optimisation, minibatch training and
// gob serialisation.
//
// The networks here are orders of magnitude smaller than the paper's, but
// play the same role: they are trained purely on synthetic L-TD-G data and
// then asked to extrapolate to the industrial-style corpus.
//
// Two performance paths matter to the pipeline and are first-class here:
// training fans minibatch gradient computation out over a worker pool with a
// fixed-shape reduction (so the trained weights are bit-identical for any
// worker count), and inference offers Scratch-based variants
// (LogitsScratch, PredictScratch) that perform zero heap allocations per
// call.
package nn

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"tdmagic/internal/parallel"
)

// Net is a feed-forward network with ReLU hidden activations and a linear
// output layer (softmax is applied by the loss / Predict).
type Net struct {
	Sizes   []int       // layer widths, len >= 2: input, hidden..., output
	Weights [][]float64 // Weights[l] is Sizes[l+1] x Sizes[l], row-major
	Biases  [][]float64 // Biases[l] has Sizes[l+1] entries
}

// NewNet creates a network with He-initialised weights drawn from rng.
func NewNet(rng *rand.Rand, sizes ...int) *Net {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	n := &Net{Sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		std := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * std
		}
		n.Weights = append(n.Weights, w)
		n.Biases = append(n.Biases, make([]float64, out))
	}
	return n
}

// NumLayers returns the number of weight layers.
func (n *Net) NumLayers() int { return len(n.Weights) }

// InputSize returns the expected feature-vector length.
func (n *Net) InputSize() int { return n.Sizes[0] }

// OutputSize returns the number of classes.
func (n *Net) OutputSize() int { return n.Sizes[len(n.Sizes)-1] }

// Scratch holds the per-call working buffers of a forward/backward pass, so
// hot loops (classifier inference, training workers) reuse them instead of
// allocating activations per example. A Scratch belongs to one goroutine at
// a time; create one per worker with NewScratch.
type Scratch struct {
	acts   [][]float64 // acts[0] aliases the input; acts[l] has Sizes[l] entries
	deltas [][]float64 // deltas[l] has Sizes[l] entries (backprop only)
	probs  []float64   // softmax output, OutputSize entries
}

// NewScratch allocates working buffers matching the network's layer widths.
func (n *Net) NewScratch() *Scratch {
	sc := &Scratch{
		acts:   make([][]float64, len(n.Sizes)),
		deltas: make([][]float64, len(n.Sizes)),
		probs:  make([]float64, n.OutputSize()),
	}
	for l := 1; l < len(n.Sizes); l++ {
		sc.acts[l] = make([]float64, n.Sizes[l])
		sc.deltas[l] = make([]float64, n.Sizes[l])
	}
	return sc
}

// forward computes all layer activations into sc and returns the pre-softmax
// logits (owned by sc). sc.acts[0] aliases x.
func (n *Net) forward(sc *Scratch, x []float64) []float64 {
	sc.acts[0] = x
	for l := 0; l < len(n.Weights); l++ {
		in, out := n.Sizes[l], n.Sizes[l+1]
		a := sc.acts[l+1]
		w := n.Weights[l]
		prev := sc.acts[l]
		hidden := l+1 < len(n.Weights)
		for o := 0; o < out; o++ {
			sum := n.Biases[l][o]
			row := w[o*in : (o+1)*in]
			for i, v := range row {
				sum += v * prev[i]
			}
			if hidden && sum < 0 { // hidden layer: ReLU
				sum = 0
			}
			a[o] = sum
		}
	}
	return sc.acts[len(sc.acts)-1]
}

// Logits returns the pre-softmax output for input x.
func (n *Net) Logits(x []float64) []float64 {
	if len(x) != n.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.InputSize()))
	}
	out := n.forward(n.NewScratch(), x)
	cp := make([]float64, len(out))
	copy(cp, out)
	return cp
}

// LogitsScratch computes the pre-softmax output into sc and returns the
// scratch-owned logits slice, valid until the next call with sc.
func (n *Net) LogitsScratch(sc *Scratch, x []float64) []float64 {
	if len(x) != n.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.InputSize()))
	}
	return n.forward(sc, x)
}

// Softmax converts logits to a probability distribution in place-safe copy.
func Softmax(logits []float64) []float64 {
	return SoftmaxInto(make([]float64, len(logits)), logits)
}

// SoftmaxInto writes the probability distribution of logits into dst (which
// must have the same length) and returns dst. dst may alias logits.
func SoftmaxInto(dst, logits []float64) []float64 {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// Predict returns the argmax class and its softmax probability.
func (n *Net) Predict(x []float64) (class int, prob float64) {
	return n.PredictScratch(n.NewScratch(), x)
}

// PredictScratch is Predict with caller-owned working buffers: it performs
// no heap allocation, making it the classifier call of the inference hot
// path (sed.Detect, batch translation).
func (n *Net) PredictScratch(sc *Scratch, x []float64) (class int, prob float64) {
	p := SoftmaxInto(sc.probs, n.LogitsScratch(sc, x))
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best, p[best]
}

// Sample is one labelled training example.
type Sample struct {
	X []float64
	Y int // class index
}

// TrainConfig controls Train.
type TrainConfig struct {
	Epochs    int     // passes over the data (default 30)
	BatchSize int     // minibatch size (default 32)
	LR        float64 // Adam step size (default 1e-3)
	L2        float64 // weight decay (default 0)
	Workers   int     // gradient workers (default GOMAXPROCS; results are worker-count independent)
	Verbose   io.Writer
}

func (c *TrainConfig) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
}

// gradChunk is the fixed number of examples whose gradients are accumulated
// into one partial-sum buffer. The chunk layout depends only on the batch,
// never on the worker count, so the floating-point reduction tree — and
// therefore the trained weights — are bit-identical for any Workers value.
const gradChunk = 16

// gradTask is the per-chunk working state of a gradient worker.
type gradTask struct {
	gW, gB [][]float64
	sc     *Scratch
	loss   float64
}

func (n *Net) newGradTask() *gradTask {
	t := &gradTask{sc: n.NewScratch()}
	for l := range n.Weights {
		t.gW = append(t.gW, make([]float64, len(n.Weights[l])))
		t.gB = append(t.gB, make([]float64, len(n.Biases[l])))
	}
	return t
}

// Train fits the network to samples with Adam on softmax cross-entropy.
// It returns the mean training loss of the final epoch.
//
// Per-minibatch gradients are computed in parallel shards of gradChunk
// examples and reduced in fixed shard order; the result does not depend on
// cfg.Workers.
func (n *Net) Train(rng *rand.Rand, samples []Sample, cfg TrainConfig) (float64, error) {
	cfg.defaults()
	if len(samples) == 0 {
		return 0, errors.New("nn: no training samples")
	}
	for _, s := range samples {
		if len(s.X) != n.InputSize() {
			return 0, fmt.Errorf("nn: sample feature size %d, want %d", len(s.X), n.InputSize())
		}
		if s.Y < 0 || s.Y >= n.OutputSize() {
			return 0, fmt.Errorf("nn: label %d out of range [0,%d)", s.Y, n.OutputSize())
		}
	}

	// Adam state per parameter tensor.
	mW := make([][]float64, len(n.Weights))
	vW := make([][]float64, len(n.Weights))
	mB := make([][]float64, len(n.Biases))
	vB := make([][]float64, len(n.Biases))
	for l := range n.Weights {
		mW[l] = make([]float64, len(n.Weights[l]))
		vW[l] = make([]float64, len(n.Weights[l]))
		mB[l] = make([]float64, len(n.Biases[l]))
		vB[l] = make([]float64, len(n.Biases[l]))
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}

	gW := make([][]float64, len(n.Weights))
	gB := make([][]float64, len(n.Biases))
	for l := range n.Weights {
		gW[l] = make([]float64, len(n.Weights[l]))
		gB[l] = make([]float64, len(n.Biases[l]))
	}

	workers := parallel.Resolve(cfg.Workers)
	maxChunks := (cfg.BatchSize + gradChunk - 1) / gradChunk
	if workers > maxChunks {
		workers = maxChunks
	}
	tasks := make([]*gradTask, maxChunks)
	for i := range tasks {
		tasks[i] = n.newGradTask()
	}

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		totalLoss := 0.0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			chunks := (len(batch) + gradChunk - 1) / gradChunk
			// Map: each chunk accumulates its examples' gradients into its
			// own buffers, in parallel.
			parallel.For(workers, chunks, func(c int) {
				t := tasks[c]
				for l := range t.gW {
					clearF(t.gW[l])
					clearF(t.gB[l])
				}
				t.loss = 0
				lo := c * gradChunk
				hi := lo + gradChunk
				if hi > len(batch) {
					hi = len(batch)
				}
				for _, si := range batch[lo:hi] {
					t.loss += n.backprop(t.sc, samples[si], t.gW, t.gB)
				}
			})
			// Reduce: fixed chunk order keeps float summation deterministic.
			for l := range gW {
				clearF(gW[l])
				clearF(gB[l])
			}
			for c := 0; c < chunks; c++ {
				t := tasks[c]
				totalLoss += t.loss
				for l := range gW {
					addF(gW[l], t.gW[l])
					addF(gB[l], t.gB[l])
				}
			}
			scale := 1 / float64(len(batch))
			step++
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			for l := range n.Weights {
				adamUpdate(n.Weights[l], gW[l], mW[l], vW[l], scale, cfg.LR, cfg.L2, beta1, beta2, eps, bc1, bc2)
				adamUpdate(n.Biases[l], gB[l], mB[l], vB[l], scale, cfg.LR, 0, beta1, beta2, eps, bc1, bc2)
			}
		}
		lastLoss = totalLoss / float64(len(samples))
		if cfg.Verbose != nil {
			fmt.Fprintf(cfg.Verbose, "epoch %d: loss %.4f\n", epoch+1, lastLoss)
		}
	}
	return lastLoss, nil
}

func clearF(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

func addF(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func adamUpdate(w, g, m, v []float64, scale, lr, l2, beta1, beta2, eps, bc1, bc2 float64) {
	for i := range w {
		grad := g[i]*scale + l2*w[i]
		m[i] = beta1*m[i] + (1-beta1)*grad
		v[i] = beta2*v[i] + (1-beta2)*grad*grad
		w[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + eps)
	}
}

// backprop accumulates gradients for one sample and returns its loss. All
// intermediate state lives in sc, so concurrent workers each hold their own
// Scratch and share nothing but the (read-only) weights.
func (n *Net) backprop(sc *Scratch, s Sample, gW, gB [][]float64) float64 {
	logits := n.forward(sc, s.X)
	probs := SoftmaxInto(sc.probs, logits)
	loss := -math.Log(math.Max(probs[s.Y], 1e-12))

	// delta at output: softmax CE gradient.
	last := len(n.Sizes) - 1
	delta := sc.deltas[last]
	copy(delta, probs)
	delta[s.Y] -= 1

	for l := len(n.Weights) - 1; l >= 0; l-- {
		in, out := n.Sizes[l], n.Sizes[l+1]
		prev := sc.acts[l]
		w := n.Weights[l]
		for o := 0; o < out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			gB[l][o] += d
			row := gW[l][o*in : (o+1)*in]
			for i := 0; i < in; i++ {
				row[i] += d * prev[i]
			}
		}
		if l > 0 {
			nd := sc.deltas[l]
			for i := 0; i < in; i++ {
				nd[i] = 0
				if prev[i] <= 0 { // ReLU gate (prev is post-activation)
					continue
				}
				sum := 0.0
				for o := 0; o < out; o++ {
					sum += delta[o] * w[o*in+i]
				}
				nd[i] = sum
			}
			delta = nd
		}
	}
	return loss
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
