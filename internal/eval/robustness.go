package eval

import (
	"fmt"
	"io"
	"math/rand"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/dataset"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/tdgen"
)

// RobustnessPoint is one level of a degradation sweep.
type RobustnessPoint struct {
	NoiseDots     int
	TemplateLevel float64 // fraction of structurally correct SPOs
	TotallyOK     float64 // fraction of totally correct SPOs
	EdgeRecall    float64 // fraction of ground-truth edges detected
}

// RobustnessResult holds the noise-degradation experiment (an extension
// beyond the paper's evaluation: the paper's pictures are clean PDF
// renders; scans are not).
type RobustnessResult struct {
	Points []RobustnessPoint
}

// NoiseRobustness sweeps scanner-noise levels over freshly generated
// synthetic diagrams and measures how SPO extraction degrades. n diagrams
// are generated with the given seed stream and re-translated at every
// level.
func NoiseRobustness(pipe *core.Pipeline, seed int64, n int, noiseLevels []int) (*RobustnessResult, error) {
	g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(seed)))
	samples, err := g.GenerateN(n)
	if err != nil {
		return nil, err
	}
	res := &RobustnessResult{}
	for _, dots := range noiseLevels {
		cell := scoreCell(pipe, samples, batch.Options{}, nil, func(i int) *imgproc.Gray {
			img := samples[i].Image
			if dots > 0 {
				// Re-render the same diagram with noise by overlaying
				// specks on a copy of the picture: equivalent to the
				// renderer's NoiseDots and much cheaper than re-running
				// layout sampling.
				img = img.Clone()
				rng := rand.New(rand.NewSource(seed + int64(i)))
				for k := 0; k < dots; k++ {
					img.Set(rng.Intn(img.W), rng.Intn(img.H), 0)
				}
			}
			return img
		})
		res.Points = append(res.Points, RobustnessPoint{NoiseDots: dots,
			TemplateLevel: cell.Template, TotallyOK: cell.Total, EdgeRecall: cell.EdgeRecall})
	}
	return res, nil
}

// Print writes the sweep as a table.
func (r *RobustnessResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Noise robustness (extension; specks of ink added per picture)\n")
	fmt.Fprintf(w, "%8s %10s %12s %10s\n", "noise", "edge-R", "template", "total")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %10.3f %12.3f %10.3f\n", p.NoiseDots, p.EdgeRecall, p.TemplateLevel, p.TotallyOK)
	}
}

// ScaleRobustness re-translates the industrial corpus at different image
// scales (nearest-neighbour resampling) and measures how SPO extraction
// degrades: the morphology and proposal parameters are tuned in pixels, so
// resolution shifts are a genuine stressor (datasheets render at many
// dpi).
func ScaleRobustness(pipe *core.Pipeline, corpus []*dataset.Sample, scales []float64) *ScaleResult {
	res := &ScaleResult{}
	for _, sc := range scales {
		cell := scoreCell(pipe, corpus, batch.Options{}, nil, func(i int) *imgproc.Gray {
			img := corpus[i].Image
			if sc != 1.0 {
				img = img.ScaleTo(int(float64(img.W)*sc+0.5), int(float64(img.H)*sc+0.5))
			}
			return img
		})
		res.Points = append(res.Points, ScalePoint{Scale: sc, TemplateLevel: cell.Template})
	}
	return res
}

// ScalePoint is one level of the resolution sweep.
type ScalePoint struct {
	Scale         float64
	TemplateLevel float64
}

// ScaleResult holds the resolution-robustness experiment.
type ScaleResult struct {
	Points []ScalePoint
}

// Print writes the sweep as a table.
func (r *ScaleResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Resolution robustness (extension; corpus rescaled before translation)\n")
	fmt.Fprintf(w, "%8s %12s\n", "scale", "template")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8.2f %12.3f\n", p.Scale, p.TemplateLevel)
	}
}
