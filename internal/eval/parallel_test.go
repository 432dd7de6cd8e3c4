package eval

import (
	"context"
	"reflect"
	"testing"

	"tdmagic/internal/core"
	"tdmagic/internal/imgproc"
)

// smallOpts is a fast training mix for the determinism regressions.
func smallOpts(workers int) Options {
	opts := DefaultOptions()
	opts.TrainG1, opts.TrainG2, opts.TrainG3 = 10, 4, 4
	opts.Validation = 4
	opts.Workers = workers
	return opts
}

// TestGenTrainingSetWorkerCountInvariant pins the tentpole guarantee at the
// eval layer: the synthetic mix is identical for any worker count.
func TestGenTrainingSetWorkerCountInvariant(t *testing.T) {
	base, err := GenTrainingSet(smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := GenTrainingSet(smallOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(got) {
		t.Fatalf("sample counts differ: %d vs %d", len(base), len(got))
	}
	for i := range base {
		if base[i].Name != got[i].Name {
			t.Fatalf("sample %d name %q != %q", i, got[i].Name, base[i].Name)
		}
		if !reflect.DeepEqual(base[i].Image.Pix, got[i].Image.Pix) {
			t.Fatalf("sample %d pixels differ between worker counts", i)
		}
	}
}

// TestTrainPipelineWorkerCountInvariant trains the full pipeline twice and
// requires bit-identical SED weights: generation, featurisation and gradient
// reduction must all be worker-count invariant end to end.
func TestTrainPipelineWorkerCountInvariant(t *testing.T) {
	base, err := TrainPipeline(smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := TrainPipeline(smallOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.SED.Net.Weights, got.SED.Net.Weights) {
		t.Error("SED weights differ between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(base.SED.Net.Biases, got.SED.Net.Biases) {
		t.Error("SED biases differ between workers=1 and workers=8")
	}
	// The sequentially trained OCR templates see the same samples, so they
	// must agree too.
	if !reflect.DeepEqual(base.OCR.Templates, got.OCR.Templates) {
		t.Error("OCR templates differ between worker counts")
	}
	// And the trained pipelines must translate validation pictures to the
	// same SPOs regardless of TranslateAllCtx's worker count.
	val, err := GenValidationSet(smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*imgproc.Gray, len(val))
	for i, s := range val {
		imgs[i] = s.Image
	}
	seq := base.TranslateAllCtx(context.Background(), imgs, core.BatchOptions{Workers: 1})
	par := got.TranslateAllCtx(context.Background(), imgs, core.BatchOptions{Workers: 8})
	for i := range seq {
		if (seq[i].Err == nil) != (par[i].Err == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", val[i].Name, seq[i].Err, par[i].Err)
		}
		if seq[i].Err == nil && !seq[i].SPO.TotalEqual(par[i].SPO) {
			t.Errorf("%s: TranslateAllCtx SPO differs between workers=1 and workers=8", val[i].Name)
		}
	}
}
