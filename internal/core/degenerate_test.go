package core

import (
	"context"
	"strings"
	"testing"

	"tdmagic/internal/diag"
	"tdmagic/internal/imgproc"
)

// degenerateInputs is the pathological-input corpus: each must be
// refused by validation with a structured diagnostic — before any
// perception stage runs — so even a bare untrained pipeline survives.
func degenerateInputs() map[string]*imgproc.Gray {
	white := imgproc.NewGray(64, 64)
	for i := range white.Pix {
		white.Pix[i] = 255
	}
	return map[string]*imgproc.Gray{
		"nil":       nil,
		"0x0":       imgproc.NewGray(0, 0),
		"1x1":       imgproc.NewGray(1, 1),
		"row":       imgproc.NewGray(256, 1),
		"col":       imgproc.NewGray(1, 256),
		"all-white": white,
		"all-black": imgproc.NewGray(64, 64),
	}
}

func TestTranslateDegenerateGraceful(t *testing.T) {
	// Validation short-circuits before the learned stages, so an
	// untrained pipeline demonstrates no stage is ever reached.
	pipe := &Pipeline{}
	for name, img := range degenerateInputs() {
		t.Run(name, func(t *testing.T) {
			got, rep, err := pipe.Translate(img)
			if err != nil {
				t.Fatalf("graceful mode returned error: %v", err)
			}
			if got == nil || len(got.Nodes) != 0 {
				t.Errorf("expected empty SPO, got %+v", got)
			}
			if rep == nil || len(rep.Diags) == 0 {
				t.Fatal("no diagnostics on the report")
			}
			d := rep.Diags[0]
			if d.Stage != diag.StageInput || d.Severity != diag.Error {
				t.Errorf("diag = %+v, want input-stage error", d)
			}
		})
	}
}

func TestTranslateDegenerateStrict(t *testing.T) {
	pipe := &Pipeline{Strict: true}
	for name, img := range degenerateInputs() {
		t.Run(name, func(t *testing.T) {
			_, rep, err := pipe.Translate(img)
			if err == nil {
				t.Fatal("strict mode accepted degenerate input")
			}
			if !strings.HasPrefix(err.Error(), "core: ") {
				t.Errorf("error %q lacks the core: prefix", err)
			}
			if rep == nil || len(rep.Diags) == 0 {
				t.Error("strict refusal carries no diagnostics")
			}
		})
	}
}

func TestTranslateOversized(t *testing.T) {
	// A pixel buffer over MaxPixels must be refused without allocating
	// stage buffers. (MaxPixels/8+1) x 8 keeps the test's own allocation
	// to ~64 MiB while exercising the area check.
	w := MaxPixels/8 + 1
	img := &imgproc.Gray{W: w, H: 8, Pix: make([]uint8, w*8)}
	pipe := &Pipeline{}
	_, rep, err := pipe.Translate(img)
	if err != nil {
		t.Fatalf("graceful mode returned error: %v", err)
	}
	if len(rep.Diags) == 0 || !strings.Contains(rep.Diags[0].Message, "oversized") {
		t.Errorf("diags = %+v, want oversized refusal", rep.Diags)
	}
}

func TestBatchDegenerateMix(t *testing.T) {
	// Degenerate pictures inside a batch must not poison their
	// neighbours, trained pipeline or not.
	pipe, val := trainSmall(t)
	imgs := []*imgproc.Gray{val[0].Image, imgproc.NewGray(2, 2), val[1].Image, nil}
	results := pipe.TranslateAllCtx(context.Background(), imgs, BatchOptions{Workers: 2})
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("healthy picture %d failed: %v", i, results[i].Err)
		}
	}
	for _, i := range []int{1, 3} {
		r := results[i]
		if r.Err != nil {
			t.Errorf("degenerate picture %d hard-failed in graceful mode: %v", i, r.Err)
		}
		if r.Rep == nil || len(r.Rep.Diags) == 0 {
			t.Errorf("degenerate picture %d carries no diagnostics", i)
		}
	}
}
