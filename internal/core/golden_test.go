package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdmagic/internal/imgproc"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden TranslateAllCtx fixture")

// goldenPath is the recorded fixed-seed end-to-end output. It was captured
// on the reference []bool Binary implementation; the bit-packed kernels must
// reproduce it exactly (ISSUE 2 acceptance: repacking changes no output).
const goldenPath = "testdata/translate_all_golden.txt"

// goldenString renders the batch results of the fixed trainSmall validation
// set in a canonical text form: one block per picture with the SPO spec text
// (or the error), exactly as produced by TranslateAllCtx.
func goldenString(results []BatchResult, names []string) string {
	var b strings.Builder
	for i, r := range results {
		fmt.Fprintf(&b, "== %s\n", names[i])
		if r.Err != nil {
			fmt.Fprintf(&b, "ERR %v\n", r.Err)
			continue
		}
		b.WriteString(r.SPO.SpecText())
	}
	return b.String()
}

// TestTranslateAllGolden pins the full fixed-seed pipeline output: training
// on 40 seed-100 pictures, translating the 6 seed-300 validation pictures.
// Any semantic drift in binarisation, morphology, proposal, OCR or SEI shows
// up as a diff against the recorded fixture.
func TestTranslateAllGolden(t *testing.T) {
	pipe, val := trainSmall(t)
	imgs := make([]*imgproc.Gray, len(val))
	names := make([]string, len(val))
	for i, s := range val {
		imgs[i] = s.Image
		names[i] = s.Name
	}
	got := goldenString(pipe.TranslateAllCtx(context.Background(), imgs, BatchOptions{}), names)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("TranslateAllCtx output drifted from golden fixture:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
