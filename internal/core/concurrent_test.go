package core

import (
	"reflect"
	"sync"
	"testing"

	"tdmagic/internal/spo"
)

// TestConcurrentTranslateShared pins the serving precondition: one trained
// Pipeline instance must serve many goroutines calling Translate at once.
// Under `go test -race` this exercises the sync.Pool inference scratch in
// sed and ocr (per-goroutine buffer reuse), imgproc's full-frame scratch
// pool and the stage-concurrent SED ∥ OCR analyze path, and the results
// must be identical to a sequential run of the same pictures: the SPO and
// every detection in the report, so a detection still pointing into a
// buffer another goroutine has taken shows as a difference or a race.
func TestConcurrentTranslateShared(t *testing.T) {
	pipe, val := trainSmall(t)

	// Sequential reference, one result per picture.
	type ref struct {
		spo *spo.SPO
		rep *Report
		err error
	}
	refs := make([]ref, len(val))
	for i, s := range val {
		got, rep, err := pipe.Translate(s.Image)
		refs[i] = ref{got, rep, err}
	}

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the picture order per goroutine so different
				// goroutines hit the same model on different inputs
				// simultaneously.
				for k := 0; k < len(val); k++ {
					i := (k + g) % len(val)
					got, rep, err := pipe.Translate(val[i].Image)
					if (err == nil) != (refs[i].err == nil) {
						t.Errorf("goroutine %d sample %d: err %v, sequential %v", g, i, err, refs[i].err)
						continue
					}
					if err != nil {
						continue
					}
					if rep == nil || rep.Lines == nil {
						t.Errorf("goroutine %d sample %d: missing report", g, i)
						continue
					}
					if !got.TotalEqual(refs[i].spo) {
						t.Errorf("goroutine %d sample %d: concurrent result differs from sequential", g, i)
					}
					want := refs[i].rep
					if rep.Lines.BW != nil {
						t.Errorf("goroutine %d sample %d: report still holds the binarised picture", g, i)
					}
					if !reflect.DeepEqual(rep.Edges, want.Edges) || !reflect.DeepEqual(rep.Texts, want.Texts) ||
						!reflect.DeepEqual(rep.Lines.V, want.Lines.V) || !reflect.DeepEqual(rep.Lines.H, want.Lines.H) {
						t.Errorf("goroutine %d sample %d: concurrent detections differ from sequential", g, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
