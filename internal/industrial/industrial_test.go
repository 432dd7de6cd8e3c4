package industrial

import (
	"testing"

	"tdmagic/internal/dataset"
	"tdmagic/internal/diagram"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/spo"
)

func TestCorpusStatisticsMatchPaper(t *testing.T) {
	samples, err := Corpus(1)
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(samples)
	if st.TDs != 30 {
		t.Fatalf("TDs = %d, want 30", st.TDs)
	}
	// Paper Sec. VI.1: 6 / 19 / 5 diagrams with 1 / 2 / 3 signals.
	if st.SignalHist[1] != 6 || st.SignalHist[2] != 19 || st.SignalHist[3] != 5 {
		t.Errorf("signal histogram = %v, want 6/19/5", st.SignalHist)
	}
	if st.Signals != 59 {
		t.Errorf("signals = %d, want 59", st.Signals)
	}
	// 14 / 38 / 4 / 3 signals with 1 / 2 / 3 / 4 edges.
	if st.EdgeHist[1] != 14 || st.EdgeHist[2] != 38 || st.EdgeHist[3] != 4 || st.EdgeHist[4] != 3 {
		t.Errorf("edge histogram = %v, want 14/38/4/3", st.EdgeHist)
	}
	if st.MeanW < 800 || st.MeanW > 1020 || st.MeanH < 480 || st.MeanH > 640 {
		t.Errorf("sizes %.0fx%.0f out of expected range", st.MeanW, st.MeanH)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a, err := Corpus(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Corpus(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Edges) != len(b[i].Edges) {
			t.Fatalf("TD %d structure differs", i)
		}
		for j := range a[i].Image.Pix {
			if a[i].Image.Pix[j] != b[i].Image.Pix[j] {
				t.Fatalf("TD %d pixels differ", i)
			}
		}
	}
	c, err := Corpus(8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if len(a[i].Image.Pix) != len(c[i].Image.Pix) {
			same = false
			break
		}
		for j := range a[i].Image.Pix {
			if a[i].Image.Pix[j] != c[i].Image.Pix[j] {
				same = false
				break
			}
		}
		if !same {
			break
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

func TestCorpusGroundTruthValid(t *testing.T) {
	samples, err := Corpus(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := s.Truth.Validate(); err != nil {
			t.Errorf("%s: invalid SPO: %v", s.Name, err)
		}
		if len(s.Arrows) == 0 {
			t.Errorf("%s: no timing constraints", s.Name)
		}
		if len(s.Arrows) != len(s.Truth.Constraints) {
			t.Errorf("%s: %d arrows vs %d constraints", s.Name, len(s.Arrows), len(s.Truth.Constraints))
		}
		for _, a := range s.Arrows {
			if a.X0 >= a.X1 {
				t.Errorf("%s: arrow not left-to-right: %+v", s.Name, a)
			}
		}
		// Events separated as required.
		if !separated(s, 8) {
			t.Errorf("%s: event columns too close", s.Name)
		}
	}
}

func TestCorpusCornerCasesPresent(t *testing.T) {
	samples, err := Corpus(5)
	if err != nil {
		t.Fatal(err)
	}
	thick, dense, outward := false, false, false
	for i, sp := range specs {
		if sp.thickSteps {
			thick = thick || len(samples[i].Edges) > 0
		}
		if sp.denseThresh {
			// Dense-threshold TDs must have more H-lines than events.
			events := len(samples[i].VLines)
			if len(samples[i].HLines) > events {
				dense = true
			}
		}
		if sp.outward {
			outward = true
		}
	}
	if !thick || !dense || !outward {
		t.Errorf("corner cases missing: thick=%v dense=%v outward=%v", thick, dense, outward)
	}
}

func TestCorpusEdgeTypeVariety(t *testing.T) {
	samples, err := Corpus(11)
	if err != nil {
		t.Fatal(err)
	}
	types := map[spo.EdgeType]int{}
	for _, s := range samples {
		for _, e := range s.Edges {
			types[e.Type]++
		}
	}
	for et := spo.RiseStep; et <= spo.Double; et++ {
		if types[et] == 0 {
			t.Errorf("edge type %v absent from corpus", et)
		}
	}
	total := 0
	for _, n := range types {
		total += n
	}
	if total != 114 { // sum over the spec table's edge counts
		t.Errorf("total edges = %d, want 114", total)
	}
}

func TestArrowRows(t *testing.T) {
	if arrowRows(0) != nil {
		t.Error("0 rows should be nil")
	}
	if r := arrowRows(1); len(r) != 1 || r[0] != 0.45 {
		t.Errorf("1 row = %v", r)
	}
	r := arrowRows(4)
	for i := 1; i < len(r); i++ {
		if r[i] <= r[i-1] {
			t.Error("rows not increasing")
		}
	}
	if r[0] < 0 || r[len(r)-1] > 1 {
		t.Error("rows out of band")
	}
}

func TestEventX(t *testing.T) {
	rise := diagram.Edge{Type: spo.RiseRamp, X0: 0, X1: 1, Threshold: 0.9}
	if x := eventX(rise); x != 0.9 {
		t.Errorf("rise eventX = %v", x)
	}
	fall := diagram.Edge{Type: spo.FallRamp, X0: 0, X1: 1, Threshold: 0.1}
	if x := eventX(fall); x != 0.9 {
		t.Errorf("fall eventX = %v", x)
	}
	step := diagram.Edge{Type: spo.RiseStep, X0: 0.4, X1: 0.6}
	if x := eventX(step); x != 0.5 {
		t.Errorf("step eventX = %v", x)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	st := ComputeStats(nil)
	if st.TDs != 0 || st.MeanW != 0 {
		t.Error("empty stats wrong")
	}
}

// TestComputeStatsStd pins the picture-size deviations: the population
// standard deviation, 0 for equal sizes.
func TestComputeStatsStd(t *testing.T) {
	sized := func(w, h int) *dataset.Sample { return &dataset.Sample{Image: imgproc.NewGray(w, h)} }
	st := ComputeStats([]*dataset.Sample{sized(2, 5), sized(6, 5)})
	if st.StdW != 2 || st.StdH != 0 {
		t.Errorf("std = %v x %v, want 2 x 0", st.StdW, st.StdH)
	}
}
