package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("reqs_total", "requests") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("inflight", "")
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Errorf("gauge = %d, want 1", g.Value())
	}
	if g.Add(6) != 7 || g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-2.565) > 1e-9 {
		t.Errorf("sum = %g, want 2.565", got)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Observations on a bound fall into that bound's bucket (le is <=).
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 2.565",
		"lat_seconds_count 5",
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteTextDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second")
	r.Counter("a_total", "first")
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "b_total") > strings.Index(out, "a_total") {
		t.Errorf("registration order not preserved:\n%s", out)
	}
	var buf2 bytes.Buffer
	if err := r.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if out != buf2.String() {
		t.Error("two scrapes of unchanged registry differ")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("v_seconds", "", nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if got, want := h.Sum(), float64(workers*per)*0.01; math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
}

func TestLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	lad := r.LabeledHistogram("stage_seconds", `stage="lad"`, "per-stage latency", []float64{0.01, 0.1})
	sed := r.LabeledHistogram("stage_seconds", `stage="sed"`, "per-stage latency", []float64{0.01, 0.1})
	if lad == sed {
		t.Fatal("distinct label sets shared one histogram")
	}
	if r.LabeledHistogram("stage_seconds", `stage="lad"`, "", nil) != lad {
		t.Error("re-registration returned a different histogram")
	}
	lad.Observe(0.005)
	lad.Observe(0.05)
	sed.Observe(0.2)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`stage_seconds_bucket{stage="lad",le="0.01"} 1`,
		`stage_seconds_bucket{stage="lad",le="+Inf"} 2`,
		`stage_seconds_sum{stage="lad"} 0.055`,
		`stage_seconds_count{stage="lad"} 2`,
		`stage_seconds_bucket{stage="sed",le="0.1"} 0`,
		`stage_seconds_count{stage="sed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// One header per name, not per label set.
	if got := strings.Count(out, "# TYPE stage_seconds histogram"); got != 1 {
		t.Errorf("got %d TYPE headers, want 1:\n%s", got, out)
	}
	if got := strings.Count(out, "# HELP stage_seconds"); got != 1 {
		t.Errorf("got %d HELP headers, want 1:\n%s", got, out)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter("hits_total", "")
	misses := r.Counter("misses_total", "")
	r.GaugeFunc("hit_ratio", "hit fraction", func() float64 {
		h, m := hits.Value(), misses.Value()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
	scrape := func() string {
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if out := scrape(); !strings.Contains(out, "hit_ratio 0\n") {
		t.Errorf("empty ratio exposition wrong:\n%s", out)
	}
	hits.Inc()
	misses.Add(3)
	if out := scrape(); !strings.Contains(out, "hit_ratio 0.25\n") {
		t.Errorf("ratio not recomputed at scrape:\n%s", out)
	}
	if out := scrape(); !strings.Contains(out, "# TYPE hit_ratio gauge") {
		t.Errorf("gauge func missing TYPE line:\n%s", out)
	}
}

func TestHelpLine(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "the x")
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# HELP x_total the x") {
		t.Errorf("missing help line:\n%s", buf.String())
	}
}
