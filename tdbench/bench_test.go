package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"tdmagic/internal/monitor"
	"tdmagic/internal/spo"
	"tdmagic/internal/vcd"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 500}, {99, 990}, {100, 1000}, {0.01, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestTailSampleRule(t *testing.T) {
	// p99 needs ten samples beyond it: 1000 samples is the least that
	// resolves it under the nearest-rank rule.
	for _, c := range []struct {
		n    int
		want bool
	}{{999, false}, {1000, true}, {5000, true}, {100, false}, {0, false}} {
		if got := tailSampled(c.n, 99); got != c.want {
			t.Errorf("tailSampled(%d, 99) = %v, want %v (beyond: %d)", c.n, got, c.want, tailBeyond(c.n, 99))
		}
	}
	if !tailSampled(200, 95) {
		t.Error("200 samples should resolve p95")
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := poissonSchedule(7, 125, 8*time.Second)
	b := poissonSchedule(7, 125, 8*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different Poisson schedules")
	}
	if len(a) != 1000 {
		t.Fatalf("schedule has %d arrivals, want rate x duration = 1000", len(a))
	}
	for i := range a {
		if a[i] < 0 || a[i] >= 8*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or out of range", i, a[i])
		}
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 125, 8*time.Second)) {
		t.Error("different seeds gave the same schedule")
	}

	z := zipfPicks(7, 2000, 5000, 1.1)
	if !reflect.DeepEqual(z, zipfPicks(7, 2000, 5000, 1.1)) {
		t.Fatal("same seed gave different Zipf picks")
	}
	counts := map[int]int{}
	for _, p := range z {
		if p < 0 || p >= 2000 {
			t.Fatalf("pick %d outside the set", p)
		}
		counts[p]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if top < 500 || len(counts) < 300 {
		t.Errorf("picks are not Zipf-skewed: hottest item %d of 5000, %d distinct", top, len(counts))
	}
}

// testSPO is a two-signal specification: a rising step on A, then a
// falling ramp on B crossing 50%, within t_{d}.
func testSPO(t *testing.T) *spo.SPO {
	t.Helper()
	p := &spo.SPO{}
	a := p.AddNode(spo.Node{Signal: "A", EdgeIndex: 1, Type: spo.RiseStep})
	b := p.AddNode(spo.Node{Signal: "B", EdgeIndex: 1, Type: spo.FallRamp, Threshold: "50%"})
	if err := p.AddConstraint(a, b, "t_{d}"); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDumpsDeterministicAndViolateByDesign(t *testing.T) {
	specs := []*spo.SPO{testSPO(t)}
	if !verifiable(specs[0]) {
		t.Fatal("test specification should be verifiable")
	}
	a, err := genDumps(3, specs, 10, 20<<10, 40<<10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genDumps(3, specs, 10, 20<<10, 40<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].VCD, b[i].VCD) || !reflect.DeepEqual(a[i].Delays, b[i].Delays) {
			t.Fatalf("dump %d differs between two generations from one seed", i)
		}
		if n := len(a[i].VCD); n < 20<<10 || n > 41<<10 {
			t.Errorf("dump %d is %d bytes, outside its size band", i, n)
		}
		tr, err := vcd.Parse(bytes.NewReader(a[i].VCD))
		if err != nil {
			t.Fatalf("dump %d: %v", i, err)
		}
		res, err := monitor.Check(&monitor.Spec{SPO: specs[0], Delays: a[i].Delays}, tr)
		if err != nil {
			t.Fatalf("dump %d: %v", i, err)
		}
		if res.OK() == a[i].Violate {
			t.Errorf("dump %d: violate by design %v, monitor says ok=%v", i, a[i].Violate, res.OK())
		}
	}
}

func TestOracleRejectsCorruptedTranslate(t *testing.T) {
	want := []byte(`{"spo":{"nodes":[]},"spec":"n1 = (A, 1, rise, None)\n"}` + "\n")
	body := want
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	p := &picture{PNG: []byte("png"), Want: want}
	if o := c.translate(p, ""); o.outcome != okOutcome {
		t.Fatalf("exact body judged %v: %s", o.outcome, o.detail)
	}
	body = bytes.Replace(want, []byte("rise"), []byte("fall"), 1)
	if o := c.translate(p, ""); o.outcome != wrongOutcome {
		t.Fatalf("corrupted body judged %v, want wrong", o.outcome)
	}
	var r report
	r.count([]op{{outcome: okOutcome}, {outcome: wrongOutcome}, {outcome: refusedOutcome}})
	if r.attempted != 3 || r.wrong != 1 || r.failed != 1 {
		t.Errorf("report tallied %+v", r)
	}
}

func TestOracleRejectsCorruptedJobAndVerify(t *testing.T) {
	want := [][]byte{[]byte("{\"index\":0}\n"), []byte("{\"index\":1}\n")}
	if n := checkJobResults([]byte("{\"index\":0}\n{\"index\":1}\n"), want); n != 0 {
		t.Errorf("exact job results: %d wrong", n)
	}
	if n := checkJobResults([]byte("{\"index\":0}\n{\"index\":2}\n"), want); n != 1 {
		t.Errorf("one corrupted job line: %d wrong, want 1", n)
	}
	if n := checkJobResults([]byte("{\"index\":0}\n"), want); n != 1 {
		t.Errorf("one missing job line: %d wrong, want 1", n)
	}

	w := &verifyWant{InputHash: "ab", Nodes: 2, Constraints: 1, LTL: "G p", SVA: "assert",
		Verdicts:   []monitor.Verdict{{Index: 0, Delay: "t_{d}", Pass: true, Measured: 2e-6, SrcTime: 1e-6, DstTime: 3e-6}},
		OK:         true,
		TraceBytes: 100,
		EventTimes: []float64{1e-6, 3e-6},
	}
	lines := []verifyLine{
		{Type: "spec", InputHash: "ab", Nodes: 2, Constraints: 1, LTL: "G p", SVA: "assert"},
		{Type: "verdict", Verdict: w.Verdicts[0]},
		{Type: "summary", OK: true, TraceBytes: 100, EventTimes: []float64{1e-6, 3e-6}},
	}
	if err := checkVerify(lines, w); err != nil {
		t.Fatalf("exact stream rejected: %v", err)
	}
	lines[1].Measured = 2.5e-6
	if checkVerify(lines, w) == nil {
		t.Error("corrupted verdict accepted")
	}
	lines[1].Measured = 2e-6
	lines[2].OK = false
	if checkVerify(lines, w) == nil {
		t.Error("corrupted summary accepted")
	}
}

func TestSpeedProbeMedianOverRange(t *testing.T) {
	p := &speedProbe{}
	if s, n := p.speed(time.Time{}, time.Now()); s != 1 || n != 0 {
		t.Errorf("no samples: speed %v from %d, want 1 from 0", s, n)
	}
	t0 := time.Unix(1000, 0)
	for i, d := range []time.Duration{4, 1, 2, 2, 8} {
		p.record(probeSample{at: t0.Add(time.Duration(i) * time.Second), cpu: d * probeRef})
	}
	// Samples at 1s..3s take 1, 2 and 2 probeRef: median 2, half speed.
	if s, n := p.speed(t0.Add(time.Second), t0.Add(3*time.Second)); s != 0.5 || n != 3 {
		t.Errorf("range 1s-3s: speed %v from %d, want 0.5 from 3", s, n)
	}
	// A second core at reference speed averages in.
	p.record(probeSample{at: t0.Add(2 * time.Second), core: 1, cpu: probeRef})
	if s, n := p.speed(t0.Add(time.Second), t0.Add(3*time.Second)); s != 0.75 || n != 4 {
		t.Errorf("two cores: speed %v from %d, want 0.75 from 4", s, n)
	}
	// An empty range falls back to every sample.
	if s, n := p.speed(t0.Add(10*time.Second), t0.Add(11*time.Second)); s != 0.75 || n != 6 {
		t.Errorf("empty range: speed %v from %d, want 0.75 from 6", s, n)
	}
}

func TestProbeSamplesEveryCore(t *testing.T) {
	r, w := io.Pipe()
	p := &speedProbe{}
	done := make(chan struct{})
	go func() {
		p.read(r)
		close(done)
	}()
	stop := make(chan struct{})
	time.AfterFunc(3*probeEvery, func() { close(stop) })
	runProbe(w, stop)
	w.Close()
	<-done
	cores := map[int]bool{}
	for _, s := range p.samples {
		cores[s.core] = true
		if s.cpu <= 0 {
			t.Errorf("sample with task time %v", s.cpu)
		}
	}
	if want := max(len(allowedCores()), 1); len(cores) != want {
		t.Errorf("samples from %d cores, want %d", len(cores), want)
	}
}

func TestProbeTaskIsFixed(t *testing.T) {
	a, b := newProbeTask(), newProbeTask()
	a.run()
	b.run()
	if a.sink != b.sink || !bytes.Equal(a.png, b.png) {
		t.Error("probe task differs between instances")
	}
}
