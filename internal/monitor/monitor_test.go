package monitor

import (
	"strings"
	"testing"

	"tdmagic/internal/spo"
	"tdmagic/internal/trace"
)

// example1Spec builds the paper's Example 1 SPO with delay bounds.
func example1Spec() *Spec {
	p := &spo.SPO{}
	n1 := p.AddNode(spo.Node{Signal: "VINA", EdgeIndex: 1, Type: spo.RiseStep})
	n2 := p.AddNode(spo.Node{Signal: "VOUTA", EdgeIndex: 1, Type: spo.RiseRamp, Threshold: "90%"})
	n3 := p.AddNode(spo.Node{Signal: "VINA", EdgeIndex: 2, Type: spo.FallStep})
	n4 := p.AddNode(spo.Node{Signal: "VOUTA", EdgeIndex: 2, Type: spo.FallRamp, Threshold: "10%"})
	_ = p.AddConstraint(n1, n2, "tDon")
	_ = p.AddConstraint(n3, n4, "tDoff")
	return &Spec{
		SPO: p,
		Delays: map[string]Bounds{
			"tDon":  {Min: 0.5, Max: 3},
			"tDoff": {Min: 0.5, Max: 3},
		},
	}
}

func TestBoundsContains(t *testing.T) {
	b := Bounds{Min: 1, Max: 2}
	if b.Contains(0.5) || !b.Contains(1) || !b.Contains(2) || b.Contains(2.5) {
		t.Error("bounded Contains wrong")
	}
	u := Bounds{Min: 1}
	if !u.Contains(100) || u.Contains(0.5) {
		t.Error("unbounded Contains wrong")
	}
}

func TestSynthesizeAndCheckSatisfies(t *testing.T) {
	spec := example1Spec()
	tr, err := SynthesizeTrace(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		for _, v := range res.Violations {
			t.Errorf("violation: %v", v)
		}
	}
	for i, tm := range res.EventTimes {
		if tm < 0 {
			t.Errorf("event %d unresolved", i)
		}
	}
	// Order of resolved events must respect the partial order.
	if !(res.EventTimes[0] < res.EventTimes[1]) {
		t.Error("event order wrong")
	}
}

func TestCheckDetectsDelayViolation(t *testing.T) {
	spec := example1Spec()
	tr, err := SynthesizeTrace(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Tighten the bound below the synthesised midpoint delay.
	spec.Delays["tDon"] = Bounds{Min: 0.1, Max: 0.2}
	res, err := Check(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("violation not detected")
	}
	found := false
	for _, v := range res.Violations {
		if v.Constraint.Delay == "tDon" && strings.Contains(v.Reason, "outside") {
			found = true
		}
	}
	if !found {
		t.Errorf("wrong violations: %v", res.Violations)
	}
}

func TestCheckDetectsMissingSignal(t *testing.T) {
	spec := example1Spec()
	tr := &trace.Trace{} // empty
	res, err := Check(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Error("missing signals accepted")
	}
}

func TestCheckDetectsMissingEdge(t *testing.T) {
	spec := example1Spec()
	tr, err := SynthesizeTrace(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate VINA so its second edge is gone.
	sig := tr.Signal("VINA")
	for i, p := range sig.Points {
		if p.T > 1.5 {
			sig.Points = sig.Points[:i]
			break
		}
	}
	res, err := Check(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Error("missing edge accepted")
	}
}

func TestCheckWrongDirection(t *testing.T) {
	p := &spo.SPO{}
	a := p.AddNode(spo.Node{Signal: "X", EdgeIndex: 1, Type: spo.FallStep})
	b := p.AddNode(spo.Node{Signal: "Y", EdgeIndex: 1, Type: spo.RiseStep})
	_ = p.AddConstraint(a, b, "t")
	spec := &Spec{SPO: p}
	// Build a trace where X rises instead of falling.
	tr := &trace.Trace{}
	x := tr.Add("X")
	_ = x.Append(0, 0)
	_ = x.Append(1, 1)
	y := tr.Add("Y")
	_ = y.Append(0, 0)
	_ = y.Append(2, 1)
	res, err := Check(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Error("direction mismatch accepted")
	}
}

func TestCheckOrderViolation(t *testing.T) {
	p := &spo.SPO{}
	a := p.AddNode(spo.Node{Signal: "X", EdgeIndex: 1, Type: spo.RiseStep})
	b := p.AddNode(spo.Node{Signal: "Y", EdgeIndex: 1, Type: spo.RiseStep})
	_ = p.AddConstraint(a, b, "t")
	spec := &Spec{SPO: p}
	tr := &trace.Trace{}
	x := tr.Add("X")
	_ = x.Append(0, 0)
	_ = x.Append(5, 0)
	_ = x.Append(6, 1)
	y := tr.Add("Y") // Y rises before X: order violated
	_ = y.Append(0, 0)
	_ = y.Append(1, 1)
	res, err := Check(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Error("order violation accepted")
	}
}

func TestCheckInvalidSpec(t *testing.T) {
	p := &spo.SPO{}
	a := p.AddNode(spo.Node{Signal: "X", EdgeIndex: 1, Type: spo.RiseStep})
	p.Constraints = append(p.Constraints, spo.Constraint{Src: a, Dst: a, Delay: "t"})
	if _, err := Check(&Spec{SPO: p}, &trace.Trace{}); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := Check(&Spec{}, &trace.Trace{}); err == nil {
		t.Error("nil SPO accepted")
	}
}

func TestThresholdFracParsing(t *testing.T) {
	spec := &Spec{ThresholdFracs: map[string]float64{"Vth": 0.42}}
	cases := []struct {
		th   string
		want float64
	}{
		{"", 0.5},
		{spo.NoThreshold, 0.5},
		{"90%", 0.9},
		{"5%", 0.05},
		{"Vth", 0.42},
	}
	for _, c := range cases {
		got, err := thresholdFrac(spec, spo.Node{Threshold: c.th})
		if err != nil || got != c.want {
			t.Errorf("thresholdFrac(%q) = %v, %v", c.th, got, err)
		}
	}
	if _, err := thresholdFrac(spec, spo.Node{Threshold: "2V"}); err == nil {
		t.Error("unparseable threshold accepted")
	}
}

func TestParsePercent(t *testing.T) {
	if v, ok := parsePercent("90%"); !ok || v != 0.9 {
		t.Error("90% parse failed")
	}
	for _, bad := range []string{"", "%", "9a%", "90"} {
		if _, ok := parsePercent(bad); ok {
			t.Errorf("parsePercent(%q) accepted", bad)
		}
	}
}

func TestSynthesizeRejectsSparseEdgeIndices(t *testing.T) {
	p := &spo.SPO{}
	a := p.AddNode(spo.Node{Signal: "X", EdgeIndex: 2, Type: spo.RiseStep}) // edge 1 missing
	b := p.AddNode(spo.Node{Signal: "Y", EdgeIndex: 1, Type: spo.RiseStep})
	_ = p.AddConstraint(a, b, "t")
	if _, err := SynthesizeTrace(&Spec{SPO: p}, 0); err == nil {
		t.Error("sparse edge indices accepted")
	}
}

// TestSynthesizeSignalOrder synthesizes one three-signal specification
// many times: the signals must come out in one order, their names',
// every time, for `tdmagic -synth-vcd` to write the same bytes.
func TestSynthesizeSignalOrder(t *testing.T) {
	p := &spo.SPO{}
	clk := p.AddNode(spo.Node{Signal: "CLK", EdgeIndex: 1, Type: spo.RiseStep})
	data := p.AddNode(spo.Node{Signal: "DATA", EdgeIndex: 1, Type: spo.FallRamp, Threshold: "10%"})
	out := p.AddNode(spo.Node{Signal: "OUT", EdgeIndex: 1, Type: spo.RiseRamp, Threshold: "90%"})
	_ = p.AddConstraint(clk, data, "t_{su}")
	_ = p.AddConstraint(data, out, "t_{PLH}")
	for i := 0; i < 50; i++ {
		tr, err := SynthesizeTrace(&Spec{SPO: p}, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, sig := range tr.Signals {
			names = append(names, sig.Name)
		}
		if got := strings.Join(names, " "); got != "CLK DATA OUT" {
			t.Fatalf("synthesis %d: signals %s, want CLK DATA OUT", i+1, got)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Constraint: spo.Constraint{Src: 0, Dst: 1, Delay: "t_{s}"}, Reason: "boom"}
	s := v.String()
	if !strings.Contains(s, "n1") || !strings.Contains(s, "boom") {
		t.Errorf("violation string = %q", s)
	}
}
