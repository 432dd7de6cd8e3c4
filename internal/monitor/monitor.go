// Package monitor checks timed traces against SPO specifications extracted
// from timing diagrams: runtime verification with a TD as the formal spec,
// the application the paper's introduction motivates ("enables the use of
// model checking, runtime verification and testing tools with TDs as formal
// specifications").
//
// A specification is an SPO plus, for each timing parameter appearing on
// its constraints, an admissible delay interval (in datasheets these live
// in the electrical-characteristics tables next to the diagram). A trace
// satisfies the specification when every event can be located in the trace
// and every constraint's measured delay is positive and inside its bounds.
package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"tdmagic/internal/spo"
	"tdmagic/internal/trace"
)

// Bounds is an admissible delay interval. Max <= 0 means unbounded above.
// The JSON form is the wire format of verification requests.
type Bounds struct {
	Min float64 `json:"min"`
	Max float64 `json:"max,omitempty"`
}

// Contains reports whether dt satisfies the bounds.
func (b Bounds) Contains(dt float64) bool {
	if dt < b.Min {
		return false
	}
	return b.Max <= 0 || dt <= b.Max
}

// Spec is a monitorable specification. Its JSON form, all but the SPO,
// is the datasheet's side that both verify surfaces read (DecodeDelays).
type Spec struct {
	SPO *spo.SPO `json:"-"`
	// Delays maps a constraint's timing-parameter label (e.g. "t_{su}")
	// to its bounds. Constraints whose label is absent are checked for
	// ordering only.
	Delays map[string]Bounds `json:"delays"`
	// MinSwingFrac tunes trace edge extraction (default 0.5).
	MinSwingFrac float64 `json:"min_swing_frac,omitempty"`
	// ThresholdFracs maps a node threshold text (e.g. "V_{IH}") to the
	// level fraction; standard percent strings parse automatically.
	ThresholdFracs map[string]float64 `json:"threshold_fracs,omitempty"`
}

// DecodeDelays reads one delays document off r into a Spec without an
// SPO: the tdmagic -delays file, or the delays part of /v1/verify. An
// object holding any of its three keys is the document form; any other
// is a bare {"t_x": {"min": .., "max": ..}} map of delays alone. Unknown
// keys are refused in either form.
func DecodeDelays(r io.Reader) (*Spec, error) {
	var raw json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, err
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return nil, err
	}
	spec := &Spec{}
	var into any = &spec.Delays
	for _, k := range [...]string{"delays", "min_swing_frac", "threshold_fracs"} {
		if _, ok := keys[k]; ok {
			into = spec
		}
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return nil, err
	}
	return spec, nil
}

// Violation describes one failed check.
type Violation struct {
	Constraint spo.Constraint
	Measured   float64 // seconds between the two events (NaN-free; 0 if unresolved)
	Reason     string
}

func (v Violation) String() string {
	return fmt.Sprintf("constraint n%d -> n%d (%s): %s", v.Constraint.Src+1, v.Constraint.Dst+1, v.Constraint.Delay, v.Reason)
}

// Result is the outcome of checking one trace.
type Result struct {
	EventTimes []float64 // per SPO node; NaN-free, -1 when unresolved
	Violations []Violation
}

// OK reports whether the trace satisfied the specification.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Check locates every SPO event in the trace and verifies all constraints.
// It is implemented on top of StreamChecker — the whole trace is replayed
// through the incremental monitor — so batch and streaming verification
// cannot disagree.
func Check(spec *Spec, tr *trace.Trace) (*Result, error) {
	c, err := NewStream(spec, nil)
	if err != nil {
		return nil, err
	}
	for _, sig := range tr.Signals {
		h := c.Declare(sig.Name, false)
		for _, p := range sig.Points {
			if err := c.Change(h, p.T, p.V); err != nil {
				return nil, err
			}
		}
	}
	return c.Finish()
}

// thresholdFrac resolves a node's crossing level as a fraction of the
// signal range: 0.5 for step/eventless nodes, the parsed percentage for
// "NN%" thresholds, or a spec-supplied mapping.
func thresholdFrac(spec *Spec, n spo.Node) (float64, error) {
	th := n.Threshold
	if th == "" || th == spo.NoThreshold {
		return 0.5, nil
	}
	if spec.ThresholdFracs != nil {
		if f, ok := spec.ThresholdFracs[th]; ok {
			return f, nil
		}
	}
	if f, ok := parsePercent(th); ok {
		return f, nil
	}
	return 0, fmt.Errorf("unparseable threshold %q", th)
}

// parsePercent parses "90%" into 0.9.
func parsePercent(s string) (float64, bool) {
	if len(s) < 2 || s[len(s)-1] != '%' {
		return 0, false
	}
	v := 0.0
	for _, ch := range s[:len(s)-1] {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		v = v*10 + float64(ch-'0')
	}
	return v / 100, true
}

// SynthesizeTrace builds a piecewise-linear trace that satisfies the
// specification, with each constrained delay set to the midpoint of its
// bounds (or Min when unbounded). It is useful for testing monitors and as
// a template-waveform generator. rampFrac is the fraction of the unit step
// spent ramping (0 = ideal steps).
func SynthesizeTrace(spec *Spec, rampFrac float64) (*trace.Trace, error) {
	p := spec.SPO
	if err := p.Validate(); err != nil {
		return nil, err
	}
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	// Assign event times respecting every constraint (t(dst) >= t(src)+d)
	// and keeping consecutive events of the same signal apart, by relaxing
	// both requirements to a fixed point.
	times := make([]float64, len(p.Nodes))
	const slack = 1.0
	for i := range times {
		times[i] = slack
	}
	in := make([][]spo.Constraint, len(p.Nodes))
	for _, c := range p.Constraints {
		in[c.Dst] = append(in[c.Dst], c)
	}
	sigOrder := map[string][]int{}
	for i, n := range p.Nodes {
		sigOrder[n.Signal] = append(sigOrder[n.Signal], i)
	}
	for _, idx := range sigOrder {
		sort.Slice(idx, func(a, b int) bool {
			return p.Nodes[idx[a]].EdgeIndex < p.Nodes[idx[b]].EdgeIndex
		})
	}
	for iter := 0; iter < len(p.Nodes)+3; iter++ {
		changed := false
		for _, v := range order {
			for _, c := range in[v] {
				d := slack
				if b, ok := spec.Delays[c.Delay]; ok {
					if b.Max > 0 {
						d = (b.Min + b.Max) / 2
					} else {
						d = b.Min + slack
					}
				}
				if t := times[c.Src] + d; t > times[v] {
					times[v] = t
					changed = true
				}
			}
		}
		for _, idx := range sigOrder {
			for k := 1; k < len(idx); k++ {
				if t := times[idx[k-1]] + slack; t > times[idx[k]] {
					times[idx[k]] = t
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// Build waveforms: each signal toggles through its events.
	tr := &trace.Trace{}
	type ev struct {
		t    float64
		node spo.Node
	}
	bySignal := map[string][]ev{}
	for i, n := range p.Nodes {
		bySignal[n.Signal] = append(bySignal[n.Signal], ev{t: times[i], node: n})
	}
	ramp := rampFrac
	if ramp < 0 {
		ramp = 0
	}
	for name, evs := range bySignal {
		sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
		// Each signal's events must cover its edges consecutively so the
		// trace edge index matches the specification's EdgeIndex.
		for k, e := range evs {
			if e.node.EdgeIndex != k+1 {
				return nil, fmt.Errorf("monitor: signal %q event %d has edge index %d; synthesis needs consecutive indices",
					name, k+1, e.node.EdgeIndex)
			}
		}
		sig := tr.Add(name)
		// Start at the complement of the first event's direction.
		level := 0.0
		if !evs[0].node.Type.IsRise() && evs[0].node.Type != spo.Double {
			level = 1
		}
		if err := sig.Append(0, level); err != nil {
			return nil, err
		}
		for k, e := range evs {
			target := 1 - level
			// Clamp the ramp half-width to half the gap towards each
			// neighbouring event (and to the first event's distance from
			// t=0) so adjacent ramps never overlap, whatever rampFrac is.
			half := 0.05 + ramp/2
			if k > 0 {
				half = math.Min(half, (e.t-evs[k-1].t)/2)
			} else {
				half = math.Min(half, e.t)
			}
			if k+1 < len(evs) {
				half = math.Min(half, (evs[k+1].t-e.t)/2)
			} else {
				half = math.Min(half, 1) // tail point lands at e.t+2
			}
			if err := sig.Append(e.t-half, level); err != nil {
				return nil, fmt.Errorf("monitor: synthesise %q: %w", name, err)
			}
			if err := sig.Append(e.t+half, target); err != nil {
				return nil, err
			}
			level = target
		}
		last := evs[len(evs)-1].t
		if err := sig.Append(last+2, level); err != nil {
			return nil, err
		}
	}
	return tr, nil
}
