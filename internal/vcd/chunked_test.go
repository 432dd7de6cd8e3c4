package vcd

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tdmagic/internal/monitor"
	"tdmagic/internal/spo"
	"tdmagic/internal/trace"
)

// TestChunkedDecodeTdbenchShape decodes dumps shaped like the benchmark's
// verify_stream traffic — synthesized constrained edges, then a long
// toggle tail on 1-bit wires and real variables, at least 256 KiB —
// whole, one byte at a time and in halved reads, and requires the
// oracle's events and error.
func TestChunkedDecodeTdbenchShape(t *testing.T) {
	tr := goldenTrace(t)
	for seed := int64(1); seed <= 3; seed++ {
		doc := tdbenchShaped(t, tr, rand.New(rand.NewSource(seed)), 256<<10)
		checkAgainstOracle(t, doc)
		whole, errText := decodeVia(doc, wholeReads, false, 0)
		if errText != "" || len(whole) < 10000 {
			t.Fatalf("seed %d: %d events, error %q; want a clean decode of a long dump", seed, len(whole), errText)
		}
		if !slices.Contains(whole, `declare "bench_clk" true`) || !slices.Contains(whole, `declare "bench_vref" false`) {
			t.Fatalf("seed %d: declarations %v, want bench_clk a wire and bench_vref real", seed, whole[:5])
		}
		// A cut mid-line must fail the same way however the bytes arrive.
		checkAgainstOracle(t, doc[:len(doc)/2]+"b2foo")
	}
}

// goldenTrace synthesizes a trace satisfying a three-node specification:
// the constrained edges that open every benchmark dump.
func goldenTrace(t testing.TB) *trace.Trace {
	t.Helper()
	p := &spo.SPO{
		Nodes: []spo.Node{
			{Signal: "CLK", Type: spo.RiseStep, EdgeIndex: 1, Threshold: spo.NoThreshold},
			{Signal: "DATA", Type: spo.FallRamp, EdgeIndex: 1, Threshold: "10%"},
			{Signal: "OUT", Type: spo.RiseRamp, EdgeIndex: 1, Threshold: "90%"},
		},
		Constraints: []spo.Constraint{{Src: 0, Dst: 1, Delay: "t_{su}"}, {Src: 1, Dst: 2, Delay: "t_{PLH}"}},
	}
	tr, err := monitor.SynthesizeTrace(&monitor.Spec{SPO: p}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// tdbenchShaped writes tr plus a toggle tail with vcd.Write — the tail's
// square waves on CLK and bench_clk, a ripple on the real bench_vref —
// then rewrites the square waves as 1-bit wires, until the dump is at
// least size bytes.
func tdbenchShaped(t testing.TB, tr *trace.Trace, r *rand.Rand, size int) string {
	t.Helper()
	out := &trace.Trace{}
	end := 0.0
	for _, sig := range tr.Signals {
		out.Signals = append(out.Signals, &trace.Signal{Name: sig.Name, Points: append([]trace.Point(nil), sig.Points...)})
		end = max(end, sig.Points[len(sig.Points)-1].T)
	}
	clk := &trace.Signal{Name: "bench_clk", Points: []trace.Point{{T: 0, V: 0}}}
	vref := &trace.Signal{Name: "bench_vref", Points: []trace.Point{{T: 0, V: 0}, {T: 0.5, V: 1}}}
	wire := out.Signals[0] // CLK steps between 0 and 1: a wire in the dump
	now, level := end+2, 0.0
	for i := 0; i < size/12; i++ {
		now += 0.4 + 0.2*r.Float64()
		level = 1 - level
		clk.Points = append(clk.Points, trace.Point{T: now, V: level})
		if i%3 == 0 {
			wire.Points = append(wire.Points, trace.Point{T: now, V: level})
		}
		if i%4 == 0 {
			vref.Points = append(vref.Points, trace.Point{T: now, V: 0.45 + 0.1*r.Float64()})
		}
	}
	out.Signals = append(out.Signals, clk, vref)
	var buf bytes.Buffer
	if err := Write(&buf, out, "1ns"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < size {
		t.Fatalf("dump of %d bytes, want at least %d", buf.Len(), size)
	}
	// vcd.Write declares every variable real; CLK and bench_clk only ever
	// hold 0 or 1, so they become 1-bit wires.
	wires := map[string]bool{varID(0): true, varID(len(out.Signals) - 2): true}
	lines := strings.Split(buf.String(), "\n")
	for i, line := range lines {
		switch f := strings.Fields(line); {
		case len(f) == 6 && f[0] == "$var" && wires[f[3]]:
			lines[i] = "$var wire 1 " + f[3] + " " + f[4] + " $end"
		case len(f) == 2 && wires[f[1]] && (f[0] == "r0" || f[0] == "r1"):
			lines[i] = f[0][1:] + f[1]
		}
	}
	return strings.Join(lines, "\n")
}
