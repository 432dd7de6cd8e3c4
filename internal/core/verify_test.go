package core

import (
	"context"
	"strings"
	"testing"

	"tdmagic/internal/monitor"
	"tdmagic/internal/spo"
)

// TestVerifyStreamSinkErrorLine gives a 1-bit wire a real value. The
// stream checker refuses it, and the error names the dump line it came
// from; the decoder reads that line in place from its buffer.
func TestVerifyStreamSinkErrorLine(t *testing.T) {
	p := &spo.SPO{}
	clk := p.AddNode(spo.Node{Signal: "CLK", EdgeIndex: 1, Type: spo.RiseStep})
	q := p.AddNode(spo.Node{Signal: "Q", EdgeIndex: 1, Type: spo.RiseStep})
	_ = p.AddConstraint(clk, q, "t_{d}")
	dump := "$timescale 1ns $end\n$var wire 1 ! CLK $end\n$var wire 1 \" Q $end\n$enddefinitions $end\n" +
		"#0\n0!\n0\"\n#5\n1!\n#7\nr0.7 !\n#9\n1\"\n"
	_, err := VerifyStream(context.Background(), &monitor.Spec{SPO: p}, strings.NewReader(dump), nil, nil)
	want := `vcd: line 11: monitor: binary signal "CLK" got value 0.7`
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
}
