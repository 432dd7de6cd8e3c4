package vcd

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzParse feeds arbitrary documents to the VCD parser. The parser must
// never panic, and every trace it does accept must be well-formed:
// finite, monotonically timestamped samples only. The byte decoder must
// also agree with the line decoder it replaced (oracleDecoder): read from
// one whole buffer, one byte at a time or in halved reads, as off a
// network stream, a document gives the oracle's events and error text.
func FuzzParse(f *testing.F) {
	f.Add(sampleVCD)
	f.Add("$enddefinitions $end\n#0\n")
	f.Add("$timescale 1ns $end\n$var wire 1 ! clk $end\n$enddefinitions $end\n#0\n1!\n#5\n0!\n")
	f.Add("$scope module top $end\n$var real 64 % v $end\n$upscope $end\n$enddefinitions $end\n#0\nr1.25 %\n")
	f.Add("$var wire 8 # bus $end\n$enddefinitions $end\n#0\nb1010 #\n")
	f.Add("#NaN\n")
	f.Add("#-1\n")
	f.Add("#1e400\n")
	f.Add("$timescale 999999999999999999999 ns $end\n")
	// Non-monotone timestamps must be a parse error, not a late trace error.
	f.Add("$var wire 1 ! w $end\n$enddefinitions $end\n#10\n1!\n#5\n0!\n")
	// Vector changes may use only 0/1/x/z/X/Z bit characters.
	f.Add("$var reg 4 % bus $end\n$enddefinitions $end\n#0\nb2foo %\n")
	f.Add("$var reg 4 % bus $end\n$enddefinitions $end\n#0\nb1x0Z %\n")
	// IEEE 1364 restricts timescale magnitudes to 1/10/100.
	f.Add("$timescale 5ns $end\n$enddefinitions $end\n")
	f.Add("$timescale 100 us $end\n$var real 64 ! v $end\n$enddefinitions $end\n#0\nr0.5 !\n")
	// Timestamps and real values on both sides of the decoder's decimal
	// shortcut: signs, bare points, 15 and 16 digits, exponents.
	f.Add("$var real 64 ! v $end\n$enddefinitions $end\n#007\nr-0 !\n#8.\nr+.5 !\n#9\nr0.123456789012345 !\n#10\nr0.1234567890123456 !\n#1e2\nr1e-3 !\n")
	// Every way a line leaves the decoder's in-place loop for the line
	// path: white space around a change, CRLF, a second token, a two-byte
	// or undeclared id, a byte >= 0x80 in an id, a real that does not
	// parse or is not finite, two spaces before a real's id, a 16-digit
	// or earlier timestamp, changes inside $dumpvars and a last line
	// without its newline.
	vars := "$var wire 1 ! w $end\n$var real 64 % v $end\n$var wire 1 !! ww $end\n$var wire 1 \u00e9 e $end\n$enddefinitions $end\n#0\n"
	f.Add(vars + "1! \n#1\n 0!\n#2\n1!\t\n")
	f.Add(strings.ReplaceAll(vars, "\n", "\r\n") + "1!\r\n#1\r\nr0.5 %\r\n")
	f.Add(vars + "1! !\n#1\nr0.5 % %\n")
	f.Add(vars + "1!!\n#1\n0!!\nr0.5 !!\n#2\n1?\nr0.5 ?\n")
	f.Add(vars + "1\u00e9\n#1\n1!\x85\nr0.5 \u00e9\nr0.5\xff %\n")
	f.Add(vars + "rNaN %\n#1\nrInf %\n#2\nr-inf %\n#3\nr1.2.3 %\n#4\nr %\n#5\nr0.5  %\n")
	f.Add(vars + "#1234567890123456\n1!\n#999999999999999\n0!\n")
	f.Add(vars + "#10\n1!\n#9\n0!\n")
	f.Add(vars + "$dumpvars\n1!\nr0.5 %\n0!!\n$end\n#5\n0!\n")
	f.Add(vars + "1!\n#5\n0!")
	f.Add(vars + "1!\n#5\nr0.5 %")
	f.Add(vars + "1!\n#5")
	// A re-declared id names its last declaration, one byte long or two.
	f.Add("$var wire 1 ! a $end\n$var wire 1 !! aa $end\n$var real 64 ! b $end\n$var real 64 !! bb $end\n$enddefinitions $end\n#0\nr0.5 !\nr0.5 !!\n1!\n")
	f.Fuzz(func(t *testing.T, doc string) {
		checkAgainstOracle(t, doc)
		tr, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		for _, sig := range tr.Signals {
			last := math.Inf(-1)
			for _, p := range sig.Points {
				if math.IsNaN(p.T) || math.IsInf(p.T, 0) || math.IsNaN(p.V) || math.IsInf(p.V, 0) {
					t.Fatalf("accepted non-finite sample (%v, %v) in %q", p.T, p.V, sig.Name)
				}
				if p.T < last {
					t.Fatalf("accepted non-monotonic timestamps in %q: %v after %v", sig.Name, p.T, last)
				}
				last = p.T
			}
		}
	})
}

// recorder is a Sink that keeps every event as text, value bits exact,
// so two decodes compare event for event. With failAt above 0, its
// failAt-th Change fails instead.
type recorder struct {
	events  []string
	changes int
	failAt  int
}

func (r *recorder) Declare(name string, binary bool) int {
	r.events = append(r.events, fmt.Sprintf("declare %q %v", name, binary))
	return len(r.events)
}

func (r *recorder) Change(h int, t, v float64) error {
	if r.changes++; r.changes == r.failAt {
		return fmt.Errorf("recorder: change %d refused", r.changes)
	}
	r.events = append(r.events, fmt.Sprintf("change %d %x %x", h, math.Float64bits(t), math.Float64bits(v)))
	return nil
}

// decodeVia streams doc through the byte decoder, or the oracle, reading
// from wrap's reader, into a recorder that fails its failAt-th change (0:
// none), and returns the events and the error text.
func decodeVia(doc string, wrap func(io.Reader) io.Reader, oracle bool, failAt int) ([]string, string) {
	rec := &recorder{failAt: failAt}
	r := wrap(strings.NewReader(doc))
	var err error
	if oracle {
		err = newOracleDecoder(r, rec).Run()
	} else {
		err = NewDecoder(r, rec).Run()
	}
	if err != nil {
		return rec.events, err.Error()
	}
	return rec.events, ""
}

// readModes are the ways a document's bytes arrive in the tests.
var readModes = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", wholeReads},
	{"one byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// checkAgainstOracle requires the byte decoder's events and error text for
// doc to equal the oracle's, both reading in each of the readModes: into a
// recorder that never fails, then into ones that fail the first, the
// middle and the last change, so a sink error names the oracle's line.
func checkAgainstOracle(t *testing.T, doc string) {
	t.Helper()
	events, _ := decodeVia(doc, wholeReads, true, 0)
	failAts := []int{0}
	if n := countChanges(events); n > 0 {
		failAts = append(failAts, slices.Compact([]int{1, (n + 1) / 2, n})...)
	}
	for _, failAt := range failAts {
		for _, m := range readModes {
			want, wantErr := decodeVia(doc, m.wrap, true, failAt)
			checkDecode(t, doc, m.name, m.wrap, failAt, want, wantErr)
		}
	}
}

// checkDecode requires the byte decoder, reading doc through wrap into a
// recorder that fails its failAt-th change, to give the events want and
// the error text wantErr.
func checkDecode(t *testing.T, doc, mode string, wrap func(io.Reader) io.Reader, failAt int, want []string, wantErr string) {
	t.Helper()
	events, err := decodeVia(doc, wrap, false, failAt)
	if err != wantErr {
		t.Fatalf("%s reads, change %d failing: error %q, oracle %q", mode, failAt, err, wantErr)
	}
	if !slices.Equal(events, want) {
		t.Fatalf("%s reads, change %d failing: %d events, oracle %d; first %v vs %v",
			mode, failAt, len(events), len(want), head(events), head(want))
	}
}

// wholeReads leaves r as it is: reads as large as the reader serves.
func wholeReads(r io.Reader) io.Reader { return r }

func head(events []string) []string { return events[:min(len(events), 4)] }

func countChanges(events []string) int {
	n := 0
	for _, e := range events {
		if strings.HasPrefix(e, "change ") {
			n++
		}
	}
	return n
}
