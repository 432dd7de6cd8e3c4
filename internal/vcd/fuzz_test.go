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
// finite, monotonically timestamped samples only. The streaming decoder
// must also not care how the bytes arrive: read one byte at a time or in
// halved reads, as off a network stream, a document gives the same
// events and the same error as read from one whole buffer.
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
	f.Fuzz(func(t *testing.T, doc string) {
		checkChunking(t, doc)
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
// so two decodes compare event for event.
type recorder struct{ events []string }

func (r *recorder) Declare(name string, binary bool) int {
	r.events = append(r.events, fmt.Sprintf("declare %q %v", name, binary))
	return len(r.events)
}

func (r *recorder) Change(h int, t, v float64) error {
	r.events = append(r.events, fmt.Sprintf("change %d %x %x", h, math.Float64bits(t), math.Float64bits(v)))
	return nil
}

// decodeVia streams doc through a Decoder reading from wrap's reader and
// returns the events and the error text.
func decodeVia(doc string, wrap func(io.Reader) io.Reader) ([]string, string) {
	rec := &recorder{}
	err := NewDecoder(wrap(strings.NewReader(doc)), rec).Run()
	if err != nil {
		return rec.events, err.Error()
	}
	return rec.events, ""
}

// checkChunking requires the decodes of doc through iotest.OneByteReader
// and iotest.HalfReader to equal its whole-buffer decode.
func checkChunking(t *testing.T, doc string) {
	t.Helper()
	whole, wholeErr := decodeVia(doc, func(r io.Reader) io.Reader { return r })
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"one byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	} {
		events, err := decodeVia(doc, wrap)
		if err != wholeErr {
			t.Fatalf("%s reads: error %q, whole buffer %q", name, err, wholeErr)
		}
		if !slices.Equal(events, whole) {
			t.Fatalf("%s reads: %d events, whole buffer %d; first %v vs %v",
				name, len(events), len(whole), head(events), head(whole))
		}
	}
}

func head(events []string) []string { return events[:min(len(events), 4)] }
