package vcd

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// TestDecoderMatchesOracle pins the byte decoder to the oracle where a
// decoder on bytes and one on strings could part: line ends, white space
// strings.Fields splits on, lines longer than the first read buffer,
// timestamps on either side of parseTime's shortcut, and the golden
// dumps.
func TestDecoderMatchesOracle(t *testing.T) {
	var golden bytes.Buffer
	if err := Write(&golden, goldenTrace(t), "1us"); err != nil {
		t.Fatal(err)
	}
	vars := "$var wire 1 ! w $end\n$var real 64 % v $end\n$enddefinitions $end\n#0\n"
	cases := map[string]string{
		"golden":           golden.String(),
		"sample":           sampleVCD,
		"crlf":             strings.ReplaceAll(sampleVCD, "\n", "\r\n"),
		"blank lines":      strings.ReplaceAll(sampleVCD, "\n#", "\n\n \t \r\n\v\n#"),
		"no final newline": strings.TrimSuffix(sampleVCD, "\n"),
		"100 KiB comment":  "$comment " + strings.Repeat("x ", 50<<10) + "$end\n" + sampleVCD,
		"100 KiB change":   vars + "r0.5" + strings.Repeat(" ", 100<<10) + "%\n#5\n1!\n",
		"100 KiB vector":   "$var reg 8 ! bus $end\n$enddefinitions $end\n#0\nb" + strings.Repeat("01", 50<<10) + " !\n#5\nb1 !\n",
		"vertical tab":     vars + "r0.5\v%\n1!\v\n",
		"form feed":        vars + "r0.5\f%\n\f1!\n",
		"NEL":              vars + "r0.5\u0085%\n#5\n1!\u0085\n",
		"no-break space":   vars + "r0.5\u00a0%\n#5\n\u00a01!\n",
		"line separator":   vars + "r0.5\u2028%\n",
		"lone 0x85 byte":   vars + "r0.5\x85%\n",
		"invalid bit rune": vars + "b1\u00e90 !\n",
		"invalid bit byte": vars + "b1\xff0 !\n",
	}
	for _, ts := range []string{"", "7", "007", "999999999999999", "1000000000000000", "9007199254740993",
		"1.5", "-1", "+1", "1e3", "0x10", "1_0", "Inf", "NaN", "\u0663"} {
		cases["timestamp #"+ts] = vars + "#" + ts + "\n1!\n"
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, doc) })
	}
}

// TestDecoderLineCap holds the byte decoder to the oracle's 4 MiB line
// cap: a line of 4 MiB less one byte, with its newline, decodes, and one
// more byte fails with bufio.Scanner's text, however the bytes arrive.
// The oracle reads whole buffers only here: its scanner searches the whole
// of a line after every read, so one-byte reads of a 4 MiB line take
// hours.
func TestDecoderLineCap(t *testing.T) {
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 100} {
		for _, end := range []string{"\n", ""} {
			doc := "$comment " + strings.Repeat("x", n-len("$comment ")) + end + "$enddefinitions $end\n"
			want, wantErr := decodeVia(doc, wholeReads, true)
			if n >= maxLine && wantErr != "bufio.Scanner: token too long" {
				t.Fatalf("%d-byte line: oracle error %q, want the scanner's token too long", n, wantErr)
			}
			for _, m := range readModes {
				checkDecode(t, doc, m.name, m.wrap, want, wantErr)
			}
		}
	}
}

// TestDecoderPassesReadErrors cuts sampleVCD at every byte with a failing
// read. The decoder must return the read error itself, with no line
// position, after exactly the events of the lines completed before it: a
// line the error cut short is never parsed.
func TestDecoderPassesReadErrors(t *testing.T) {
	errRead := errors.New("connection reset")
	for k := 0; k <= len(sampleVCD); k++ {
		rec := &recorder{}
		r := io.MultiReader(strings.NewReader(sampleVCD[:k]), iotest.ErrReader(errRead))
		if err := NewDecoder(r, rec).Run(); err != errRead {
			t.Fatalf("cut at %d: error %v, want the read error as it came", k, err)
		}
		whole := sampleVCD[:strings.LastIndexByte(sampleVCD[:k], '\n')+1]
		want, wantErr := decodeVia(whole, wholeReads, true)
		if wantErr != "" || !slices.Equal(rec.events, want) {
			t.Fatalf("cut at %d: %d events, oracle %d over the complete lines (error %q)", k, len(rec.events), len(want), wantErr)
		}
	}
}

// TestDecodeAllocsFlat pins the byte decoder's allocations to its set-up
// and the declarations: tdbench-shaped dumps of about 0.5 MB and 2 MB
// decode into a no-op sink with the same number of allocations.
func TestDecodeAllocsFlat(t *testing.T) {
	tr := goldenTrace(t)
	var allocs []float64
	for _, size := range []int{512 << 10, 2 << 20} {
		doc := tdbenchShaped(t, tr, rand.New(rand.NewSource(1)), size)
		allocs = append(allocs, testing.AllocsPerRun(3, func() {
			if err := NewDecoder(strings.NewReader(doc), nopSink{}).Run(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocations %v for 0.5 MB and 2 MB dumps; want a count independent of the dump's size", allocs)
	}
	t.Logf("allocations per decode: %v for 0.5 MB and 2 MB dumps", allocs)
}

// BenchmarkDecodeTdbenchShape decodes a 1 MiB dump shaped like the
// benchmark's verify_stream traffic into a no-op sink; MB/s is the
// decoder's throughput.
func BenchmarkDecodeTdbenchShape(b *testing.B) {
	doc := tdbenchShaped(b, goldenTrace(b), rand.New(rand.NewSource(1)), 1<<20)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewDecoder(strings.NewReader(doc), nopSink{}).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

type nopSink struct{}

func (nopSink) Declare(string, bool) int           { return 0 }
func (nopSink) Change(int, float64, float64) error { return nil }
