package vcd

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Sink receives decoded value-change events from a Decoder. Declare is
// called once per declared variable before any of its changes; binary is
// true for 1-bit digital variables, whose values can only ever be 0 or 1
// (x/z resolve low). The returned handle identifies the signal in
// subsequent Change calls. Change delivers samples with non-decreasing
// times per handle; digital hold points (the old value re-asserted at the
// change instant) are already expanded by the decoder.
type Sink interface {
	Declare(name string, binary bool) int
	Change(handle int, t, v float64) error
}

// Decoder incrementally parses a VCD document, emitting each decoded
// sample to a Sink as it is read instead of materializing a trace. It
// retains O(declared signals) state, so arbitrarily large dumps stream in
// constant memory per signal. It decodes on bytes: most value changes
// are read straight from the read buffer (inPlace), any other line is a
// slice of it and its fields are slices of the line, so a value change
// allocates nothing.
type Decoder struct {
	sink Sink
	cr   *countReader
	br   *bufio.Reader

	long   []byte   // a line longer than br's buffer, gathered
	fields [][]byte // the current line's fields

	ids     map[string]int // var id code -> index into holds
	byteIDs [128]int       // one-byte var id -> index into holds + 1; 0 undeclared
	holds   []holdState    // one per distinct sink handle
}

// holdState tracks the last sample emitted to one sink handle, for digital
// hold-point expansion (VCD step semantics: the old value persists right
// up to the change instant).
type holdState struct {
	h    int
	t, v float64
	has  bool
}

// maxLine caps a line, its newline included; a longer line fails with
// bufio.ErrTooLong.
const maxLine = 1 << 22

type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// NewDecoder prepares a streaming decode of r into sink. Call Run to
// consume the document.
func NewDecoder(r io.Reader, sink Sink) *Decoder {
	cr := &countReader{r: r}
	return &Decoder{
		sink: sink,
		cr:   cr,
		br:   bufio.NewReaderSize(cr, 1<<16),
		ids:  map[string]int{},
	}
}

// Bytes returns the number of input bytes consumed so far.
func (d *Decoder) Bytes() int64 { return d.cr.n }

// Run consumes the whole document, emitting every decoded sample to the
// sink. Errors are positioned: "vcd: line N: ...". Beyond the common
// format core, Run validates what the old whole-trace parser let through
// silently: timestamps must be non-decreasing, vector changes may use only
// the bit characters 0/1/x/z/X/Z, and $timescale magnitudes are restricted
// to 1/10/100 per IEEE 1364. An error reading the input is returned as
// it came, without a position, and the line it cut short is not parsed.
func (d *Decoder) Run() error {
	var scope []string
	now := 0.0
	scale := 1.0
	inDefs := true
	slot := map[int]int{} // sink handle -> index into d.holds

	for lineNo := 1; ; lineNo++ {
		if !inDefs {
			var err error
			if now, lineNo, err = d.inPlace(now, scale, lineNo); err != nil {
				return err
			}
		}
		line, err := d.line()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fields := d.split(line)
		if len(fields) == 0 {
			continue
		}
		f0 := fields[0]
		switch {
		case inDefs && string(f0) == "$timescale":
			// Either inline ("$timescale 1ns $end") or the value on the
			// next lines; gather tokens until $end.
			toks := strings.Fields(string(line))[1:]
			for !contains(toks, "$end") {
				line, err := d.line()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				lineNo++
				toks = append(toks, strings.Fields(string(line))...)
			}
			s, err := parseTimescale(toks)
			if err != nil {
				return fmt.Errorf("vcd: line %d: %w", lineNo, err)
			}
			scale = s
		case inDefs && string(f0) == "$scope":
			if len(fields) >= 3 {
				scope = append(scope, string(fields[2]))
			}
		case inDefs && string(f0) == "$upscope":
			if len(scope) > 0 {
				scope = scope[:len(scope)-1]
			}
		case inDefs && string(f0) == "$var":
			// $var <kind> <width> <id> <ref> [indices] $end
			if len(fields) < 5 {
				return fmt.Errorf("vcd: line %d: malformed $var", lineNo)
			}
			name := string(fields[4])
			if len(scope) > 0 {
				name = strings.Join(scope, ".") + "." + name
			}
			binary := string(fields[1]) != "real" && string(fields[2]) == "1"
			h := d.sink.Declare(name, binary)
			i, ok := slot[h]
			if !ok {
				i = len(d.holds)
				slot[h] = i
				d.holds = append(d.holds, holdState{h: h})
			}
			id := fields[3]
			d.ids[string(id)] = i
			if len(id) == 1 && id[0] < utf8.RuneSelf {
				d.byteIDs[id[0]] = i + 1
			}
		case string(f0) == "$enddefinitions":
			inDefs = false
		case f0[0] == '$':
			// $comment/$date/$version/$dumpvars/$dumpall/$end...: skip.
		case f0[0] == '#':
			t, err := parseTime(f0[1:])
			// ParseFloat accepts "NaN"/"Inf"; a non-finite or negative
			// timestamp would poison the trace's monotonicity check
			// (NaN compares false against everything), so reject here.
			if err != nil || math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
				return fmt.Errorf("vcd: line %d: bad timestamp %q", lineNo, f0)
			}
			nt := t * scale
			if nt < now {
				return fmt.Errorf("vcd: line %d: timestamp %q before previous time", lineNo, f0)
			}
			now = nt
		default:
			if err := d.valueChange(now, fields); err != nil {
				return fmt.Errorf("vcd: line %d: %w", lineNo, err)
			}
		}
	}
}

// inPlace decodes straight from br's buffer the complete lines it holds,
// numbered from lineNo, while each is a timestamp ("#" and 1 to 15 ASCII
// digits), a scalar change ("1!") or a real change ("r0.5 !") that
// decodes cleanly: a newline right after the last field, one space inside
// a real change, every other byte in 0x21-0x7e, a declared id, a finite
// real and a time no earlier than now. It stops at the first line that is
// not, or is not wholly buffered, and leaves it for the line path, which
// words every parse error; it never reads. It returns the time and the
// number of the first line it left.
func (d *Decoder) inPlace(now, scale float64, lineNo int) (float64, int, error) {
	buf, _ := d.br.Peek(d.br.Buffered())
	p := 0
	var err error
lines:
	for ; p < len(buf); lineNo++ {
		b := buf[p:]
		var n int // the line's length, its newline included
		switch c := b[0]; c {
		case '#':
			t, k := leadingInt(b[1:])
			nt := float64(t) * scale
			if k == 0 || k+1 >= len(b) || b[k+1] != '\n' || nt < now {
				break lines
			}
			now, n = nt, k+2
		case '0', '1', 'x', 'X', 'z', 'Z':
			i, k := d.lookupID(b[1:])
			if i < 0 {
				break lines
			}
			if err = d.emitStep(&d.holds[i], now, scalarValue(c)); err != nil {
				break lines
			}
			n = k + 2
		case 'r', 'R':
			k := tokenLen(b[1:])
			if k == 0 || k+1 >= len(b) || b[k+1] != ' ' {
				break lines
			}
			i, m := d.lookupID(b[k+2:])
			if i < 0 {
				break lines
			}
			v, perr := strconv.ParseFloat(string(b[1:k+1]), 64)
			if perr != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				break lines
			}
			if err = d.emit(&d.holds[i], now, v); err != nil {
				break lines
			}
			n = k + m + 3
		default:
			break lines
		}
		p += n
	}
	d.br.Discard(p)
	if err != nil {
		err = fmt.Errorf("vcd: line %d: %w", lineNo, err)
	}
	return now, lineNo, err
}

// lookupID resolves the var id that b starts with, bytes 0x21-0x7e up to
// a newline, to its index into d.holds, and returns the id's length. The
// index is -1 when b holds no such id or the id is undeclared.
func (d *Decoder) lookupID(b []byte) (int, int) {
	k := tokenLen(b)
	if k == 0 || k == len(b) || b[k] != '\n' {
		return -1, 0
	}
	if k == 1 {
		return d.byteIDs[b[0]] - 1, 1
	}
	if i, ok := d.ids[string(b[:k])]; ok {
		return i, k
	}
	return -1, 0
}

// tokenLen returns how many bytes b starts with in 0x21-0x7e: printable
// ASCII, no space.
func tokenLen(b []byte) int {
	k := 0
	for k < len(b) && '!' <= b[k] && b[k] <= '~' {
		k++
	}
	return k
}

// line returns the next line, newline included, valid until the next
// call; a last line may lack its newline. It returns io.EOF once the input
// is used up, and a read error as it came, never the line it cut short.
func (d *Decoder) line() ([]byte, error) {
	b, err := d.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		d.long = append(d.long[:0], b...)
		for err == bufio.ErrBufferFull && len(d.long) < maxLine {
			b, err = d.br.ReadSlice('\n')
			d.long = append(d.long, b...)
		}
		b = d.long
		// Without a newline, as at io.EOF, all of b is the line's text.
		if n := len(b); n > maxLine || n == maxLine && err != nil {
			return nil, bufio.ErrTooLong
		}
	}
	if err == nil || err == io.EOF && len(b) > 0 {
		return b, nil
	}
	return nil, err
}

// split cuts line into fields as strings.Fields does, at runs of
// unicode.IsSpace (U+0085 and U+00A0 included). The fields are slices of
// line, held in d.fields until the next call.
func (d *Decoder) split(line []byte) [][]byte {
	f := d.fields[:0]
	start := -1
	for i := 0; i < len(line); {
		c, size := line[i], 1
		space := c == ' ' || '\t' <= c && c <= '\r'
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			f = append(f, line[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		f = append(f, line[start:])
	}
	d.fields = f
	return f
}

// parseTime is strconv.ParseFloat(string(b), 64), with a shortcut for the
// unsigned integers IEEE 1364 writes as timestamps: up to 15 digits, which
// a float64 holds exactly.
func parseTime(b []byte) (float64, error) {
	n, i := leadingInt(b)
	if i == 0 || i < len(b) {
		return strconv.ParseFloat(string(b), 64)
	}
	return float64(n), nil
}

// leadingInt reads the ASCII digits b starts with, at most 15 of them,
// as an unsigned integer, and returns it and how many digits it read.
func leadingInt(b []byte) (uint64, int) {
	n, i := uint64(0), 0
	for ; i < len(b) && i < 15 && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	return n, i
}

// valueChange applies one value-change line. Digital changes (scalar and
// vector) follow VCD's hold semantics: the old value persists until the
// change instant, so a hold point is emitted before the new value to keep
// the piecewise-linear signal a step function. Real changes are analog
// samples and interpolate linearly as recorded.
func (d *Decoder) valueChange(now float64, fields [][]byte) error {
	tok := fields[0]
	switch tok[0] {
	case '0', '1', 'x', 'X', 'z', 'Z':
		// Scalar: value and id share the token ("1!").
		if len(tok) < 2 {
			return fmt.Errorf("malformed scalar change %q", tok)
		}
		i, ok := d.ids[string(tok[1:])]
		if !ok {
			return fmt.Errorf("unknown id %q", tok[1:])
		}
		return d.emitStep(&d.holds[i], now, scalarValue(tok[0]))
	case 'b', 'B':
		if len(fields) < 2 {
			return fmt.Errorf("vector change missing id: %q", tok)
		}
		i, ok := d.ids[string(fields[1])]
		if !ok {
			return fmt.Errorf("unknown id %q", fields[1])
		}
		v := 0.0
		for j, bit := range tok[1:] {
			v *= 2
			switch bit {
			case '1':
				v++
			case '0', 'x', 'X', 'z', 'Z':
				// x/z resolve low.
			default:
				r, _ := utf8.DecodeRune(tok[1+j:])
				return fmt.Errorf("invalid bit %q in vector change %q", r, tok)
			}
		}
		return d.emitStep(&d.holds[i], now, v)
	case 'r', 'R':
		if len(fields) < 2 {
			return fmt.Errorf("real change missing id: %q", tok)
		}
		i, ok := d.ids[string(fields[1])]
		if !ok {
			return fmt.Errorf("unknown id %q", fields[1])
		}
		v, err := strconv.ParseFloat(string(tok[1:]), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bad real value %q", tok)
		}
		return d.emit(&d.holds[i], now, v)
	}
	return fmt.Errorf("unrecognised value change %q", tok)
}

// emitStep records a digital change: the previous value is held right up
// to the change instant.
func (d *Decoder) emitStep(st *holdState, now, v float64) error {
	if st.has && st.v != v && st.t < now {
		if err := d.emit(st, now, st.v); err != nil {
			return err
		}
	}
	return d.emit(st, now, v)
}

func (d *Decoder) emit(st *holdState, t, v float64) error {
	if err := d.sink.Change(st.h, t, v); err != nil {
		return err
	}
	st.t, st.v, st.has = t, v, true
	return nil
}

func scalarValue(c byte) float64 {
	if c == '1' {
		return 1
	}
	return 0 // 0, x, z all resolve low
}
