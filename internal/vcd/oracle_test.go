package vcd

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// oracleDecoder is the line decoder the byte decoder replaced, kept
// unchanged as the reference the tests compare Decoder against: it reads
// lines with bufio.Scanner and splits them with strings.Fields, a string
// and a slice per line.
type oracleDecoder struct {
	sink Sink
	cr   *countReader
	sc   *bufio.Scanner

	ids   map[string]int // var id code -> sink handle
	state map[int]*oracleHold
}

type oracleHold struct {
	t, v float64
	has  bool
}

func newOracleDecoder(r io.Reader, sink Sink) *oracleDecoder {
	cr := &countReader{r: r}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	return &oracleDecoder{
		sink:  sink,
		cr:    cr,
		sc:    sc,
		ids:   map[string]int{},
		state: map[int]*oracleHold{},
	}
}

func (d *oracleDecoder) Run() error {
	var scope []string
	now := 0.0
	scale := 1.0
	inDefs := true
	lineNo := 0

	for d.sc.Scan() {
		lineNo++
		line := strings.TrimSpace(d.sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case inDefs && fields[0] == "$timescale":
			// Either inline ("$timescale 1ns $end") or the value on the
			// next lines; gather tokens until $end.
			toks := fields[1:]
			for !contains(toks, "$end") && d.sc.Scan() {
				lineNo++
				toks = append(toks, strings.Fields(d.sc.Text())...)
			}
			s, err := parseTimescale(toks)
			if err != nil {
				return fmt.Errorf("vcd: line %d: %w", lineNo, err)
			}
			scale = s
		case inDefs && fields[0] == "$scope":
			if len(fields) >= 3 {
				scope = append(scope, fields[2])
			}
		case inDefs && fields[0] == "$upscope":
			if len(scope) > 0 {
				scope = scope[:len(scope)-1]
			}
		case inDefs && fields[0] == "$var":
			// $var <kind> <width> <id> <ref> [indices] $end
			if len(fields) < 5 {
				return fmt.Errorf("vcd: line %d: malformed $var", lineNo)
			}
			kind, width, id, name := fields[1], fields[2], fields[3], fields[4]
			if len(scope) > 0 {
				name = strings.Join(scope, ".") + "." + name
			}
			binary := kind != "real" && width == "1"
			h := d.sink.Declare(name, binary)
			d.ids[id] = h
			if d.state[h] == nil {
				d.state[h] = &oracleHold{}
			}
		case fields[0] == "$enddefinitions":
			inDefs = false
		case strings.HasPrefix(fields[0], "$"):
			// $comment/$date/$version/$dumpvars/$dumpall/$end...: skip.
		case strings.HasPrefix(fields[0], "#"):
			t, err := strconv.ParseFloat(fields[0][1:], 64)
			// ParseFloat accepts "NaN"/"Inf"; a non-finite or negative
			// timestamp would poison the trace's monotonicity check
			// (NaN compares false against everything), so reject here.
			if err != nil || math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
				return fmt.Errorf("vcd: line %d: bad timestamp %q", lineNo, fields[0])
			}
			nt := t * scale
			if nt < now {
				return fmt.Errorf("vcd: line %d: timestamp %q before previous time", lineNo, fields[0])
			}
			now = nt
		default:
			if err := d.valueChange(now, fields); err != nil {
				return fmt.Errorf("vcd: line %d: %w", lineNo, err)
			}
		}
	}
	if err := d.sc.Err(); err != nil {
		return err
	}
	return nil
}

func (d *oracleDecoder) valueChange(now float64, fields []string) error {
	tok := fields[0]
	switch tok[0] {
	case '0', '1', 'x', 'X', 'z', 'Z':
		// Scalar: value and id share the token ("1!").
		if len(tok) < 2 {
			return fmt.Errorf("malformed scalar change %q", tok)
		}
		h, ok := d.ids[tok[1:]]
		if !ok {
			return fmt.Errorf("unknown id %q", tok[1:])
		}
		return d.emitStep(h, now, scalarValue(tok[0]))
	case 'b', 'B':
		if len(fields) < 2 {
			return fmt.Errorf("vector change missing id: %q", tok)
		}
		h, ok := d.ids[fields[1]]
		if !ok {
			return fmt.Errorf("unknown id %q", fields[1])
		}
		v := 0.0
		for _, bit := range tok[1:] {
			v *= 2
			switch bit {
			case '1':
				v++
			case '0', 'x', 'X', 'z', 'Z':
				// x/z resolve low.
			default:
				return fmt.Errorf("invalid bit %q in vector change %q", bit, tok)
			}
		}
		return d.emitStep(h, now, v)
	case 'r', 'R':
		if len(fields) < 2 {
			return fmt.Errorf("real change missing id: %q", tok)
		}
		h, ok := d.ids[fields[1]]
		if !ok {
			return fmt.Errorf("unknown id %q", fields[1])
		}
		v, err := strconv.ParseFloat(tok[1:], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bad real value %q", tok)
		}
		return d.emit(h, now, v)
	}
	return fmt.Errorf("unrecognised value change %q", tok)
}

func (d *oracleDecoder) emitStep(h int, now, v float64) error {
	if st := d.state[h]; st.has && st.v != v && st.t < now {
		if err := d.emit(h, now, st.v); err != nil {
			return err
		}
	}
	return d.emit(h, now, v)
}

func (d *oracleDecoder) emit(h int, t, v float64) error {
	if err := d.sink.Change(h, t, v); err != nil {
		return err
	}
	st := d.state[h]
	st.t, st.v, st.has = t, v, true
	return nil
}
