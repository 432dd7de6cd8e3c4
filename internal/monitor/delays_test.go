package monitor

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestDecodeDelaysForms pins the two accepted forms of a delays document
// and the refusal of unknown keys in either.
func TestDecodeDelaysForms(t *testing.T) {
	want := &Spec{
		Delays:         map[string]Bounds{"t_{su}": {Min: 1, Max: 2}},
		MinSwingFrac:   0.3,
		ThresholdFracs: map[string]float64{"V_{IH}": 0.7},
	}
	got, err := DecodeDelays(strings.NewReader(`{"delays":{"t_{su}":{"min":1,"max":2}},"min_swing_frac":0.3,"threshold_fracs":{"V_{IH}":0.7}}`))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("document form: %+v %v, want %+v", got, err, want)
	}
	got, err = DecodeDelays(strings.NewReader(`{"t_{su}":{"min":1,"max":2}}`))
	if err != nil || !reflect.DeepEqual(got, &Spec{Delays: want.Delays}) {
		t.Errorf("bare form: %+v %v", got, err)
	}
	for _, doc := range []string{
		`{"delays":{},"min_swing":0.3}`,           // misspelled document key
		`{"delays":{"t":{"min":1,"maxx":2}}}`,     // unknown bound key, document form
		`{"t":{"min":1,"maxx":2}}`,                // unknown bound key, bare form
		`{"threshold_fracs":{"V":0.7},"t":{}}`,    // a bound beside document keys
		`{"t_{su}":{"min":1},"min_swing_frac":1}`, // likewise
		`[1,2]`, `"delays"`, `{`,
	} {
		if d, err := DecodeDelays(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted as %+v", doc, d)
		}
	}
}

// FuzzDelays drives the delays decoder both verify surfaces share with
// arbitrary bytes: it must not panic, and a document it accepts must
// encode, decode and encode again to the same bytes, so the datasheet it
// read is the one any later reader of its encoding gets.
func FuzzDelays(f *testing.F) {
	for _, seed := range []string{
		`{"delays":{"t_{su}":{"min":1e-9,"max":2e-9}},"min_swing_frac":0.5,"threshold_fracs":{"V_{IH}":0.7}}`,
		`{"t_{PLH}":{"min":0.5},"t_{r}":{"min":0,"max":3}}`,
		`{"delays":null}`, `{"threshold_fracs":{}}`, `{}`, `null`,
		`{"delays":{"a":{"min":-0}}} trailing`, `{"Delays":{}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelays(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted %q but cannot encode %+v: %v", data, d, err)
		}
		back, err := DecodeDelays(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("accepted %q, refused its encoding %s: %v", data, enc, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, enc) {
			t.Fatalf("accepted %q: encoding %s decodes and encodes to %s", data, enc, again)
		}
	})
}
