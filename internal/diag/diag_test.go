package diag

import (
	"encoding/json"
	"testing"

	"tdmagic/internal/geom"
)

func TestSeverityText(t *testing.T) {
	for sev, want := range map[Severity]string{Info: "info", Warning: "warning", Error: "error"} {
		if sev.String() != want {
			t.Errorf("%d.String() = %q, want %q", sev, sev.String(), want)
		}
		b, err := json.Marshal(sev)
		if err != nil || string(b) != `"`+want+`"` {
			t.Errorf("marshal %v = %s (%v)", sev, b, err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil || back != sev {
			t.Errorf("unmarshal %s = %v (%v), want %v", b, back, err, sev)
		}
	}
	var s Severity
	if err := s.UnmarshalText([]byte("catastrophic")); err == nil {
		t.Error("unknown severity accepted")
	}
}

func TestConstructors(t *testing.T) {
	d := New(StageOCR, Warning, "confidence %0.2f below floor", 0.25)
	if d.Stage != StageOCR || d.Severity != Warning || d.HasLocation {
		t.Errorf("New produced %+v", d)
	}
	if d.Message != "confidence 0.25 below floor" {
		t.Errorf("message = %q", d.Message)
	}
	loc := geom.Rect{X0: 1, Y0: 2, X1: 3, Y1: 4}
	a := At(StageSEI, Error, loc, "bad arrow")
	if !a.HasLocation || a.Location != loc {
		t.Errorf("At produced %+v", a)
	}
}
