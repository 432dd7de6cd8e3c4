package spo

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSpecExample1(t *testing.T) {
	text := `
# paper Example 1
n1 = (V_{INA}, 1, riseStep, None)
n2 = (V_{OUTA}, 1, riseRamp, 90%)
n3 = (V_{INA}, 2, fallStep, None)
n4 = (V_{OUTA}, 2, fallRamp, 10%)
e1 = (n1, t_{D(on)}, n2)
e2 = (n3, t_{D(off)}, n4)
`
	p, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 4 || len(p.Constraints) != 2 {
		t.Fatalf("parsed %d nodes, %d constraints", len(p.Nodes), len(p.Constraints))
	}
	want := example1(t)
	if !p.TotalEqual(want) {
		t.Errorf("parsed SPO differs:\n%s", p.SpecText())
	}
}

func TestParseSpecSubscriptCommas(t *testing.T) {
	// The delay label contains markup with parentheses; fields must not
	// split inside them.
	text := "n1 = (A, 1, riseStep, None)\nn2 = (B, 1, fallStep, None)\ne1 = (n1, t_{D(on)}, n2)\n"
	p, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Constraints[0].Delay != "t_{D(on)}" {
		t.Errorf("delay = %q", p.Constraints[0].Delay)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"no equals", "n1 (A, 1, riseStep, None)"},
		{"no tuple", "n1 = A, 1, riseStep, None"},
		{"bad field count node", "n1 = (A, 1, riseStep)"},
		{"bad edge index", "n1 = (A, x, riseStep, None)"},
		{"bad edge type", "n1 = (A, 1, wiggle, None)"},
		{"duplicate node", "n1 = (A, 1, riseStep, None)\nn1 = (B, 1, riseStep, None)"},
		{"unknown src", "n1 = (A, 1, riseStep, None)\ne1 = (n9, t, n1)"},
		{"unknown dst", "n1 = (A, 1, riseStep, None)\ne1 = (n1, t, n9)"},
		{"bad name", "x1 = (A, 1, riseStep, None)"},
		{"bad constraint arity", "n1 = (A, 1, riseStep, None)\ne1 = (n1, n1)"},
		{"self loop", "n1 = (A, 1, riseStep, None)\ne1 = (n1, t, n1)"},
		{"unbalanced", "n1 = (A, 1, riseStep, None(}"},
		{"cycle", "n1 = (A, 1, riseStep, None)\nn2 = (B, 1, riseStep, None)\ne1 = (n1, t, n2)\ne2 = (n2, t, n1)"},
	}
	for _, c := range cases {
		if _, err := ParseSpec(c.text); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestSpecTextRoundtripProperty: SpecText followed by ParseSpec reproduces
// the SPO exactly on random DAGs.
func TestSpecTextRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 1+rng.Intn(8))
		// Give nodes realistic attributes.
		for i := range p.Nodes {
			p.Nodes[i].Signal = []string{"V_{INA}", "SCK", "X", "t_{odd}"}[rng.Intn(4)]
			if !p.Nodes[i].Type.IsStep() {
				p.Nodes[i].Threshold = []string{"90%", "50%", "10%"}[rng.Intn(3)]
			}
		}
		for i := range p.Constraints {
			p.Constraints[i].Delay = []string{"t_{D(on)}", "t_{s}", "6ns"}[rng.Intn(3)]
		}
		got, err := ParseSpec(p.SpecText())
		if err != nil {
			return false
		}
		return got.TotalEqual(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParseSpecEmpty(t *testing.T) {
	p, err := ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 0 {
		t.Error("empty text produced nodes")
	}
}

func TestSplitSpecLine(t *testing.T) {
	name, fields, err := splitSpecLine("e1 = (n1, t_{D(on)}, n2)")
	if err != nil || name != "e1" || len(fields) != 3 || fields[1] != "t_{D(on)}" {
		t.Errorf("split = %q %v %v", name, fields, err)
	}
	if !strings.HasPrefix(fields[0], "n") {
		t.Error("field order wrong")
	}
}

// FuzzParseSpec feeds arbitrary text to ParseSpec, the parser behind the
// public tdmagic.ParseSpec. It must not panic, and the SpecText of any
// spec it accepts must parse again to a spec with the same SpecText.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"n1 = (V_{INA}, 1, riseStep, None)\nn2 = (V_{OUTA}, 1, riseRamp, 90%)\ne1 = (n1, t_{D(on)}, n2)\n",
		"# comment\nn1 = (A, 1, riseStep, None)\nn2 = (B, 1, fallStep, None)\ne1 = (n1, t_{D(on)}, n2)\n",
		"n1 = (A, 1, riseStep, None)\ne1 = (n1, t, n1)",
		"n1 = (A, 1, riseStep, None(}",
		"n2 = (B, 1, fallRamp, 10%)\nn1 = (A, 2, riseRamp, 50%)\ne1 = (n2, 6ns, n1)\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParseSpec(text)
		if err != nil {
			return
		}
		spec := p.SpecText()
		back, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("accepted %q, refused its SpecText %q: %v", text, spec, err)
		}
		if again := back.SpecText(); again != spec {
			t.Fatalf("accepted %q: SpecText %q re-parses to %q", text, spec, again)
		}
	})
}
