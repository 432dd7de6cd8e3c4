package spo

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// example1 builds the SPO of the paper's Example 1 (Fig. 4 left).
func example1(t *testing.T) *SPO {
	t.Helper()
	p := &SPO{}
	n1 := p.AddNode(Node{Signal: "V_{INA}", EdgeIndex: 1, Type: RiseStep})
	n2 := p.AddNode(Node{Signal: "V_{OUTA}", EdgeIndex: 1, Type: RiseRamp, Threshold: "90%"})
	n3 := p.AddNode(Node{Signal: "V_{INA}", EdgeIndex: 2, Type: FallStep})
	n4 := p.AddNode(Node{Signal: "V_{OUTA}", EdgeIndex: 2, Type: FallRamp, Threshold: "10%"})
	if err := p.AddConstraint(n1, n2, "t_{D(on)}"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint(n3, n4, "t_{D(off)}"); err != nil {
		t.Fatal(err)
	}
	return p
}

// example2 builds the SPO of the paper's Example 2 (Fig. 4 right).
func example2(t *testing.T) *SPO {
	t.Helper()
	p := &SPO{}
	n1 := p.AddNode(Node{Signal: "SI", EdgeIndex: 1, Type: Double, Threshold: "50%"})
	n2 := p.AddNode(Node{Signal: "SCK", EdgeIndex: 1, Type: RiseRamp, Threshold: "50%"})
	n3 := p.AddNode(Node{Signal: "SI", EdgeIndex: 2, Type: Double, Threshold: "50%"})
	if err := p.AddConstraint(n1, n2, "t_{s}"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint(n2, n3, "t_{h}"); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEdgeTypeStrings(t *testing.T) {
	cases := []struct {
		et          EdgeType
		long, short string
	}{
		{RiseStep, "riseStep", "rS"},
		{FallStep, "fallStep", "fS"},
		{RiseRamp, "riseRamp", "rR"},
		{FallRamp, "fallRamp", "fR"},
		{Double, "double", "dbl"},
	}
	for _, c := range cases {
		if c.et.String() != c.long {
			t.Errorf("%v: %q", c.et, c.et.String())
		}
		if got, err := ParseEdgeType(c.long); err != nil || got != c.et {
			t.Errorf("ParseEdgeType(%q) = %v, %v", c.long, got, err)
		}
		if got, err := ParseEdgeType(c.short); err != nil || got != c.et {
			t.Errorf("ParseEdgeType(%q) = %v, %v", c.short, got, err)
		}
	}
	if _, err := ParseEdgeType("bogus"); err == nil {
		t.Error("bogus edge type parsed")
	}
	if !strings.Contains(EdgeType(99).String(), "99") {
		t.Error("unknown edge type formatting")
	}
}

func TestEdgeTypePredicates(t *testing.T) {
	if !RiseStep.IsRise() || !RiseRamp.IsRise() || FallStep.IsRise() || Double.IsRise() {
		t.Error("IsRise wrong")
	}
	if !RiseStep.IsStep() || !FallStep.IsStep() || RiseRamp.IsStep() || Double.IsStep() {
		t.Error("IsStep wrong")
	}
}

func TestNodeString(t *testing.T) {
	n := Node{Signal: "X", EdgeIndex: 1, Type: RiseStep}
	if got := n.String(); got != "(X, 1, riseStep, None)" {
		t.Errorf("Node.String = %q", got)
	}
	n2 := Node{Signal: "Y", EdgeIndex: 2, Type: FallRamp, Threshold: "10%"}
	if got := n2.String(); got != "(Y, 2, fallRamp, 10%)" {
		t.Errorf("Node.String = %q", got)
	}
}

func TestAddNodeDefaultsThreshold(t *testing.T) {
	p := &SPO{}
	i := p.AddNode(Node{Signal: "X", EdgeIndex: 1, Type: RiseStep})
	if p.Nodes[i].Threshold != NoThreshold {
		t.Error("empty threshold not defaulted")
	}
}

func TestAddConstraintRange(t *testing.T) {
	p := &SPO{}
	p.AddNode(Node{Signal: "X", EdgeIndex: 1, Type: RiseStep})
	if err := p.AddConstraint(0, 1, "t"); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if err := p.AddConstraint(-1, 0, "t"); err == nil {
		t.Error("negative src accepted")
	}
}

func TestValidateExamples(t *testing.T) {
	for _, p := range []*SPO{example1(t), example2(t)} {
		if err := p.Validate(); err != nil {
			t.Errorf("valid SPO rejected: %v", err)
		}
	}
}

func TestValidateSelfLoop(t *testing.T) {
	p := &SPO{}
	p.AddNode(Node{Signal: "X", EdgeIndex: 1, Type: RiseStep})
	p.Constraints = append(p.Constraints, Constraint{Src: 0, Dst: 0, Delay: "t"})
	if err := p.Validate(); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestValidateCycle(t *testing.T) {
	p := &SPO{}
	a := p.AddNode(Node{Signal: "X", EdgeIndex: 1, Type: RiseStep})
	b := p.AddNode(Node{Signal: "X", EdgeIndex: 2, Type: FallStep})
	c := p.AddNode(Node{Signal: "Y", EdgeIndex: 1, Type: RiseStep})
	_ = p.AddConstraint(a, b, "t1")
	_ = p.AddConstraint(b, c, "t2")
	_ = p.AddConstraint(c, a, "t3")
	err := p.Validate()
	if !errors.Is(err, ErrCyclic) {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestValidateOutOfRangeConstraint(t *testing.T) {
	p := &SPO{}
	p.AddNode(Node{Signal: "X", EdgeIndex: 1, Type: RiseStep})
	p.Constraints = append(p.Constraints, Constraint{Src: 0, Dst: 7, Delay: "t"})
	if err := p.Validate(); err == nil {
		t.Error("dangling constraint accepted")
	}
}

func TestTopoOrder(t *testing.T) {
	p := example2(t)
	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for _, c := range p.Constraints {
		if pos[c.Src] >= pos[c.Dst] {
			t.Errorf("topo order violates constraint %+v", c)
		}
	}
}

func TestTopoOrderIncludesIsolated(t *testing.T) {
	p := &SPO{}
	p.AddNode(Node{Signal: "X", EdgeIndex: 1, Type: RiseStep})
	p.AddNode(Node{Signal: "X", EdgeIndex: 2, Type: FallStep})
	order, err := p.TopoOrder()
	if err != nil || len(order) != 2 {
		t.Errorf("order = %v, err = %v", order, err)
	}
}

func TestLess(t *testing.T) {
	p := example2(t) // n0 -> n1 -> n2
	if !p.Less(0, 1) || !p.Less(1, 2) {
		t.Error("direct constraints not ordered")
	}
	if !p.Less(0, 2) {
		t.Error("transitivity broken")
	}
	if p.Less(2, 0) || p.Less(1, 0) {
		t.Error("asymmetry broken")
	}
	if p.Less(0, 0) {
		t.Error("irreflexivity broken")
	}
	if p.Less(-1, 0) || p.Less(0, 99) {
		t.Error("out-of-range Less true")
	}
	q := example1(t) // two disjoint chains
	if q.Less(0, 2) || q.Less(2, 0) {
		t.Error("events in parallel chains ordered")
	}
}

func TestSpecTextExample1(t *testing.T) {
	got := example1(t).SpecText()
	want := "n1 = (V_{INA}, 1, riseStep, None)\n" +
		"n2 = (V_{OUTA}, 1, riseRamp, 90%)\n" +
		"n3 = (V_{INA}, 2, fallStep, None)\n" +
		"n4 = (V_{OUTA}, 2, fallRamp, 10%)\n" +
		"e1 = (n1, t_{D(on)}, n2)\n" +
		"e2 = (n3, t_{D(off)}, n4)\n"
	if got != want {
		t.Errorf("SpecText:\n%s\nwant:\n%s", got, want)
	}
}

func TestSpecTextDFSOrder(t *testing.T) {
	// Chain with a branch: n0 -> n1, n0 -> n2, n1 -> n3.
	// DFS from n0 should emit (n0,n1), (n1,n3), (n0,n2).
	p := &SPO{}
	for i := 0; i < 4; i++ {
		p.AddNode(Node{Signal: "S", EdgeIndex: i + 1, Type: RiseStep})
	}
	_ = p.AddConstraint(0, 1, "a")
	_ = p.AddConstraint(0, 2, "b")
	_ = p.AddConstraint(1, 3, "c")
	text := p.SpecText()
	ia := strings.Index(text, "e1 = (n1, a, n2)")
	ib := strings.Index(text, "e2 = (n2, c, n4)")
	ic := strings.Index(text, "e3 = (n1, b, n3)")
	if ia < 0 || ib < 0 || ic < 0 || !(ia < ib && ib < ic) {
		t.Errorf("DFS constraint order wrong:\n%s", text)
	}
}

func TestDOT(t *testing.T) {
	d := example2(t).DOT("D")
	for _, want := range []string{"digraph", "n1 -> n2", "t_{s}", "n2 -> n3", "SCK"} {
		if !strings.Contains(d, want) {
			t.Errorf("DOT missing %q:\n%s", want, d)
		}
	}
}

func TestTemplateAndTotalEqual(t *testing.T) {
	p := example1(t)
	q := example1(t)
	if !p.TemplateEqual(q) || !q.TemplateEqual(p) {
		t.Error("identical SPOs not template-equal")
	}
	if !p.TotalEqual(q) {
		t.Error("identical SPOs not total-equal")
	}

	// OCR mistake only (paper: structurally correct, textually wrong):
	// threshold misread as 100%.
	r := example1(t)
	r.Nodes[3].Threshold = "100%"
	if !p.TemplateEqual(r) {
		t.Error("text mistake should preserve template equality")
	}
	if p.TotalEqual(r) {
		t.Error("text mistake should break total equality")
	}

	// Structural mistake: missing constraint.
	s := example1(t)
	s.Constraints = s.Constraints[:1]
	if p.TemplateEqual(s) {
		t.Error("missing constraint should break template equality")
	}

	// Structural mistake: wrong edge type.
	u := example1(t)
	u.Nodes[1].Type = RiseStep
	if p.TemplateEqual(u) {
		t.Error("edge-type mistake should break template equality")
	}

	// Wrong delay label only.
	v := example1(t)
	v.Constraints[0].Delay = "t_{X}"
	if !p.TemplateEqual(v) || p.TotalEqual(v) {
		t.Error("delay-label mistake handling wrong")
	}
}

func TestConstraintRecall(t *testing.T) {
	truth := example1(t)
	if got := truth.ConstraintRecall(truth); got != 1 {
		t.Errorf("self recall = %v", got)
	}
	partial := example1(t)
	partial.Constraints = partial.Constraints[:1]
	if got := partial.ConstraintRecall(truth); got != 0.5 {
		t.Errorf("partial recall = %v", got)
	}
	empty := &SPO{}
	if got := empty.ConstraintRecall(truth); got != 0 {
		t.Errorf("empty recall = %v", got)
	}
	if got := empty.ConstraintRecall(&SPO{}); got != 1 {
		t.Errorf("empty-truth recall = %v", got)
	}
}

// randomDAG builds a random DAG whose edges always go from a lower to a
// higher node index, which guarantees acyclicity.
func randomDAG(rng *rand.Rand, n int) *SPO {
	p := &SPO{}
	for i := 0; i < n; i++ {
		p.AddNode(Node{Signal: "S", EdgeIndex: i + 1, Type: EdgeType(rng.Intn(NumEdgeTypes))})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				_ = p.AddConstraint(i, j, "t")
			}
		}
	}
	return p
}

// TestSPOPropertyStrictPartialOrder checks Definition 1 on random DAGs:
// Less is irreflexive, asymmetric and transitive.
func TestSPOPropertyStrictPartialOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 2+rng.Intn(7))
		if p.Validate() != nil {
			return false
		}
		n := len(p.Nodes)
		for i := 0; i < n; i++ {
			if p.Less(i, i) {
				return false // irreflexivity
			}
			for j := 0; j < n; j++ {
				if p.Less(i, j) && p.Less(j, i) {
					return false // asymmetry
				}
				for k := 0; k < n; k++ {
					if p.Less(i, j) && p.Less(j, k) && !p.Less(i, k) {
						return false // transitivity
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTopoOrderProperty checks that topological order respects every
// constraint on random DAGs.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 2+rng.Intn(8))
		order, err := p.TopoOrder()
		if err != nil || len(order) != len(p.Nodes) {
			return false
		}
		pos := make([]int, len(order))
		for i, v := range order {
			pos[v] = i
		}
		for _, c := range p.Constraints {
			if pos[c.Src] >= pos[c.Dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEqualityProperty: TemplateEqual and TotalEqual are reflexive and
// symmetric on random SPOs, and TotalEqual implies TemplateEqual.
func TestEqualityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 1+rng.Intn(6))
		q := randomDAG(rng, 1+rng.Intn(6))
		if !p.TemplateEqual(p) || !p.TotalEqual(p) {
			return false
		}
		if p.TemplateEqual(q) != q.TemplateEqual(p) {
			return false
		}
		if p.TotalEqual(q) && !p.TemplateEqual(q) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
