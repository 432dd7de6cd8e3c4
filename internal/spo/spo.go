// Package spo implements the formal-specification core of TD-Magic: the
// strict partial order (SPO) over timing-diagram events from Definition 1 of
// the paper.
//
// A node n = (sn, ei, et, th) is an event: the signal name sn, the index ei
// of the edge within that signal, the edge type et, and the threshold th at
// which the event fires ("None" for step edges). Nodes are indexed by their
// global left-to-right occurrence in the diagram. An edge e = (src, td, dst)
// is a timing constraint: the delay td separates the source and destination
// events. The SPO is the transitive closure of the edge relation; it is a
// valid strict partial order exactly when the constraint graph is a DAG with
// no self-loops.
package spo

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// EdgeType classifies a signal edge (paper Sec. III).
type EdgeType int

// The five edge types of the paper: step edges on digital signals, ramp
// edges on analog signals, and the double (ramp-up-then-down crossing) edge.
const (
	RiseStep EdgeType = iota
	FallStep
	RiseRamp
	FallRamp
	Double
	NumEdgeTypes = 5
)

// String returns the paper's long form (riseStep, fallStep, ...).
func (t EdgeType) String() string {
	switch t {
	case RiseStep:
		return "riseStep"
	case FallStep:
		return "fallStep"
	case RiseRamp:
		return "riseRamp"
	case FallRamp:
		return "fallRamp"
	case Double:
		return "double"
	default:
		return fmt.Sprintf("EdgeType(%d)", int(t))
	}
}

// ParseEdgeType converts a long or short edge-type name back to the enum.
func ParseEdgeType(s string) (EdgeType, error) {
	switch s {
	case "riseStep", "rS":
		return RiseStep, nil
	case "fallStep", "fS":
		return FallStep, nil
	case "riseRamp", "rR":
		return RiseRamp, nil
	case "fallRamp", "fR":
		return FallRamp, nil
	case "double", "dbl":
		return Double, nil
	}
	return 0, fmt.Errorf("spo: unknown edge type %q", s)
}

// IsRise reports whether the edge increases the signal value.
func (t EdgeType) IsRise() bool { return t == RiseStep || t == RiseRamp }

// IsStep reports whether the edge is instantaneous (digital).
func (t EdgeType) IsStep() bool { return t == RiseStep || t == FallStep }

// NoThreshold is the threshold value of step-edge events.
const NoThreshold = "None"

// Node is an SPO event.
type Node struct {
	Signal    string   // signal name (sn)
	EdgeIndex int      // 1-based index of the edge within its signal (ei)
	Type      EdgeType // edge type (et)
	Threshold string   // crossing threshold, e.g. "90%"; NoThreshold for steps
}

func (n Node) String() string {
	th := n.Threshold
	if th == "" {
		th = NoThreshold
	}
	return fmt.Sprintf("(%s, %d, %s, %s)", n.Signal, n.EdgeIndex, n.Type, th)
}

// Constraint is a timing-annotated order edge between two events, referred
// to by their global node indices.
type Constraint struct {
	Src   int    // index into SPO.Nodes
	Dst   int    // index into SPO.Nodes
	Delay string // timing parameter, e.g. "t_{D(on)}"
}

// NodeProv ties one SPO node back to the detector evidence it was read
// from: indices into the translation report's detection lists (SED edge
// boxes, LAD vertical/horizontal contours, OCR texts). -1 means no
// evidence of that kind contributed — e.g. a node whose vertical line
// carried no edge box. The indices resolve to pixel rectangles through
// core.ResolveProvenance, which is what lets a consumer highlight, for
// any event in the formal specification, the exact ink that produced it.
type NodeProv struct {
	// EdgeBox indexes the SED detection list (the event's edge box).
	EdgeBox int `json:"edge_box"`
	// VLine indexes the LAD vertical contours (the event annotation line).
	VLine int `json:"vline"`
	// HLine indexes the LAD horizontal contours (the threshold line FINDHLINE
	// matched; -1 for step events, which use the box centre).
	HLine int `json:"hline"`
	// NameText indexes the OCR results (the signal-name text).
	NameText int `json:"name_text"`
	// ThresholdText indexes the OCR results (the threshold-value text).
	ThresholdText int `json:"threshold_text"`
}

// ConstraintProv ties one timing constraint back to its evidence: the
// arrow shaft contour(s), the two vertical lines it measures between,
// and the delay-label text. Same index/-1 conventions as NodeProv.
type ConstraintProv struct {
	// SrcVLine / DstVLine index the LAD vertical contours anchoring the
	// arrow's endpoints (source = left).
	SrcVLine int `json:"src_vline"`
	DstVLine int `json:"dst_vline"`
	// HLines indexes the LAD horizontal contours forming the shaft — one
	// entry for a plain arrow, two for the outward-arrow idiom.
	HLines []int `json:"hlines,omitempty"`
	// LabelText indexes the OCR results (the timing-parameter text).
	LabelText int `json:"label_text"`
}

// SPO is a strict partial order over timing-diagram events, represented as
// the DAG of its covering timing constraints. Nodes are ordered by global
// left-to-right occurrence in the diagram.
//
// The provenance slices, when present, run parallel to Nodes and
// Constraints (NodeProv[i] is node i's evidence). They are populated by
// the SEI interpreter; specifications built by hand or parsed from text
// have none. Structural and textual equality (TemplateEqual, TotalEqual)
// deliberately ignore provenance — where a fact was read from does not
// change the fact.
type SPO struct {
	Nodes       []Node
	Constraints []Constraint

	NodeProv       []NodeProv       `json:"node_prov,omitempty"`
	ConstraintProv []ConstraintProv `json:"constraint_prov,omitempty"`
}

// AddNode appends an event and returns its index.
func (p *SPO) AddNode(n Node) int {
	if n.Threshold == "" {
		n.Threshold = NoThreshold
	}
	p.Nodes = append(p.Nodes, n)
	return len(p.Nodes) - 1
}

// AddConstraint appends a timing constraint between existing nodes.
func (p *SPO) AddConstraint(src, dst int, delay string) error {
	if src < 0 || src >= len(p.Nodes) || dst < 0 || dst >= len(p.Nodes) {
		return fmt.Errorf("spo: constraint (%d,%d) references missing node", src, dst)
	}
	p.Constraints = append(p.Constraints, Constraint{Src: src, Dst: dst, Delay: delay})
	return nil
}

// Validate checks that the constraint graph induces a strict partial order:
// node references are in range, there are no self-loops (irreflexivity) and
// no cycles (which guarantees asymmetry and a consistent transitive
// closure).
func (p *SPO) Validate() error {
	for _, c := range p.Constraints {
		if c.Src < 0 || c.Src >= len(p.Nodes) || c.Dst < 0 || c.Dst >= len(p.Nodes) {
			return fmt.Errorf("spo: constraint references node out of range: %+v", c)
		}
		if c.Src == c.Dst {
			return fmt.Errorf("spo: self-loop on node %d violates irreflexivity", c.Src)
		}
	}
	if _, err := p.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// ErrCyclic is returned when the constraint graph contains a cycle.
var ErrCyclic = errors.New("spo: constraint graph is cyclic")

// TopoOrder returns a topological order of the nodes (isolated nodes
// included, ties broken by node index) or ErrCyclic.
func (p *SPO) TopoOrder() ([]int, error) {
	n := len(p.Nodes)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, c := range p.Constraints {
		if c.Src < 0 || c.Src >= n || c.Dst < 0 || c.Dst >= n {
			return nil, fmt.Errorf("spo: constraint out of range: %+v", c)
		}
		adj[c.Src] = append(adj[c.Src], c.Dst)
		indeg[c.Dst]++
	}
	// Min-index-first queue for determinism.
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	var order []int
	for len(queue) > 0 {
		sort.Ints(queue)
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

// Less reports whether event i precedes event j in the strict partial order,
// i.e. whether j is reachable from i through one or more constraints.
func (p *SPO) Less(i, j int) bool {
	if i == j || i < 0 || j < 0 || i >= len(p.Nodes) || j >= len(p.Nodes) {
		return false
	}
	adj := make([][]int, len(p.Nodes))
	for _, c := range p.Constraints {
		adj[c.Src] = append(adj[c.Src], c.Dst)
	}
	seen := make([]bool, len(p.Nodes))
	stack := []int{i}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if w == j {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// SpecText renders the SPO in the paper's textual style (Example 1/2):
// one "nK = (...)" line per node followed by one "eK = (nI, td, nJ)" line
// per constraint, constraints listed in DFS order from the sources of the
// DAG (the paper: "the formal specification of a TD can be extracted through
// a depth-first search from its DAG").
func (p *SPO) SpecText() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		fmt.Fprintf(&b, "n%d = %s\n", i+1, n)
	}
	for k, c := range p.dfsConstraints() {
		fmt.Fprintf(&b, "e%d = (n%d, %s, n%d)\n", k+1, c.Src+1, c.Delay, c.Dst+1)
	}
	return b.String()
}

// dfsConstraints orders constraints by a depth-first search from the roots.
func (p *SPO) dfsConstraints() []Constraint {
	n := len(p.Nodes)
	out := make([][]Constraint, n)
	indeg := make([]int, n)
	for _, c := range p.Constraints {
		if c.Src < 0 || c.Src >= n || c.Dst < 0 || c.Dst >= n {
			continue
		}
		out[c.Src] = append(out[c.Src], c)
		indeg[c.Dst]++
	}
	for i := range out {
		sort.Slice(out[i], func(a, b int) bool { return out[i][a].Dst < out[i][b].Dst })
	}
	var order []Constraint
	visited := make(map[Constraint]bool, len(p.Constraints))
	var dfs func(v int)
	dfs = func(v int) {
		for _, c := range out[v] {
			if visited[c] {
				continue
			}
			visited[c] = true
			order = append(order, c)
			dfs(c.Dst)
		}
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			dfs(i)
		}
	}
	// Any constraints unreachable from a root (possible only in cyclic
	// graphs) are appended in declaration order.
	for _, c := range p.Constraints {
		if !visited[c] {
			visited[c] = true
			order = append(order, c)
		}
	}
	return order
}

// DOT renders the SPO as a Graphviz digraph (Fig. 3 of the paper).
func (p *SPO) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", name)
	for i, n := range p.Nodes {
		fmt.Fprintf(&b, "  n%d [label=\"%s\"];\n", i+1, n)
	}
	for _, c := range p.Constraints {
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", c.Src+1, c.Dst+1, c.Delay)
	}
	b.WriteString("}\n")
	return b.String()
}

// normalizedConstraints returns the constraint set sorted for comparison.
func (p *SPO) normalizedConstraints() []Constraint {
	cs := append([]Constraint(nil), p.Constraints...)
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Src != cs[j].Src {
			return cs[i].Src < cs[j].Src
		}
		if cs[i].Dst != cs[j].Dst {
			return cs[i].Dst < cs[j].Dst
		}
		return cs[i].Delay < cs[j].Delay
	})
	return cs
}

// TemplateEqual reports whether p and q agree at the paper's "template
// level": same events in the same global order with the same edge types and
// edge indices, and the same constraint structure — ignoring all recognised
// text (signal names, thresholds, delay labels). This is the 76.7% metric of
// Sec. VI.3.
func (p *SPO) TemplateEqual(q *SPO) bool {
	if len(p.Nodes) != len(q.Nodes) || len(p.Constraints) != len(q.Constraints) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i].Type != q.Nodes[i].Type || p.Nodes[i].EdgeIndex != q.Nodes[i].EdgeIndex {
			return false
		}
	}
	pc, qc := p.normalizedConstraints(), q.normalizedConstraints()
	for i := range pc {
		if pc[i].Src != qc[i].Src || pc[i].Dst != qc[i].Dst {
			return false
		}
	}
	return true
}

// TotalEqual reports whether p and q agree at both the structural and
// textual level: TemplateEqual plus equal signal names, thresholds, and
// delay labels. This is the 50.0% metric of Sec. VI.3.
func (p *SPO) TotalEqual(q *SPO) bool {
	if !p.TemplateEqual(q) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i].Signal != q.Nodes[i].Signal || p.Nodes[i].Threshold != q.Nodes[i].Threshold {
			return false
		}
	}
	pc, qc := p.normalizedConstraints(), q.normalizedConstraints()
	for i := range pc {
		if pc[i].Delay != qc[i].Delay {
			return false
		}
	}
	return true
}

// ConstraintRecall returns the fraction of q's constraints that appear in p
// structurally (by src/dst index), a partial-credit score for the "partially
// extract their SPOs" cases of Sec. VI.3. q is the ground truth.
func (p *SPO) ConstraintRecall(q *SPO) float64 {
	if len(q.Constraints) == 0 {
		return 1
	}
	type key struct{ s, d int }
	have := map[key]int{}
	for _, c := range p.Constraints {
		have[key{c.Src, c.Dst}]++
	}
	hit := 0
	for _, c := range q.Constraints {
		k := key{c.Src, c.Dst}
		if have[k] > 0 {
			have[k]--
			hit++
		}
	}
	return float64(hit) / float64(len(q.Constraints))
}
