package diagram

import (
	"strings"
	"testing"

	"tdmagic/internal/dataset"
	"tdmagic/internal/geom"
	"tdmagic/internal/spo"
)

// fig4Left builds a diagram modelled on the paper's Fig. 4 (left):
// digital V_INA pulse driving a ramping V_OUTA, with t_D(on) / t_D(off).
func fig4Left() *Diagram {
	return &Diagram{
		Name: "fig4-left",
		Signals: []Signal{
			{
				Name: "V_{INA}",
				Kind: Digital,
				Edges: []Edge{
					{Type: spo.RiseStep, X0: 0.10, X1: 0.16, YLow: 0.1, YHigh: 0.9, HasEvent: true},
					{Type: spo.FallStep, X0: 0.55, X1: 0.61, YLow: 0.1, YHigh: 0.9, HasEvent: true},
				},
			},
			{
				Name:      "V_{OUTA}",
				Kind:      Ramp,
				BoundHigh: "V_{CC}",
				BoundLow:  "GND",
				Edges: []Edge{
					{Type: spo.RiseRamp, X0: 0.20, X1: 0.38, YLow: 0.1, YHigh: 0.9,
						Threshold: 0.9, ThresholdText: "90%", HasEvent: true},
					{Type: spo.FallRamp, X0: 0.65, X1: 0.85, YLow: 0.1, YHigh: 0.9,
						Threshold: 0.1, ThresholdText: "10%", HasEvent: true},
				},
			},
		},
		Arrows: []Arrow{
			{From: EventRef{0, 0}, To: EventRef{1, 0}, Label: "t_{D(on)}", Y: 0.3},
			{From: EventRef{0, 1}, To: EventRef{1, 1}, Label: "t_{D(off)}", Y: 0.7},
		},
		Style: DefaultStyle(),
	}
}

// fig4Right builds a diagram modelled on the paper's Fig. 4 (right):
// SI bus with double edges and SCK setup/hold.
func fig4Right() *Diagram {
	return &Diagram{
		Name: "fig4-right",
		Signals: []Signal{
			{
				Name: "SI",
				Kind: DoubleRamp,
				Edges: []Edge{
					{Type: spo.Double, X0: 0.15, X1: 0.22, YLow: 0.15, YHigh: 0.85,
						Threshold: 0.5, ThresholdText: "50%", HasEvent: true},
					{Type: spo.Double, X0: 0.70, X1: 0.77, YLow: 0.15, YHigh: 0.85,
						Threshold: 0.5, ThresholdText: "50%", HasEvent: true},
				},
			},
			{
				Name: "SCK",
				Kind: Ramp,
				Edges: []Edge{
					{Type: spo.RiseRamp, X0: 0.42, X1: 0.50, YLow: 0.15, YHigh: 0.85,
						Threshold: 0.5, ThresholdText: "50%", HasEvent: true},
				},
			},
		},
		Arrows: []Arrow{
			{From: EventRef{0, 0}, To: EventRef{1, 0}, Label: "t_{s}", Y: 0.35},
			{From: EventRef{1, 0}, To: EventRef{0, 1}, Label: "t_{h}", Y: 0.65},
		},
		Style: DefaultStyle(),
	}
}

func TestSignalKindString(t *testing.T) {
	if Digital.String() != "digital" || Ramp.String() != "ramp" || DoubleRamp.String() != "double" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(SignalKind(9).String(), "9") {
		t.Error("unknown kind formatting")
	}
}

func TestValidate(t *testing.T) {
	if err := fig4Left().Validate(); err != nil {
		t.Errorf("valid diagram rejected: %v", err)
	}
	d := fig4Left()
	d.Signals[0].Edges[0].X1 = 0.05 // X0 >= X1
	if d.Validate() == nil {
		t.Error("bad x extent accepted")
	}
	d = fig4Left()
	d.Signals[0].Edges[1].X0 = 0.12 // overlaps first edge
	if d.Validate() == nil {
		t.Error("overlapping edges accepted")
	}
	d = fig4Left()
	d.Signals[0].Edges[0].YLow = 0.95
	if d.Validate() == nil {
		t.Error("inverted levels accepted")
	}
	d = fig4Left()
	d.Arrows[0].To = EventRef{5, 0}
	if d.Validate() == nil {
		t.Error("dangling arrow accepted")
	}
	d = fig4Left()
	d.Arrows[0].To = EventRef{1, 7}
	if d.Validate() == nil {
		t.Error("dangling edge ref accepted")
	}
	d = fig4Left()
	d.Signals[1].Edges[0].HasEvent = false
	if d.Validate() == nil {
		t.Error("arrow to event-less edge accepted")
	}
}

func TestRenderErrors(t *testing.T) {
	d := &Diagram{Style: DefaultStyle()}
	if _, err := d.Render(); err == nil {
		t.Error("empty diagram rendered")
	}
	d = fig4Left()
	d.Style.Width = 0
	if _, err := d.Render(); err == nil {
		t.Error("zero-size canvas rendered")
	}
	d = fig4Left()
	d.Style.Height = 60 // signals cannot fit
	if _, err := d.Render(); err == nil {
		t.Error("impossible layout rendered")
	}
}

func TestRenderFig4LeftGroundTruth(t *testing.T) {
	s, err := fig4Left().Render()
	if err != nil {
		t.Fatal(err)
	}
	if s.Image == nil || s.Image.W != 900 || s.Image.H != 540 {
		t.Fatal("image missing or wrong size")
	}
	if len(s.Edges) != 4 {
		t.Fatalf("edge boxes = %d, want 4", len(s.Edges))
	}
	types := map[spo.EdgeType]int{}
	for _, e := range s.Edges {
		types[e.Type]++
		if e.Box.Empty() {
			t.Error("empty edge box")
		}
	}
	if types[spo.RiseStep] != 1 || types[spo.FallStep] != 1 || types[spo.RiseRamp] != 1 || types[spo.FallRamp] != 1 {
		t.Errorf("edge types = %v", types)
	}
	if len(s.VLines) != 4 {
		t.Errorf("vlines = %d, want 4", len(s.VLines))
	}
	if len(s.HLines) != 2 {
		t.Errorf("hlines = %d, want 2 (two thresholds)", len(s.HLines))
	}
	if len(s.Arrows) != 2 {
		t.Errorf("arrows = %d, want 2", len(s.Arrows))
	}
	// Texts: 2 names + 2 boundaries + 2 thresholds + 2 constraints = 8.
	if len(s.Texts) != 8 {
		t.Errorf("texts = %d, want 8", len(s.Texts))
	}
	roles := map[dataset.TextRole]int{}
	for _, tb := range s.Texts {
		roles[tb.Role]++
	}
	if roles[dataset.RoleSignalName] != 2 || roles[dataset.RoleSignalValue] != 4 || roles[dataset.RoleTimeConstraint] != 2 {
		t.Errorf("text roles = %v", roles)
	}
}

func TestRenderFig4LeftSPO(t *testing.T) {
	s, err := fig4Left().Render()
	if err != nil {
		t.Fatal(err)
	}
	p := s.Truth
	if err := p.Validate(); err != nil {
		t.Fatalf("ground-truth SPO invalid: %v", err)
	}
	if len(p.Nodes) != 4 || len(p.Constraints) != 2 {
		t.Fatalf("SPO has %d nodes, %d constraints", len(p.Nodes), len(p.Constraints))
	}
	// Paper Example 1 ordering: V_INA rise, V_OUTA 90%, V_INA fall, V_OUTA 10%.
	want := []spo.Node{
		{Signal: "V_{INA}", EdgeIndex: 1, Type: spo.RiseStep, Threshold: "None"},
		{Signal: "V_{OUTA}", EdgeIndex: 1, Type: spo.RiseRamp, Threshold: "90%"},
		{Signal: "V_{INA}", EdgeIndex: 2, Type: spo.FallStep, Threshold: "None"},
		{Signal: "V_{OUTA}", EdgeIndex: 2, Type: spo.FallRamp, Threshold: "10%"},
	}
	for i, n := range want {
		if p.Nodes[i] != n {
			t.Errorf("node %d = %v, want %v", i, p.Nodes[i], n)
		}
	}
	if p.Constraints[0].Delay != "t_{D(on)}" && p.Constraints[1].Delay != "t_{D(on)}" {
		t.Error("t_{D(on)} constraint missing")
	}
}

func TestRenderFig4RightSPO(t *testing.T) {
	s, err := fig4Right().Render()
	if err != nil {
		t.Fatal(err)
	}
	p := s.Truth
	if len(p.Nodes) != 3 || len(p.Constraints) != 2 {
		t.Fatalf("SPO has %d nodes, %d constraints", len(p.Nodes), len(p.Constraints))
	}
	// Example 2: SI double, SCK rise, SI double — chain n1 -> n2 -> n3.
	if p.Nodes[0].Type != spo.Double || p.Nodes[1].Type != spo.RiseRamp || p.Nodes[2].Type != spo.Double {
		t.Errorf("node types: %v %v %v", p.Nodes[0].Type, p.Nodes[1].Type, p.Nodes[2].Type)
	}
	if !p.Less(0, 2) {
		t.Error("transitive order n1 < n3 missing")
	}
}

func TestRenderEventGeometry(t *testing.T) {
	s, err := fig4Left().Render()
	if err != nil {
		t.Fatal(err)
	}
	// Each vline must start inside the edge box of its event (the crossing
	// point) and extend below every arrow row it serves.
	for _, v := range s.VLines {
		inBox := false
		for _, e := range s.Edges {
			if v.X >= e.Box.X0 && v.X <= e.Box.X1 && v.Y0 >= e.Box.Y0-3 && v.Y0 <= e.Box.Y1+3 {
				inBox = true
			}
		}
		if !inBox {
			t.Errorf("vline at x=%d starts outside every edge box", v.X)
		}
	}
	// Arrows connect two vline columns.
	for _, a := range s.Arrows {
		found0, found1 := false, false
		for _, v := range s.VLines {
			if v.X == a.X0 {
				found0 = true
			}
			if v.X == a.X1 {
				found1 = true
			}
		}
		if !found0 || !found1 {
			t.Errorf("arrow %+v endpoints not on vlines", a)
		}
		if a.Y < s.VLines[0].Y0 {
			t.Error("arrow above the waveforms")
		}
	}
}

func TestRenderThresholdCrossing(t *testing.T) {
	s, err := fig4Left().Render()
	if err != nil {
		t.Fatal(err)
	}
	// The 90% hline must cross the riseRamp vline near its top (high
	// threshold), i.e. the crossing y is in the upper half of the ramp box.
	var rampBox geom.Rect
	for _, e := range s.Edges {
		if e.Type == spo.RiseRamp {
			rampBox = e.Box
		}
	}
	crossed := false
	for _, h := range s.HLines {
		for _, v := range s.VLines {
			if p, ok := geom.CrossPoint(h, v); ok && rampBox.Contains(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X, Y1: p.Y}) {
				if p.Y < rampBox.CenterY() {
					crossed = true
				}
			}
		}
	}
	if !crossed {
		t.Error("90% threshold crossing not in upper half of ramp box")
	}
}

func TestRenderInkMatchesLabels(t *testing.T) {
	s, err := fig4Left().Render()
	if err != nil {
		t.Fatal(err)
	}
	// Every labelled edge box must contain ink.
	for _, e := range s.Edges {
		ink := 0
		for y := e.Box.Y0; y <= e.Box.Y1; y++ {
			for x := e.Box.X0; x <= e.Box.X1; x++ {
				if s.Image.At(x, y) < 128 {
					ink++
				}
			}
		}
		if ink < e.Box.H() {
			t.Errorf("edge box %v nearly empty (%d ink px)", e.Box, ink)
		}
	}
	// Text boxes contain ink too.
	for _, tb := range s.Texts {
		ink := 0
		for y := tb.Box.Y0; y <= tb.Box.Y1; y++ {
			for x := tb.Box.X0; x <= tb.Box.X1; x++ {
				if s.Image.At(x, y) < 128 {
					ink++
				}
			}
		}
		if ink == 0 {
			t.Errorf("text box %q empty", tb.Text)
		}
	}
}

func TestRenderBusSignalRails(t *testing.T) {
	s, err := fig4Right().Render()
	if err != nil {
		t.Fatal(err)
	}
	// The SI band should have two horizontal rails: check ink at two rows
	// to the left of the first double edge.
	var si dataset.EdgeBox
	for _, e := range s.Edges {
		if e.Type == spo.Double {
			si = e
			break
		}
	}
	x := si.Box.X0 - 10
	top, bot := false, false
	for y := si.Box.Y0; y <= si.Box.Y1; y++ {
		if s.Image.At(x, y) < 128 {
			if y < si.Box.CenterY() {
				top = true
			} else {
				bot = true
			}
		}
	}
	if !top || !bot {
		t.Error("bus rails missing left of double edge")
	}
}

func TestRenderOptions(t *testing.T) {
	d := fig4Left()
	d.Style.ShowAxes = true
	d.Style.NoiseDots = 50
	d.Style.NoiseSeed = 7
	d.Style.SolidVLines = true
	s, err := d.Render()
	if err != nil {
		t.Fatal(err)
	}
	// Solid vlines: the column of the first vline should be fully inked
	// between Y0 and Y1.
	v := s.VLines[0]
	for y := v.Y0; y <= v.Y1; y++ {
		if s.Image.At(v.X, y) >= 128 {
			t.Errorf("solid vline broken at y=%d", y)
			break
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	a, err := fig4Left().Render()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fig4Left().Render()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Image.Pix {
		if a.Image.Pix[i] != b.Image.Pix[i] {
			t.Fatal("render not deterministic")
		}
	}
}

func TestRenderExtraThresholds(t *testing.T) {
	d := fig4Right()
	d.Signals[1].Edges[0].ExtraThresholds = []ThresholdMark{
		{Level: 0.3, Text: "1V"},
		{Level: 0.7, Text: "2V"},
	}
	s, err := d.Render()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.HLines) != 5 { // 3 event thresholds + 2 extra
		t.Errorf("hlines = %d, want 5", len(s.HLines))
	}
}

func TestStartEndLevel(t *testing.T) {
	rise := Edge{Type: spo.RiseRamp, YLow: 0.1, YHigh: 0.9}
	fall := Edge{Type: spo.FallStep, YLow: 0.2, YHigh: 0.8}
	if startLevel(rise) != 0.1 || endLevel(rise) != 0.9 {
		t.Error("rise levels wrong")
	}
	if startLevel(fall) != 0.8 || endLevel(fall) != 0.2 {
		t.Error("fall levels wrong")
	}
}
