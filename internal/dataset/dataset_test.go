package dataset

import (
	"testing"

	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/spo"
)

func mkSample(name string) *Sample {
	img := imgproc.NewGray(40, 30)
	img.Set(5, 5, 0)
	truth := &spo.SPO{}
	a := truth.AddNode(spo.Node{Signal: "X", EdgeIndex: 1, Type: spo.RiseStep})
	b := truth.AddNode(spo.Node{Signal: "Y", EdgeIndex: 1, Type: spo.RiseRamp, Threshold: "90%"})
	_ = truth.AddConstraint(a, b, "t_{1}")
	return &Sample{
		Name:   name,
		Image:  img,
		Edges:  []EdgeBox{{Box: geom.Rect{X0: 1, Y0: 2, X1: 5, Y1: 9}, Type: spo.RiseStep, Signal: 0}},
		Texts:  []TextBox{{Box: geom.Rect{X0: 0, Y0: 0, X1: 9, Y1: 5}, Text: "t_{1}", Role: RoleTimeConstraint}},
		VLines: []geom.VSeg{{X: 3, Y0: 2, Y1: 20}},
		HLines: []geom.HSeg{{Y: 6, X0: 0, X1: 12}},
		Arrows: []Arrow{{Y: 15, X0: 3, X1: 30, Label: "t_{1}"}},
		Truth:  truth,
	}
}

func TestTextRoleString(t *testing.T) {
	if RoleSignalName.String() != "Signal Name" ||
		RoleSignalValue.String() != "Signal Value" ||
		RoleTimeConstraint.String() != "Time Constraint" {
		t.Error("role names wrong")
	}
	if TextRole(9).String() == "" {
		t.Error("unknown role empty")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mkSample("test-01")
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, "test-01")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name {
		t.Error("name lost")
	}
	if got.Image.W != 40 || got.Image.At(5, 5) != 0 {
		t.Error("image lost")
	}
	if len(got.Edges) != 1 || got.Edges[0] != s.Edges[0] {
		t.Error("edges lost")
	}
	if len(got.Texts) != 1 || got.Texts[0] != s.Texts[0] {
		t.Error("texts lost")
	}
	if len(got.VLines) != 1 || len(got.HLines) != 1 || len(got.Arrows) != 1 {
		t.Error("lines/arrows lost")
	}
	if !got.Truth.TotalEqual(s.Truth) {
		t.Error("SPO lost")
	}
}

func TestSaveRequiresName(t *testing.T) {
	s := mkSample("")
	if err := s.Save(t.TempDir()); err == nil {
		t.Error("nameless save accepted")
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(t.TempDir(), "nope"); err == nil {
		t.Error("missing sample loaded")
	}
}

func TestCountEdgeTypes(t *testing.T) {
	s := mkSample("a")
	s.Edges = append(s.Edges, EdgeBox{Type: spo.FallRamp}, EdgeBox{Type: spo.RiseStep})
	counts := CountEdgeTypes([]*Sample{s})
	if counts[spo.RiseStep] != 2 || counts[spo.FallRamp] != 1 {
		t.Errorf("counts = %v", counts)
	}
}
