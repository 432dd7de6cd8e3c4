package sei

import (
	"context"
	"math/rand"
	"testing"

	"tdmagic/internal/dataset"
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/lad"
	"tdmagic/internal/ocr"
	"tdmagic/internal/sed"
	"tdmagic/internal/tdgen"
)

// detectLines runs LAD on img binarised as the pipeline binarises it.
func detectLines(t *testing.T, img *imgproc.Gray) *lad.Result {
	t.Helper()
	bw, _ := lad.Binarize(img, lad.DefaultConfig())
	lines, err := lad.DetectBinaryCtx(context.Background(), bw, lad.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// oracleInput builds an SEI input from ground truth: true edge boxes, LAD
// contours from the rendered image, and true texts. This isolates SEI's
// semantic logic from detector noise.
func oracleInput(t *testing.T, s *dataset.Sample) Input {
	t.Helper()
	lines := detectLines(t, s.Image)
	var edges []sed.Detection
	for _, e := range s.Edges {
		edges = append(edges, sed.Detection{Box: e.Box, Type: e.Type, Score: 1})
	}
	var texts []ocr.Result
	for _, tb := range s.Texts {
		texts = append(texts, ocr.Result{Box: tb.Box, Text: tb.Text, Conf: 1})
	}
	return Input{Width: s.Image.W, Height: s.Image.H, Edges: edges, Lines: lines, Texts: texts}
}

func genSamples(t *testing.T, seed int64, n int) []*dataset.Sample {
	t.Helper()
	g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(seed)))
	samples, err := g.GenerateN(n)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestInterpretOracleTemplateLevel(t *testing.T) {
	samples := genSamples(t, 61, 10)
	okCount := 0
	for _, s := range samples {
		out, err := Interpret(oracleInput(t, s), DefaultConfig())
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if out.SPO.TemplateEqual(s.Truth) {
			okCount++
		} else {
			t.Logf("%s:\n got:\n%s want:\n%s", s.Name, out.SPO.SpecText(), s.Truth.SpecText())
		}
	}
	if okCount < 9 {
		t.Errorf("oracle template-level success %d/10, want >= 9", okCount)
	}
}

func TestInterpretOracleTotalLevel(t *testing.T) {
	samples := genSamples(t, 67, 10)
	okCount := 0
	for _, s := range samples {
		out, err := Interpret(oracleInput(t, s), DefaultConfig())
		if err != nil {
			continue
		}
		if out.SPO.TotalEqual(s.Truth) {
			okCount++
		} else if out.SPO.TemplateEqual(s.Truth) {
			t.Logf("%s texts differ:\n got:\n%s want:\n%s", s.Name, out.SPO.SpecText(), s.Truth.SpecText())
		}
	}
	// With oracle boxes and oracle texts, most extractions should be
	// totally correct.
	if okCount < 8 {
		t.Errorf("oracle total-level success %d/10, want >= 8", okCount)
	}
}

func TestInterpretArrowsMatchTruth(t *testing.T) {
	samples := genSamples(t, 71, 8)
	for _, s := range samples {
		out, err := Interpret(oracleInput(t, s), DefaultConfig())
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if len(out.Arrows) != len(s.Arrows) {
			t.Errorf("%s: %d arrows detected, want %d", s.Name, len(out.Arrows), len(s.Arrows))
			continue
		}
		for _, gt := range s.Arrows {
			found := false
			for _, a := range out.Arrows {
				if geom.Abs(a.Y-gt.Y) <= 3 && geom.Abs(a.X0-gt.X0) <= 3 && geom.Abs(a.X1-gt.X1) <= 3 {
					found = true
					if a.Label != gt.Label {
						t.Errorf("%s: arrow label %q, want %q", s.Name, a.Label, gt.Label)
					}
				}
			}
			if !found {
				t.Errorf("%s: arrow %+v not detected", s.Name, gt)
			}
		}
	}
}

func TestInterpretVHLineClassification(t *testing.T) {
	samples := genSamples(t, 73, 8)
	for _, s := range samples {
		out, err := Interpret(oracleInput(t, s), DefaultConfig())
		if err != nil {
			continue
		}
		// Every classified V-line matches some ground-truth vline column.
		for _, v := range out.VLines {
			ok := false
			for _, gt := range s.VLines {
				if geom.Abs(v.X-gt.X) <= 3 {
					ok = true
				}
			}
			if !ok {
				t.Errorf("%s: spurious V-line at x=%d", s.Name, v.X)
			}
		}
		// Every classified H-line matches a ground-truth threshold line.
		for _, h := range out.HLines {
			ok := false
			for _, gt := range s.HLines {
				if geom.Abs(h.Y-gt.Y) <= 3 {
					ok = true
				}
			}
			if !ok {
				t.Errorf("%s: spurious H-line at y=%d", s.Name, h.Y)
			}
		}
	}
}

func TestInterpretTextRoles(t *testing.T) {
	samples := genSamples(t, 79, 6)
	for _, s := range samples {
		out, err := Interpret(oracleInput(t, s), DefaultConfig())
		if err != nil {
			continue
		}
		byRole := map[dataset.TextRole]int{}
		for _, tb := range s.Texts {
			byRole[tb.Role]++
		}
		if len(out.Names) != byRole[dataset.RoleSignalName] {
			t.Errorf("%s: %d names classified, want %d", s.Name, len(out.Names), byRole[dataset.RoleSignalName])
		}
		if len(out.Constraints) != byRole[dataset.RoleTimeConstraint] {
			t.Errorf("%s: %d constraints classified, want %d", s.Name, len(out.Constraints), byRole[dataset.RoleTimeConstraint])
		}
	}
}

func TestInterpretEmptyInput(t *testing.T) {
	img := imgproc.NewGray(200, 200)
	lines := detectLines(t, img)
	out, err := Interpret(Input{Width: 200, Height: 200, Lines: lines}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.SPO.Nodes) != 0 || len(out.SPO.Constraints) != 0 {
		t.Error("empty image produced a non-empty SPO")
	}
}

func TestInterpretNameLexicon(t *testing.T) {
	samples := genSamples(t, 83, 3)
	s := samples[0]
	in := oracleInput(t, s)
	// Corrupt a signal-name text as OCR would.
	for i := range in.Texts {
		if in.Texts[i].Text == s.Truth.Nodes[0].Signal && len(in.Texts[i].Text) > 2 {
			r := []rune(in.Texts[i].Text)
			r[1] = '1'
			in.Texts[i].Text = string(r)
		}
	}
	cfg := DefaultConfig()
	cfg.NameLexicon = ocr.NewLexicon([]string{s.Truth.Nodes[0].Signal})
	out, err := Interpret(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range out.SPO.Nodes {
		if n.Signal == s.Truth.Nodes[0].Signal {
			found = true
		}
	}
	if !found {
		t.Error("lexicon did not repair the corrupted signal name")
	}
}

func TestOutwardArrowRecognition(t *testing.T) {
	// Build a sample with an outward arrow through the diagram package via
	// tdgen is not possible; craft one directly with the renderer instead.
	s := outwardSample(t)
	out, err := Interpret(oracleInput(t, s), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Arrows) != 1 {
		t.Fatalf("outward arrow not recognised: %d arrows", len(out.Arrows))
	}
	a := out.Arrows[0]
	if geom.Abs(a.X0-s.Arrows[0].X0) > 3 || geom.Abs(a.X1-s.Arrows[0].X1) > 3 {
		t.Errorf("outward arrow span [%d,%d], want [%d,%d]", a.X0, a.X1, s.Arrows[0].X0, s.Arrows[0].X1)
	}
}
