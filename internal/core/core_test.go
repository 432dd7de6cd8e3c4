package core

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"tdmagic/internal/dataset"
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/nn"
	"tdmagic/internal/ocr"
	"tdmagic/internal/sed"
	"tdmagic/internal/spo"
	"tdmagic/internal/tdgen"
)

// trainSmall trains a small pipeline once per test binary.
var smallPipe *Pipeline

func trainSmall(t *testing.T) (*Pipeline, []*dataset.Sample) {
	t.Helper()
	g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(300)))
	val, err := g.GenerateN(6)
	if err != nil {
		t.Fatal(err)
	}
	if smallPipe != nil {
		return smallPipe, val
	}
	gt := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(100)))
	train, err := gt.GenerateN(40)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Train(rand.New(rand.NewSource(1)), train, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	smallPipe = pipe
	return pipe, val
}

func TestTrainRequiresSamples(t *testing.T) {
	if _, err := Train(rand.New(rand.NewSource(1)), nil, DefaultTrainConfig()); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestTranslateEndToEnd(t *testing.T) {
	pipe, val := trainSmall(t)
	okTemplate := 0
	for _, s := range val {
		got, rep, err := pipe.Translate(s.Image)
		if err != nil {
			t.Logf("%s: %v", s.Name, err)
			continue
		}
		if rep == nil || rep.Lines == nil {
			t.Fatal("report missing")
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: emitted invalid SPO: %v", s.Name, err)
		}
		if got.TemplateEqual(s.Truth) {
			okTemplate++
		}
	}
	if okTemplate < 4 {
		t.Errorf("template-level success %d/6 on synthetic validation", okTemplate)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	pipe, val := trainSmall(t)
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same translation result on a sample.
	s := val[0]
	a, _, errA := pipe.Translate(s.Image)
	b, _, errB := loaded.Translate(s.Image)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error mismatch: %v vs %v", errA, errB)
	}
	if errA == nil && !a.TotalEqual(b) {
		t.Error("loaded pipeline translates differently")
	}
}

func TestSaveLoadLexicon(t *testing.T) {
	g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(100)))
	train, err := g.GenerateN(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.SEDTrain.Epochs = 2
	cfg.NameLexicon = []string{"CLK", "EN"}
	pipe, err := Train(rand.New(rand.NewSource(1)), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SEICfg.NameLexicon == nil || len(loaded.SEICfg.NameLexicon.Entries) != 2 {
		t.Error("lexicon not round-tripped")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk accepted")
	}
}

// TestLoadRefusesMisshapedModel pins core.Load's shape check: a model file
// whose SED network does not match its own Sizes, the detector's features
// or its classes, or whose OCR templates are not grids of the recogniser's
// length, is refused with an error naming what is wrong.
func TestLoadRefusesMisshapedModel(t *testing.T) {
	pipe, _ := trainSmall(t)
	var saved bytes.Buffer
	if err := pipe.Save(&saved); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name, want string
		mutate     func(p *Pipeline)
	}{
		{"last weight layer dropped", "SED layer 1", func(p *Pipeline) {
			p.SED.Net.Weights = p.SED.Net.Weights[:len(p.SED.Net.Weights)-1]
		}},
		{"short bias layer", "SED layer 0", func(p *Pipeline) { p.SED.Net.Biases[0] = p.SED.Net.Biases[0][1:] }},
		{"extra layer", "2 weight", func(p *Pipeline) { p.SED.Net.Sizes = p.SED.Net.Sizes[:2] }},
		{"input width", "features", func(p *Pipeline) { p.SED.Net = nn.NewNet(rng, sed.FeatureSize+1, 4, sed.NumClasses) }},
		{"output width", "classes", func(p *Pipeline) { p.SED.Net = nn.NewNet(rng, sed.FeatureSize, 4, sed.NumClasses-1) }},
		{"OCR grid", "OCR template", func(p *Pipeline) {
			for _, tpl := range p.OCR.Templates {
				tpl.Grid = tpl.Grid[1:]
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := Load(bytes.NewReader(saved.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			c.mutate(p)
			var buf bytes.Buffer
			if err := p.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Load = %v, want an error naming %q", err, c.want)
			}
		})
	}
}

func TestSaveLoadFile(t *testing.T) {
	pipe, _ := trainSmall(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := pipe.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRenderOverlay(t *testing.T) {
	pipe, val := trainSmall(t)
	s := val[0]
	_, rep, err := pipe.Translate(s.Image)
	if err != nil {
		t.Skip("translation failed on this sample")
	}
	overlay := RenderOverlay(s.Image, rep)
	if overlay.Rect.Dx() != s.Image.W || overlay.Rect.Dy() != s.Image.H {
		t.Fatalf("overlay size %v", overlay.Rect)
	}
	// Overlay must contain coloured pixels where detections were drawn.
	coloured := 0
	for y := 0; y < s.Image.H; y++ {
		for x := 0; x < s.Image.W; x++ {
			c := overlay.RGBAAt(x, y)
			if c.R != c.G || c.G != c.B {
				coloured++
			}
		}
	}
	if coloured == 0 {
		t.Error("overlay has no coloured annotation pixels")
	}
	// Nil report: plain grayscale copy, no panic.
	plain := RenderOverlay(s.Image, nil)
	if plain.RGBAAt(0, 0).A != 255 {
		t.Error("plain overlay alpha wrong")
	}
}

func TestTranslateAllMatchesSequential(t *testing.T) {
	pipe, val := trainSmall(t)
	imgs := make([]*imgproc.Gray, len(val))
	for i, s := range val {
		imgs[i] = s.Image
	}
	batch := pipe.TranslateAllCtx(context.Background(), imgs, BatchOptions{Workers: 3})
	if len(batch) != len(val) {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, r := range batch {
		seq, _, seqErr := pipe.Translate(imgs[i])
		if (r.Err == nil) != (seqErr == nil) {
			t.Errorf("sample %d: err mismatch %v vs %v", i, r.Err, seqErr)
			continue
		}
		if r.Err == nil && !r.SPO.TotalEqual(seq) {
			t.Errorf("sample %d: concurrent result differs from sequential", i)
		}
	}
	// Degenerate worker counts.
	if got := pipe.TranslateAllCtx(context.Background(), imgs[:1], BatchOptions{}); len(got) != 1 {
		t.Error("workers=0 wrong")
	}
	if got := pipe.TranslateAllCtx(context.Background(), nil, BatchOptions{Workers: 4}); len(got) != 0 {
		t.Error("empty batch wrong")
	}
}

func TestDropTextOverlaps(t *testing.T) {
	texts := []ocr.Result{
		{Box: geom.Rect{X0: 100, Y0: 100, X1: 130, Y1: 115}, Text: "CLK"},
	}
	dets := []sed.Detection{
		// High IoU with the text box: dropped.
		{Box: geom.Rect{X0: 101, Y0: 101, X1: 129, Y1: 114}, Type: spo.RiseRamp},
		// Inside the text box expanded by 2 px but low IoU: dropped.
		{Box: geom.Rect{X0: 124, Y0: 102, X1: 131, Y1: 112}, Type: spo.Double},
		// Far away: kept.
		{Box: geom.Rect{X0: 300, Y0: 100, X1: 320, Y1: 140}, Type: spo.FallStep},
		// Adjacent but outside the expanded box with negligible IoU: kept.
		{Box: geom.Rect{X0: 133, Y0: 100, X1: 160, Y1: 140}, Type: spo.RiseStep},
	}
	got := dropTextOverlaps(append([]sed.Detection(nil), dets...), texts)
	if len(got) != 2 {
		t.Fatalf("kept %d detections, want 2: %v", len(got), got)
	}
	if got[0].Type != spo.FallStep || got[1].Type != spo.RiseStep {
		t.Errorf("wrong detections kept: %v", got)
	}
	// Degenerate inputs pass through untouched.
	if out := dropTextOverlaps(nil, texts); len(out) != 0 {
		t.Error("nil dets not passed through")
	}
	keep := []sed.Detection{dets[0]}
	if out := dropTextOverlaps(keep, nil); len(out) != 1 {
		t.Error("no-text case must keep everything")
	}
}
