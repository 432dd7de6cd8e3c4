package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"tdmagic/internal/lad"
	"tdmagic/internal/nn"
	"tdmagic/internal/ocr"
	"tdmagic/internal/sed"
	"tdmagic/internal/sei"
)

// pipelineGob is the serialised form of a trained pipeline.
type pipelineGob struct {
	SEDNet       *nn.Net
	SEDCfg       sed.Config
	OCRModel     map[rune]*ocr.Template
	LADCfg       lad.Config
	OCRCfg       ocr.DetectConfig
	SEICfg       seiConfigGob
	NameLexicon  []string
	ValueLexicon []string
}

// seiConfigGob mirrors sei.Config without the lexicon pointer.
type seiConfigGob struct {
	Expand         int
	YTol           int
	FullSpanFrac   float64
	TopTol         int
	OutwardMaxTail int
}

// Save writes the trained pipeline in gob format.
func (p *Pipeline) Save(w io.Writer) error {
	g := pipelineGob{
		SEDNet:   p.SED.Net,
		SEDCfg:   p.SED.Cfg,
		OCRModel: p.OCR.Templates,
		LADCfg:   p.LADCfg,
		OCRCfg:   p.OCRCfg,
		SEICfg: seiConfigGob{
			Expand:         p.SEICfg.Expand,
			YTol:           p.SEICfg.YTol,
			FullSpanFrac:   p.SEICfg.FullSpanFrac,
			TopTol:         p.SEICfg.TopTol,
			OutwardMaxTail: p.SEICfg.OutwardMaxTail,
		},
	}
	if p.SEICfg.NameLexicon != nil {
		g.NameLexicon = p.SEICfg.NameLexicon.Entries
	}
	if p.SEICfg.ValueLexicon != nil {
		g.ValueLexicon = p.SEICfg.ValueLexicon.Entries
	}
	return gob.NewEncoder(w).Encode(g)
}

// Load reads a pipeline previously written by Save.
func Load(r io.Reader) (*Pipeline, error) {
	var g pipelineGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("core: load pipeline: %w", err)
	}
	if g.SEDNet == nil || len(g.OCRModel) == 0 {
		return nil, fmt.Errorf("core: load pipeline: missing models")
	}
	if err := checkShapes(&g); err != nil {
		return nil, fmt.Errorf("core: load pipeline: %w", err)
	}
	seiCfg := sei.Config{
		Expand:         g.SEICfg.Expand,
		YTol:           g.SEICfg.YTol,
		FullSpanFrac:   g.SEICfg.FullSpanFrac,
		TopTol:         g.SEICfg.TopTol,
		OutwardMaxTail: g.SEICfg.OutwardMaxTail,
	}
	if len(g.NameLexicon) > 0 {
		seiCfg.NameLexicon = ocr.NewLexicon(g.NameLexicon)
	}
	if len(g.ValueLexicon) > 0 {
		seiCfg.ValueLexicon = ocr.NewLexicon(g.ValueLexicon)
	}
	return &Pipeline{
		SED:    &sed.Model{Net: g.SEDNet, Cfg: g.SEDCfg},
		OCR:    &ocr.Model{Templates: g.OCRModel},
		LADCfg: g.LADCfg,
		OCRCfg: g.OCRCfg,
		SEICfg: seiCfg,
	}, nil
}

// checkShapes refuses an SED network whose layers do not match its own
// Sizes or the detector's feature and class counts, and an OCR template
// whose grid is not the recogniser's length: such a model would load and
// then find nothing without an error.
func checkShapes(g *pipelineGob) error {
	n := g.SEDNet
	if len(n.Sizes) < 2 {
		return fmt.Errorf("SED network has %d layer sizes, want at least 2", len(n.Sizes))
	}
	layers := len(n.Sizes) - 1
	if len(n.Weights) > layers || len(n.Biases) > layers {
		return fmt.Errorf("SED network has %d weight and %d bias layers for %d sizes",
			len(n.Weights), len(n.Biases), len(n.Sizes))
	}
	for l := 0; l < layers; l++ {
		in, out := n.Sizes[l], n.Sizes[l+1]
		if l >= len(n.Weights) || l >= len(n.Biases) || len(n.Weights[l]) != in*out || len(n.Biases[l]) != out {
			return fmt.Errorf("SED layer %d does not hold %d×%d weights and %d biases", l, out, in, out)
		}
	}
	if n.InputSize() != sed.FeatureSize || n.OutputSize() != sed.NumClasses {
		return fmt.Errorf("SED network maps %d features to %d classes, want %d to %d",
			n.InputSize(), n.OutputSize(), sed.FeatureSize, sed.NumClasses)
	}
	for r, t := range g.OCRModel {
		if t == nil || len(t.Grid) != ocr.GridLen {
			return fmt.Errorf("OCR template %q has no grid of %d values", r, ocr.GridLen)
		}
	}
	return nil
}

// SaveFile writes the pipeline to a file path.
func (p *Pipeline) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.Save(f)
}

// LoadFile reads a pipeline from a file path.
func LoadFile(path string) (*Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
