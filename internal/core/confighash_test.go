package core

import (
	"math/rand"
	"testing"

	"tdmagic/internal/lad"
	"tdmagic/internal/metrics"
	"tdmagic/internal/nn"
	"tdmagic/internal/ocr"
	"tdmagic/internal/sed"
	"tdmagic/internal/sei"
	"tdmagic/internal/store"
)

// hashPipe deterministically constructs a fully-populated pipeline, so two
// calls yield identical configuration and mutations can be applied to a
// fresh copy.
func hashPipe() *Pipeline {
	net := nn.NewNet(rand.New(rand.NewSource(7)), 6, 4, 2)
	return &Pipeline{
		SED: &sed.Model{
			Net: net,
			Cfg: sed.Config{
				MinPlateauRun:  3,
				MinHeight:      8,
				MinArea:        40,
				BridgeGap:      2,
				ScoreThreshold: 0.5,
				MaxProposals:   64,
			},
		},
		OCR: &ocr.Model{
			Templates: map[rune]*ocr.Template{
				'a': {Grid: []float64{0.1, 0.2, 0.3, 0.4}, Aspect: 0.8, Count: 3},
				'b': {Grid: []float64{0.5, 0.6, 0.7, 0.8}, Aspect: 1.1, Count: 2},
			},
		},
		LADCfg: lad.Config{Threshold: 128, VBridge: 2, VMinLen: 12, HBridge: 3, HMinLen: 14, MaxThick: 4},
		OCRCfg: ocr.DetectConfig{MinGlyphH: 5, MaxGlyphH: 40, JoinDX: 6, MinConf: 0.3},
		SEICfg: sei.Config{
			Expand:         2,
			YTol:           4,
			FullSpanFrac:   0.9,
			TopTol:         6,
			OutwardMaxTail: 10,
			NameLexicon:    &ocr.Lexicon{Entries: []string{"clk", "data"}, MaxRatio: 0.34},
			ValueLexicon:   &ocr.Lexicon{Entries: []string{"0x00"}, MaxRatio: 0.34},
		},
	}
}

// TestConfigHashKnobSensitivity flips every knob that can influence a
// translation's output, one at a time, and requires each flip to move the
// hash: a stale artifact must never answer for a changed configuration.
func TestConfigHashKnobSensitivity(t *testing.T) {
	base := hashPipe().ConfigHash()
	if hashPipe().ConfigHash() != base {
		t.Fatal("ConfigHash not deterministic for identical configuration")
	}

	muts := map[string]func(p *Pipeline){
		"strict":             func(p *Pipeline) { p.Strict = !p.Strict },
		"lad.threshold":      func(p *Pipeline) { p.LADCfg.Threshold++ },
		"lad.vbridge":        func(p *Pipeline) { p.LADCfg.VBridge++ },
		"lad.vminlen":        func(p *Pipeline) { p.LADCfg.VMinLen++ },
		"lad.hbridge":        func(p *Pipeline) { p.LADCfg.HBridge++ },
		"lad.hminlen":        func(p *Pipeline) { p.LADCfg.HMinLen++ },
		"lad.maxthick":       func(p *Pipeline) { p.LADCfg.MaxThick++ },
		"sed.minplateaurun":  func(p *Pipeline) { p.SED.Cfg.MinPlateauRun++ },
		"sed.minheight":      func(p *Pipeline) { p.SED.Cfg.MinHeight++ },
		"sed.minarea":        func(p *Pipeline) { p.SED.Cfg.MinArea++ },
		"sed.bridgegap":      func(p *Pipeline) { p.SED.Cfg.BridgeGap++ },
		"sed.scorethreshold": func(p *Pipeline) { p.SED.Cfg.ScoreThreshold += 1e-12 },
		"sed.maxproposals":   func(p *Pipeline) { p.SED.Cfg.MaxProposals++ },
		"sed.weight":         func(p *Pipeline) { p.SED.Net.Weights[0][0] += 1e-15 },
		"sed.bias":           func(p *Pipeline) { p.SED.Net.Biases[1][0] += 1e-15 },
		"sed.layersizes":     func(p *Pipeline) { p.SED.Net.Sizes[1]++ },
		"ocr.minglyphh":      func(p *Pipeline) { p.OCRCfg.MinGlyphH++ },
		"ocr.maxglyphh":      func(p *Pipeline) { p.OCRCfg.MaxGlyphH++ },
		"ocr.joindx":         func(p *Pipeline) { p.OCRCfg.JoinDX++ },
		"ocr.minconf":        func(p *Pipeline) { p.OCRCfg.MinConf += 1e-12 },
		"ocr.template.grid":  func(p *Pipeline) { p.OCR.Templates['a'].Grid[2] += 1e-12 },
		"ocr.template.aspect": func(p *Pipeline) {
			p.OCR.Templates['b'].Aspect += 1e-12
		},
		"ocr.template.count": func(p *Pipeline) { p.OCR.Templates['b'].Count++ },
		"ocr.template.added": func(p *Pipeline) {
			p.OCR.Templates['c'] = &ocr.Template{Grid: []float64{1}, Aspect: 1, Count: 1}
		},
		"sei.expand":         func(p *Pipeline) { p.SEICfg.Expand++ },
		"sei.ytol":           func(p *Pipeline) { p.SEICfg.YTol++ },
		"sei.fullspanfrac":   func(p *Pipeline) { p.SEICfg.FullSpanFrac += 1e-12 },
		"sei.toptol":         func(p *Pipeline) { p.SEICfg.TopTol++ },
		"sei.outwardmaxtail": func(p *Pipeline) { p.SEICfg.OutwardMaxTail++ },
		"sei.namelexicon.entry": func(p *Pipeline) {
			p.SEICfg.NameLexicon.Entries[0] = "CLK"
		},
		"sei.namelexicon.maxratio": func(p *Pipeline) {
			p.SEICfg.NameLexicon.MaxRatio += 1e-12
		},
		"sei.valuelexicon.entry": func(p *Pipeline) {
			p.SEICfg.ValueLexicon.Entries = append(p.SEICfg.ValueLexicon.Entries, "0x01")
		},
		"sei.namelexicon.dropped": func(p *Pipeline) { p.SEICfg.NameLexicon = nil },
	}

	seen := map[store.Hash]string{base: "base"}
	for name, mut := range muts {
		p := hashPipe()
		mut(p)
		got := p.ConfigHash()
		if got == base {
			t.Errorf("%s: knob flip did not change the config hash", name)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: hash collides with %s", name, prev)
		}
		seen[got] = name
	}
}

// TestConfigHashGolden pins the digest of hashPipe's configuration. A
// change to the hashed fields or their encoding re-keys every stored
// artifact, so it must be deliberate: bump configHashVersion and this value
// together.
func TestConfigHashGolden(t *testing.T) {
	const want = "d00cc266d6215dde4b237d0470104f7742b2db104f43d3412ef201ffb41a6345"
	if got := hashPipe().ConfigHash().Hex(); got != want {
		t.Errorf("ConfigHash = %s, want %s", got, want)
	}
}

// TestConfigHashIgnoresNonSemanticFields pins the exclusions: observability
// settings and the deprecated stage Workers fields never change what a
// translation produces, so they must not split the cache.
func TestConfigHashIgnoresNonSemanticFields(t *testing.T) {
	base := hashPipe().ConfigHash()

	p := hashPipe()
	p.Metrics = NewPipelineMetrics(metrics.NewRegistry())
	if p.ConfigHash() != base {
		t.Error("Metrics changed the config hash")
	}

	p = hashPipe()
	p.LADCfg.Workers = 9
	p.OCRCfg.Workers = 9
	if p.ConfigHash() != base {
		t.Error("stage Workers fields changed the config hash")
	}
}
