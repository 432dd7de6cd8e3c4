package core

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sort"

	"tdmagic/internal/ocr"
	"tdmagic/internal/store"
)

// configHashVersion versions the digest schema itself: any change to the
// set or encoding of hashed fields must bump it, so artifacts written by
// an older binary are never misread as current.
const configHashVersion = "tdmagic-config-v1"

// ConfigHash returns the deterministic digest of everything about this
// pipeline that can influence a translation's output: every LAD, SED, OCR
// and SEI knob, the Strict mode, the SED network weights, the OCR glyph
// templates, and both SEI lexicons. Two pipelines with equal ConfigHash
// produce bit-identical SPOs for identical inputs, which is what lets the
// content-addressed result store (internal/store, key = config hash ×
// input hash) answer for a translation without running it.
//
// Deliberately excluded: Metrics (observability only) and the deprecated
// LADCfg.Workers and OCRCfg.Workers fields, which nothing reads.
func (p *Pipeline) ConfigHash() store.Hash {
	h := sha256.New()
	w := &digestWriter{h: h}
	w.str("version", configHashVersion)
	w.bool("strict", p.Strict)

	w.str("section", "lad")
	w.u64("threshold", uint64(p.LADCfg.Threshold))
	w.i64("vbridge", int64(p.LADCfg.VBridge))
	w.i64("vminlen", int64(p.LADCfg.VMinLen))
	w.i64("hbridge", int64(p.LADCfg.HBridge))
	w.i64("hminlen", int64(p.LADCfg.HMinLen))
	w.i64("maxthick", int64(p.LADCfg.MaxThick))

	w.str("section", "sed")
	if p.SED != nil {
		cfg := p.SED.Cfg
		w.i64("minplateaurun", int64(cfg.MinPlateauRun))
		w.i64("minheight", int64(cfg.MinHeight))
		w.i64("minarea", int64(cfg.MinArea))
		w.i64("bridgegap", int64(cfg.BridgeGap))
		w.f64("scorethreshold", cfg.ScoreThreshold)
		w.i64("maxproposals", int64(cfg.MaxProposals))
		if net := p.SED.Net; net != nil {
			w.str("section", "sednet")
			w.i64("layers", int64(len(net.Sizes)))
			for _, sz := range net.Sizes {
				w.i64("size", int64(sz))
			}
			for _, layer := range net.Weights {
				w.f64s("weights", layer)
			}
			for _, layer := range net.Biases {
				w.f64s("biases", layer)
			}
		}
	}

	w.str("section", "ocr")
	w.i64("minglyphh", int64(p.OCRCfg.MinGlyphH))
	w.i64("maxglyphh", int64(p.OCRCfg.MaxGlyphH))
	w.i64("joindx", int64(p.OCRCfg.JoinDX))
	w.f64("minconf", p.OCRCfg.MinConf)
	if p.OCR != nil {
		runes := make([]rune, 0, len(p.OCR.Templates))
		for r := range p.OCR.Templates {
			runes = append(runes, r)
		}
		sort.Slice(runes, func(i, j int) bool { return runes[i] < runes[j] })
		w.i64("templates", int64(len(runes)))
		for _, r := range runes {
			t := p.OCR.Templates[r]
			w.i64("rune", int64(r))
			w.f64s("grid", t.Grid)
			w.f64("aspect", t.Aspect)
			w.i64("count", int64(t.Count))
		}
	}

	w.str("section", "sei")
	w.i64("expand", int64(p.SEICfg.Expand))
	w.i64("ytol", int64(p.SEICfg.YTol))
	w.f64("fullspanfrac", p.SEICfg.FullSpanFrac)
	w.i64("toptol", int64(p.SEICfg.TopTol))
	w.i64("outwardmaxtail", int64(p.SEICfg.OutwardMaxTail))
	w.lexicon("namelexicon", p.SEICfg.NameLexicon)
	w.lexicon("valuelexicon", p.SEICfg.ValueLexicon)

	var out store.Hash
	h.Sum(out[:0])
	return out
}

// digestWriter serialises labelled fields into a hash with fixed-width
// little-endian encodings and length-prefixed strings, so the digest is
// identical across architectures and two adjacent fields can never alias
// each other's bytes.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *digestWriter) str(label, v string) {
	w.raw(label)
	binary.LittleEndian.PutUint64(w.buf[:], uint64(len(v)))
	w.h.Write(w.buf[:])
	w.h.Write([]byte(v))
}

func (w *digestWriter) raw(label string) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(len(label)))
	w.h.Write(w.buf[:])
	w.h.Write([]byte(label))
}

func (w *digestWriter) u64(label string, v uint64) {
	w.raw(label)
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *digestWriter) i64(label string, v int64) { w.u64(label, uint64(v)) }

func (w *digestWriter) f64(label string, v float64) { w.u64(label, math.Float64bits(v)) }

func (w *digestWriter) f64s(label string, vs []float64) {
	w.u64(label, uint64(len(vs)))
	for _, v := range vs {
		binary.LittleEndian.PutUint64(w.buf[:], math.Float64bits(v))
		w.h.Write(w.buf[:])
	}
}

func (w *digestWriter) bool(label string, v bool) {
	if v {
		w.u64(label, 1)
	} else {
		w.u64(label, 0)
	}
}

func (w *digestWriter) lexicon(label string, lex *ocr.Lexicon) {
	if lex == nil {
		w.u64(label, 0)
		return
	}
	w.u64(label, 1)
	w.f64("maxratio", lex.MaxRatio)
	w.i64("entries", int64(len(lex.Entries)))
	for _, e := range lex.Entries {
		w.str("entry", e)
	}
}
