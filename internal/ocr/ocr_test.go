package ocr

import (
	"context"
	"math/rand"
	"testing"

	"tdmagic/internal/dataset"
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/lad"
	"tdmagic/internal/render"
	"tdmagic/internal/tdgen"
)

// binarize binarises each sample at Otsu's threshold, as core.Train does.
func binarize(samples []*dataset.Sample) []*imgproc.Binary {
	bws := make([]*imgproc.Binary, len(samples))
	for i, s := range samples {
		bws[i] = imgproc.Threshold(s.Image, imgproc.OtsuThreshold(s.Image))
	}
	return bws
}

// renderText draws s at the given scale and returns the binary image and
// the text box.
func renderText(s string, scale int) (*imgproc.Binary, geom.Rect) {
	c := render.NewCanvas(600, 80)
	box := c.Text(10, 10, s, scale)
	return c.Ink(), box
}

func TestNewFontModelCoversCharset(t *testing.T) {
	m := NewFontModel()
	for _, ch := range charset {
		if m.Templates[ch] == nil {
			t.Errorf("no template for %q", ch)
		}
	}
}

func TestRecognizePlainStrings(t *testing.T) {
	m := NewFontModel()
	for _, s := range []string{"GND", "SCK", "CLK", "90%", "50%", "6ns", "RST", "DATA"} {
		for _, scale := range []int{2, 3} {
			bw, box := renderText(s, scale)
			got, conf := m.RecognizeLine(bw, box)
			if got != s {
				t.Errorf("RecognizeLine(%q, scale %d) = %q (conf %.2f)", s, scale, got, conf)
			}
			if conf < 0.5 {
				t.Errorf("%q: low confidence %v", s, conf)
			}
		}
	}
}

func TestRecognizeSubscriptMarkup(t *testing.T) {
	m := NewFontModel()
	for _, s := range []string{"t_{s}", "t_{h}", "V_{INA}", "t_{D(on)}", "t_{PHL}", "V_{CC}"} {
		bw, box := renderText(s, 3)
		got, _ := m.RecognizeLine(bw, box)
		if got != s {
			t.Errorf("RecognizeLine(%q) = %q", s, got)
		}
	}
}

func TestRecognizeEmptyBox(t *testing.T) {
	m := NewFontModel()
	bw := imgproc.NewBinary(50, 50)
	got, conf := m.RecognizeLine(bw, geom.Rect{X0: 0, Y0: 0, X1: 49, Y1: 49})
	if got != "" || conf != 0 {
		t.Errorf("empty box = %q, %v", got, conf)
	}
}

func TestTrainImprovesAlignment(t *testing.T) {
	g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(41)))
	samples, err := g.GenerateN(6)
	if err != nil {
		t.Fatal(err)
	}
	m := NewFontModel()
	aligned := m.Train(samples, binarize(samples))
	if aligned == 0 {
		t.Error("no text boxes aligned during training")
	}
	// After training, templates for common characters have multiple crops.
	if tpl := m.Templates['t']; tpl == nil || tpl.Count < 2 {
		t.Error("'t' template not refined from data")
	}
}

func TestDetectRegionsOnGenerated(t *testing.T) {
	g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(43)))
	samples, err := g.GenerateN(5)
	if err != nil {
		t.Fatal(err)
	}
	total, found := 0, 0
	for _, s := range samples {
		bw := imgproc.Threshold(s.Image, imgproc.OtsuThreshold(s.Image))
		lines, _ := lad.DetectBinaryCtx(context.Background(), bw, lad.DefaultConfig())
		regions := DetectRegions(bw, lines, DefaultDetectConfig())
		for _, gt := range s.Texts {
			total++
			for _, r := range regions {
				if r.IoU(gt.Box) >= 0.4 {
					found++
					break
				}
			}
		}
	}
	frac := float64(found) / float64(total)
	if frac < 0.85 {
		t.Errorf("text detection found %.2f of boxes (%d/%d), want >= 0.85", frac, found, total)
	}
}

func TestReadAllEndToEnd(t *testing.T) {
	g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(47)))
	train, err := g.GenerateN(8)
	if err != nil {
		t.Fatal(err)
	}
	val, err := g.GenerateN(4)
	if err != nil {
		t.Fatal(err)
	}
	m := NewFontModel()
	m.Train(train, binarize(train))
	total, correct := 0, 0
	for _, s := range val {
		bw := imgproc.Threshold(s.Image, imgproc.OtsuThreshold(s.Image))
		lines, _ := lad.DetectBinaryCtx(context.Background(), bw, lad.DefaultConfig())
		results, err := m.ReadAllCtx(context.Background(), bw, lines, DefaultDetectConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, gt := range s.Texts {
			total++
			for _, r := range results {
				if r.Box.IoU(gt.Box) >= 0.3 && r.Text == gt.Text {
					correct++
					break
				}
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.8 {
		t.Errorf("end-to-end OCR accuracy %.2f (%d/%d), want >= 0.8", acc, correct, total)
	}
}

func TestPlainChars(t *testing.T) {
	got := plainChars("t_{D(on)}")
	if string(got) != "tD(on)" {
		t.Errorf("plainChars = %q", string(got))
	}
	if len(plainChars("")) != 0 {
		t.Error("empty plainChars")
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "ab", 1},
		{"kitten", "sitting", 3},
		{"", "abc", 3},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLexiconCorrect(t *testing.T) {
	lex := NewLexicon([]string{"V_{INA}", "t_{D(on)}", "GND"})
	if got := lex.Correct("V_{1NA}"); got != "V_{INA}" {
		t.Errorf("Correct = %q", got)
	}
	if got := lex.Correct("GN0"); got != "GND" {
		t.Errorf("Correct = %q", got)
	}
	// Distant strings pass through unchanged.
	if got := lex.Correct("zzzzzzzz"); got != "zzzzzzzz" {
		t.Errorf("Correct mangled distant string: %q", got)
	}
	// Nil and empty lexicons are no-ops.
	var nilLex *Lexicon
	if nilLex.Correct("x") != "x" {
		t.Error("nil lexicon changed string")
	}
	if NewLexicon(nil).Correct("x") != "x" {
		t.Error("empty lexicon changed string")
	}
	if lex.Correct("") != "" {
		t.Error("empty string mangled")
	}
}

func TestSegmentGlyphsCount(t *testing.T) {
	bw, box := renderText("ABC", 2)
	glyphs := segmentBoxes(bw, box)
	if len(glyphs) != 3 {
		t.Errorf("segmented %d glyphs, want 3", len(glyphs))
	}
	bw2, box2 := renderText("t_{D(on)}", 3)
	glyphs2 := segmentBoxes(bw2, box2)
	if len(glyphs2) != 6 { // t D ( o n )
		t.Errorf("segmented %d glyphs, want 6", len(glyphs2))
	}
}

func TestSegmentGlyphsOutOfBounds(t *testing.T) {
	bw := imgproc.NewBinary(10, 10)
	if g := segmentBoxes(bw, geom.Rect{X0: 100, Y0: 100, X1: 120, Y1: 120}); g != nil {
		t.Error("out-of-bounds segmentation returned glyphs")
	}
}
