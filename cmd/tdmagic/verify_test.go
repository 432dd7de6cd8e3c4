package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tdmagic/internal/core"
	"tdmagic/internal/monitor"
	"tdmagic/internal/serve"
	"tdmagic/internal/spo"
	"tdmagic/internal/tdgen"
	"tdmagic/internal/vcd"
)

// TestMain lets a test run this binary as the tdmagic command: with
// TDMAGIC_RUN_MAIN=1 in its environment the test binary is the CLI.
func TestMain(m *testing.M) {
	if os.Getenv("TDMAGIC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDelaysFileSameVerdicts pins that tdmagic -verify -delays and
// POST /v1/verify read one delays document the same way: for documents
// whose min_swing_frac or threshold_fracs decide a verdict, the CLI's
// verdicts equal the service's, constraint by constraint.
func TestDelaysFileSameVerdicts(t *testing.T) {
	pipe, pic, p := verifyFixture(t)
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	if err := pipe.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	picPath := filepath.Join(dir, "pic.png")
	if err := os.WriteFile(picPath, pic, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := monitor.SynthesizeTrace(&monitor.Spec{SPO: p}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := vcd.Write(&dump, tr, "1us"); err != nil {
		t.Fatal(err)
	}
	vcdPath := filepath.Join(dir, "dump.vcd")
	if err := os.WriteFile(vcdPath, dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Every percent threshold the SPO uses, moved above the signal range:
	// those events can no longer be located.
	unreachable := map[string]float64{}
	for _, n := range p.Nodes {
		if strings.HasSuffix(n.Threshold, "%") {
			unreachable[n.Threshold] = 1.5
		}
	}

	srv := serve.New(pipe, serve.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, c := range []struct {
		name string
		doc  any
	}{
		{"none", map[string]any{}},
		{"min_swing_frac", map[string]any{"min_swing_frac": 2}},
		{"threshold_fracs", map[string]any{"delays": map[string]any{}, "threshold_fracs": unreachable}},
	} {
		t.Run(c.name, func(t *testing.T) {
			doc, _ := json.Marshal(c.doc)
			delaysPath := filepath.Join(dir, c.name+".json")
			if err := os.WriteFile(delaysPath, doc, 0o644); err != nil {
				t.Fatal(err)
			}
			cli := cliVerdicts(t, "-model", model, "-verify", "-vcd", vcdPath, "-delays", delaysPath, picPath)
			svc := serviceVerdicts(t, ts.URL, pic, doc, dump.Bytes())
			if cli != svc || strings.Count(svc, ":") != len(p.Constraints) {
				t.Errorf("verdicts differ or are missing (%d constraints):\n  tdmagic -verify: %s\n  /v1/verify:      %s",
					len(p.Constraints), cli, svc)
			}
			if wantPass := c.name == "none"; strings.Contains(svc, "fail") == wantPass {
				t.Errorf("verdicts %s: want every constraint passing only without a deciding document", svc)
			}
		})
	}
}

// verifyFixture trains a small pipeline and returns it with the first
// synthetic picture whose translated SPO has a constraint, a percent
// threshold and a synthesizable trace.
func verifyFixture(t *testing.T) (*core.Pipeline, []byte, *spo.SPO) {
	t.Helper()
	train, err := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(100))).GenerateN(40)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.Train(rand.New(rand.NewSource(1)), train, core.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	val, err := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(300))).GenerateN(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range val {
		p, _, err := pipe.Translate(s.Image)
		if err != nil || len(p.Constraints) == 0 || !strings.Contains(p.SpecText(), "%") {
			continue
		}
		if _, err := monitor.SynthesizeTrace(&monitor.Spec{SPO: p}, 0.2); err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := s.Image.EncodePNG(&buf); err != nil {
			t.Fatal(err)
		}
		return pipe, buf.Bytes(), p
	}
	t.Skip("no fixture picture translates to a synthesizable SPO")
	return nil, nil, nil
}

var verdictLine = regexp.MustCompile(`(?m)^(pass|VIOLATION) +#(\d+)`)

// cliVerdicts runs this binary as tdmagic and renders its verdict lines
// as "index:pass|fail" in constraint order.
func cliVerdicts(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TDMAGIC_RUN_MAIN=1")
	out, err := cmd.Output()
	if _, exit := err.(*exec.ExitError); err != nil && !exit {
		t.Fatal(err)
	}
	verdicts := map[int]bool{}
	for _, m := range verdictLine.FindAllStringSubmatch(string(out), -1) {
		i, _ := strconv.Atoi(m[2])
		verdicts[i] = m[1] == "pass"
	}
	return renderVerdicts(verdicts)
}

// serviceVerdicts posts the picture, delays document and dump to
// /v1/verify and renders the streamed verdicts like cliVerdicts.
func serviceVerdicts(t *testing.T, url string, pic, delays, dump []byte) string {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, part := range []struct {
		name string
		data []byte
	}{{"image", pic}, {"delays", delays}, {"vcd", dump}} {
		w, err := mw.CreateFormFile(part.name, part.name)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(part.data)
	}
	mw.Close()
	resp, err := http.Post(url+"/v1/verify", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	verdicts := map[int]bool{}
	dec := json.NewDecoder(resp.Body)
	for {
		var line struct {
			Type  string `json:"type"`
			Index int    `json:"index"`
			Pass  bool   `json:"pass"`
		}
		if err := dec.Decode(&line); err != nil {
			break
		}
		if line.Type == "verdict" {
			verdicts[line.Index] = line.Pass
		}
	}
	return renderVerdicts(verdicts)
}

func renderVerdicts(verdicts map[int]bool) string {
	var b strings.Builder
	for i := 0; i < len(verdicts); i++ {
		pass, ok := verdicts[i]
		switch {
		case !ok:
			b.WriteString(strconv.Itoa(i) + ":missing ")
		case pass:
			b.WriteString(strconv.Itoa(i) + ":pass ")
		default:
			b.WriteString(strconv.Itoa(i) + ":fail ")
		}
	}
	return b.String()
}
