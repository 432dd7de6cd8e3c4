package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"time"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/jobs"
	"tdmagic/internal/monitor"
	"tdmagic/internal/spo"
	"tdmagic/internal/store"
	"tdmagic/internal/vcd"
)

// oracle computes the outputs the server must produce, in process, from
// the same model file the server loaded.
type oracle struct {
	pipe    *core.Pipeline
	cfgHash store.Hash
}

// serveTimeout is tdserve's default per-request translation deadline.
const serveTimeout = 30 * time.Second

func newOracle(modelPath string) (*oracle, error) {
	pipe, err := core.LoadFile(modelPath)
	if err != nil {
		return nil, err
	}
	return &oracle{pipe: pipe, cfgHash: pipe.ConfigHash()}, nil
}

// artifact returns the exact /v1/translate success body for a picture:
// the serve contract is the batch artifact of a one-item translation,
// marshalled, plus a newline.
func (o *oracle) artifact(img *imgproc.Gray) ([]byte, error) {
	res := o.pipe.TranslateAllCtx(context.Background(), []*imgproc.Gray{img}, core.BatchOptions{
		Workers: 1,
		Timeout: serveTimeout,
	})[0]
	if res.Err != nil {
		return nil, res.Err
	}
	if core.InputRefused(res.Rep) {
		return nil, errors.New("picture refused")
	}
	a := batch.Artifact{SPO: res.SPO, Spec: res.SPO.SpecText()}
	if res.Rep != nil {
		a.Diags = res.Rep.Diags
	}
	body, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// decodeArtifact parses a translate body back into the artifact.
func decodeArtifact(body []byte) (batch.Artifact, error) {
	var a batch.Artifact
	if err := json.Unmarshal(body, &a); err != nil {
		return a, err
	}
	if a.SPO == nil {
		return a, errors.New("artifact has no SPO")
	}
	return a, nil
}

// jobLine returns the exact results line of a done job item whose
// artifact is want: the job service replays the stored artifact into a
// jobs.ItemResult.
func jobLine(index int, name string, want []byte) ([]byte, error) {
	a, err := decodeArtifact(want)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(jobs.ItemResult{Index: index, Name: name, Spec: a.Spec, SPO: a.SPO, Diags: a.Diags})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// checkJobResults compares a job's NDJSON results body with the expected
// lines, item by item, and returns how many items are wrong.
func checkJobResults(body []byte, want [][]byte) int {
	wrong := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	i := 0
	for sc.Scan() {
		if i >= len(want) || !bytes.Equal(append(sc.Bytes(), '\n'), want[i]) {
			wrong++
		}
		i++
	}
	if i < len(want) {
		wrong += len(want) - i
	}
	return wrong
}

// verifyWant is the expected outcome of one verification request.
type verifyWant struct {
	InputHash   string
	Nodes       int
	Constraints int
	LTL, SVA    string
	Verdicts    []monitor.Verdict // constraint order
	OK          bool
	Violations  int
	TraceBytes  int64
	EventTimes  []float64
}

// expectVerify computes what /v1/verify must stream for a dump checked
// against the specification in the artifact body: monitor.Check over
// vcd.Parse of the same dump, the whole-trace reference path.
func expectVerify(artifactBody []byte, inputHash string, d dump) (*verifyWant, error) {
	a, err := decodeArtifact(artifactBody)
	if err != nil {
		return nil, err
	}
	spec := &monitor.Spec{SPO: a.SPO, Delays: d.Delays}
	ltlText, svaText, err := core.CompileProperties(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	tr, err := vcd.Parse(bytes.NewReader(d.VCD))
	if err != nil {
		return nil, err
	}
	res, err := monitor.Check(spec, tr)
	if err != nil {
		return nil, err
	}
	return &verifyWant{
		InputHash:   inputHash,
		Nodes:       len(a.SPO.Nodes),
		Constraints: len(a.SPO.Constraints),
		LTL:         ltlText,
		SVA:         svaText,
		Verdicts:    monitor.ResultVerdicts(spec, res),
		OK:          res.OK(),
		Violations:  len(res.Violations),
		TraceBytes:  int64(len(d.VCD)),
		EventTimes:  res.EventTimes,
	}, nil
}

// verifyLine is the union of the /v1/verify NDJSON line shapes.
type verifyLine struct {
	Type string `json:"type"`
	// spec line
	InputHash   string `json:"input_hash"`
	Nodes       int    `json:"nodes"`
	Constraints int    `json:"constraints"`
	LTL         string `json:"ltl"`
	SVA         string `json:"sva"`
	// verdict line
	monitor.Verdict
	// summary line
	OK         bool      `json:"ok"`
	Violations int       `json:"violations"`
	TraceBytes int64     `json:"trace_bytes"`
	EventTimes []float64 `json:"event_times"`
	// error line
	Error string `json:"error"`
}

// checkVerify compares a verification stream with the expected outcome:
// the spec line, one verdict per constraint (in any order) equal to the
// reference verdicts, and the summary.
func checkVerify(lines []verifyLine, w *verifyWant) error {
	var got []monitor.Verdict
	var spec, summary *verifyLine
	for i := range lines {
		l := &lines[i]
		switch l.Type {
		case "spec":
			spec = l
		case "verdict":
			got = append(got, l.Verdict)
		case "summary":
			summary = l
		case "error":
			return fmt.Errorf("stream error: %s", l.Error)
		default:
			return fmt.Errorf("unknown line type %q", l.Type)
		}
	}
	if spec == nil || summary == nil {
		return errors.New("stream lacks its spec or summary line")
	}
	if spec.InputHash != w.InputHash || spec.Nodes != w.Nodes || spec.Constraints != w.Constraints ||
		spec.LTL != w.LTL || spec.SVA != w.SVA {
		return errors.New("spec line differs from the compiled specification")
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Index < got[j].Index })
	if !reflect.DeepEqual(got, w.Verdicts) && !(len(got) == 0 && len(w.Verdicts) == 0) {
		return fmt.Errorf("verdicts differ: got %d, want %d", len(got), len(w.Verdicts))
	}
	if summary.OK != w.OK || summary.Violations != w.Violations || summary.TraceBytes != w.TraceBytes ||
		!reflect.DeepEqual(summary.EventTimes, w.EventTimes) {
		return errors.New("summary differs from monitor.Check")
	}
	return nil
}

// specOf returns the SPO of an artifact body, nil when it has none.
func specOf(body []byte) *spo.SPO {
	a, err := decodeArtifact(body)
	if err != nil {
		return nil
	}
	return a.SPO
}
