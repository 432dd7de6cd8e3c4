// Command tdbench is the repository benchmark: it builds nothing itself
// (run.sh builds tdtrain, tdserve and this command from source), trains a
// model, starts a real tdserve process and drives one workload against
// it, checking every output against the in-process pipeline.
//
// Usage:
//
//	tdbench -workload translate_fresh -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the same phases and then a traced single-connection pass that splits
// the time over the layers, and prints the per-layer metrics. End-to-end
// timings are given at reference machine speed (see probe.go), each with
// its value as measured in its note. The last line of standard output is
// one JSON object:
//
//	{"correct":true,"attempted":N,"failed":F,"metrics":{name:{value,unit}}}
//
// The command exits 1 if any output was wrong, and 2 on a harness error
// (then without a result line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding tdtrain and tdserve
	work     string // scratch directory for models, stores and caches
}

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the figure (0: not a sample statistic)
	Note  string // base of a ratio, or how a figure was derived
}

// report accumulates a run's outcome.
type report struct {
	attempted int
	failed    int // failed or refused operations
	wrong     int // operations whose output the oracle rejected
	firstBad  string
	metrics   []metric
	notes     []string
}

func (r *report) note(s string) { r.notes = append(r.notes, s) }

func (r *report) add(name string, v float64, unit string, n int, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n, Note: note})
}

// count tallies ops into the report.
func (r *report) count(ops []op) {
	for _, o := range ops {
		r.attempted++
		switch o.outcome {
		case wrongOutcome:
			r.wrong++
		case refusedOutcome, failedOutcome:
			r.failed++
		default:
			continue
		}
		if r.firstBad == "" {
			r.firstBad = o.detail
		}
	}
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the tdtrain and tdserve binaries")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory")
	probe := flag.Bool("probe", false, "run the machine-speed sampler until standard input closes (started by the benchmark itself)")
	flag.Parse()
	if *probe {
		probeMain()
		return
	}
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || flag.NArg() != 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdbench:", err)
		os.Exit(2)
	}
	printReport(cfg, rep)
	if rep.wrong > 0 {
		os.Exit(1)
	}
}

// run prepares the scratch directory, runs the workload and always
// stops the server.
func run(cfg config, w workload) (*report, error) {
	for _, name := range []string{"tdtrain", "tdserve"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, name)); err != nil {
			return nil, fmt.Errorf("missing %s binary (build with run.sh): %w", name, err)
		}
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	probe, err := startProbe()
	if err != nil {
		return nil, fmt.Errorf("start speed probe: %w", err)
	}
	b := &bench{cfg: cfg, w: w, dir: dir, cache: filepath.Join(cfg.work, "inputs"),
		conns: runtime.NumCPU(), probe: probe, rep: &report{}}
	defer b.close()
	if err := b.setup(); err != nil {
		return nil, err
	}
	if err := w.run(b); err != nil {
		return nil, err
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	return b.rep, nil
}

// printReport prints every metric with its unit and sample count, then
// the result object as the last line.
func printReport(cfg config, rep *report) {
	kind := "end-to-end"
	if cfg.trace {
		kind = "per-layer"
	}
	fmt.Printf("workload %s seed %d: %s metrics\n", cfg.workload, cfg.seed, kind)
	out := map[string]any{}
	for _, m := range rep.metrics {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf(" (n=%d)", m.N)
		}
		note := ""
		if m.Note != "" {
			note = "  [" + m.Note + "]"
		}
		fmt.Printf("  %-28s %14.4f %-8s%s%s\n", m.Name, m.Value, m.Unit, n, note)
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed+rep.wrong) / float64(rep.attempted)
	}
	fmt.Printf("  %-28s %14.6f %-8s (base: %d failed+refused + %d wrong of %d attempted)\n",
		"failed_frac", failedFrac, "ratio", rep.failed, rep.wrong, rep.attempted)
	for _, n := range rep.notes {
		fmt.Printf("  note: %s\n", n)
	}
	if rep.firstBad != "" {
		fmt.Printf("  first failure: %s\n", rep.firstBad)
	}
	res, _ := json.Marshal(map[string]any{
		"correct":   rep.wrong == 0,
		"attempted": max(rep.attempted, 1),
		"failed":    rep.failed + rep.wrong,
		"metrics":   out,
	})
	fmt.Println(string(res))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
