// Command tdmagic translates a timing-diagram PNG into its SPO formal
// specification.
//
// Usage:
//
//	tdmagic -model model.gob diagram.png              # textual specification
//	tdmagic -model model.gob -dot diagram.png         # Graphviz DAG (Fig. 3)
//	tdmagic -model model.gob -ltl diagram.png         # temporal-logic export
//	tdmagic -model model.gob -sva diagram.png         # SystemVerilog assertions
//	tdmagic -model model.gob -report diagram.png      # detection details
//	tdmagic -model model.gob -overlay o.png diagram.png  # annotated picture
//	tdmagic -model model.gob -strict diagram.png      # fail on degraded inputs
//	tdmagic -model model.gob -trace t.json diagram.png   # per-stage span trace
//	tdmagic -model model.gob -chrome-trace t.json diagram.png  # chrome://tracing
//	tdmagic -model model.gob -batch corpus/ -out specs/        # whole directory
//	tdmagic -model model.gob -batch corpus/ -out specs/ -cache .tdcache  # resumable
//	tdmagic -model model.gob -verify -vcd dump.vcd -delays bounds.json diagram.png
//	tdmagic -model model.gob -synth-vcd golden.vcd diagram.png # satisfying dump
//	tdmagic -watch http://host:8080/v1/jobs/<id>      # live job progress line
//	tdmagic -version                                  # build identity
//
// By default degraded inputs (low contrast, noise, cyclic interpretations)
// still produce a best-effort partial specification; the degradations the
// pipeline worked around are listed on stderr and the exit status stays 0.
// -strict restores fail-fast behaviour: any degradation exits 1.
//
// -verify closes the loop from picture to runtime verification: the
// translated SPO becomes the specification, -delays supplies the
// datasheet's side of it (the /v1/verify delays document, {"delays":
// {...}, "min_swing_frac": .., "threshold_fracs": {...}}, or a bare
// {"t_x": {"min":..,"max":..}} map of bounds alone), and the -vcd
// dump is streamed through the incremental monitor — one verdict line
// per constraint, exit status 1 on any violation. -synth-vcd writes a
// value-change dump synthesized to satisfy the specification, handy as a
// golden input for the verifier.
//
// Train a model first with tdtrain.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"image/png"
	"log"
	"os"

	"tdmagic/internal/core"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/ltl"
	"tdmagic/internal/monitor"
	"tdmagic/internal/obs"
	"tdmagic/internal/spo"
	"tdmagic/internal/sva"
	"tdmagic/internal/vcd"
	"tdmagic/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tdmagic: ")
	var (
		model       = flag.String("model", "", "trained model file from tdtrain (required)")
		dot         = flag.Bool("dot", false, "emit the SPO as a Graphviz digraph")
		asLTL       = flag.Bool("ltl", false, "emit a temporal-logic formula")
		asSVA       = flag.Bool("sva", false, "emit SystemVerilog assertions")
		report      = flag.Bool("report", false, "also print detection details")
		overlay     = flag.String("overlay", "", "write the annotated picture (paper Fig. 6/7 style) to this PNG")
		strict      = flag.Bool("strict", false, "fail (exit 1) on degraded inputs instead of emitting a best-effort partial specification")
		traceOut    = flag.String("trace", "", "write the translation's span trace (per-stage timings and detector counts) to this JSON file")
		chromeOut   = flag.String("chrome-trace", "", "write the span trace in Chrome trace_event format (open in chrome://tracing) to this JSON file")
		batchDir    = flag.String("batch", "", "translate every *.png under this directory instead of a single picture")
		outDir      = flag.String("out", "", "with -batch: write one <name>.spec per picture into this directory (default: print to stdout)")
		cacheDir    = flag.String("cache", "", "with -batch: persistent content-addressed result store; re-runs translate only what is missing")
		batchW      = flag.Int("batch-workers", 0, "with -batch: concurrent translations (0 = GOMAXPROCS)")
		doVerify    = flag.Bool("verify", false, "verify the -vcd dump against the translated specification; exit 1 on violation")
		vcdPath     = flag.String("vcd", "", "with -verify: Verilog value-change dump of the signals under test")
		delaysPath  = flag.String("delays", "", "JSON file with admissible delay bounds per timing parameter (the /v1/verify delays document)")
		synthVCD    = flag.String("synth-vcd", "", "write a VCD dump synthesized to satisfy the translated specification to this file")
		timescale   = flag.String("timescale", "1ms", "VCD timescale for -synth-vcd and for interpreting verdict times")
		watchURL    = flag.String("watch", "", "follow a tdserve job's live event stream by its URL (http://host:port/v1/jobs/<id>) and render a progress line; exits 0 when the job is done, 1 when it fails or is cancelled")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Get())
		return
	}
	if *watchURL != "" {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(runWatch(*watchURL))
	}
	if *model == "" || (*batchDir == "" && flag.NArg() != 1) || (*batchDir != "" && flag.NArg() != 0) {
		flag.Usage()
		os.Exit(2)
	}
	pipe, err := core.LoadFile(*model)
	if err != nil {
		log.Fatal(err)
	}
	pipe.Strict = *strict
	if *batchDir != "" {
		runBatch(pipe, *batchDir, *outDir, *cacheDir, *batchW)
		return
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	img, err := imgproc.DecodePNG(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	var tr *obs.Trace
	if *traceOut != "" || *chromeOut != "" {
		tr = obs.NewTrace(obs.NewRequestID())
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	spec, rep, err := pipe.TranslateContext(ctx, img)
	writeTraces(tr, *traceOut, *chromeOut)
	if err != nil {
		if rep != nil {
			printDiags(rep)
		}
		log.Fatalf("translate: %v", err)
	}
	// In the default (graceful) mode a degraded picture still yields a
	// best-effort partial specification; the degradations the pipeline
	// worked around are reported on stderr so the output stays parseable.
	printDiags(rep)
	if *doVerify || *synthVCD != "" {
		runVerify(ctx, spec, *vcdPath, *delaysPath, *synthVCD, *timescale, *doVerify)
		return
	}
	switch {
	case *dot:
		fmt.Print(spec.DOT(flag.Arg(0)))
	case *asLTL:
		formula, err := ltl.Formula(spec, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(formula)
	case *asSVA:
		src, err := sva.Export(spec, nil, sva.Options{ModuleName: "td_checker"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(src)
	default:
		fmt.Print(spec.SpecText())
	}
	if *overlay != "" {
		f, err := os.Create(*overlay)
		if err != nil {
			log.Fatal(err)
		}
		if err := png.Encode(f, core.RenderOverlay(img, rep)); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote overlay %s\n", *overlay)
	}
	if *report {
		printReport(rep)
	}
}

// runVerify closes the picture → spec → runtime verification loop for the
// CLI: the translated SPO plus the -delays bounds become a monitorable
// specification. -synth-vcd writes a satisfying dump; -verify streams the
// -vcd dump through the incremental monitor and exits 1 on any violation.
func runVerify(ctx context.Context, p *spo.SPO, vcdPath, delaysPath, synthOut, timescale string, doVerify bool) {
	mspec := &monitor.Spec{}
	if delaysPath != "" {
		f, err := os.Open(delaysPath)
		if err != nil {
			log.Fatal(err)
		}
		mspec, err = monitor.DecodeDelays(f)
		f.Close()
		if err != nil {
			log.Fatalf("parse delays %s: %v", delaysPath, err)
		}
	}
	mspec.SPO = p
	if synthOut != "" {
		tr, err := monitor.SynthesizeTrace(mspec, 0)
		if err != nil {
			log.Fatalf("synthesize trace: %v", err)
		}
		f, err := os.Create(synthOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := vcd.Write(f, tr, timescale); err != nil {
			log.Fatalf("write vcd: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tdmagic: wrote satisfying dump %s\n", synthOut)
	}
	if !doVerify {
		return
	}
	if vcdPath == "" {
		log.Fatal("-verify requires -vcd <dump>")
	}
	f, err := os.Open(vcdPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	out, err := core.VerifyStream(ctx, mspec, bufio.NewReader(f), printVerdict, nil)
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	if out.Result.OK() {
		fmt.Printf("OK: %d constraint(s) satisfied over %d VCD bytes\n",
			len(p.Constraints), out.TraceBytes)
		return
	}
	fmt.Printf("FAIL: %d violation(s) over %d VCD bytes\n",
		len(out.Result.Violations), out.TraceBytes)
	os.Exit(1)
}

// printVerdict renders one streamed constraint verdict.
func printVerdict(v monitor.Verdict) {
	label := v.Delay
	if label == "" {
		label = "(order)"
	}
	if v.Pass {
		fmt.Printf("pass      #%d %-12s measured %.6g (src %.6g -> dst %.6g)\n",
			v.Index, label, v.Measured, v.SrcTime, v.DstTime)
		return
	}
	fmt.Printf("VIOLATION #%d %-12s %s\n", v.Index, label, v.Reason)
}

// writeTraces persists the recorded span trace in the requested formats.
// Writing happens even when the translation failed — a trace of a failing
// run is exactly what one wants to look at.
func writeTraces(tr *obs.Trace, plain, chrome string) {
	if tr == nil {
		return
	}
	write := func(path string, emit func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := emit(f); err != nil {
			log.Fatalf("write trace %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tdmagic: wrote trace %s\n", path)
	}
	if plain != "" {
		write(plain, func(f *os.File) error { return tr.WriteJSON(f) })
	}
	if chrome != "" {
		write(chrome, func(f *os.File) error { return tr.WriteChrome(f) })
	}
}

// printDiags lists the structured degradation diagnostics on stderr.
func printDiags(rep *core.Report) {
	for _, d := range rep.Diags {
		if d.HasLocation {
			fmt.Fprintf(os.Stderr, "tdmagic: %s/%s at %v: %s\n", d.Stage, d.Severity, d.Location, d.Message)
		} else {
			fmt.Fprintf(os.Stderr, "tdmagic: %s/%s: %s\n", d.Stage, d.Severity, d.Message)
		}
	}
}

// printReport lists the detection details behind the specification.
func printReport(rep *core.Report) {
	fmt.Printf("\n-- detections --\n")
	for _, d := range rep.Edges {
		fmt.Printf("edge %-9s %v score %.2f\n", d.Type, d.Box, d.Score)
	}
	for _, t := range rep.Texts {
		fmt.Printf("text %-14q %v conf %.2f\n", t.Text, t.Box, t.Conf)
	}
	if rep.SEI != nil {
		fmt.Printf("v-lines %d, h-lines %d, arrows %d\n",
			len(rep.SEI.VLines), len(rep.SEI.HLines), len(rep.SEI.Arrows))
	}
}
