// Command tdeval regenerates the experimental evaluation of the paper
// (Sec. VI): Table I (edge detection on synthetic validation data), the OCR
// synthetic validation, the extrapolation-corpus statistics, Table II
// (object detection in extrapolation), Table III (OCR in extrapolation) and
// the overall SPO-extraction performance, plus two extensions beyond the
// paper: resolution (scale) and scanner-noise (noise) robustness.
//
// Usage:
//
//	tdeval                      # run everything
//	tdeval -table 2             # one table: 1, ocr-synth, stats, 2, 3, overall, noise, scale
//	tdeval -table overall -verbose
//	tdeval -g1 128 -g2 64 -g3 48  # larger training mix
//	tdeval -robustness -robustout BENCH_03.json  # corruption sweep
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"tdmagic/internal/core"
	"tdmagic/internal/eval"
	"tdmagic/internal/metrics"
	"tdmagic/internal/store"
	"tdmagic/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tdeval: ")
	var (
		table      = flag.String("table", "all", "experiment: all, 1, ocr-synth, stats, 2, 3, overall, noise, scale")
		robustness = flag.Bool("robustness", false, "run the corruption-type x severity robustness sweep instead of the tables")
		robustOut  = flag.String("robustout", "", "also write the robustness sweep as JSON to this file (BENCH_03 format)")
		verbose    = flag.Bool("verbose", false, "per-diagram detail for overall")
		seed       = flag.Int64("seed", 1, "random seed")
		g1         = flag.Int("g1", 64, "G1 training pictures")
		g2         = flag.Int("g2", 32, "G2 training pictures")
		g3         = flag.Int("g3", 24, "G3 training pictures")
		valN       = flag.Int("val", 40, "synthetic validation pictures")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers for generation and training (results are worker-count invariant)")
		corpusDir  = flag.String("corpus", "", "evaluate tables 2, 3 and overall on this sample directory, streaming pictures through the batch executor instead of materialising the corpus up front")
		cacheDir   = flag.String("cache", "", "persistent content-addressed result store; re-evaluations answer unchanged pictures from disk")
		cpuProf    = flag.String("cpuprofile", "", "write CPU profile to file")
		memProf    = flag.String("memprofile", "", "write heap profile to file on exit")
		showMetric = flag.Bool("metrics", false, "print the translation metric exposition (same counters tdserve exports) to stderr after the run")

		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Get())
		return
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	opts := eval.DefaultOptions()
	opts.Seed = *seed
	opts.TrainG1, opts.TrainG2, opts.TrainG3 = *g1, *g2, *g3
	opts.Validation = *valN
	opts.Workers = *workers

	var pipe *core.Pipeline
	var reg *metrics.Registry
	if *table != "stats" {
		t0 := time.Now()
		p, err := eval.TrainPipeline(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trained pipeline in %v\n", time.Since(t0))
		pipe = p
		if *showMetric {
			// The exact counter bundle tdserve exports on /metrics, so an
			// offline evaluation and a serving deployment are comparable
			// number for number.
			reg = metrics.NewRegistry()
			pipe.Metrics = core.NewPipelineMetrics(reg)
			defer func() {
				fmt.Fprintln(os.Stderr, "-- translation metrics --")
				if err := reg.WriteText(os.Stderr); err != nil {
					log.Print(err)
				}
			}()
		}
	}

	if *robustness {
		val, err := eval.GenValidationSet(opts)
		if err != nil {
			log.Fatal(err)
		}
		_, corpus, err := eval.CorpusStats(opts)
		if err != nil {
			log.Fatal(err)
		}
		sweepOpts := eval.DefaultSweepOptions()
		sweepOpts.Seed = *seed
		sweepOpts.Workers = *workers
		res, err := eval.RobustnessSweep(pipe, val, corpus, sweepOpts)
		if err != nil {
			log.Fatal(err)
		}
		res.Print(os.Stdout)
		if *robustOut != "" {
			f, err := os.Create(*robustOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := res.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *robustOut)
		}
		return
	}

	run := func(name string) bool { return *table == "all" || *table == name }

	if run("1") || run("ocr-synth") {
		val, err := eval.GenValidationSet(opts)
		if err != nil {
			log.Fatal(err)
		}
		if run("1") {
			eval.TableI(pipe, val).Print(os.Stdout)
			fmt.Println()
		}
		if run("ocr-synth") {
			res, err := eval.TableIIIRun(pipe, eval.SliceCorpus(val))
			if err != nil {
				log.Fatal(err)
			}
			res.Print(os.Stdout, "OCR validation accuracy on synthetic data (Sec. VI text)")
			fmt.Println()
		}
	}
	if run("stats") || run("2") || run("3") || run("overall") {
		// The extrapolation tables stream through the batch executor: a
		// picture is loaded (or generated) when a worker frees up and
		// released right after scoring, so the evaluation holds O(workers)
		// pictures instead of the whole corpus. -cache answers unchanged
		// pictures from the persistent store; results are bit-identical
		// either way.
		ropts := eval.RunOpts{Workers: *workers}
		if *cacheDir != "" {
			st, err := store.Open(*cacheDir)
			if err != nil {
				log.Fatal(err)
			}
			ropts.Store = st
		}
		var corpus eval.Corpus
		if *corpusDir != "" {
			c, err := eval.DirCorpus(*corpusDir)
			if err != nil {
				log.Fatal(err)
			}
			corpus = c
			if run("stats") && *table == "stats" {
				log.Fatal("-table stats describes the generated extrapolation corpus and is not available with -corpus")
			}
		} else {
			stats, samples, err := eval.CorpusStats(opts)
			if err != nil {
				log.Fatal(err)
			}
			if run("stats") {
				stats.Print(os.Stdout)
				fmt.Println()
			}
			corpus = eval.SliceCorpus(samples)
		}
		if run("2") {
			res, err := eval.TableIIRun(pipe, corpus, ropts)
			if err != nil {
				log.Fatal(err)
			}
			res.Print(os.Stdout)
			fmt.Println()
		}
		if run("3") {
			res, err := eval.TableIIIRun(pipe, corpus)
			if err != nil {
				log.Fatal(err)
			}
			res.Print(os.Stdout, "TABLE III: OCR Accuracy in Extrapolation.")
			fmt.Println()
		}
		if run("overall") {
			res, err := eval.OverallRun(pipe, corpus, ropts)
			if err != nil {
				log.Fatal(err)
			}
			res.Print(os.Stdout, *verbose)
		}
	}
	if run("scale") {
		_, corpus, err := eval.CorpusStats(opts)
		if err != nil {
			log.Fatal(err)
		}
		eval.ScaleRobustness(pipe, corpus, []float64{0.6, 0.8, 1.0, 1.25}).Print(os.Stdout)
		fmt.Println()
	}
	if run("noise") {
		res, err := eval.NoiseRobustness(pipe, *seed+2000, 20, []int{0, 200, 800, 2000, 5000})
		if err != nil {
			log.Fatal(err)
		}
		res.Print(os.Stdout)
	}
}
