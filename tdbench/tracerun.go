package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// perLayer lists every per-layer metric in report order with its unit.
var perLayer = []struct{ name, unit string }{
	{"imgproc.decode_ms", "ms"},
	{"store.hash_image_ms", "ms"},
	{"serve.lru_hit_ratio", "ratio"},
	{"serve.store_hit_ratio", "ratio"},
	{"store.hit_ratio", "ratio"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.alias_ms", "ms"},
	{"imgproc.binarize_ms", "ms"},
	{"lad.detect_ms", "ms"},
	{"sed.detect_ms", "ms"},
	{"ocr.read_ms", "ms"},
	{"sei.interpret_ms", "ms"},
	{"sed.edge_boxes", "count"},
	{"ocr.text_boxes", "count"},
	{"core.translate_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.encode_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.rejected_429", "count"},
	{"tdserve.cpu_ms_per_op", "ms"},
	{"verify.compile_ms", "ms"},
	{"vcd.decode_mb_per_s", "MB/s"},
	{"monitor.check_ms", "ms"},
	{"monitor.max_resident", "count"},
	{"batch.process_hit_ms", "ms"},
	{"batch.process_miss_ms", "ms"},
	{"jobs.submit_ms", "ms"},
	{"jobs.overhead_ms_per_item", "ms"},
	{"jobs.wchar_bytes_per_item", "B"},
	{"jobs.store_hit_ratio", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"obs.flight_overhead_pct", "%"},
}

func (b *bench) newTracer() *tracer {
	return &tracer{b: b, own: layers{}, comp: layers{}, vals: map[string]metric{}}
}

func (t *tracer) set(name string, v float64, n int, note string) {
	t.vals[name] = metric{Name: name, Value: v, N: n, Note: note}
}

// phaseLayers derives the counters read from outside the server over the
// workload's untraced phases: /metrics deltas as ratios with their bases,
// /proc CPU per successful item, and the load generator's lag.
func (t *tracer) phaseLayers(ps ...phase) {
	a, z := ps[0].before, ps[len(ps)-1].after
	lookups := delta(a, z, "tdserve_requests_total") + delta(a, z, "tdserve_verify_requests_total")
	lru, sto := delta(a, z, "tdserve_cache_hits_total"), delta(a, z, "tdserve_store_hits_total")
	t.set("serve.lru_hit_ratio", ratio(lru, lookups), int(lookups),
		fmt.Sprintf("base: %.0f translate+verify requests, %.0f LRU hits", lookups, lru))
	t.set("serve.store_hit_ratio", ratio(sto, lookups), int(lookups),
		fmt.Sprintf("base: %.0f translate+verify requests, %.0f store hits", lookups, sto))
	sh, sm := delta(a, z, "tdstore_hits_total"), delta(a, z, "tdstore_misses_total")
	t.set("store.hit_ratio", ratio(sh, sh+sm), int(sh+sm), fmt.Sprintf("base: %.0f tdstore lookups", sh+sm))
	if jh, jm := delta(a, z, "tdjobs_store_hits_total"), delta(a, z, "tdjobs_store_misses_total"); jh+jm > 0 {
		t.set("jobs.store_hit_ratio", ratio(jh, jh+jm), int(jh+jm), fmt.Sprintf("base: %.0f job items done", jh+jm))
	}
	t.set("serve.rejected_429", delta(a, z, "tdserve_queue_rejections_total"), 0, "tdserve_queue_rejections_total delta")
	cpu, items := 0.0, 0
	var lags []float64
	for _, p := range ps {
		cpu += cpuMS(p.before, p.after)
		for _, o := range p.ops {
			if o.outcome == okOutcome {
				items += o.items
			}
			lags = append(lags, ms(o.lag))
		}
	}
	t.set("tdserve.cpu_ms_per_op", cpu/float64(max(items, 1)), items,
		fmt.Sprintf("base: %.0f ms server CPU over %d successful items", cpu, items))
	t.set("loadgen.lag_p99_ms", percentile(lags, 99), len(lags), "open loop: send after due time; closed loop: send after the previous response")
	wchar := ps[len(ps)-1].after.proc.wchar - ps[0].before.proc.wchar
	if t.b.cfg.workload == "jobs_corpus" {
		t.set("jobs.wchar_bytes_per_item", float64(wchar)/float64(max(items, 1)), items,
			fmt.Sprintf("base: %d bytes written over %d items", wchar, items))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reconcileTranslate prints a translate pass's reconciliation and
// records the figures derived from it.
func (t *tracer) reconcileTranslate(kind string, tt *translateTrace) {
	n := float64(tt.n)
	t.note(fmt.Sprintf("reconcile %s: layer self-times %.3f ms = %.1f%% of replay wall %.3f ms; replay = %.1f%% of HTTP latency %.3f ms (n=%d)",
		kind, ms(tt.children)/n, 100*ratio(ms(tt.children), ms(tt.replay)), ms(tt.replay)/n,
		100*ratio(ms(tt.replay), ms(tt.http)), ms(tt.http)/n, tt.n))
	if _, ok := t.vals["trace.overhead_pct"]; !ok {
		t.set("trace.overhead_pct", 100*(ms(tt.replay)-ms(tt.plain))/ms(tt.plain), tt.n,
			fmt.Sprintf("traced replay %.1f ms vs untraced %.1f ms in total", ms(tt.replay), ms(tt.plain)))
	}
}

func (t *tracer) note(s string) { t.b.rep.note(s) }

// companions measures the layers the workload does not reach with small
// passes of the other request kinds.
func (t *tracer) companions(haveTranslate, haveVerify, haveJobs bool) error {
	if !haveTranslate {
		pics, err := t.b.pictures(streamTraced, 0, companionFresh)
		if err != nil {
			return err
		}
		tt, err := t.tracedTranslate("companion-translate", pics, nil, t.comp)
		if err != nil {
			return err
		}
		t.reconcileTranslate("companion translate", tt)
		t.freshReplayMS = ms(tt.replay) / float64(tt.n)
	}
	if !haveVerify {
		in, err := t.b.prepareVerify(companionDumps, companionDumpLo, companionDumpHi)
		if err != nil {
			return err
		}
		vt, err := t.tracedVerify("companion-verify", in, t.comp)
		if err != nil {
			return err
		}
		t.verifyFigures(vt, false)
	}
	if !haveJobs {
		stored, err := t.b.pictures(streamTraced, 1000, companionJobs)
		if err != nil {
			return err
		}
		fresh, err := t.b.pictures(streamTraced, 2000, companionJobs)
		if err != nil {
			return err
		}
		warm, err := buildJob("cw", nil, stored)
		if err != nil {
			return err
		}
		t.b.rep.count([]op{t.b.cl.job(warm.up, warm.want, "")})
		jb, err := buildJob("cj", stored, fresh)
		if err != nil {
			return err
		}
		jt, err := t.tracedJobs("companion-jobs", jb, stored, t.comp)
		if err != nil {
			return err
		}
		t.jobsFigures(jt, false)
	}
	return nil
}

// verifyFigures records a verify pass's split; own marks the workload's
// own pass, whose figures win over a companion's.
func (t *tracer) verifyFigures(vt *verifyTrace, own bool) {
	n := float64(vt.n)
	t.set("vcd.decode_mb_per_s", float64(vt.bytes)/1e6/vt.decode.Seconds(), vt.n,
		fmt.Sprintf("base: %d dump bytes decoded into a no-op sink in %.1f ms", vt.bytes, ms(vt.decode)))
	t.note(fmt.Sprintf("reconcile verify: layer self-times %.3f ms = %.1f%% of replay wall %.3f ms; replay = %.1f%% of HTTP latency %.3f ms; decode %.3f ms vs check %.3f ms per dump (n=%d)",
		ms(vt.children)/n, 100*ratio(ms(vt.children), ms(vt.replay)), ms(vt.replay)/n,
		100*ratio(ms(vt.replay), ms(vt.http)), ms(vt.http)/n, ms(vt.decode)/n, ms(vt.check)/n, vt.n))
	if own {
		t.set("serve.http_overhead_ms", median(vt.httpOverhead), vt.n, "traced HTTP latency minus the in-process replay, median")
		check := "holds"
		if vt.decode <= vt.check {
			check = "differs"
		}
		t.note(fmt.Sprintf("split check verify_stream (vcd decode > monitor check): %s", check))
	}
}

// jobsFigures records a jobs pass's figures.
func (t *tracer) jobsFigures(jt *jobsTrace, own bool) {
	t.note(fmt.Sprintf("reconcile jobs: HTTP job %.1f ms; in process jobs.Service %.1f ms vs batch.Run %.1f ms over %d items",
		ms(jt.http), ms(jt.service), ms(jt.batchRun), jt.items))
	if own {
		t.set("serve.http_overhead_ms", ms(jt.http-jt.service), 1, "HTTP job time minus the in-process jobs.Service time")
		check := "holds"
		if jt.service <= jt.batchRun {
			check = "differs"
		}
		t.note(fmt.Sprintf("split check jobs_corpus (jobs.overhead_ms_per_item > 0): %s", check))
	}
}

// satPool sizes a closed loop's fresh inputs: 1.6x what the cores could
// serve at the given server CPU per request, in steps of 250 so the input
// cache is reused across runs.
func satPool(cpuPerOp float64, conns int, dur time.Duration) int {
	if cpuPerOp <= 0 {
		cpuPerOp = 1
	}
	n := 1.6 * float64(conns) * 1000 / cpuPerOp * dur.Seconds()
	return int(math.Min(20000, math.Ceil(n/250)*250))
}

// flightPair repeats a fresh saturation phase against a second server
// started with -flight 0 and against the default server, and reports the
// throughput cost of the flight recorder.
func (t *tracer) flightPair() error {
	b := t.b
	dur := time.Duration(flightPairSecs * float64(time.Second))
	n := max(flightMinPool, satPool(t.freshReplayMS, b.conns, dur))
	pics, err := b.pictures(streamFlightOff, 0, 2*n)
	if err != nil {
		return err
	}
	run := func(cl *client, pics []picture) float64 {
		ops, start := closedLoop(b.conns, dur, func(_, k int) (op, bool) {
			if k >= len(pics) {
				return op{}, false
			}
			return cl.translate(&pics[k], ""), true
		})
		b.rep.count(ops)
		return phase{ops: ops, start: start, dur: dur}.throughput()
	}
	off, err := startServer(b.cfg.bin+"/tdserve", b.model, filepath.Join(b.dir, "flight-off"), "-flight", "0")
	if err != nil {
		return err
	}
	offCl := newClient(off.base)
	thrOff := run(offCl, pics[:n])
	offCl.close()
	if err := off.stop(); err != nil {
		return fmt.Errorf("stop tdserve -flight 0: %w", err)
	}
	thrOn := run(b.cl, pics[n:])
	t.set("obs.flight_overhead_pct", 100*(thrOff-thrOn)/thrOff, 2,
		fmt.Sprintf("fresh closed loop %.1fs: %.1f ops/s with -flight 0, %.1f ops/s on defaults", dur.Seconds(), thrOff, thrOn))
	return nil
}

// finishTrace writes the spans and adds every per-layer metric: the
// workload's own figure where its requests reach the layer, else the
// companion pass's.
func (t *tracer) finishTrace() error {
	if err := t.flightPair(); err != nil {
		return err
	}
	path := filepath.Join(t.b.cfg.work, "traces", fmt.Sprintf("%s-seed%d.json", t.b.cfg.workload, t.b.cfg.seed))
	if err := t.log.writeChrome(path); err != nil {
		return err
	}
	t.note(fmt.Sprintf("spans of %d requests written to %s (Chrome trace_event)", len(t.log.traces), path))
	for _, l := range perLayer {
		agg, how := layers.mean, "mean per call"
		if l.name == "monitor.max_resident" {
			agg, how = layers.max, "max over dumps"
		}
		m, ok := t.vals[l.name]
		switch {
		case ok:
		case len(t.own[l.name]) > 0:
			m = metric{Value: agg(t.own, l.name), N: len(t.own[l.name]), Note: how}
		case len(t.comp[l.name]) > 0:
			m = metric{Value: agg(t.comp, l.name), N: len(t.comp[l.name]), Note: how + ", companion pass"}
		default:
			m = metric{Value: math.NaN(), Note: "not measured"}
		}
		t.b.rep.add(l.name, m.Value, l.unit, m.N, m.Note)
	}
	return nil
}

func (l layers) max(name string) float64 { return percentile(l[name], 100) }

func (b *bench) traceTranslate(open, sat phase, seq, hot []picture) error {
	t := b.newTracer()
	fresh := hot == nil
	pics := seq
	if fresh {
		var err error
		if pics, err = b.pictures(streamTraced, 0, tracedFresh); err != nil {
			return err
		}
	} else if len(pics) > tracedHot {
		pics = pics[:tracedHot]
	}
	tt, err := t.tracedTranslate(b.cfg.workload, pics, hot, t.own)
	if err != nil {
		return err
	}
	t.phaseLayers(open, sat)
	t.reconcileTranslate(b.cfg.workload, tt)
	t.set("serve.http_overhead_ms", median(tt.httpOverhead), tt.n, "traced HTTP latency minus the in-process replay, median")
	openP50 := percentile(latencies(open.ops, isOK, op.latency), 50)
	t.set("serve.queue_wait_p50_ms", openP50-median(tt.httpLat), tt.n,
		fmt.Sprintf("open-loop p50 %.3f ms minus traced single-connection p50 %.3f ms", openP50, median(tt.httpLat)))
	if fresh {
		t.freshReplayMS = ms(tt.replay) / float64(tt.n)
		share := ratio(ms(tt.stages), ms(tt.replay))
		check := "holds"
		if share < 1.0/3 {
			check = "differs"
		}
		t.note(fmt.Sprintf("split check translate_fresh (stages >= 1/3 of replay): %s (%.1f%%)", check, 100*share))
	} else {
		largest, top := "", 0.0
		for _, name := range []string{"imgproc.decode_ms", "store.hash_image_ms", "store.get_ms"} {
			if v := t.own.mean(name); v > top {
				largest, top = name, v
			}
		}
		check := "holds"
		if largest != "imgproc.decode_ms" {
			check = "differs: largest is " + largest
		}
		t.note(fmt.Sprintf("split check translate_hot (imgproc.decode_ms is the largest layer): %s", check))
	}
	if err := t.companions(fresh, false, false); err != nil {
		return err
	}
	return t.finishTrace()
}

func (b *bench) traceVerify(sat phase, in *verifyInputs) error {
	t := b.newTracer()
	vt, err := t.tracedVerify(b.cfg.workload, in, t.own)
	if err != nil {
		return err
	}
	t.phaseLayers(sat)
	t.verifyFigures(vt, true)
	p50 := percentile(latencies(sat.ops, isOK, op.latency), 50)
	t.set("serve.queue_wait_p50_ms", p50-median(vt.httpLat), vt.n,
		fmt.Sprintf("closed-loop p50 %.3f ms minus traced single-connection p50 %.3f ms", p50, median(vt.httpLat)))
	if err := t.companions(false, true, false); err != nil {
		return err
	}
	return t.finishTrace()
}

func (b *bench) traceJobs(p phase, first []picture) error {
	t := b.newTracer()
	fresh, err := b.pictures(streamTraced, 3000, jobHalf)
	if err != nil {
		return err
	}
	jb, err := buildJob("tj", first, fresh)
	if err != nil {
		return err
	}
	jt, err := t.tracedJobs(b.cfg.workload, jb, first, t.own)
	if err != nil {
		return err
	}
	t.phaseLayers(p)
	t.jobsFigures(jt, true)
	p50 := percentile(latencies(p.ops, isOK, op.latency), 50)
	t.set("serve.queue_wait_p50_ms", p50-ms(jt.http), 1,
		fmt.Sprintf("closed-loop job p50 %.1f ms minus the traced job %.1f ms", p50, ms(jt.http)))
	if err := t.companions(false, false, true); err != nil {
		return err
	}
	return t.finishTrace()
}
