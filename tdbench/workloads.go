package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tdmagic/internal/parallel"
	"tdmagic/internal/spo"
	"tdmagic/internal/store"
)

// workload is one traffic mix. The rate, connection count and latency
// limit are recorded, with the reason for the workload, in BENCHMARK.json.
type workload struct {
	rate    float64 // open-loop arrivals per second; 0: closed loop only
	limitMS float64 // latency_p99 {max}; goodput counts ops within it
	run     func(b *bench) error
}

var workloads = map[string]workload{
	"translate_fresh": {rate: 80, limitMS: 100, run: runTranslateFresh},
	"translate_hot":   {rate: 150, limitMS: 50, run: runTranslateHot},
	"verify_stream":   {limitMS: 2000, run: runVerifyStream},
	"jobs_corpus":     {limitMS: 30000, run: runJobsCorpus},
}

// Workload sizes.
const (
	openShare   = 1.0 / 3 // share of the run's seconds in the open-loop phase
	warmPics    = 40      // fresh pictures translated before any phase
	hotSet      = 2000    // translate_hot working set, above the 256-entry LRU
	hotWarm     = 1000    // untimed Zipf requests warming the LRU
	zipfS       = 1.1
	verifySpecs = 6  // specifications the dumps are checked against
	verifyDumps = 20 // dump pool, 0.25-2 MB each
	dumpMin     = 256 << 10
	dumpMax     = 2 << 20
	jobHalf     = 500 // a job is jobHalf stored pictures plus jobHalf fresh ones
	maxJobs     = 12
)

func (b *bench) seconds() time.Duration {
	return time.Duration(b.cfg.seconds * float64(time.Second))
}

func (b *bench) splitSeconds() (open, sat time.Duration) {
	total := b.seconds()
	open = time.Duration(openShare * float64(total))
	return open, total - open
}

// warm translates a few pictures so connections, pools and page cache
// are warm before any phase. Their outputs are checked too.
func (b *bench) warm(pics []picture) {
	ops, _ := closedLoop(b.conns, time.Hour, func(_, k int) (op, bool) {
		if k >= len(pics) {
			return op{}, false
		}
		return b.cl.translate(&pics[k], ""), true
	})
	b.rep.count(ops)
}

// translatePhases runs the open loop at the workload's rate, then the
// closed-loop saturation phase. openPick and satPick map an op index of
// each phase to its picture; the saturation phase has satLimit inputs.
func (b *bench) translatePhases(sched []time.Duration, openPick, satPick func(i int) *picture,
	satLimit int) (open, sat phase, err error) {
	openDur, satDur := b.splitSeconds()
	open, err = b.measure(openDur, func() ([]op, time.Time) {
		return openLoop(sched, func(i int) op { return b.cl.translate(openPick(i), "") })
	})
	if err != nil {
		return
	}
	sat, err = b.measure(satDur, func() ([]op, time.Time) {
		return closedLoop(b.conns, satDur, func(_, k int) (op, bool) {
			if k >= satLimit {
				return op{}, false
			}
			return b.cl.translate(satPick(k), ""), true
		})
	})
	if err == nil && len(sat.ops) >= satLimit {
		// Out of inputs: measure only the whole seconds before.
		sat.dur = sat.span().Truncate(time.Second)
		b.rep.note(fmt.Sprintf("saturation phase ran out of inputs after %d requests (%v)", satLimit, sat.dur))
	}
	return
}

// translateReport adds the end-to-end metrics of a translate workload.
func (b *bench) translateReport(open, sat phase) {
	thr := sat.windowedThroughput()
	b.rep.add("throughput_ops_per_s", thr/b.speedOf(sat, "the closed loop"), "ops/s", sat.completedOK(),
		fmt.Sprintf("closed loop, %d connections, median of 1s windows, at reference speed; %.1f ops/s as measured", b.conns, thr))
	b.latencyMetrics(open, fmt.Sprintf("open loop %g req/s, from due time", b.w.rate), open.span().Seconds(), false)
}

func runTranslateFresh(b *bench) error {
	pool, err := b.pool()
	if err != nil {
		return err
	}
	b.warm(pool[:warmPics])
	openDur, _ := b.splitSeconds()
	sched := poissonSchedule(parallel.Seed(b.cfg.seed, streamSchedule), b.w.rate, openDur)
	pics := pool[warmPics : warmPics+len(sched)]
	satPics := pool[warmPics+len(sched):]
	open, sat, err := b.translatePhases(sched, func(i int) *picture { return &pics[i] },
		func(k int) *picture { return &satPics[k] }, len(satPics))
	if err != nil {
		return err
	}
	if hits := cachedOps(open.ops) + cachedOps(sat.ops); hits > 0 {
		b.rep.note(fmt.Sprintf("%d fresh requests hit a cache (duplicate pictures in the pool)", hits))
	}
	if !b.cfg.trace {
		b.translateReport(open, sat)
		return nil
	}
	return b.traceTranslate(open, sat, nil, nil)
}

func cachedOps(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.cached {
			n++
		}
	}
	return n
}

func runTranslateHot(b *bench) error {
	pool, err := b.pool()
	if err != nil {
		return err
	}
	hot := pool[:hotSet]
	// Put the working set's artifacts into the server's store out of band,
	// as a batch run sharing the store would have, then warm the LRU with
	// an untimed Zipf pass.
	st, err := store.Open(b.srv.storeDir)
	if err != nil {
		return err
	}
	for _, p := range hot {
		if err := st.Put(b.or.cfgHash, p.Key, p.Want[:len(p.Want)-1]); err != nil {
			return err
		}
	}
	warm := zipfPicks(parallel.Seed(b.cfg.seed, streamWarm), len(hot), hotWarm, zipfS)
	ops, _ := closedLoop(b.conns, time.Hour, func(_, k int) (op, bool) {
		if k >= len(warm) {
			return op{}, false
		}
		return b.cl.translate(&hot[warm[k]], ""), true
	})
	b.rep.count(ops)
	openDur, _ := b.splitSeconds()
	sched := poissonSchedule(parallel.Seed(b.cfg.seed, streamSchedule), b.w.rate, openDur)
	const satMax = 200000
	picks := zipfPicks(parallel.Seed(b.cfg.seed, streamPicks), len(hot), len(sched)+satMax, zipfS)
	open, sat, err := b.translatePhases(sched, func(i int) *picture { return &hot[picks[i]] },
		func(k int) *picture { return &hot[picks[len(sched)+k]] }, satMax)
	if err != nil {
		return err
	}
	if miss := len(open.ops) + len(sat.ops) - cachedOps(open.ops) - cachedOps(sat.ops); miss > 0 {
		b.rep.note(fmt.Sprintf("%d hot requests missed both cache tiers", miss))
	}
	if !b.cfg.trace {
		b.translateReport(open, sat)
		return nil
	}
	seq := make([]picture, len(sched))
	for i := range seq {
		seq[i] = hot[picks[i]]
	}
	return b.traceTranslate(open, sat, seq, hot)
}

// verifyInputs are the verify workload's prepared requests.
type verifyInputs struct {
	specs  []picture
	dumps  []dump
	bodies []multipartBody
	wants  []*verifyWant
}

// prepareVerify picks translatable specifications, translates them on
// the server (so requests can name them by ref), and builds the dumps
// with their expected outcomes.
func (b *bench) prepareVerify(nDumps, lo, hi int) (*verifyInputs, error) {
	cands, err := b.pictures(streamVerifySpec, 0, 60)
	if err != nil {
		return nil, err
	}
	in := &verifyInputs{}
	for i := range cands {
		if len(in.specs) < verifySpecs && verifiable(specOf(cands[i].Want)) {
			in.specs = append(in.specs, cands[i])
		}
	}
	if len(in.specs) == 0 {
		return nil, fmt.Errorf("no verifiable specification among %d pictures", len(cands))
	}
	var ops []op
	for i := range in.specs {
		ops = append(ops, b.cl.translate(&in.specs[i], ""))
	}
	b.rep.count(ops)
	spos := make([]*spo.SPO, len(in.specs))
	for i := range in.specs {
		spos[i] = specOf(in.specs[i].Want)
	}
	if in.dumps, err = genDumps(parallel.Seed(b.cfg.seed, streamVerifyDump), spos, nDumps, lo, hi); err != nil {
		return nil, err
	}
	in.bodies = make([]multipartBody, len(in.dumps))
	in.wants = make([]*verifyWant, len(in.dumps))
	err = parallel.ForErr(0, len(in.dumps), func(i int) error {
		d := in.dumps[i]
		spec := in.specs[d.Spec]
		ref := spec.Key.Hex()
		delays, err := json.Marshal(map[string]any{"delays": d.Delays})
		if err != nil {
			return err
		}
		if in.bodies[i], err = verifyBody(ref, delays, d.VCD); err != nil {
			return err
		}
		in.wants[i], err = expectVerify(spec.Want, ref, d)
		return err
	})
	return in, err
}

func runVerifyStream(b *bench) error {
	in, err := b.prepareVerify(verifyDumps, dumpMin, dumpMax)
	if err != nil {
		return err
	}
	violating, designed := 0, 0
	for i, w := range in.wants {
		if !w.OK {
			violating++
		}
		if in.dumps[i].Violate {
			designed++
		}
	}
	b.rep.note(fmt.Sprintf("dumps: %d, %d violate by design, %d violate per monitor.Check", len(in.dumps), designed, violating))
	// Each caller walks the pool in its own seeded order.
	order := make([][]int, b.conns)
	for w := range order {
		order[w] = rand.New(rand.NewSource(parallel.Seed(b.cfg.seed, streamCallers+int64(w)*1000))).Perm(len(in.dumps))
	}
	warmOps, _ := closedLoop(b.conns, time.Hour, func(w, k int) (op, bool) {
		if k >= b.conns {
			return op{}, false
		}
		i := order[w][0]
		return b.cl.verify(in.bodies[i], in.wants[i], ""), true
	})
	b.rep.count(warmOps)
	dur := b.seconds()
	next := make([]int, b.conns)
	sat, err := b.measure(dur, func() ([]op, time.Time) {
		return closedLoop(b.conns, dur, func(w, _ int) (op, bool) {
			i := order[w][next[w]%len(order[w])]
			next[w]++
			return b.cl.verify(in.bodies[i], in.wants[i], ""), true
		})
	})
	if err != nil {
		return err
	}
	if !b.cfg.trace {
		b.rep.add("throughput_ops_per_s", sat.throughput()/b.speedOf(sat, "the closed loop"), "ops/s", sat.completedOK(),
			fmt.Sprintf("closed loop, %d callers, at reference speed; %.3f ops/s as measured", b.conns, sat.throughput()))
		b.latencyMetrics(sat, fmt.Sprintf("closed loop, %d callers, request latency", b.conns), sat.span().Seconds(), true)
		first := latencies(sat.ops, isOK, op.firstVerdict)
		b.rep.note(fmt.Sprintf("first_verdict_p50_ms %.3f ms (n=%d): send to the first verdict line", percentile(first, 50), len(first)))
		return nil
	}
	return b.traceVerify(sat, in)
}

// jobBatch is one prepared job: its upload and expected result lines.
type jobBatch struct {
	up    multipartBody
	want  [][]byte
	pics  []picture
	names []string
}

// buildJob interleaves stored and fresh pictures into one job.
func buildJob(tag string, stored, fresh []picture) (jobBatch, error) {
	var jb jobBatch
	for i := 0; i < len(stored) || i < len(fresh); i++ {
		if i < len(stored) {
			jb.pics = append(jb.pics, stored[i])
		}
		if i < len(fresh) {
			jb.pics = append(jb.pics, fresh[i])
		}
	}
	for i, p := range jb.pics {
		name := fmt.Sprintf("%s-%04d", tag, i)
		line, err := jobLine(i, name, p.Want)
		if err != nil {
			return jb, err
		}
		jb.names = append(jb.names, name)
		jb.want = append(jb.want, line)
	}
	var err error
	jb.up, err = jobUpload(jb.pics, jb.names)
	return jb, err
}

func runJobsCorpus(b *bench) error {
	first, err := b.pictures(streamJobs, 0, jobHalf)
	if err != nil {
		return err
	}
	warmJob, err := buildJob("warm", nil, first)
	if err != nil {
		return err
	}
	w := b.cl.job(warmJob.up, warmJob.want, "")
	b.rep.count([]op{w})
	if w.outcome != okOutcome {
		return fmt.Errorf("warm-up job: %s", w.detail)
	}
	// Jobs run back to back until their summed completion times cover the
	// run's seconds. Each job's fresh half is generated while the server
	// is idle between jobs, so only as many pictures are made as run, and
	// job j's stored half is job j-1's fresh half.
	dur := b.seconds()
	var p phase
	stored := first
	for j := 0; j < maxJobs && p.dur < dur; j++ {
		fresh, err := b.pictures(streamJobs, jobHalf*(j+1), jobHalf)
		if err != nil {
			return err
		}
		jb, err := buildJob(fmt.Sprintf("j%d", j), stored, fresh)
		if err != nil {
			return err
		}
		one, err := b.measure(0, func() ([]op, time.Time) {
			o := b.cl.job(jb.up, jb.want, "")
			return []op{o}, o.sent
		})
		if err != nil {
			return err
		}
		if j == 0 {
			p.start, p.before = one.start, one.before
		}
		p.ops = append(p.ops, one.ops...)
		p.after = one.after
		p.dur += one.ops[0].latency()
		stored = fresh
	}
	var each []string
	for _, o := range p.ops {
		each = append(each, fmt.Sprintf("%.0f", ms(o.latency())))
	}
	b.rep.note(fmt.Sprintf("job completion times (ms): %s", strings.Join(each, " ")))
	if !b.cfg.trace {
		thr := float64(p.okItems()) / p.dur.Seconds()
		b.rep.add("throughput_ops_per_s", thr/b.speedOf(p, "the jobs"), "ops/s", p.okItems(),
			fmt.Sprintf("one submitter, %d-item jobs, items over summed submit-to-last-result times, at reference speed; %.1f ops/s as measured", 2*jobHalf, thr))
		b.latencyMetrics(p, "job completion: submit start to last result line", p.dur.Seconds(), true)
		return nil
	}
	return b.traceJobs(p, first)
}
