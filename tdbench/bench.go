package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"tdmagic/internal/parallel"
)

// bench is one run's state: the live server, the oracle over the same
// model, and the report being filled.
type bench struct {
	cfg   config
	w     workload
	dir   string // per-run scratch, removed at exit
	cache string // input cache shared by runs
	conns int    // closed-loop connections: one per CPU

	probe *speedProbe
	model string
	srv   *server
	or    *oracle
	cl    *client
	rep   *report
}

// setupRepeats is how many fresh starts a run times for setup_s; the
// median is reported.
const setupRepeats = 3

// setup times fresh starts to serving: tdtrain on its defaults, then
// tdserve on the new model over empty store and jobs directories, until
// its first 200 from /readyz. The last server started stays up for the
// run.
func (b *bench) setup() error {
	repeats := setupRepeats
	if b.cfg.trace {
		repeats = 1
	}
	var times []float64
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		model := filepath.Join(dir, "model.gob")
		start := time.Now()
		if err := train(b.cfg.bin+"/tdtrain", model); err != nil {
			return err
		}
		srv, err := startServer(b.cfg.bin+"/tdserve", model, dir)
		if err != nil {
			return err
		}
		end := time.Now()
		speed, _ := b.probe.speed(start, end)
		times = append(times, end.Sub(start).Seconds()*speed)
		if i < repeats-1 {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("stop tdserve: %w", err)
			}
			continue
		}
		b.srv, b.model = srv, model
	}
	if !b.cfg.trace {
		b.rep.add("setup_s", median(times), "s", len(times), "tdtrain + tdserve start to first /readyz 200, median, at reference speed")
	}
	var err error
	if b.or, err = newOracle(b.model); err != nil {
		return err
	}
	b.cl = newClient(b.srv.base)
	return nil
}

// finish reads the end-of-run figures.
func (b *bench) finish() error {
	if b.cfg.trace {
		return nil
	}
	ps, err := b.srv.proc()
	if err != nil {
		return err
	}
	b.rep.add("peak_rss_mb", float64(ps.hwmKB)/1024, "MB", 0, "tdserve VmHWM at the end of the run")
	return nil
}

// close stops the server, the client's connections and the speed probe.
func (b *bench) close() {
	if err := b.probe.close(); err != nil {
		fmt.Fprintln(os.Stderr, "tdbench: stop speed probe:", err)
	}
	if b.cl != nil {
		b.cl.close()
	}
	if b.srv != nil {
		if err := b.srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "tdbench: stop tdserve:", err)
		}
	}
}

// pictures generates (or loads) a picture range of one stream.
func (b *bench) pictures(stream int64, from, n int) ([]picture, error) {
	return genPictures(b.cache, b.or, b.cfg.seed, stream, from, n)
}

// pool returns the fresh-picture pool in the run's seeded order. The
// order permutes whole blocks of five consecutive pictures, so a prefix
// whose length is a multiple of five keeps the stratified class mix.
func (b *bench) pool() ([]picture, error) {
	all, err := genPictures(b.cache, b.or, poolSeed, streamPool, 0, poolSize)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(parallel.Seed(b.cfg.seed, streamPool)))
	pics := make([]picture, 0, len(all))
	for _, blk := range r.Perm(len(all) / 5) {
		pics = append(pics, all[5*blk:5*blk+5]...)
	}
	return pics, nil
}

// phase is one measured load phase with the outside counters around it.
type phase struct {
	ops    []op
	start  time.Time
	dur    time.Duration
	before counters
	after  counters
}

// measure reads the counters around a load function.
func (b *bench) measure(dur time.Duration, load func() ([]op, time.Time)) (phase, error) {
	p := phase{dur: dur}
	var err error
	if p.before, err = b.srv.read(); err != nil {
		return p, err
	}
	// The load generator shares the cores with the server: collect its
	// garbage before the phase and none during it, so its collector never
	// delays a response or steals a server cycle mid-measurement.
	runtime.GC()
	// Start every phase with no dirty pages pending, so writeback left by
	// set-up (or an earlier phase) never lands inside the measurement.
	syscall.Sync()
	gc := debug.SetGCPercent(-1)
	p.ops, p.start = load()
	debug.SetGCPercent(gc)
	if p.after, err = b.srv.read(); err != nil {
		return p, err
	}
	b.rep.count(p.ops)
	return p, nil
}

// completedOK counts successful ops (weighted by items) that ended
// inside the phase window.
func (p phase) completedOK() int {
	end := p.start.Add(p.dur)
	n := 0
	for _, o := range p.ops {
		if o.outcome == okOutcome && !o.end.After(end) {
			n += o.items
		}
	}
	return n
}

// throughput is successful items per second of the phase window.
func (p phase) throughput() float64 { return float64(p.completedOK()) / p.dur.Seconds() }

// windowedThroughput is the median over the phase's whole one-second
// windows of the successful items completed in each, which keeps a
// momentary stall of the shared machine from moving the figure.
func (p phase) windowedThroughput() float64 {
	counts := p.windowCounts()
	if len(counts) < 3 {
		return p.throughput()
	}
	return median(counts)
}

// windowCounts is the successful items completed in each whole
// one-second window of the phase.
func (p phase) windowCounts() []float64 {
	counts := make([]float64, int(p.dur/time.Second))
	for _, o := range p.ops {
		if w := int(o.end.Sub(p.start) / time.Second); o.outcome == okOutcome && w < len(counts) {
			counts[w] += float64(o.items)
		}
	}
	return counts
}

// span is the phase's length from its start to its last response.
func (p phase) span() time.Duration {
	span := p.dur
	for _, o := range p.ops {
		span = max(span, o.end.Sub(p.start))
	}
	return span
}

// okItems counts the items of successful ops.
func (p phase) okItems() int {
	n := 0
	for _, o := range p.ops {
		if o.outcome == okOutcome {
			n += o.items
		}
	}
	return n
}

// speedOf is the machine's speed relative to the reference over a phase,
// with a note giving it and its sample count.
func (b *bench) speedOf(p phase, name string) float64 {
	s, n := b.probe.speed(p.start, p.start.Add(p.span()))
	b.rep.note(fmt.Sprintf("machine speed during %s: %.3f of reference (%d probe samples)", name, s, n))
	return s
}

// latencyMetrics reports the p50 and p99 latency of the successful ops
// and goodput: items that succeeded within the workload's limit per
// second of secs. A failed or refused op misses the limit. The p50 is
// given at reference speed, and so is goodput when the phase is a closed
// loop, whose pace the machine sets; an open loop's pace is its schedule.
func (b *bench) latencyMetrics(p phase, how string, secs float64, closed bool) {
	speed := b.speedOf(p, how)
	lat := latencies(p.ops, isOK, op.latency)
	n := len(lat)
	p50 := percentile(lat, 50)
	b.rep.add("latency_p50_ms", p50*speed, "ms", n, fmt.Sprintf("%s, at reference speed; %.3f ms as measured", how, p50))
	// The p99 is printed, not gated: with a few hundred samples, or with
	// the shared machine's speed drifting between runs, it does not repeat
	// within any bound BENCHMARK.json may set.
	resolved := "resolved"
	if !tailSampled(n, 99) {
		resolved = fmt.Sprintf("under-resolved, %d samples beyond it", tailBeyond(n, 99))
	}
	b.rep.note(fmt.Sprintf("latency_p99_ms %.3f ms as measured (n=%d, %s): %s", percentile(lat, 99), n, resolved, how))
	if !closed {
		lag := latencies(p.ops, isOK, func(o op) time.Duration { return o.lag })
		b.rep.note(fmt.Sprintf("load generator sent %.3f ms after the due time at p50, %.3f ms at p99", percentile(lag, 50), percentile(lag, 99)))
	}
	good := 0
	for _, o := range p.ops {
		if o.outcome == okOutcome && ms(o.latency()) <= b.w.limitMS {
			good += o.items
		}
	}
	goodput, note := float64(good)/secs, fmt.Sprintf("within latency_p99 {max: %gms} as measured", b.w.limitMS)
	if closed {
		note += fmt.Sprintf(", at reference speed; %.3f ops/s as measured", goodput)
		goodput /= speed
	}
	b.rep.add("goodput_ops_per_s", goodput, "ops/s", len(p.ops), note)
}
