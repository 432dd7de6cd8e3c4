package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/jobs"
	"tdmagic/internal/lad"
	"tdmagic/internal/monitor"
	"tdmagic/internal/obs"
	"tdmagic/internal/ocr"
	"tdmagic/internal/sed"
	"tdmagic/internal/sei"
	"tdmagic/internal/spo"
	"tdmagic/internal/store"
	"tdmagic/internal/vcd"
)

// The traced run. After the same phases as the untraced run, a
// single-connection pass sends a sample of the workload's requests over
// HTTP and replays each in process through the layers' exported
// functions, in the order the server calls them. Every call is wrapped
// in a benchmark-owned span named after its layer metric; the spans of
// one request share its X-Request-ID. Layers the workload never reaches
// are measured by small companion passes of the other request kinds, so
// every traced run reports every layer.

// Traced pass sizes.
const (
	tracedFresh     = 200 // fresh pictures replayed on translate_fresh
	tracedHot       = 500 // Zipf picks replayed on translate_hot
	companionFresh  = 30
	companionDumps  = 2
	companionJobs   = 50 // stored plus fresh items of the companion job
	flightPairSecs  = 2.0
	flightMinPool   = 250
	companionDumpLo = 256 << 10
	companionDumpHi = 512 << 10
)

// spanLog keeps the traced pass's spans in memory, one obs.Trace per
// request, until the run writes them out.
type spanLog struct {
	traces []*obs.Trace
	starts []time.Time
}

func (l *spanLog) request(id string) *obs.Trace {
	l.starts = append(l.starts, time.Now())
	tr := obs.NewTrace(id)
	l.traces = append(l.traces, tr)
	return tr
}

// writeChrome writes every request's spans as one Chrome trace_event
// file: each trace goes through obs's exporter, then its events are
// shifted onto the run's timeline and tagged with the request ID.
func (l *spanLog) writeChrome(path string) error {
	if len(l.traces) == 0 {
		return nil
	}
	epoch := l.starts[0]
	var all []map[string]any
	for i, tr := range l.traces {
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			return err
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			return err
		}
		shift := float64(l.starts[i].Sub(epoch)) / float64(time.Microsecond)
		for _, ev := range doc.TraceEvents {
			ev["ts"] = ev["ts"].(float64) + shift
			ev["cat"] = "tdbench"
			args, _ := ev["args"].(map[string]any)
			if args == nil {
				args = map[string]any{}
			}
			args["request_id"] = tr.RequestID()
			ev["args"] = args
			all = append(all, ev)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": all, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timed runs fn as a child span of parent named after the layer and
// returns the call's duration. A nil parent times without tracing.
func timed(parent *obs.Span, name string, fn func()) time.Duration {
	sp := parent.StartChild(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.End()
	return d
}

// layers accumulates per-layer samples in milliseconds (or counts).
type layers map[string][]float64

func (l layers) add(name string, v float64) {
	if l != nil {
		l[name] = append(l[name], v)
	}
}

func (l layers) addDur(name string, d time.Duration) { l.add(name, ms(d)) }

func (l layers) mean(name string) float64 {
	xs := l[name]
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tracer is one traced run's state.
type tracer struct {
	b    *bench
	log  spanLog
	own  layers // the workload's own requests
	comp layers // companion passes
	vals map[string]metric
	seq  int
	// freshReplayMS is the mean in-process replay of a fresh picture,
	// which sizes the flight-recorder comparison's inputs.
	freshReplayMS float64
}

func (t *tracer) rid(kind string) string {
	t.seq++
	return fmt.Sprintf("tdbench-%s-%d-%d", kind, t.b.cfg.seed, t.seq)
}

func (t *tracer) openStore(name string) (*store.Store, error) {
	return store.Open(filepath.Join(t.b.dir, name))
}

// replayed is the outcome of one in-process translate replay.
type replayed struct {
	img       *imgproc.Gray
	hit       bool
	translate time.Duration // core.translate, zero on a hit
	wall      time.Duration // the whole replay
	layers    time.Duration // sum of the layer calls
}

// replayTranslate replays the server's path for one picture: decode,
// hash, store lookup and, on a miss, translate, encode and put.
func (t *tracer) replayTranslate(root *obs.Span, st *store.Store, p *picture, acc layers) (replayed, error) {
	pipe, cfg := t.b.or.pipe, t.b.or.cfgHash
	var r replayed
	start := time.Now()
	step := func(name string, fn func()) {
		d := timed(root, name, fn)
		acc.addDur(name+"_ms", d)
		r.layers += d
	}
	var err error
	step("imgproc.decode", func() { r.img, err = imgproc.DecodePNG(bytes.NewReader(p.PNG)) })
	if err != nil {
		return r, err
	}
	var key store.Hash
	step("store.hash_image", func() { key = store.HashImage(r.img) })
	step("store.get", func() {
		if body, ok := st.Get(cfg, key); ok {
			_, derr := decodeArtifact(body)
			r.hit = derr == nil
		}
	})
	if r.hit {
		r.wall = time.Since(start)
		return r, nil
	}
	var out *spo.SPO
	var rep *core.Report
	before := r.layers
	step("core.translate", func() { out, rep, err = pipe.TranslateContext(context.Background(), r.img) })
	r.translate = r.layers - before
	if err != nil {
		return r, err
	}
	var body []byte
	step("core.encode", func() { body, err = json.Marshal(batch.Artifact{SPO: out, Spec: out.SpecText(), Diags: rep.Diags}) })
	if err != nil {
		return r, err
	}
	step("store.put", func() { err = st.Put(cfg, key, body) })
	r.wall = time.Since(start)
	return r, err
}

// replayStages runs the perception and interpretation stages one by one
// through their exported entry points, as core's translate does (SED and
// OCR run in sequence here, so each self time is its own), and returns
// their summed time.
func (t *tracer) replayStages(root *obs.Span, img *imgproc.Gray, acc layers) (time.Duration, error) {
	pipe := t.b.or.pipe
	ctx := context.Background()
	var sum time.Duration
	var bw *imgproc.Binary
	d := timed(root, "imgproc.binarize", func() {
		thr := pipe.LADCfg.Threshold
		if thr == 0 {
			thr = imgproc.OtsuThresholdW(img, 1)
		}
		bw = imgproc.ThresholdW(img, thr, 1)
	})
	acc.addDur("imgproc.binarize_ms", d)
	sum += d
	var lines *lad.Result
	var err error
	ladCfg := pipe.LADCfg
	ladCfg.Workers = 1
	d = timed(root, "lad.detect", func() { lines, err = lad.DetectBinaryCtx(ctx, bw, ladCfg) })
	acc.addDur("lad.detect_ms", d)
	sum += d
	if err != nil {
		return sum, err
	}
	var edges []sed.Detection
	d = timed(root, "sed.detect", func() { edges, err = pipe.SED.DetectCtxW(ctx, img, lines, 1) })
	acc.addDur("sed.detect_ms", d)
	acc.add("sed.edge_boxes", float64(len(edges)))
	sum += d
	if err != nil {
		return sum, err
	}
	var texts []ocr.Result
	ocrCfg := pipe.OCRCfg
	ocrCfg.Workers = 1
	d = timed(root, "ocr.read", func() { texts, err = pipe.OCR.ReadAllCtx(ctx, lines.BW, lines, ocrCfg) })
	acc.addDur("ocr.read_ms", d)
	acc.add("ocr.text_boxes", float64(len(texts)))
	sum += d
	if err != nil {
		return sum, err
	}
	edges = dropTextOverlaps(edges, texts)
	d = timed(root, "sei.interpret", func() {
		_, err = sei.Interpret(sei.Input{Width: img.W, Height: img.H, Edges: edges, Lines: lines, Texts: texts}, pipe.SEICfg)
	})
	acc.addDur("sei.interpret_ms", d)
	return sum + d, err
}

// dropTextOverlaps mirrors the pipeline's cross-check between SED and
// OCR: an edge box coinciding with recognised text is a glyph.
func dropTextOverlaps(dets []sed.Detection, texts []ocr.Result) []sed.Detection {
	var kept []sed.Detection
	for _, d := range dets {
		isText := false
		for _, t := range texts {
			if d.Box.IoU(t.Box) >= 0.4 || t.Box.Expand(2, 2).Contains(d.Box) {
				isText = true
				break
			}
		}
		if !isText {
			kept = append(kept, d)
		}
	}
	return kept
}

// translateTrace sums one translate pass's reconciliation figures.
type translateTrace struct {
	n                     int
	http, replay, plain   time.Duration // HTTP latency, traced and untraced replay wall
	children, stages      time.Duration // replay layer self-times, stage pass
	httpLat, httpOverhead []float64
}

// tracedTranslate sends each picture over one connection, then replays
// it traced and untraced against two private stores (alternating which
// goes first) and, on a miss, runs the stage pass.
func (t *tracer) tracedTranslate(kind string, pics []picture, preload []picture, acc layers) (*translateTrace, error) {
	stT, err := t.openStore("replay-" + kind + "-traced")
	if err != nil {
		return nil, err
	}
	stP, err := t.openStore("replay-" + kind + "-plain")
	if err != nil {
		return nil, err
	}
	for _, p := range preload {
		art := p.Want[:len(p.Want)-1]
		if err := stT.Put(t.b.or.cfgHash, p.Key, art); err != nil {
			return nil, err
		}
		if err := stP.Put(t.b.or.cfgHash, p.Key, art); err != nil {
			return nil, err
		}
	}
	tt := &translateTrace{}
	for i := range pics {
		p := &pics[i]
		rid := t.rid(kind)
		tr := t.log.request(rid)
		root := tr.Start("http.translate")
		o := t.b.cl.translate(p, rid)
		root.End()
		t.b.rep.count([]op{o})
		var traced, plain replayed
		runTraced := func() error {
			rp := tr.Start("replay")
			var err error
			traced, err = t.replayTranslate(rp, stT, p, acc)
			rp.End()
			return err
		}
		runPlain := func() error {
			var err error
			plain, err = t.replayTranslate(nil, stP, p, nil)
			return err
		}
		first, second := runTraced, runPlain
		if i%2 == 1 {
			first, second = runPlain, runTraced
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
		lat := o.end.Sub(o.sent)
		tt.n++
		tt.http += lat
		tt.replay += traced.wall
		tt.plain += plain.wall
		tt.children += traced.layers
		tt.httpLat = append(tt.httpLat, ms(lat))
		tt.httpOverhead = append(tt.httpOverhead, ms(lat-traced.wall))
		if !traced.hit {
			sp := tr.Start("stages")
			d, err := t.replayStages(sp, traced.img, acc)
			sp.End()
			if err != nil {
				return nil, err
			}
			tt.stages += d
			acc.addDur("core.unattributed_ms", traced.translate-d)
		}
	}
	return tt, nil
}

// nopSink consumes a decoded dump without checking it.
type nopSink struct{ n int }

func (s *nopSink) Declare(string, bool) int           { s.n++; return s.n - 1 }
func (s *nopSink) Change(int, float64, float64) error { return nil }

// verifyTrace sums one verify pass's reconciliation figures.
type verifyTrace struct {
	n                      int
	http, replay, children time.Duration
	decode, check          time.Duration
	bytes                  int64
	httpLat, httpOverhead  []float64
}

// tracedVerify sends each dump once over one connection and replays it:
// artifact lookup, property compilation and the streaming check, then a
// decode-only pass (for the vcd/monitor split) and a direct monitor pass
// (for its resident state).
func (t *tracer) tracedVerify(kind string, in *verifyInputs, acc layers) (*verifyTrace, error) {
	st, err := t.openStore("replay-" + kind + "-verify")
	if err != nil {
		return nil, err
	}
	for _, p := range in.specs {
		if err := st.Put(t.b.or.cfgHash, p.Key, p.Want[:len(p.Want)-1]); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	vt := &verifyTrace{}
	for i, d := range in.dumps {
		spec := in.specs[d.Spec]
		rid := t.rid(kind)
		tr := t.log.request(rid)
		root := tr.Start("http.verify")
		o := t.b.cl.verify(in.bodies[i], in.wants[i], rid)
		root.End()
		t.b.rep.count([]op{o})

		rp := tr.Start("replay")
		start := time.Now()
		var a batch.Artifact
		get := timed(rp, "store.get", func() {
			body, ok := st.Get(t.b.or.cfgHash, spec.Key)
			if ok {
				a, err = decodeArtifact(body)
			} else {
				err = fmt.Errorf("spec %s missing from the replay store", spec.Key.Hex())
			}
		})
		if err != nil {
			return nil, err
		}
		mspec := &monitor.Spec{SPO: a.SPO, Delays: d.Delays}
		compile := timed(rp, "verify.compile", func() { _, _, err = core.CompileProperties(ctx, mspec) })
		if err != nil {
			return nil, err
		}
		stream := timed(rp, "monitor.verify_stream", func() {
			_, err = core.VerifyStream(ctx, mspec, bytes.NewReader(d.VCD), func(monitor.Verdict) {}, nil)
		})
		if err != nil {
			return nil, err
		}
		replay := time.Since(start)
		rp.End()
		dsp := tr.Start("vcd.decode_only")
		decode := timed(dsp, "vcd.decode", func() { err = vcd.NewDecoder(bytes.NewReader(d.VCD), &nopSink{}).Run() })
		dsp.End()
		if err != nil {
			return nil, err
		}
		checker, err := monitor.NewStream(mspec, nil)
		if err != nil {
			return nil, err
		}
		if err := vcd.NewDecoder(bytes.NewReader(d.VCD), checker).Run(); err != nil {
			return nil, err
		}
		if _, err := checker.Finish(); err != nil {
			return nil, err
		}
		acc.add("monitor.max_resident", float64(checker.MaxResident()))
		acc.addDur("store.get_ms", get)
		acc.addDur("verify.compile_ms", compile)
		acc.addDur("monitor.check_ms", stream-decode)
		lat := o.end.Sub(o.sent)
		vt.n++
		vt.http += lat
		vt.replay += replay
		vt.children += get + compile + stream
		vt.decode += decode
		vt.check += stream - decode
		vt.bytes += int64(len(d.VCD))
		vt.httpLat = append(vt.httpLat, ms(lat))
		vt.httpOverhead = append(vt.httpOverhead, ms(lat-replay))
	}
	return vt, nil
}

// jobsTrace holds one jobs pass's figures.
type jobsTrace struct {
	items                   int
	http, service, batchRun time.Duration
	submit                  time.Duration
	wchar                   int64
}

// tracedJobs submits one job over HTTP (with /proc io around it), then
// runs the same items in process three ways over identically warmed
// private stores: through a jobs.Service (Submit to Wait), through
// batch.Run, and item by item through batch.Process.
func (t *tracer) tracedJobs(kind string, jb jobBatch, stored []picture, acc layers) (*jobsTrace, error) {
	rid := t.rid(kind)
	tr := t.log.request(rid)
	before, err := t.b.srv.read()
	if err != nil {
		return nil, err
	}
	root := tr.Start("http.job")
	o := t.b.cl.job(jb.up, jb.want, rid)
	root.End()
	after, err := t.b.srv.read()
	if err != nil {
		return nil, err
	}
	t.b.rep.count([]op{o})
	jt := &jobsTrace{items: len(jb.pics), http: o.end.Sub(o.sent), submit: o.accepted.Sub(o.sent),
		wchar: after.proc.wchar - before.proc.wchar}
	acc.addDur("jobs.submit_ms", jt.submit)
	jh, jm := delta(before, after, "tdjobs_store_hits_total"), delta(before, after, "tdjobs_store_misses_total")
	acc.add("jobs.store_hit_ratio", ratio(jh, jh+jm))

	ctx := context.Background()
	pipe, cfg := t.b.or.pipe, t.b.or.cfgHash
	items := func(pics []picture, names []string) []batch.Item {
		out := make([]batch.Item, len(pics))
		for i := range pics {
			data := pics[i].PNG
			out[i] = batch.Item{Name: names[i], Open: func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(data)), nil
			}}
		}
		return out
	}
	storedNames := make([]string, len(stored))
	for i := range stored {
		storedNames[i] = fmt.Sprintf("s-%04d", i)
	}
	var sts [3]*store.Store
	for i := range sts {
		if sts[i], err = t.openStore(fmt.Sprintf("replay-%s-jobs-%d", kind, i)); err != nil {
			return nil, err
		}
		opts := batch.Options{Workers: t.b.conns, Timeout: serveTimeout, Store: sts[i], Config: cfg}
		if _, err := batch.Run(ctx, pipe, batch.Items(items(stored, storedNames)), opts, nil); err != nil {
			return nil, err
		}
	}

	svc, err := jobs.Open(filepath.Join(t.b.dir, "replay-"+kind+"-jobs"), pipe, sts[0], jobs.Config{Timeout: serveTimeout})
	if err != nil {
		return nil, err
	}
	specs := make([]jobs.ItemSpec, len(jb.pics))
	for i, p := range jb.pics {
		specs[i] = jobs.ItemSpec{Name: jb.names[i], Data: bytes.NewReader(p.PNG)}
	}
	sp := tr.Start("jobs.service")
	start := time.Now()
	sn, err := svc.Submit(specs)
	if err == nil {
		sn, err = svc.Wait(ctx, sn.ID)
	}
	jt.service = time.Since(start)
	sp.End()
	if cerr := svc.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if sn.State != jobs.StateDone {
		return nil, fmt.Errorf("in-process job ended %s", sn.State)
	}
	sp = tr.Start("batch.run")
	start = time.Now()
	_, err = batch.Run(ctx, pipe, batch.Items(items(jb.pics, jb.names)),
		batch.Options{Workers: t.b.conns, Timeout: serveTimeout, Store: sts[1], Config: cfg}, nil)
	jt.batchRun = time.Since(start)
	sp.End()
	if err != nil {
		return nil, err
	}
	acc.add("jobs.overhead_ms_per_item", ms(jt.service-jt.batchRun)/float64(jt.items))

	sp = tr.Start("batch.process_each")
	opts := batch.Options{Timeout: serveTimeout, Store: sts[2], Config: cfg}
	for i, it := range items(jb.pics, jb.names) {
		raw := jb.pics[i].PNG
		acc.addDur("store.alias_ms", timed(sp, "store.alias", func() { sts[2].GetAlias(store.HashBytes(raw)) }))
		var r batch.Result
		d := timed(sp, "batch.process", func() { r = batch.Process(ctx, pipe, it, opts) })
		if r.Err != nil {
			return nil, r.Err
		}
		if r.Cached {
			acc.addDur("batch.process_hit_ms", d)
		} else {
			acc.addDur("batch.process_miss_ms", d)
		}
	}
	sp.End()
	acc.add("jobs.wchar_bytes_per_item", float64(jt.wchar)/float64(jt.items))
	return jt, nil
}
