#!/bin/sh
# ci.sh — the checks a change must pass before merging:
#   1. gofmt -l       formatting is canonical (fails on any unformatted file)
#   2. go vet         static analysis (also catches sync.Pool copies)
#   3. go build       every package compiles
#   4. go test -race  full suite under the race detector; the parallel
#                     training pipeline, the pooled inference scratch
#                     buffers, the concurrent SED/OCR perception stages and
#                     the shared serving pipeline are only trustworthy
#                     race-clean
#   4b. benchmark module: tdbench/ is its own Go module, so the root
#                     go vet/test never compile it; vet and test it
#                     explicitly, so an internal API change that breaks
#                     the benchmark fails here
#   5. eval scoring invariance: the Table II matchers must produce
#                     identical tp/fp/fn under any permutation of the
#                     detection/ground-truth lists (run again explicitly so
#                     a -run filter in step 4 can never silently skip it)
#   5a. tables golden: tdeval's default stdout (every table, overall,
#                     scale and noise) must equal cmd/tdeval/testdata/
#                     tables.golden, and the corruption sweep's JSON must
#                     equal the committed BENCH_03.json byte for byte
#   5b. zero-alloc guards: the disabled-observability paths (nil trace,
#                     nil flight recorder, tracing-off translate hot path)
#                     must stay at exactly zero allocations per operation,
#                     and the VCD decoder's allocations must not grow with
#                     the dump (0.5 MB and 2 MB dumps allocate alike); run
#                     explicitly so a -run filter in step 4 can never
#                     silently skip the AllocsPerRun pins. Garbage pins:
#                     DecodePNG of a 900x560 8-bit gray PNG allocates
#                     under 1.5 x W x H bytes (it keeps the decoder's
#                     pixels), OtsuThreshold on a 900x560 picture
#                     allocates nothing (its histogram banks stay on the
#                     stack), morph's horizontal and vertical window
#                     reductions allocate nothing once imgproc's scratch
#                     pool is warm (a !race test: the race detector makes
#                     the pool drop buffers), and the Fig. 1 pipeline's
#                     -benchmem B/op at -cpu 1 stays under
#                     BENCH_GUARDS.json's fig1_bytes_per_op ceiling (the
#                     full-frame scratch goes back to imgproc's pool)
#   6. fuzz smoke:    a few seconds of coverage-guided fuzzing on each
#                     text parser (VCD, against the line decoder it
#                     replaced, read whole, a byte at a time and in halved
#                     reads; TDL; spec text), on tdserve's upload
#                     reader (against the streaming reference reader), on
#                     the delays document both verify surfaces read, on
#                     the job journal's replay (loadRecord: no panic, no
#                     record without an ID, stable bytes when written
#                     back), on DecodePNG (against FromImage over
#                     png.Decode) and on the resolver's stored-artifact
#                     decode (a miss, a counted ErrCorrupt, or the stored
#                     bytes); regressions on previously found inputs fail
#                     immediately via the seed corpus
#   7. benchmark smoke run: one iteration of the Fig. 1 single-image
#                     pipeline plus the bit-packed kernel micro-benchmarks
#                     (imgproc word ops, morphology, perception stage), so
#                     every hot path is exercised end to end
#   7b. bench-regression guards: at reference machine speed (tdbench's
#                     speed probe samples the cores during the runs), the
#                     Fig. 1 single-image pipeline must stay within +20%,
#                     and the warm 128-picture batch re-run and the VCD
#                     decode of a tdbench-shaped dump within +50%, of the
#                     baselines in BENCH_GUARDS.json (median of 3 runs, to
#                     ride out shared-runner noise)
#   7d. corpus leg:   end to end over files — generate a 50-picture corpus
#                     with tdgen, run tdmagic -batch cold into a fresh
#                     content-addressed cache, re-run warm and assert >= 98%
#                     store hits plus byte-identical .spec outputs
#   7c. GOAMD64=v3 leg (only on avx2-capable runners): the whole tree must
#                     build and the kernel micro-benchmarks must run under
#                     the wider instruction baseline
#   8. serve smoke:   end to end over HTTP — train a tiny model, render a
#                     .td fixture, start tdserve on a random port,
#                     translate the picture twice (second reply must be a
#                     byte-identical cache hit), scrape /metrics, check
#                     /version and /debug/pprof/heap, translate once with
#                     ?debug=1 and validate the inline span trace (valid
#                     JSON, all five stage spans), run tdmagic -trace on
#                     the same picture and validate that trace too, then
#                     SIGTERM and assert a clean drain and exit 0
#   8b. verify smoke: picture -> spec -> runtime verification — synthesize
#                     a golden VCD dump from the translated spec, verify it
#                     cleanly via tdmagic -verify and POST /v1/verify
#                     (NDJSON verdict stream, then again by content-hash
#                     ref with measured-delay bounds), corrupt the dump and
#                     assert violation verdicts on both surfaces plus the
#                     tdverify_* series on /metrics
#   8c. flight scrape: GET /debug/flight after the translate + verify
#                     traffic and assert the recorder retained the traces
#                     (translate roots, a verify span, request IDs on every
#                     entry)
#   9. PGO loop:      capture a fresh CPU profile from the smoke server's
#                     /debug/pprof/profile while translating in a loop and
#                     rebuild tdserve against it — proving the checked-in
#                     cmd/tdserve/default.pgo pipeline (profile -> -pgo
#                     build) stays reproducible end to end
#  10. job smoke:     crash-safety end to end — submit a 50-picture job to
#                     tdserve's durable job engine, SIGKILL the server
#                     mid-run, restart it on the same journal and store,
#                     and assert the resumed replica finishes the job
#                     while retranslating only items not journaled done
#                     at the kill (completed items answer from the store),
#                     with the final NDJSON results byte-identical to an
#                     uninterrupted cold run; the restarted replica's
#                     reclaims (the job's stats and
#                     tdjobs_lease_reclaims_total, which must agree) are
#                     only the claims the killed process held, at most
#                     one per job worker
#  10b. live telemetry on the resumed job: tail /v1/jobs/{id}/events while
#                     the restarted replica drains the remainder (snapshot
#                     first, every item completed exactly once across
#                     snapshot + tail, item events flagged resumed, terminal
#                     state line, no truncation), follow the same job with
#                     tdmagic -watch to its exit code, then assert the
#                     tdstore_*/tdjobs_* series with exemplars on /metrics
#                     (tdjobs_jobs_total counting the resumed job) and the
#                     job's root trace + job_resumed and job_done events in
#                     /debug/flight
#  11. verify_stream leg: ten seconds of the benchmark's verify workload;
#                     fails on any wrong verdict, on any failed or refused
#                     request, on a latency p99 above BENCHMARK.json's
#                     latency_p99 {max} for it, and on a first-verdict p50
#                     not below half the latency p50 (verdicts must leave
#                     while the dump uploads)
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test -race ./...
go -C tdbench vet .
go -C tdbench test .
go test -run 'TestMatchPermutationInvariance|TestMatchNearestWins|TestMatchShortSegmentThreshold' -count 1 ./internal/eval

tmp=$(mktemp -d)
serve_pid=""
probe_pid=""
cleanup() {
	[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
	[ -n "$probe_pid" ] && kill "$probe_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

# --- tables golden ---------------------------------------------------------
# tdeval's stdout is deterministic (the training timer goes to stderr).
go build -o "$tmp/tdeval" ./cmd/tdeval
"$tmp/tdeval" 2>/dev/null | diff cmd/tdeval/testdata/tables.golden -
"$tmp/tdeval" -robustness -robustout "$tmp/sweep.json" >/dev/null 2>&1
cmp BENCH_03.json "$tmp/sweep.json"

go test -run 'TestNilTraceZeroAlloc|TestNilRecorderZeroAlloc' -count 1 ./internal/obs
go test -run 'TestDisabledTracingZeroAllocOnHotPath' -count 1 ./internal/core
go test -run 'TestDecodeAllocsFlat' -count 1 ./internal/vcd
go test -run 'TestDecodePNGAllocBytes|TestOtsuThresholdZeroAlloc' -count 1 ./internal/imgproc
go test -run 'TestLineOpsZeroAlloc' -count 1 ./internal/morph
fig1_bytes=$(go test -run '^$' -bench '^BenchmarkFig1PipelineSingleImage$' -benchtime 20x -cpu 1 -benchmem . |
	awk '$1 ~ /^BenchmarkFig1PipelineSingleImage(-[0-9]+)?$/ { for (i = 3; i <= NF; i++) if ($i == "B/op") print $(i - 1) }')
fig1_bytes_max=$(python3 -c 'import json; print(json.load(open("BENCH_GUARDS.json"))["guards"]["fig1_bytes_per_op"]["max_bytes_per_op"])')
test -n "$fig1_bytes" && test "$fig1_bytes" -le "$fig1_bytes_max"
go test -run '^FuzzParse$' -fuzz '^FuzzParse$' -fuzztime 5s ./internal/vcd
go test -run '^FuzzParse$' -fuzz '^FuzzParse$' -fuzztime 5s ./internal/tdl
go test -run '^FuzzReadPicture$' -fuzz '^FuzzReadPicture$' -fuzztime 5s ./internal/serve
go test -run '^FuzzLoadRecord$' -fuzz '^FuzzLoadRecord$' -fuzztime 5s ./internal/jobs
go test -run '^FuzzDelays$' -fuzz '^FuzzDelays$' -fuzztime 5s ./internal/monitor
go test -run '^FuzzParseSpec$' -fuzz '^FuzzParseSpec$' -fuzztime 5s ./internal/spo
go test -run '^FuzzDecodePNG$' -fuzz '^FuzzDecodePNG$' -fuzztime 5s ./internal/imgproc
go test -run '^FuzzLookupArtifact$' -fuzz '^FuzzLookupArtifact$' -fuzztime 5s ./internal/batch
go test -run '^$' -bench BenchmarkFig1PipelineSingleImage -benchtime 1x .
go test -run '^$' -bench BenchmarkBinaryOps -benchtime 1x ./internal/imgproc
go test -run '^$' -bench BenchmarkMorphContours -benchtime 1x ./internal/morph
go test -run '^$' -bench 'BenchmarkAnalyze$' -benchtime 1x .

# --- bench-regression guards, at reference speed ---------------------------
# The cores of a shared VM run as fast as the host lets them, so each guard
# reads ns/op at reference speed: tdbench's speed probe (tdbench/probe.go)
# times a fixed CPU task on every core while the three runs go, and each
# run's ns/op is scaled by the machine's speed (the task's reference time,
# 1 ms, over its median time per core, averaged over the cores). The
# ceilings in BENCH_GUARDS.json are a baseline at reference speed +20%
# (Fig. 1 pipeline) and +50% (warm batch re-run, VCD decode). Runs use
# -cpu 1, as the baseline did; the awk also reads a -N name suffix.
go -C tdbench build -o "$tmp/tdbench" .
bench_guard() { # $1 benchmark, $2 -benchtime, $3 guard name in BENCH_GUARDS.json, $4 package
	rm -f "$tmp/probe.in"
	mkfifo "$tmp/probe.in"
	"$tmp/tdbench" -probe <"$tmp/probe.in" >"$tmp/probe.out" &
	probe_pid=$!
	exec 3>"$tmp/probe.in"
	for i in 1 2 3; do
		go test -run '^$' -bench "^$1\$" -benchtime "$2" -cpu 1 "$4" |
			awk -v b="$1" '$1 ~ "^" b "(-[0-9]+)?$" && $4 == "ns/op" { print $3 }'
	done >"$tmp/guard.txt"
	exec 3>&- # the sampler exits when its standard input closes
	wait "$probe_pid"
	probe_pid=""
	python3 - "$tmp/guard.txt" "$tmp/probe.out" BENCH_GUARDS.json "$3" <<'EOF'
import json, statistics, sys
runs = sorted(int(l) for l in open(sys.argv[1]) if l.strip())
assert len(runs) == 3, f"expected 3 bench runs, parsed {runs}"
cores = {}
for line in open(sys.argv[2]):
    _, core, cpu_ns = map(int, line.split())
    cores.setdefault(core, []).append(cpu_ns)
assert cores, "the speed probe took no samples"
speed = statistics.mean(1e6 / statistics.median(c) for c in cores.values())
guard = json.load(open(sys.argv[3]))["guards"][sys.argv[4]]
median = runs[1] * speed
limit = guard["max_ref_ns_per_op"]
print(f"{sys.argv[4]}: median {median:.0f} ns/op at reference speed (limit {limit}); "
      f"measured {runs} ns/op at speed {speed:.3f} ({sum(map(len, cores.values()))} probe samples)")
assert median <= limit, f"{sys.argv[4]} regressed: median {median:.0f} ns/op at reference speed > {limit} ({guard['tolerance']} over the baseline)"
EOF
}
bench_guard BenchmarkFig1PipelineSingleImage 20x fig1_pipeline .
bench_guard BenchmarkBatchEngineWarm 5x warm_batch_rerun .
bench_guard BenchmarkDecodeTdbenchShape 50x vcd_decode ./internal/vcd

# --- GOAMD64=v3 leg (avx2 runners only) ------------------------------------
if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
	GOAMD64=v3 go build ./...
	GOAMD64=v3 go test -run '^$' -bench BenchmarkBinaryOps -benchtime 1x ./internal/imgproc
	GOAMD64=v3 go test -run '^$' -bench BenchmarkMorphContours -benchtime 1x ./internal/morph
fi

# --- serve smoke -----------------------------------------------------------
go build -o "$tmp/tdtrain" ./cmd/tdtrain
go build -o "$tmp/tdrender" ./cmd/tdrender
go build -o "$tmp/tdserve" ./cmd/tdserve
"$tmp/tdtrain" -out "$tmp/model.gob" -g1 24 -g2 10 -g3 8
"$tmp/tdrender" -in examples/testdata/m74hc595.td -out "$tmp/pic.png" >/dev/null

"$tmp/tdserve" -model "$tmp/model.gob" -addr 127.0.0.1:0 \
	>"$tmp/serve.out" 2>"$tmp/serve.err" &
serve_pid=$!
i=0
until grep -q '^listening on ' "$tmp/serve.out" 2>/dev/null; do
	i=$((i + 1))
	test "$i" -le 100
	kill -0 "$serve_pid"
	sleep 0.2
done
addr=$(sed -n 's/^listening on //p' "$tmp/serve.out")

curl -fsS --data-binary @"$tmp/pic.png" -H 'Content-Type: image/png' \
	"http://$addr/v1/translate" >"$tmp/r1.json"
grep -q '"spo"' "$tmp/r1.json"
curl -fsS -D "$tmp/h2.txt" --data-binary @"$tmp/pic.png" -H 'Content-Type: image/png' \
	"http://$addr/v1/translate" >"$tmp/r2.json"
cmp "$tmp/r1.json" "$tmp/r2.json" # cache hit must be byte-identical
grep -qi 'x-cache: hit' "$tmp/h2.txt"
curl -fsS "http://$addr/healthz" | grep -q '"ok"'
curl -fsS -D "$tmp/mh.txt" "http://$addr/metrics" >"$tmp/metrics.txt"
grep -qi 'content-type: text/plain; version=0.0.4; charset=utf-8' "$tmp/mh.txt"
grep -q '^tdserve_cache_hits_total 1$' "$tmp/metrics.txt"
grep -q '^tdmagic_translations_total 1$' "$tmp/metrics.txt"
grep -q '^tdserve_cache_hit_ratio 0.5$' "$tmp/metrics.txt"

# Observability surface: build identity, heap profile, inline debug trace.
curl -fsS "http://$addr/version" | grep -q '"go_version"'
curl -fsS "http://$addr/debug/pprof/heap" >"$tmp/heap.pprof"
test -s "$tmp/heap.pprof"

cat >"$tmp/check_trace.py" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
trace = doc.get("trace", doc)  # ?debug=1 nests the trace; tdmagic -trace is bare
assert trace["request_id"], "trace has no request id"
spans = trace["spans"]
names = {s["name"] for s in spans}
for stage in ("core.translate", "imgproc.binarize", "lad.detect", "sed.detect", "ocr.read", "sei.interpret"):
    assert stage in names, f"missing {stage} span, have {sorted(names)}"
for s in spans:
    assert s["start_ns"] >= 0 and s["dur_ns"] >= 0, f"negative time in {s}"
EOF

curl -fsS --data-binary @"$tmp/pic.png" -H 'Content-Type: image/png' \
	"http://$addr/v1/translate?debug=1" >"$tmp/debug.json"
python3 "$tmp/check_trace.py" "$tmp/debug.json"
# The debug run executed the stages a second time (it bypasses the cache).
curl -fsS "http://$addr/metrics" | grep -q 'tdmagic_stage_seconds_count{stage="sei"} 2'

# One-shot CLI trace over the same model and picture.
go build -o "$tmp/tdmagic" ./cmd/tdmagic
"$tmp/tdmagic" -model "$tmp/model.gob" -trace "$tmp/trace.json" "$tmp/pic.png" >/dev/null 2>&1
python3 "$tmp/check_trace.py" "$tmp/trace.json"

# --- verify smoke: picture -> spec -> runtime verification -----------------
# The translated spec synthesizes its own golden dump, which must verify
# cleanly over both the CLI and the live service; stretching every VCD
# timestamp 5x corrupts the dump and must flip the delay-bounded
# constraints to violation verdicts on both surfaces.
"$tmp/tdmagic" -model "$tmp/model.gob" -synth-vcd "$tmp/golden.vcd" "$tmp/pic.png" >/dev/null 2>&1
test -s "$tmp/golden.vcd"
"$tmp/tdmagic" -model "$tmp/model.gob" -verify -vcd "$tmp/golden.vcd" "$tmp/pic.png" 2>/dev/null |
	grep -q '^OK:'

curl -fsS -D "$tmp/vh.txt" -F image=@"$tmp/pic.png" -F vcd=@"$tmp/golden.vcd" \
	"http://$addr/v1/verify" >"$tmp/verify.ndjson"
grep -qi 'content-type: application/x-ndjson' "$tmp/vh.txt"
grep -q '"type":"spec"' "$tmp/verify.ndjson"
grep -q '"ltl":' "$tmp/verify.ndjson"
grep -q '"type":"verdict"' "$tmp/verify.ndjson"
grep -q '"ok":true' "$tmp/verify.ndjson"

# Derive tight delay bounds from the clean run's measured values, then
# re-verify by ref: the content hash alone stands in for the picture.
python3 - "$tmp/verify.ndjson" >"$tmp/bounds.json" <<'EOF'
import json, sys
delays = {}
for line in open(sys.argv[1]):
    doc = json.loads(line)
    if doc.get("type") == "verdict" and doc.get("delay"):
        m = doc["measured"]
        delays[doc["delay"]] = {"min": 0.9 * m, "max": 1.1 * m}
assert delays, "clean verification produced no delay-labelled verdicts"
json.dump({"delays": delays}, sys.stdout)
EOF
ref=$(tr -d '\r' <"$tmp/vh.txt" | awk -F': ' 'tolower($1)=="x-input-hash"{print $2}')
test -n "$ref"
curl -fsS -F ref="$ref" -F delays=@"$tmp/bounds.json" -F vcd=@"$tmp/golden.vcd" \
	"http://$addr/v1/verify" | grep -q '"ok":true'

# Corrupt the dump (stretch every timestamp 5x) and expect violations.
awk '{ if (substr($0,1,1)=="#") print "#" substr($0,2)*5; else print }' \
	"$tmp/golden.vcd" >"$tmp/bad.vcd"
curl -fsS -F ref="$ref" -F delays=@"$tmp/bounds.json" -F vcd=@"$tmp/bad.vcd" \
	"http://$addr/v1/verify" >"$tmp/verify_bad.ndjson"
grep -q '"pass":false' "$tmp/verify_bad.ndjson"
grep -q '"ok":false' "$tmp/verify_bad.ndjson"
if "$tmp/tdmagic" -model "$tmp/model.gob" -verify -vcd "$tmp/bad.vcd" \
	-delays "$tmp/bounds.json" "$tmp/pic.png" >"$tmp/verify_cli.out" 2>&1; then
	echo "verify of corrupted dump unexpectedly passed" >&2
	exit 1
fi
grep -q '^FAIL:' "$tmp/verify_cli.out"

# The verification metrics landed on the shared exposition.
curl -fsS "http://$addr/metrics" >"$tmp/vmetrics.txt"
grep -q 'tdverify_verdicts_total{outcome="pass"} [1-9]' "$tmp/vmetrics.txt"
grep -q 'tdverify_verdicts_total{outcome="violation"} [1-9]' "$tmp/vmetrics.txt"
grep -q 'tdverify_trace_bytes_total [1-9]' "$tmp/vmetrics.txt"
grep -q 'tdverify_check_seconds_count [1-9]' "$tmp/vmetrics.txt"

# --- flight scrape: the smoke traffic above left retrievable traces --------
# The recorder is on by default (-flight 256); every translate and verify
# request so far must have landed a trace with its request ID.
curl -fsS "http://$addr/debug/flight" >"$tmp/flight.json"
python3 - "$tmp/flight.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
entries = d["entries"] + d["pinned"]
assert entries, "flight recorder empty after smoke traffic"
names = {e["name"] for e in entries}
assert "translate" in names, f"no translate trace in the flight ring: {sorted(names)}"
spans = {s["name"] for e in entries for s in e.get("spans") or []}
assert "monitor.verify_stream" in spans, f"no monitor.verify_stream span recorded: {sorted(spans)}"
for e in entries:
    assert e["kind"] == "trace" and e["request_id"], e
EOF

# --- PGO loop: fresh profile from the live server, rebuild against it ------
curl -fsS "http://$addr/debug/pprof/profile?seconds=4" -o "$tmp/cpu.pprof" &
prof_pid=$!
# Keep the translation path hot while the profiler samples (the cache is
# bypassed with ?debug=1, so every request runs the full pipeline).
for i in $(seq 1 50); do
	curl -fsS --data-binary @"$tmp/pic.png" -H 'Content-Type: image/png' \
		"http://$addr/v1/translate?debug=1" >/dev/null
done
wait "$prof_pid"
test -s "$tmp/cpu.pprof"
go build -pgo "$tmp/cpu.pprof" -o "$tmp/tdserve_pgo" ./cmd/tdserve
go version -m "$tmp/tdserve_pgo" | grep -q 'build.*-pgo='
# The checked-in profile must be what the default build picks up.
go version -m "$tmp/tdserve" | grep -q 'build.*-pgo=.*cmd/tdserve/default.pgo'

kill -TERM "$serve_pid"
wait "$serve_pid" # non-zero exit (failed drain) fails the gate via set -e
serve_pid=""
grep -q 'drained cleanly' "$tmp/serve.err"

# --- corpus leg: batch translation with the persistent result cache --------
# Reuses the smoke model and tdmagic binary. A cold run fills the store, the
# warm re-run must answer >= 98% of the corpus from it with byte-identical
# specifications.
go build -o "$tmp/tdgen" ./cmd/tdgen
"$tmp/tdgen" -out "$tmp/corpus" -mode G1 -n 50 -seed 7 >/dev/null
"$tmp/tdmagic" -model "$tmp/model.gob" -batch "$tmp/corpus" \
	-out "$tmp/specs1" -cache "$tmp/tdcache" 2>"$tmp/cold.err"
grep -q 'batch done: items=50 .* errors=0' "$tmp/cold.err"
"$tmp/tdmagic" -model "$tmp/model.gob" -batch "$tmp/corpus" \
	-out "$tmp/specs2" -cache "$tmp/tdcache" 2>"$tmp/warm.err"
warm_hits=$(sed -n 's/.*batch done: items=50 hits=\([0-9]*\).*/\1/p' "$tmp/warm.err")
test "$warm_hits" -ge 49 # >= 98% of 50 pictures answered from the store
diff -r "$tmp/specs1" "$tmp/specs2" # warm specs must be byte-identical

# --- job-service smoke: SIGKILL mid-job, resume, no redone work -------------
# Reuses the smoke model and the tdgen corpus. A throttled server is killed
# with -9 mid-job; a second generation on the same journal and store must
# finish the job, retranslating only items the journal did not show done at
# the kill, and its results must match an uninterrupted cold run byte for
# byte.
python3 - "$tmp/corpus" >"$tmp/manifest.json" <<'EOF'
import json, os, sys
names = sorted(f for f in os.listdir(sys.argv[1]) if f.endswith(".png"))
assert len(names) == 50, names
print(json.dumps({"manifest": names}))
EOF

start_jobs_server() { # $1 out-file, extra flags follow
	out=$1
	shift
	# Deliberately not -quiet: the job lifecycle logger once self-deadlocked
	# the scheduler, and only a logging server exercises that path.
	"$tmp/tdserve" -model "$tmp/model.gob" -addr 127.0.0.1:0 \
		-store "$tmp/jobstore" -jobs "$tmp/jobroot" \
		-jobs-manifest-root "$tmp/corpus" -jobs-workers 2 "$@" \
		>"$out" 2>"$out.err" &
	serve_pid=$!
	i=0
	until grep -q '^listening on ' "$out" 2>/dev/null; do
		i=$((i + 1))
		test "$i" -le 100
		kill -0 "$serve_pid"
		sleep 0.2
	done
	addr=$(sed -n 's/^listening on //p' "$out")
}

job_done_count() {
	curl -fsS "http://$addr/v1/jobs/$1" |
		python3 -c 'import json,sys; d=json.load(sys.stdin); print(d["stats"]["done"])'
}

start_jobs_server "$tmp/jobs1.out" -jobs-throttle 60ms
curl -fsS "http://$addr/readyz" | grep -q '"ready"'
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data @"$tmp/manifest.json" "http://$addr/v1/jobs" >"$tmp/submit.json"
job_id=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$tmp/submit.json")

# Wait for partial progress, then kill -9: no drain, no checkpoint flush.
i=0
done_at_kill=0
while [ "$done_at_kill" -lt 10 ]; do
	i=$((i + 1))
	test "$i" -le 300
	sleep 0.1
	done_at_kill=$(job_done_count "$job_id")
done
kill -KILL "$serve_pid"
wait "$serve_pid" || true
serve_pid=""

# Second generation: same journal, same store, throttled just enough that
# the live event tail and the watch attach while the resumed job is still
# draining its remainder.
start_jobs_server "$tmp/jobs2.out" -jobs-throttle 30ms
curl -fsSN "http://$addr/v1/jobs/$job_id/events?items=1" >"$tmp/resume_events.ndjson" &
tail_pid=$!
# tdmagic -watch follows the same stream and must exit 0 on "done".
"$tmp/tdmagic" -watch "http://$addr/v1/jobs/$job_id" 2>"$tmp/watch.err"
grep -q "job $job_id" "$tmp/watch.err"
grep -q '50/50 done' "$tmp/watch.err"
wait "$tail_pid" # the tail EOFs when the finished job closes its stream
curl -fsS "http://$addr/v1/jobs/$job_id" | grep -q '"state":"done"'

# The tail is the resume invariant, event by event: items journaled done
# at the kill appear done in the snapshot and never again; the remainder
# completes exactly once, flagged as resumed work.
python3 - "$tmp/resume_events.ndjson" <<'EOF'
import json, sys
evs = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert evs and evs[0]["type"] == "snapshot", evs[:1]
snap = evs[0]
done_at_resume = {it["name"] for it in snap.get("items") or [] if it["state"] == "done"}
total = snap["stats"]["total"]
per = {}
for e in evs[1:]:
    if e["type"] == "item_done":
        per[e["item"]] = per.get(e["item"], 0) + 1
        assert e.get("resumed"), f"item_done in a resumed job not flagged resumed: {e}"
assert per, "event tail attached only after the job finished (not live)"
dups = {k: v for k, v in per.items() if v > 1}
assert not dups, f"items completed more than once in the tail: {dups}"
overlap = done_at_resume & set(per)
assert not overlap, f"items done at the kill completed again: {sorted(overlap)[:5]}"
assert len(done_at_resume) + len(per) == total, (len(done_at_resume), len(per), total)
assert not any(e["type"] == "truncated" for e in evs), "tail was truncated"
assert evs[-1]["type"] == "state" and evs[-1]["state"] == "done", evs[-1]
print(f"resume tail: {len(done_at_resume)} done at kill + {len(per)} live = {total}")
EOF

# The resume invariant: items journaled done at the kill answer from the
# store, so the second process translates at most the remainder.
translated=$(curl -fsS "http://$addr/metrics" |
	sed -n 's/^tdmagic_translations_total \([0-9]*\)$/\1/p')
test "$translated" -le $((50 - done_at_kill))
curl -fsS "http://$addr/v1/jobs/$job_id/results" >"$tmp/resumed.ndjson"
test "$(wc -l <"$tmp/resumed.ndjson")" -eq 50

# Second-level store counters and the exemplar-linked job histogram: the
# resumed run hits the store for journaled items, misses and writes back
# the remainder, and every item attempt lands in tdjobs_item_seconds with
# the job ID as its exemplar ref.
curl -fsS "http://$addr/metrics" >"$tmp/jmetrics.txt"
grep -q '^tdstore_hits_total [1-9]' "$tmp/jmetrics.txt"
grep -q '^tdstore_misses_total [1-9]' "$tmp/jmetrics.txt"
grep -q '^tdstore_writes_total [1-9]' "$tmp/jmetrics.txt"
grep -q '^tdstore_corrupt_total 0$' "$tmp/jmetrics.txt"
grep -q '^tdjobs_item_seconds_count [1-9]' "$tmp/jmetrics.txt"
grep -q '^tdjobs_jobs_total 1$' "$tmp/jmetrics.txt" # the resumed job counts
grep -q "^# EXEMPLAR tdjobs_item_seconds_bucket.* $job_id " "$tmp/jmetrics.txt"

# A claim lasts as long as its process: the only reclaims are the items
# the killed process held running, at most one per job worker
# (-jobs-workers 2), counted alike in the job and on the counter.
reclaims=$(curl -fsS "http://$addr/v1/jobs/$job_id" |
	python3 -c 'import json,sys; print(json.load(sys.stdin)["stats"]["reclaims"])')
test "$reclaims" -le 2
grep -q "^tdjobs_lease_reclaims_total $reclaims\$" "$tmp/jmetrics.txt"

# The finished job left its root trace, resume and terminal events in the
# flight recorder, retrievable by job ID.
curl -fsS "http://$addr/debug/flight?request_id=$job_id" >"$tmp/jobflight.json"
python3 - "$tmp/jobflight.json" "$job_id" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
entries = d["entries"] + d["pinned"]
kinds = {(e["kind"], e["name"]) for e in entries}
assert ("trace", "job") in kinds, f"no job trace in flight for {sys.argv[2]}: {sorted(kinds)}"
assert ("event", "job_resumed") in kinds, f"no job_resumed flight event: {sorted(kinds)}"
assert ("event", "job_done") in kinds, f"no job_done flight event: {sorted(kinds)}"
EOF
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""
grep -q 'drained cleanly' "$tmp/jobs2.out.err"

# Uninterrupted cold run on fresh dirs: results must be byte-identical.
rm -rf "$tmp/jobstore" "$tmp/jobroot"
start_jobs_server "$tmp/jobs3.out"
curl -fsS -X POST -H 'Content-Type: application/json' \
	--data @"$tmp/manifest.json" "http://$addr/v1/jobs" >"$tmp/submit2.json"
cold_id=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$tmp/submit2.json")
i=0
until curl -fsS "http://$addr/v1/jobs/$cold_id" | grep -q '"state":"done"'; do
	i=$((i + 1))
	test "$i" -le 300
	sleep 0.2
done
curl -fsS "http://$addr/v1/jobs/$cold_id/results" >"$tmp/cold.ndjson"
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""
cmp "$tmp/resumed.ndjson" "$tmp/cold.ndjson" # crash-resume is invisible in the output

# --- verify_stream leg: the benchmark's verify workload, time-boxed ----------
# Ten measured seconds of tdbench's verify_stream (a closed loop of
# /v1/verify by ref over 0.25-2 MB VCD dumps). Any wrong verdict fails the
# leg, and so does any failed or refused request, a printed latency p99
# above the workload's latency_p99 {max} in BENCHMARK.json's "why" text,
# checked here as a hard constraint, or a first-verdict p50 not below half
# the latency p50, both as measured: the response streams during the
# upload, so the first verdict leaves long before the last dump byte.
sh tdbench/run.sh --workload verify_stream --seconds 10 --trace 0 >"$tmp/verify_stream.out"
python3 - "$tmp/verify_stream.out" BENCHMARK.json <<'EOF'
import json, re, sys
out = open(sys.argv[1]).read()
print(out)
res = json.loads(out.strip().splitlines()[-1])
assert res["correct"], "verify_stream returned wrong verdicts"
why = next(w["why"] for w in json.load(open(sys.argv[2]))["workloads"] if w["name"] == "verify_stream")
limit = float(re.search(r"latency_p99 \{max: ([0-9.]+)ms\}", why).group(1))
p99s = [float(v) for v in re.findall(r"latency_p99_ms ([0-9.]+) ms as measured", out)]
assert p99s, "tdbench printed no latency_p99_ms"
assert max(p99s) <= limit, f"verify_stream latency p99 {max(p99s)} ms > {limit} ms"
assert res["failed"] == 0, f"verify_stream failed or refused {res['failed']} of {res['attempted']} requests"
p50 = float(re.search(r"latency_p50_ms .*; ([0-9.]+) ms as measured\]", out).group(1))
first = float(re.search(r"first_verdict_p50_ms ([0-9.]+) ms", out).group(1))
assert first < p50 / 2, f"first verdict p50 {first} ms not below half the latency p50 {p50} ms"
EOF
