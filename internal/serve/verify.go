// POST /v1/verify: runtime verification as a service. The request is
// multipart/form-data carrying the specification source — either a TD
// picture (`image`, a PNG, translated through the same cache/store/pool
// path as /v1/translate) or `ref`, the hex content hash a previous
// translation returned in X-Input-Hash — an optional `delays` JSON part
// with the admissible bounds per timing parameter, and finally the `vcd`
// part: a Verilog value-change dump of the signals under test.
//
// The dump is streamed straight off the wire through the incremental
// monitor — never buffered, never materialized as a trace — and the
// response streams back as NDJSON: one `spec` line (compiled LTL/SVA
// property texts, input hash), one `verdict` line per constraint the
// moment both of its endpoint events resolve, and a closing `summary`
// line. Memory is bounded by the specification, not the dump, so a
// multi-gigabyte dump verifies in a few kilobytes of monitor state.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strings"

	"tdmagic/internal/core"
	"tdmagic/internal/monitor"
	"tdmagic/internal/obs"
	"tdmagic/internal/spo"
	"tdmagic/internal/store"
)

// verifyRequestSpec is the JSON schema of the `delays` part: the
// monitor.Spec fields that come from the datasheet rather than the
// picture.
type verifyRequestSpec struct {
	// Delays maps a constraint's timing-parameter label (e.g. "t_{su}")
	// to its admissible interval. Constraints with no entry are checked
	// for event ordering only.
	Delays map[string]monitor.Bounds `json:"delays"`
	// MinSwingFrac tunes edge extraction (default 0.5).
	MinSwingFrac float64 `json:"min_swing_frac,omitempty"`
	// ThresholdFracs maps non-standard node threshold texts to level
	// fractions; "NN%" thresholds parse automatically.
	ThresholdFracs map[string]float64 `json:"threshold_fracs,omitempty"`
}

// verifySpecLine is the first NDJSON line of a verification response.
type verifySpecLine struct {
	Type string `json:"type"` // "spec"
	// RequestID echoes the request's X-Request-ID into the stream itself,
	// so a saved NDJSON transcript still correlates with the access log
	// and the flight recorder after the response headers are gone.
	RequestID   string `json:"request_id,omitempty"`
	InputHash   string `json:"input_hash,omitempty"`
	Cached      bool   `json:"cached"`
	Nodes       int    `json:"nodes"`
	Constraints int    `json:"constraints"`
	LTL         string `json:"ltl"`
	SVA         string `json:"sva"`
}

// verifyVerdictLine is one constraint's verdict, streamed as soon as it
// is final.
type verifyVerdictLine struct {
	Type string `json:"type"` // "verdict"
	monitor.Verdict
}

// verifySummaryLine closes a verification response.
type verifySummaryLine struct {
	Type       string    `json:"type"` // "summary"
	OK         bool      `json:"ok"`
	Violations int       `json:"violations"`
	TraceBytes int64     `json:"trace_bytes"`
	EventTimes []float64 `json:"event_times"`
}

// verifyErrorLine reports a failure after the stream has started (the
// status line is long gone by then, so the error travels in-band).
type verifyErrorLine struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// handleVerify serves POST /v1/verify. Parts are consumed in wire order;
// the spec source (`image` or `ref`) and `delays` must precede `vcd`,
// because the dump is verified while it streams — by the time its last
// byte arrives the verdicts are already on the wire.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST multipart/form-data with image|ref, delays and vcd parts", nil)
		return
	}
	s.verifyReqs.Inc()
	mediaType, params, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || mediaType != "multipart/form-data" {
		s.badRequests.Inc()
		s.writeError(w, http.StatusBadRequest, "expected multipart/form-data", nil)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.VerifyTimeout)
	defer cancel()
	if s.cfg.Flight != nil {
		// Trace the whole request — translation (or store lookup), property
		// compilation, the streaming check with its progress events — and
		// capture it however the request ends.
		tr := obs.NewTrace(requestID(r))
		ctx = obs.ContextWithTrace(ctx, tr)
		defer s.cfg.Flight.Capture(tr)
	}

	var (
		p         *spo.SPO
		vspec     verifyRequestSpec
		inputHash string
		cached    bool
	)
	mr := multipart.NewReader(r.Body, params["boundary"])
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.badRequests.Inc()
			s.writeError(w, http.StatusBadRequest, "read multipart body: "+err.Error(), nil)
			return
		}
		switch name := part.FormName(); name {
		case "image":
			if p != nil {
				s.badRequests.Inc()
				s.writeError(w, http.StatusBadRequest, "duplicate specification source: one image or ref part only", nil)
				return
			}
			answer, refusal := s.readUpload(ctx, part, false)
			if refusal != "" {
				s.badRequests.Inc()
				s.writeError(w, http.StatusBadRequest, refusal, nil)
				return
			}
			res := answer()
			if res.status != http.StatusOK {
				s.writeResult(w, res)
				return
			}
			p, inputHash, cached = res.artifact().SPO, res.inputHash, res.cached
		case "ref":
			if p != nil {
				s.badRequests.Inc()
				s.writeError(w, http.StatusBadRequest, "duplicate specification source: one image or ref part only", nil)
				return
			}
			raw, err := io.ReadAll(io.LimitReader(part, 256))
			if err != nil {
				s.badRequests.Inc()
				s.writeError(w, http.StatusBadRequest, "read ref part: "+err.Error(), nil)
				return
			}
			key, err := store.ParseHex(strings.TrimSpace(string(raw)))
			if err != nil {
				s.badRequests.Inc()
				s.writeError(w, http.StatusBadRequest, "ref is not an input hash: "+err.Error(), nil)
				return
			}
			res, ok := s.lookup(ctx, key)
			if !ok {
				s.writeError(w, http.StatusNotFound, "no cached translation for ref "+key.Hex()+"; POST the image instead", nil)
				return
			}
			if res.status != http.StatusOK {
				s.writeResult(w, res)
				return
			}
			p, inputHash, cached = res.artifact().SPO, res.inputHash, true
		case "delays":
			dec := json.NewDecoder(io.LimitReader(part, 1<<20))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&vspec); err != nil {
				s.badRequests.Inc()
				s.writeError(w, http.StatusBadRequest, "decode delays JSON: "+err.Error(), nil)
				return
			}
		case "vcd":
			if p == nil {
				s.badRequests.Inc()
				s.writeError(w, http.StatusBadRequest, "vcd part must follow an image or ref part", nil)
				return
			}
			s.runVerify(ctx, w, part, p, vspec, inputHash, cached, requestID(r))
			return
		default:
			s.badRequests.Inc()
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown part %q (want image|ref, delays, vcd)", name), nil)
			return
		}
		_ = part.Close()
	}
	s.badRequests.Inc()
	s.writeError(w, http.StatusBadRequest, "missing vcd part", nil)
}

// runVerify occupies a worker slot and streams the dump through the
// incremental monitor, writing NDJSON lines as verdicts land. The spec
// line goes out before the first dump byte is read, so a client watching
// the stream sees the compiled properties immediately.
func (s *Server) runVerify(ctx context.Context, w http.ResponseWriter, dump io.Reader, p *spo.SPO, vs verifyRequestSpec, inputHash string, cached bool, rid string) {
	spec := &monitor.Spec{
		SPO:            p,
		Delays:         vs.Delays,
		MinSwingFrac:   vs.MinSwingFrac,
		ThresholdFracs: vs.ThresholdFracs,
	}
	ltlText, svaText, err := core.CompileProperties(ctx, spec)
	if err != nil {
		s.badRequests.Inc()
		s.writeError(w, http.StatusBadRequest, "compile properties: "+err.Error(), nil)
		return
	}
	if err := s.acquire(ctx); err != nil {
		if errors.Is(err, errQueueFull) {
			s.rejections.Inc()
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			s.writeError(w, http.StatusTooManyRequests, "translation queue full", nil)
			return
		}
		s.writeError(w, statusForCtxErr(err), "request cancelled: "+err.Error(), nil)
		return
	}
	defer s.release()
	s.inflight.Inc()
	defer s.inflight.Dec()

	w.Header().Set("Content-Type", "application/x-ndjson")
	if inputHash != "" {
		w.Header().Set("X-Input-Hash", inputHash)
	}
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeLine := func(v any) {
		_ = enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeLine(verifySpecLine{
		Type:        "spec",
		RequestID:   rid,
		InputHash:   inputHash,
		Cached:      cached,
		Nodes:       len(p.Nodes),
		Constraints: len(p.Constraints),
		LTL:         ltlText,
		SVA:         svaText,
	})
	out, err := core.VerifyStream(ctx, spec, io.LimitReader(dump, s.cfg.MaxVCDBytes+1),
		func(v monitor.Verdict) {
			writeLine(verifyVerdictLine{Type: "verdict", Verdict: v})
		}, s.verifyMetrics)
	if err == nil && out.TraceBytes > s.cfg.MaxVCDBytes {
		err = fmt.Errorf("vcd exceeds the %d-byte limit", s.cfg.MaxVCDBytes)
	}
	if err != nil {
		// The 200 status is committed; the failure travels as the stream's
		// final line instead.
		writeLine(verifyErrorLine{Type: "error", Error: err.Error()})
		return
	}
	writeLine(verifySummaryLine{
		Type:       "summary",
		OK:         out.Result.OK(),
		Violations: len(out.Result.Violations),
		TraceBytes: out.TraceBytes,
		EventTimes: out.Result.EventTimes,
	})
}
