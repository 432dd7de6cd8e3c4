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
	"os"
	"strings"

	"tdmagic/internal/core"
	"tdmagic/internal/monitor"
	"tdmagic/internal/spo"
	"tdmagic/internal/store"
)

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
		s.refuse(w, "expected multipart/form-data", nil)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.VerifyTimeout)
	defer cancel()
	// Every body read ends at the request's deadline, so a stalled upload
	// frees its worker slot. Set before the first read, it never lands on
	// net/http's background read: net/http clears it as the body ends and
	// that read starts (a request without a body has it running already).
	if r.Body != http.NoBody {
		d, _ := ctx.Deadline()
		_ = http.NewResponseController(w).SetReadDeadline(d)
	}

	var (
		p         *spo.SPO
		spec      = &monitor.Spec{}
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
			s.refuse(w, "read multipart body: "+err.Error(), nil)
			return
		}
		name := part.FormName()
		if p != nil && (name == "image" || name == "ref") {
			s.refuse(w, "duplicate specification source: one image or ref part only", nil)
			return
		}
		switch name {
		case "image":
			answer, refusal := s.readUpload(ctx, part, false)
			if refusal != "" {
				s.refuse(w, refusal, nil)
				return
			}
			res := answer()
			if res.status != http.StatusOK {
				s.writeResult(w, res)
				return
			}
			p, inputHash, cached = res.artifact().SPO, res.inputHash, res.cached
		case "ref":
			raw, err := io.ReadAll(io.LimitReader(part, 256))
			if err != nil {
				s.refuse(w, "read ref part: "+err.Error(), nil)
				return
			}
			key, err := store.ParseHex(strings.TrimSpace(string(raw)))
			if err != nil {
				s.refuse(w, "ref is not an input hash: "+err.Error(), nil)
				return
			}
			_, res, ok := s.lookup(ctx, key, false)
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
			if spec, err = monitor.DecodeDelays(io.LimitReader(part, 1<<20)); err != nil {
				s.refuse(w, "decode delays JSON: "+err.Error(), nil)
				return
			}
		case "vcd":
			if p == nil {
				s.refuse(w, "vcd part must follow an image or ref part", nil)
				return
			}
			spec.SPO = p
			s.runVerify(ctx, w, r, part, spec, inputHash, cached)
			return
		default:
			s.refuse(w, fmt.Sprintf("unknown part %q (want image|ref, delays, vcd)", name), nil)
			return
		}
		_ = part.Close()
	}
	s.refuse(w, "missing vcd part", nil)
}

// runVerify occupies a worker slot and streams the dump through the
// incremental monitor, writing NDJSON lines as verdicts land. The spec
// line goes out before the first dump byte is read, so a client watching
// the stream sees the compiled properties immediately.
// Once the slot is held the response runs full duplex, each line flushed
// while the dump still uploads; refusals before that are plain responses.
func (s *Server) runVerify(ctx context.Context, w http.ResponseWriter, r *http.Request, dump io.Reader, spec *monitor.Spec, inputHash string, cached bool) {
	p := spec.SPO
	ltlText, svaText, err := core.CompileProperties(ctx, spec)
	if err != nil {
		s.refuse(w, "compile properties: "+err.Error(), nil)
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
	rc := http.NewResponseController(w)
	// HTTP/2 is full duplex already; ErrNotSupported then changes nothing.
	_ = rc.EnableFullDuplex()
	defer finishBody(w, r.Body) // after the slot is released
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
	enc := json.NewEncoder(w)
	writeLine := func(v any) {
		// A write or flush fails only once the client has gone, and the
		// decode then ends on the request's cancelled context.
		_ = enc.Encode(v)
		_ = rc.Flush()
	}
	writeLine(verifySpecLine{
		Type:        "spec",
		RequestID:   requestID(r),
		InputHash:   inputHash,
		Cached:      cached,
		Nodes:       len(p.Nodes),
		Constraints: len(p.Constraints),
		LTL:         ltlText,
		SVA:         svaText,
	})
	out, err := core.VerifyStream(ctx, spec, &limitedDump{r: dump, n: s.cfg.MaxVCDBytes, max: s.cfg.MaxVCDBytes},
		func(v monitor.Verdict) {
			writeLine(verifyVerdictLine{Type: "verdict", Verdict: v})
		}, s.verifyMetrics)
	if err != nil {
		// A read the deadline cut reports it as a check between events does.
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = context.DeadlineExceeded
		}
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

// limitedDump passes a dump through until it proves longer than max
// bytes, then fails the read, so the decoder stops at the limit without
// parsing the line the limit cut.
type limitedDump struct {
	r      io.Reader
	n, max int64 // bytes still allowed, and the limit
}

func (l *limitedDump) Read(p []byte) (int, error) {
	if int64(len(p)) > l.n+1 {
		p = p[:l.n+1]
	}
	n, err := l.r.Read(p)
	if int64(n) > l.n {
		return int(l.n), fmt.Errorf("vcd exceeds the %d-byte limit", l.max)
	}
	l.n -= int64(n)
	return n, err
}

// maxBodyTail bounds what finishBody reads after the verification ends.
const maxBodyTail = 1 << 20

// finishBody reads the request body to its end before a full-duplex
// handler returns: net/http would drain it after the handler, starting a
// background read that the connection's next request collides with
// ("invalid concurrent Body.Read call"). After the vcd part only the
// multipart epilogue is left; a body at its end reads nothing, so a
// deadline that passed after it ended costs nothing. More than
// maxBodyTail left ends the connection after the response, as net/http
// does for any body over a limit; a failed read (the deadline passed, or
// the client went) closes the connection under the response.
func finishBody(w http.ResponseWriter, body io.ReadCloser) {
	_, err := io.Copy(io.Discard, http.MaxBytesReader(serverWriter(w), body, maxBodyTail))
	var tooLong *http.MaxBytesError
	if err == nil || errors.As(err, &tooLong) {
		return
	}
	if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
		_ = conn.Close()
	}
}

// serverWriter follows Unwrap down to net/http's own ResponseWriter, the
// one http.MaxBytesReader can tell to close the connection.
func serverWriter(w http.ResponseWriter) http.ResponseWriter {
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return w
		}
		w = u.Unwrap()
	}
}
