package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"path/filepath"
	"strings"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/jobs"
)

// The durable job API. Where /v1/translate answers inline under a
// deadline, /v1/jobs accepts a corpus, journals it, and answers 202: the
// job service translates it asynchronously with retries and crash-safe
// resume, and the client polls status and streams results.
//
//	POST   /v1/jobs              multipart PNG parts, or JSON {"manifest": [paths]}
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         status snapshot (?items=1 for per-item states)
//	GET    /v1/jobs/{id}/results ordered NDJSON stream, one ItemResult per line
//	DELETE /v1/jobs/{id}         cancel

// jobSubmission is the JSON body of a manifest-style submission.
type jobSubmission struct {
	// Manifest lists picture paths relative to the server's configured
	// manifest root.
	Manifest []string `json:"manifest"`
}

// handleJobs serves the /v1/jobs collection: POST submits, GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Jobs []jobs.Snapshot `json:"jobs"`
		}{s.cfg.Jobs.List()})
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "POST a job or GET the job list", nil)
	}
}

// handleJobSubmit accepts a job as either multipart/form-data (PNG file
// parts, persisted under the job directory) or application/json (a
// manifest of paths under the configured manifest root).
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	mediaType, params, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		s.badRequests.Inc()
		s.writeError(w, http.StatusBadRequest, "unreadable content type", nil)
		return
	}
	var specs []jobs.ItemSpec
	switch {
	case mediaType == "multipart/form-data":
		// Part bytes accumulate in specs until Submit journals them, so
		// the whole upload is bounded, not just each part: MaxBytesReader
		// fails the read once the body exceeds the job-upload budget.
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxJobBodyBytes)
		specs, err = s.collectUploadSpecs(multipart.NewReader(body, params["boundary"]))
	case mediaType == "application/json":
		specs, err = s.collectManifestSpecs(r.Body)
	default:
		err = errors.New("content type must be multipart/form-data or application/json")
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.badRequests.Inc()
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job upload exceeds the %d-byte limit", s.cfg.MaxJobBodyBytes), nil)
			return
		}
		s.badRequests.Inc()
		s.writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	sn, err := s.cfg.Jobs.SubmitRequest(requestID(r), specs)
	if err != nil {
		if errors.Is(err, jobs.ErrClosed) {
			s.writeError(w, http.StatusServiceUnavailable, "service is draining", nil)
			return
		}
		s.badRequests.Inc()
		s.writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+sn.ID)
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(sn)
}

// collectUploadSpecs reads multipart PNG parts into item specs. Accepted
// parts stay buffered until Submit journals the job, so the reader
// enforces its limits while reading, before memory is committed: each
// part is size-capped and screened with the same magic + IHDR raster
// check as the synchronous endpoints, the part count is capped at the
// job service's item limit, and the caller bounds the whole body.
func (s *Server) collectUploadSpecs(mr *multipart.Reader) ([]jobs.ItemSpec, error) {
	maxParts := s.cfg.Jobs.MaxItems()
	var specs []jobs.ItemSpec
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			return specs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("read multipart body: %w", err)
		}
		if len(specs) >= maxParts {
			part.Close()
			return nil, fmt.Errorf("job exceeds the %d-item limit", maxParts)
		}
		name := part.FileName()
		if name == "" {
			name = part.FormName()
		}
		name = strings.TrimSuffix(name, filepath.Ext(name))
		if err := batch.SafeName(name); err != nil {
			part.Close()
			return nil, err
		}
		data, err := io.ReadAll(io.LimitReader(part, s.cfg.MaxBodyBytes+1))
		part.Close()
		if err != nil {
			return nil, fmt.Errorf("read part %q: %w", name, err)
		}
		if int64(len(data)) > s.cfg.MaxBodyBytes {
			return nil, fmt.Errorf("part %q exceeds the %d-byte limit", name, s.cfg.MaxBodyBytes)
		}
		if msg := screenPNG(data); msg != "" {
			return nil, fmt.Errorf("part %q: %s", name, msg)
		}
		specs = append(specs, jobs.ItemSpec{Name: name, Data: bytes.NewReader(data)})
	}
}

// screenPNG applies the cheap pre-decode screening (PNG signature, IHDR
// raster bound) to an uploaded job item; full decoding happens on a job
// worker under its own deadline.
func screenPNG(data []byte) string {
	if len(data) < 24 || [8]byte(data[:8]) != pngMagic {
		return "not a PNG"
	}
	width := int64(binary.BigEndian.Uint32(data[16:20]))
	height := int64(binary.BigEndian.Uint32(data[20:24]))
	if width <= 0 || height <= 0 || width*height > core.MaxPixels {
		return fmt.Sprintf("declared %dx%d raster exceeds the %d-pixel limit", width, height, core.MaxPixels)
	}
	return ""
}

// collectManifestSpecs reads a JSON manifest submission, resolving every
// path under the configured manifest root and refusing any that would
// escape it.
func (s *Server) collectManifestSpecs(body io.Reader) ([]jobs.ItemSpec, error) {
	if s.cfg.JobsManifestRoot == "" {
		return nil, errors.New("manifest submissions are not enabled on this server")
	}
	var sub jobSubmission
	dec := json.NewDecoder(io.LimitReader(body, 1<<20))
	if err := dec.Decode(&sub); err != nil {
		return nil, fmt.Errorf("decode submission: %w", err)
	}
	if len(sub.Manifest) == 0 {
		return nil, errors.New("empty manifest")
	}
	specs := make([]jobs.ItemSpec, len(sub.Manifest))
	for i, p := range sub.Manifest {
		if filepath.IsAbs(p) || !filepath.IsLocal(p) {
			return nil, fmt.Errorf("manifest path %q escapes the manifest root", p)
		}
		name := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		if err := batch.SafeName(name); err != nil {
			return nil, err
		}
		specs[i] = jobs.ItemSpec{Name: name, Path: filepath.Join(s.cfg.JobsManifestRoot, p)}
	}
	return specs, nil
}

// handleJob serves one job's resources: GET status, GET results, DELETE.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "results" && sub != "events") {
		s.writeError(w, http.StatusNotFound, "no such resource", nil)
		return
	}
	switch {
	case sub == "results" && r.Method == http.MethodGet:
		s.handleJobResults(w, id)
	case sub == "events" && r.Method == http.MethodGet:
		s.handleJobEvents(w, r, id)
	case sub == "" && r.Method == http.MethodGet:
		sn, ok := s.cfg.Jobs.Get(id, r.URL.Query().Get("items") == "1")
		if !ok {
			s.writeError(w, http.StatusNotFound, "no such job", nil)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(sn)
	case sub == "" && r.Method == http.MethodDelete:
		sn, err := s.cfg.Jobs.Cancel(id)
		if err != nil {
			s.writeError(w, http.StatusNotFound, "no such job", nil)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(sn)
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "GET status or results, DELETE to cancel", nil)
	}
}

// handleJobEvents streams a job's live lifecycle as NDJSON: a snapshot
// line first (?items=1 adds per-item states to it), then every event as
// it happens — claims, retries with backoff delays, quarantines, store
// hit/miss on completion, checkpoints, the terminal state — each line
// flushed immediately. The stream ends (EOF) when the job's scheduler
// exits: terminal completion or a shutdown drain; a watcher reconnects
// after a restart and the fresh snapshot shows the resumed position. A subscriber that reads too slowly loses the newest
// events and sees an in-band {"type":"truncated","dropped":N} marker at
// the gap, so a stalled consumer can never wedge the job service.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	sub, err := s.cfg.Jobs.Events(id, r.URL.Query().Get("items") == "1")
	if err != nil {
		s.writeError(w, http.StatusNotFound, "no such job", nil)
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		ev, err := sub.Next(r.Context())
		if err != nil {
			return // io.EOF (stream closed) or the client went away
		}
		if enc.Encode(ev) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleJobResults streams a terminal job's ordered results as NDJSON:
// one jobs.ItemResult per line, in submission order, replayed from the
// artifact store. The stream of a resumed job is byte-identical to an
// uninterrupted run — the encoding carries nothing run-volatile.
func (s *Server) handleJobResults(w http.ResponseWriter, id string) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	err := s.cfg.Jobs.Results(id, func(r jobs.ItemResult) error {
		return enc.Encode(r)
	})
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.writeError(w, http.StatusNotFound, "no such job", nil)
	case errors.Is(err, jobs.ErrRunning):
		s.writeError(w, http.StatusConflict, "job is still running; poll its status", nil)
	}
}
