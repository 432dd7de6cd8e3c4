package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// op is the client-side record of one operation.
type op struct {
	due      time.Time // scheduled send (open loop); zero in a closed loop
	sent     time.Time // request written
	accepted time.Time // job submission answered 202
	first    time.Time // first verdict line of a verification stream
	end      time.Time // last byte read
	// lag is how late the generator sent: after the due time in an open
	// loop, after the caller's previous response in a closed loop.
	lag time.Duration

	status  int
	outcome outcome
	cached  bool   // X-Cache: hit
	detail  string // why a failed or wrong op failed
	items   int    // job items (1 for a request)
}

type outcome int

const (
	okOutcome      outcome = iota
	wrongOutcome           // succeeded with an output the oracle rejects
	refusedOutcome         // 429 or 5xx
	failedOutcome          // transport error or any other status
)

// latency is the op's time from its due time (open loop) or send time.
func (o op) latency() time.Duration {
	if !o.due.IsZero() {
		return o.end.Sub(o.due)
	}
	return o.end.Sub(o.sent)
}

// firstVerdict is the time from sending a verification to its first
// verdict line.
func (o op) firstVerdict() time.Duration { return o.first.Sub(o.sent) }

// classify maps an HTTP status onto an outcome for a response whose
// body has not been judged yet.
func classify(status int) outcome {
	switch {
	case status == http.StatusOK || status == http.StatusAccepted:
		return okOutcome
	case status == http.StatusTooManyRequests || status >= 500:
		return refusedOutcome
	}
	return failedOutcome
}

// client issues the benchmark's requests over keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1024,
		DisableCompression:  true,
	}}}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// translate POSTs one picture and judges the body against the oracle.
func (c *client) translate(p *picture, requestID string) op {
	var o op
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/translate", bytes.NewReader(p.PNG))
	if err != nil {
		return failed(o, err)
	}
	req.Header.Set("Content-Type", "image/png")
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	o.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return failed(o, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	o.items = 1
	if err != nil {
		return failed(o, err)
	}
	o.status = resp.StatusCode
	o.cached = resp.Header.Get("X-Cache") == "hit"
	o.outcome = classify(o.status)
	if o.outcome == okOutcome && !bytes.Equal(body, p.Want) {
		o.outcome, o.detail = wrongOutcome, "translate body differs from the in-process artifact"
	}
	if o.outcome != okOutcome && o.detail == "" {
		o.detail = fmt.Sprintf("status %d: %.200s", o.status, body)
	}
	return o
}

// verify POSTs one verification request, stamps the first verdict line
// as it streams in, and judges the whole stream against the oracle.
func (c *client) verify(body multipartBody, want *verifyWant, requestID string) op {
	var o op
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/verify", bytes.NewReader(body.Body))
	if err != nil {
		return failed(o, err)
	}
	req.Header.Set("Content-Type", body.ContentType)
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	o.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return failed(o, err)
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	o.items = 1
	var raw [][]byte
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if o.first.IsZero() && bytes.Contains(line, []byte(`"type":"verdict"`)) {
				o.first = time.Now()
			}
			raw = append(raw, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return failed(o, err)
		}
	}
	o.end = time.Now()
	if o.first.IsZero() {
		o.first = o.end
	}
	o.outcome = classify(o.status)
	if o.outcome != okOutcome {
		o.detail = fmt.Sprintf("status %d: %.200s", o.status, bytes.Join(raw, nil))
		return o
	}
	lines := make([]verifyLine, len(raw))
	for i, l := range raw {
		if err := json.Unmarshal(l, &lines[i]); err != nil {
			o.outcome, o.detail = wrongOutcome, "undecodable stream line: "+err.Error()
			return o
		}
	}
	if err := checkVerify(lines, want); err != nil {
		o.outcome, o.detail = wrongOutcome, err.Error()
	}
	return o
}

func failed(o op, err error) op {
	if o.sent.IsZero() {
		o.sent = time.Now()
	}
	o.end = time.Now()
	o.first = o.end
	o.outcome, o.detail = failedOutcome, err.Error()
	return o
}

// openLoop sends fn(i) at each scheduled offset from the loop's start,
// whatever the state of earlier requests: the arrival pattern of
// independent users. Each op's due time is its scheduled instant.
func openLoop(sched []time.Duration, fn func(i int) op) (ops []op, start time.Time) {
	ops = make([]op, len(sched))
	var wg sync.WaitGroup
	start = time.Now()
	for i, d := range sched {
		due := start.Add(d)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			o := fn(i)
			o.due, o.lag = due, o.sent.Sub(due)
			ops[i] = o
		}(i, due)
	}
	wg.Wait()
	return ops, start
}

// closedLoop runs conns callers for dur, each sending its next request
// only after the previous one completed. fn returns false when the
// inputs are exhausted. Requests in flight at the deadline complete.
func closedLoop(conns int, dur time.Duration, fn func(worker, k int) (op, bool)) (ops []op, start time.Time) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var k atomic.Int64
	start = time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []op
			prev := start
			for time.Now().Before(deadline) {
				o, more := fn(w, int(k.Add(1)-1))
				if !more {
					break
				}
				o.lag, prev = o.sent.Sub(prev), o.end
				mine = append(mine, o)
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return ops, start
}
