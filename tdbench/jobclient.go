package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// job submits one multipart job, follows its live event stream to the
// terminal state and reads its ordered results, judging every line
// against the oracle. o.accepted is the 202.
func (c *client) job(up multipartBody, want [][]byte, requestID string) op {
	o := op{items: len(want)}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(up.Body))
	if err != nil {
		return failed(o, err)
	}
	req.Header.Set("Content-Type", up.ContentType)
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	o.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return failed(o, err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	o.accepted = time.Now()
	if o.status = resp.StatusCode; o.status != http.StatusAccepted || derr != nil {
		return failed(o, fmt.Errorf("submit: status %d", o.status))
	}
	state, err := c.follow(sub.ID)
	if err != nil {
		return failed(o, err)
	}
	if state != "done" {
		return failed(o, fmt.Errorf("job ended %s", state))
	}
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + sub.ID + "/results")
	if err != nil {
		return failed(o, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	if err != nil {
		return failed(o, err)
	}
	if o.status = resp.StatusCode; o.status != http.StatusOK {
		return failed(o, fmt.Errorf("results: status %d", o.status))
	}
	if wrong := checkJobResults(body, want); wrong > 0 {
		o.outcome, o.detail = wrongOutcome, fmt.Sprintf("%d of %d job result lines differ from the in-process artifacts", wrong, len(want))
	}
	return o
}

// follow tails a job's event stream until its terminal state line and
// returns the state.
func (c *client) follow(id string) (string, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var ev struct {
		Type  string `json:"type"`
		State string `json:"state"`
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		// Item events are most of the stream; only the snapshot (which
		// shows a job already settled) and the state line are decoded.
		if bytes.Contains(line, []byte(`"type":"snapshot"`)) || bytes.Contains(line, []byte(`"type":"state"`)) {
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				return "", fmt.Errorf("events: %w", jerr)
			}
			if ev.Type == "state" || terminal(ev.State) {
				return ev.State, nil
			}
		}
		if err == io.EOF {
			return "", fmt.Errorf("events stream ended before job %s settled", id)
		}
		if err != nil {
			return "", err
		}
	}
}

func terminal(state string) bool { return state == "done" || state == "failed" || state == "cancelled" }
