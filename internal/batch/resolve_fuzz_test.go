package batch

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"tdmagic/internal/core"
	"tdmagic/internal/diag"
	"tdmagic/internal/metrics"
	"tdmagic/internal/sed"
	"tdmagic/internal/spo"
	"tdmagic/internal/store"
)

// FuzzLookupArtifact writes arbitrary bytes as the stored artifact of one
// key and looks the key up, with and without PersistReport. Lookup must
// not panic, and must answer one of: a miss; ErrCorrupt, counted once by
// the store's NoteCorrupt; or a store hit whose Body is the stored bytes
// and whose Refused is core.InputRefused of the artifact's diagnostics.
func FuzzLookupArtifact(f *testing.F) {
	s := &spo.SPO{}
	s.AddNode(spo.Node{Signal: "CLK", EdgeIndex: 1})
	s.AddNode(spo.Node{Signal: "Q", EdgeIndex: 1})
	if err := s.AddConstraint(0, 1, "t_1"); err != nil {
		f.Fatal(err)
	}
	for _, a := range []Artifact{
		{SPO: s, Spec: s.SpecText()},
		{SPO: &spo.SPO{}, Diags: []diag.Diagnostic{diag.New(diag.StageInput, diag.Error, "uniform image")}},
		{SPO: s, Spec: s.SpecText(), Diags: []diag.Diagnostic{diag.New(diag.StageSEI, diag.Warning, "repaired")},
			Report: &ReportArtifact{Edges: []sed.Detection{{Score: 0.9}}}},
	} {
		body, err := json.Marshal(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, false)
		f.Add(body, true)
	}
	f.Add([]byte(`{"spec":`), false)
	f.Add([]byte(`{"spo":null}`), false)
	f.Add([]byte(`{"spo":{},"diags":[{"Stage":"input","Severity":"bogus"}]}`), false)

	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	m := store.NewMetrics(metrics.NewRegistry())
	st.SetMetrics(m)
	cfg, key := store.HashBytes([]byte("config")), store.HashBytes([]byte("picture"))
	f.Fuzz(func(t *testing.T, data []byte, persistReport bool) {
		if err := st.Put(cfg, key, data); err != nil {
			t.Fatal(err)
		}
		r := NewResolver(nil, Options{Store: st, Config: cfg, PersistReport: persistReport}, 0)
		before := m.Corrupt.Value()
		res, err := r.Lookup(key)
		corrupt := m.Corrupt.Value() - before
		switch {
		case errors.Is(err, errNotStored):
			if corrupt != 0 {
				t.Fatalf("a miss counted %d corrupt artifacts", corrupt)
			}
		case errors.Is(err, ErrCorrupt):
			if corrupt != 1 {
				t.Fatalf("ErrCorrupt counted %d corrupt artifacts, want 1", corrupt)
			}
		case err != nil:
			t.Fatalf("Lookup: unexpected error %v", err)
		default:
			if corrupt != 0 {
				t.Fatalf("a hit counted %d corrupt artifacts", corrupt)
			}
			if res.Tier != TierStore || !res.Stored || res.Input != key || res.Artifact == nil || res.Artifact.SPO == nil {
				t.Fatalf("hit: tier %v stored %v input match %v artifact %v", res.Tier, res.Stored, res.Input == key, res.Artifact)
			}
			if !bytes.Equal(res.Body, data) {
				t.Fatalf("hit body differs from the stored bytes")
			}
			if want := core.InputRefused(&core.Report{Diags: res.Artifact.Diags}); res.Refused != want {
				t.Fatalf("hit Refused = %v, its diagnostics say %v", res.Refused, want)
			}
			if persistReport && res.Artifact.Report == nil {
				t.Fatalf("a PersistReport resolver answered an artifact without detections")
			}
		}
	})
}
