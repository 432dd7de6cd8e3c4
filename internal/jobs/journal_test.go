package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// leaseJournal renders a one-item journal as the service wrote it while
// claims still carried a lease: the job running, its item running on
// attempt 1 with a lease_until stamp. Today's Record has no such field,
// and encoding/json skips it on load.
func leaseJournal(id, config, path string, leaseUntil int64) []byte {
	q := func(s string) string {
		b, _ := json.Marshal(s)
		return string(b)
	}
	return []byte(fmt.Sprintf(`{"id":%s,"config":%s,"state":"running","created_unix_ns":1,"updated_unix_ns":2,`+
		`"hits":0,"misses":0,"retries":0,"reclaims":0,"items":[`+
		`{"name":"img-000","path":%s,"state":"running","attempts":1,"lease_until":%d}]}`,
		q(id), q(config), q(path), leaseUntil))
}

// leaseEraJournal is a three-item journal in the same lease-era format:
// one item done, one running under a lease, one pending behind a backoff
// gate with the diagnostics of its failed attempt.
const leaseEraJournal = `{"id":"5f0c2a9e7b3d4c18","config":"9c1e4b7a","state":"running",` +
	`"submitter":"req-1","created_unix_ns":1760000000000000000,"updated_unix_ns":1760000000500000000,` +
	`"hits":1,"misses":0,"retries":1,"reclaims":0,"items":[` +
	`{"name":"a","path":"/corpus/a.png","state":"done","attempts":1,"input":"ab01"},` +
	`{"name":"b","path":"/corpus/b.png","state":"running","attempts":1,"lease_until":1760000030000000000},` +
	`{"name":"c","path":"/corpus/c.png","state":"pending","attempts":1,"error":"jobs: item panic: boom",` +
	`"diags":[{"Stage":"sed","Severity":"warning","Message":"m","Location":{"X0":1,"Y0":2,"X1":3,"Y1":4},"HasLocation":true}],` +
	`"not_before":1760000000750000000}]}`

// FuzzLoadRecord replays arbitrary bytes as a job directory's journal,
// with an optional previous generation. loadRecord must never panic,
// must return only records with an ID, and a record it returns must be
// stable on the journal: written back and loaded again, it marshals to
// the bytes that were written.
func FuzzLoadRecord(f *testing.F) {
	f.Add([]byte(leaseEraJournal), []byte(nil))
	f.Add([]byte(leaseEraJournal[:len(leaseEraJournal)/2]), []byte(nil))
	f.Add([]byte(leaseEraJournal[:len(leaseEraJournal)/2]), []byte(leaseEraJournal))
	f.Add([]byte(`{}`), []byte(nil))
	f.Add([]byte(`{"config":"9c1e4b7a","state":"queued","items":[{"name":"a","path":"a.png","state":"pending"}]}`), []byte(nil))
	f.Add([]byte(`{"id":"j","state":"failed","items":[{"name":"a","state":"quarantined",`+
		`"diags":[{"Stage":"sed","Severity":"fatal","Message":"m"}]}]}`), []byte(`{"id":"j","items":[]}`))
	// A worker runs its inputs one at a time, so one directory serves
	// them all: each input overwrites both generations, and the record is
	// written back over them.
	dir := f.TempDir()
	cur, prev := filepath.Join(dir, journalFile), filepath.Join(dir, journalPrev)
	f.Fuzz(func(t *testing.T, curData, prevData []byte) {
		if err := os.WriteFile(cur, curData, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(prevData) > 0 {
			if err := os.WriteFile(prev, prevData, 0o644); err != nil {
				t.Fatal(err)
			}
		} else if err := os.Remove(prev); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		rec, err := loadRecord(dir)
		if err != nil {
			if bytes.Equal(curData, []byte(leaseEraJournal)) {
				t.Fatalf("the lease-era journal does not load: %v", err)
			}
			return
		}
		if rec.ID == "" {
			t.Fatal("loadRecord returned a record without an ID")
		}
		if err := writeRecord(dir, rec); err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadFile(cur)
		if err != nil {
			t.Fatal(err)
		}
		again, err := loadRecord(dir)
		if err != nil {
			t.Fatalf("reloading a written record: %v\n%s", err, written)
		}
		remarshalled, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, remarshalled) {
			t.Fatalf("journal bytes not stable:\nwritten %s\nreload  %s", written, remarshalled)
		}
	})
}
