package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tdmagic/internal/imgproc"
)

func h(b byte) Hash {
	var x Hash
	x[0] = b
	x[31] = b ^ 0xff
	return x
}

func TestHashHexRoundTrip(t *testing.T) {
	x := HashBytes([]byte("timing diagram"))
	got, err := ParseHex(x.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if got != x {
		t.Fatalf("round trip %s != %s", got.Hex(), x.Hex())
	}
	if _, err := ParseHex("zz"); err == nil {
		t.Error("ParseHex accepted garbage")
	}
	if !(Hash{}).IsZero() || x.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestHashImageMatchesServeScheme(t *testing.T) {
	img := imgproc.NewGray(3, 2)
	img.Pix = []byte{1, 2, 3, 4, 5, 6}
	a := HashImage(img)
	img2 := imgproc.NewGray(3, 2)
	img2.Pix = []byte{1, 2, 3, 4, 5, 6}
	if HashImage(img2) != a {
		t.Error("equal pixels, different hash")
	}
	// Dimensions are part of the key: 3x2 and 2x3 share bytes but not hash.
	img3 := imgproc.NewGray(2, 3)
	img3.Pix = []byte{1, 2, 3, 4, 5, 6}
	if HashImage(img3) == a {
		t.Error("transposed dims collide")
	}
	img2.Pix[5] = 7
	if HashImage(img2) == a {
		t.Error("pixel flip did not change hash")
	}
}

func TestPutGetRemove(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, input := h(1), h(2)
	if _, ok := s.Get(cfg, input); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(cfg, input, []byte(`{"spec":"x"}`)); err != nil {
		t.Fatal(err)
	}
	data, ok := s.Get(cfg, input)
	if !ok || string(data) != `{"spec":"x"}` {
		t.Fatalf("get = %q, %v", data, ok)
	}
	if _, ok := s.Get(cfg, input); !ok {
		t.Error("Get missed after Put")
	}
	// Overwrite replaces content atomically.
	if err := s.Put(cfg, input, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if data, _ := s.Get(cfg, input); string(data) != "v2" {
		t.Errorf("overwrite read back %q", data)
	}
	if err := s.Remove(cfg, input); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(cfg, input); ok {
		t.Error("Get hit after Remove")
	}
	if err := s.Remove(cfg, input); err != nil {
		t.Errorf("double remove: %v", err)
	}
}

func TestKeysAreIndependent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(h(1), h(2), []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Same input under a different config is a distinct artifact.
	if _, ok := s.Get(h(9), h(2)); ok {
		t.Error("config hash not part of the key")
	}
	if _, ok := s.Get(h(1), h(9)); ok {
		t.Error("input hash not part of the key")
	}
	n, err := s.Count(h(1))
	if err != nil || n != 1 {
		t.Errorf("Count = %d, %v", n, err)
	}
	if n, _ := s.Count(h(9)); n != 0 {
		t.Errorf("Count(empty cfg) = %d", n)
	}
}

func TestAliasIndex(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, input := h(3), h(4)
	if _, ok := s.GetAlias(raw); ok {
		t.Fatal("alias hit on empty store")
	}
	if err := s.PutAlias(raw, input); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetAlias(raw)
	if !ok || got != input {
		t.Fatalf("GetAlias = %s, %v", got.Hex(), ok)
	}
}

func TestOpenClearsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "tmp", "put-crashed")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale tmp file survived reopen")
	}
}

func TestCorruptAliasIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw := h(5)
	if err := s.PutAlias(raw, h(6)); err != nil {
		t.Fatal(err)
	}
	// An externally truncated alias file degrades to a miss, not an error.
	if err := os.WriteFile(s.aliasPath(raw), []byte("not-hex"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetAlias(raw); ok {
		t.Error("corrupt alias resolved")
	}
}

// TestFaultHookAbortsWrites pins the fault-injection seam: a hook
// failing "put" operations makes Put error without committing anything,
// while alias writes stay unaffected — and clearing the hook heals the
// store with no residue from the failed attempts.
func TestFaultHookAbortsWrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	FaultHook = func(op, path string) error {
		if op == "put" {
			return errors.New("injected disk-full")
		}
		return nil
	}
	defer func() { FaultHook = nil }()

	cfg, input := HashBytes([]byte("cfg")), HashBytes([]byte("input"))
	if err := s.Put(cfg, input, []byte("artifact")); err == nil {
		t.Fatal("Put succeeded under an injected write fault")
	}
	if _, ok := s.Get(cfg, input); ok {
		t.Fatal("failed Put left a committed artifact")
	}
	raw := HashBytes([]byte("raw"))
	if err := s.PutAlias(raw, input); err != nil {
		t.Fatalf("alias write hit the put-only fault: %v", err)
	}

	FaultHook = nil
	if err := s.Put(cfg, input, []byte("artifact")); err != nil {
		t.Fatalf("Put after clearing the fault: %v", err)
	}
	if got, ok := s.Get(cfg, input); !ok || string(got) != "artifact" {
		t.Fatalf("healed store Get = %q, %v", got, ok)
	}
}

// TestProbeWritable pins the readiness probe: writable store probes
// clean and leaves no residue; a store whose staging area is gone fails.
func TestProbeWritable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ProbeWritable(); err != nil {
		t.Fatalf("fresh store not writable: %v", err)
	}
	left, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil || len(left) != 0 {
		t.Fatalf("probe left residue: %v, %v", left, err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "tmp")); err != nil {
		t.Fatal(err)
	}
	if err := s.ProbeWritable(); err == nil {
		t.Fatal("store without a staging area probed writable")
	}
}
