package cache

import (
	"os"
	"path/filepath"
	"testing"
)

type payload struct {
	Name  string
	Score float64
	Raw   []int
}

func TestKeyStability(t *testing.T) {
	a, err := Key("v1", payload{Name: "x", Score: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Key("v1", payload{Name: "x", Score: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same inputs keyed differently: %s vs %s", a, b)
	}
	c, _ := Key("v1", payload{Name: "x", Score: 1.6})
	if a == c {
		t.Error("different inputs collided")
	}
	d, _ := Key("v2", payload{Name: "x", Score: 1.5})
	if a == d {
		t.Error("different versions collided")
	}
	if len(a) != 64 {
		t.Errorf("key length = %d, want 64 hex chars", len(a))
	}
}

func TestKeyUnencodable(t *testing.T) {
	if _, err := Key("v1", func() {}); err == nil {
		t.Error("expected error for unencodable key input")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := payload{Name: "genome", Score: 2.25, Raw: []int{1, 2, 3}}
	key, _ := Key("v1", in)
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := s.Get(key, &out)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v; want hit", ok, err)
	}
	if out.Name != in.Name || out.Score != in.Score || len(out.Raw) != 3 {
		t.Errorf("round trip mismatch: %+v", out)
	}
	if _, err := os.Stat(s.Path(key)); err != nil {
		t.Errorf("Put wrote no record at %s: %v", s.Path(key), err)
	}
}

func TestGetMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := s.Get("deadbeef", &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("hit on missing key")
	}
}

func TestCorruptEntryIsMissAndRemoved(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, _ := Key("v1", payload{Name: "x"})
	if err := s.Put(key, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(key), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := s.Get(key, &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("corrupt entry reported as hit")
	}
	if _, err := os.Stat(s.Path(key)); !os.IsNotExist(err) {
		t.Error("corrupt entry not removed")
	}
}

// TestTornWriteEvictsAndRecomputes is the regression test for the
// evict-and-recompute contract: a torn write (a record truncated mid-file,
// as a crashed writer or full disk leaves behind) must surface as a miss
// with the entry evicted and reported through OnEvict, so the caller
// recomputes instead of failing the cell — and the recomputed Put lands.
func TestTornWriteEvictsAndRecomputes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var evicted []string
	var reasons []error
	s.OnEvict = func(key string, reason error) {
		evicted = append(evicted, key)
		reasons = append(reasons, reason)
	}
	in := payload{Name: "intruder", Score: 3.5, Raw: []int{9, 8, 7}}
	key, _ := Key("v1", in)
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	// Tear the record: keep only the first half of its bytes.
	full, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(key), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := s.Get(key, &out)
	if err != nil {
		t.Fatalf("torn entry surfaced as an error: %v", err)
	}
	if ok {
		t.Fatal("torn entry reported as hit")
	}
	if len(evicted) != 1 || evicted[0] != key {
		t.Fatalf("OnEvict saw %v, want [%s]", evicted, key)
	}
	if len(reasons) != 1 || reasons[0] == nil {
		t.Fatalf("OnEvict reason missing: %v", reasons)
	}
	if _, err := os.Stat(s.Path(key)); !os.IsNotExist(err) {
		t.Fatal("torn entry not evicted from disk")
	}
	// Recompute path: a fresh Put round-trips again.
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Get(key, &out); !ok || out.Name != in.Name {
		t.Fatalf("recomputed record did not land: %v %+v", ok, out)
	}
}

func TestEvictMissingIsSilentNoOp(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	s.OnEvict = func(string, error) { calls++ }
	s.Evict("deadbeef", nil) // nothing on disk: must not panic
	if calls != 1 {
		t.Fatalf("OnEvict calls = %d, want 1 (caller-initiated evictions always report)", calls)
	}
}

func TestPutOverwrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, _ := Key("v1", "k")
	if err := s.Put(key, payload{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, payload{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if ok, _ := s.Get(key, &out); !ok || out.Name != "b" {
		t.Errorf("overwrite lost: %+v", out)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("expected error for empty dir")
	}
}

func TestPathFanout(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := s.Path("abcdef")
	if filepath.Dir(p) != filepath.Join(s.dir, "ab") {
		t.Errorf("path %s not fanned out by prefix", p)
	}
}

// TestFilesystemErrorsSurface: a store whose files cannot be made or read
// returns an error naming the step instead of a miss or a silent success,
// and a value JSON cannot encode is refused before anything is written.
// Each obstacle is a file or directory where the store needs the other.
func TestFilesystemErrorsSurface(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ab"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(dir, "ab", "sub")); err == nil {
		t.Error("Open under a regular file succeeded")
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("abcd", payload{}); err == nil {
		t.Error("Put whose fan-out directory is a file succeeded")
	}
	if err := s.Put("cdef", make(chan int)); err == nil {
		t.Error("Put of an unencodable value succeeded")
	}
	if err := os.MkdirAll(filepath.Join(s.Path("efgh"), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("efgh", payload{}); err == nil {
		t.Error("Put over a directory succeeded")
	}
	if ok, err := s.Get("efgh", &payload{}); ok || err == nil {
		t.Errorf("Get of a directory = %v, %v; want an error", ok, err)
	}
	if got, want := s.Path("a"), filepath.Join(dir, "a.json"); got != want {
		t.Errorf("Path of a one-byte key = %s, want %s", got, want)
	}
}
