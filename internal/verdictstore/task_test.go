package verdictstore

import (
	"bytes"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/solver"
)

func bigFromString(t *testing.T, s string) *big.Int {
	t.Helper()
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		t.Fatalf("bad big.Int literal %q", s)
	}
	return n
}

func TestTaskKey(t *testing.T) {
	legacy := "cdcl\x00cfg\x00fp"
	if got := TaskKey("", "cdcl", "cfg", "fp"); got != legacy {
		t.Errorf("empty task key %q != legacy key %q", got, legacy)
	}
	if got := TaskKey("decide", "cdcl", "cfg", "fp"); got != legacy {
		t.Errorf("decide task key %q != legacy key %q", got, legacy)
	}
	counting := TaskKey("count", "count", "cfg", "fp")
	if counting == TaskKey("", "count", "cfg", "fp") {
		t.Error("count task key collides with the decide triple")
	}
	if !strings.HasPrefix(counting, "count\x00") {
		t.Errorf("count key %q missing task prefix", counting)
	}
}

// TestDecideRecordsAreFormatCompatible pins the acceptance criterion:
// a decide-only store file written before the task model existed must
// replay bit-identically after. We prove it from the new side — decide
// records marshal with no task field at all (so their frames are the
// exact bytes the pre-task code wrote), the empty-task key finds
// them, and a rewrite of the same records reproduces the file byte for
// byte.
func TestDecideRecordsAreFormatCompatible(t *testing.T) {
	s, path := openTemp(t)
	recs := []Record{testRecord(0, solver.StatusSat), testRecord(1, solver.StatusUnsat)}
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"task"`)) {
		t.Error("decide records leak a task field into the file format")
	}

	// Replay: legacy-shaped lookups see the records unchanged.
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, want := range recs {
		got, ok := s2.Get(TaskKey("", want.Engine, want.ConfigKey, want.Fingerprint))
		if !ok || got.Result.Status != want.Result.Status {
			t.Errorf("Get(TaskKey(\"\", %q)) = %+v, %v", want.Fingerprint, got, ok)
		}
		// And the task-aware path agrees for decide.
		if _, ok := s2.Get(TaskKey(string(solver.TaskDecide), want.Engine, want.ConfigKey, want.Fingerprint)); !ok {
			t.Errorf("Get(TaskKey(decide)) misses a legacy record for %q", want.Fingerprint)
		}
	}

	// Writing the same decide records through the new code produces the
	// identical file — the wire format did not move.
	path2 := filepath.Join(t.TempDir(), "rewrite.nbl")
	s3, err := Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := s3.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("decide-only store files are no longer byte-identical across the task change")
	}
}

// TestPutWritesDecideInPreTaskForm: a record Put under the explicit
// "decide" task is framed exactly as one with an empty Task, so callers
// may pass the task they solved and the file keeps the pre-task format.
func TestPutWritesDecideInPreTaskForm(t *testing.T) {
	var files [2][]byte
	for i, task := range []string{"", string(solver.TaskDecide)} {
		s, path := openTemp(t)
		rec := testRecord(0, solver.StatusSat)
		rec.Task = task
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		if got, _ := s.Get(TaskKey("", rec.Engine, rec.ConfigKey, rec.Fingerprint)); got.Task != "" {
			t.Errorf("task %q: stored record carries task %q", task, got.Task)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Errorf("a decide-task record framed differently from an empty-task one:\n%q\n%q", files[0], files[1])
	}
}

// TestCountRecordsKeyedSeparately checks that a count verdict and a
// decide verdict for the same (engine, config, fingerprint) triple
// coexist, survive a reload, and round-trip the big.Int count.
func TestCountRecordsKeyedSeparately(t *testing.T) {
	s, path := openTemp(t)
	decide := testRecord(2, solver.StatusSat)
	counting := decide
	counting.Task = "count"
	counting.Result.Assignment = nil
	counting.Result.Count = bigFromString(t, "340282366920938463463374607431768211456") // 2^128
	if err := s.Put(decide); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(counting); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Entries != 2 {
		t.Fatalf("Entries = %d, want 2 (decide and count must not collide)", s.Stats().Entries)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get(TaskKey("count", counting.Engine, counting.ConfigKey, counting.Fingerprint))
	if !ok {
		t.Fatal("count record lost across reload")
	}
	if got.Result.Count == nil || got.Result.Count.Cmp(counting.Result.Count) != 0 {
		t.Errorf("count round trip = %v, want %v", got.Result.Count, counting.Result.Count)
	}
	if got2, ok := s2.Get(TaskKey("", decide.Engine, decide.ConfigKey, decide.Fingerprint)); !ok ||
		got2.Result.Status != solver.StatusSat || got2.Result.Count != nil {
		t.Errorf("decide record polluted by count twin: %+v, %v", got2, ok)
	}
}
