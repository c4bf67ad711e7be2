package verdictstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/solver"
)

func testRecord(i int, status solver.Status) Record {
	model := cnf.NewAssignment(3)
	model.Set(1, cnf.True)
	model.Set(2, cnf.False)
	if status != solver.StatusSat {
		model = nil
	}
	return Record{
		Engine:      "pre(mc)",
		ConfigKey:   "cfg-key",
		Fingerprint: fakeFingerprint(i),
		Result: solver.Result{
			Status:     status,
			Assignment: model,
			Engine:     "mc",
			Wall:       time.Duration(1234567 + i),
			Stats:      solver.Stats{Samples: int64(1000 * i), Mean: 0.25, StdErr: 0.01},
		},
	}
}

func fakeFingerprint(i int) string {
	return string(rune('a'+i%26)) + "0123456789abcdef0123456789abcdef"
}

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "verdicts.nbl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func TestRoundTrip(t *testing.T) {
	s, path := openTemp(t)
	want := make([]Record, 8)
	for i := range want {
		status := solver.StatusSat
		if i%3 == 0 {
			status = solver.StatusUnsat
		}
		want[i] = testRecord(i, status)
		if err := s.Put(want[i]); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(want) {
		t.Fatalf("reloaded %d records, want %d", re.Len(), len(want))
	}
	for i, w := range want {
		got, ok := re.Get(w.Engine, w.ConfigKey, w.Fingerprint)
		if !ok {
			t.Fatalf("record %d missing after reload", i)
		}
		if got.Result.Status != w.Result.Status ||
			got.Result.Wall != w.Result.Wall ||
			got.Result.Stats != w.Result.Stats ||
			got.Result.Engine != w.Result.Engine {
			t.Errorf("record %d: got %+v, want %+v", i, got.Result, w.Result)
		}
		// Models must survive the JSON trip value-for-value on the
		// variables they assign (the wire form carries only assigned
		// variables, so lengths may legitimately differ).
		for v := cnf.Var(1); v <= 3; v++ {
			if got.Result.Assignment.Get(v) != w.Result.Assignment.Get(v) {
				t.Errorf("record %d var %d: got %v, want %v",
					i, v, got.Result.Assignment.Get(v), w.Result.Assignment.Get(v))
			}
		}
	}
	st := re.Stats()
	if st.Loaded != int64(len(want)) || st.Entries != int64(len(want)) {
		t.Errorf("stats after reload: %+v", st)
	}
	if st.TornBytes != 0 {
		t.Errorf("clean file reported %d torn bytes", st.TornBytes)
	}
}

func TestUnknownRejected(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	rec := testRecord(0, solver.StatusUnknown)
	if err := s.Put(rec); err != ErrNotDefinitive {
		t.Fatalf("Put(UNKNOWN) = %v, want ErrNotDefinitive", err)
	}
	if s.Len() != 0 {
		t.Fatalf("UNKNOWN landed in the index: %d entries", s.Len())
	}
}

func TestDuplicateKeySkipsAppend(t *testing.T) {
	s, path := openTemp(t)
	rec := testRecord(1, solver.StatusSat)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	size1 := fileSize(t, path)
	// Same identity triple, different wall: the append must be skipped
	// and the first verdict kept.
	rec2 := rec
	rec2.Result.Wall = 999
	if err := s.Put(rec2); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != size1 {
		t.Fatalf("duplicate key grew the file: %d -> %d bytes", size1, got)
	}
	got, _ := s.Get(rec.Engine, rec.ConfigKey, rec.Fingerprint)
	if got.Result.Wall != rec.Result.Wall {
		t.Fatalf("duplicate overwrote the stored verdict: wall %v", got.Result.Wall)
	}
	if st := s.Stats(); st.Appends != 1 {
		t.Fatalf("appends = %d, want 1", st.Appends)
	}
	s.Close()
}

// TestTornTailTruncation is the crash fault injection: a store cut off
// at every possible byte offset inside its final record must load
// cleanly, keep every earlier record, and truncate the torn tail so the
// next append lands on a clean boundary.
func TestTornTailTruncation(t *testing.T) {
	defer func(old func(string, ...any)) { Warnf = old }(Warnf)
	Warnf = func(string, ...any) {} // hundreds of cuts; the line itself is TestTornTailWarning's

	s, path := openTemp(t)
	recs := []Record{testRecord(0, solver.StatusSat), testRecord(1, solver.StatusUnsat)}
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	full := fileSize(t, path)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The boundary after record 0: scan the frames the same way load does.
	rec0End := frameEnd(t, pristine, 1)

	for cut := rec0End + 1; cut < full; cut++ {
		if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: Open failed: %v", cut, err)
		}
		if re.Len() != 1 {
			t.Fatalf("cut at %d: loaded %d records, want 1", cut, re.Len())
		}
		if _, ok := re.Get(recs[0].Engine, recs[0].ConfigKey, recs[0].Fingerprint); !ok {
			t.Fatalf("cut at %d: record 0 lost", cut)
		}
		st := re.Stats()
		if st.TornBytes != cut-rec0End {
			t.Fatalf("cut at %d: torn bytes %d, want %d", cut, st.TornBytes, cut-rec0End)
		}
		if got := fileSize(t, path); got != rec0End {
			t.Fatalf("cut at %d: file not truncated to %d (got %d)", cut, rec0End, got)
		}
		// The store must be fully usable after recovery: re-append the
		// lost verdict and read it back.
		if err := re.Put(recs[1]); err != nil {
			t.Fatalf("cut at %d: re-append: %v", cut, err)
		}
		if _, ok := re.Get(recs[1].Engine, recs[1].ConfigKey, recs[1].Fingerprint); !ok {
			t.Fatalf("cut at %d: re-appended record unreadable", cut)
		}
		re.Close()
	}
}

// TestTornTailWarning pins the operational contract of the recovery
// path: exactly one structured warning line naming the file, the byte
// offset the file was truncated back to, the bytes dropped, and the
// records that survived.
func TestTornTailWarning(t *testing.T) {
	defer func(old func(string, ...any)) { Warnf = old }(Warnf)
	var lines []string
	Warnf = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}

	s, path := openTemp(t)
	recs := []Record{testRecord(0, solver.StatusSat), testRecord(1, solver.StatusUnsat)}
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	full := fileSize(t, path)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec0End := frameEnd(t, pristine, 1)
	cut := rec0End + (full-rec0End)/2 // mid-record tear
	if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(lines) != 1 {
		t.Fatalf("recovery logged %d warning lines, want 1: %q", len(lines), lines)
	}
	for _, want := range []string{
		"path=" + path,
		fmt.Sprintf("offset=%d", rec0End),
		fmt.Sprintf("torn_bytes=%d", cut-rec0End),
		"records_recovered=1",
	} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("warning %q missing %q", lines[0], want)
		}
	}

	// A clean reopen must stay silent.
	lines = nil
	re.Close()
	re2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	re2.Close()
	if len(lines) != 0 {
		t.Fatalf("clean open logged %q", lines)
	}
}

// TestCorruptPayloadDropped flips a byte inside the final record's
// payload: the CRC must reject it and load must drop exactly that
// record.
func TestCorruptPayloadDropped(t *testing.T) {
	s, path := openTemp(t)
	recs := []Record{testRecord(0, solver.StatusSat), testRecord(1, solver.StatusUnsat)}
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec0End := frameEnd(t, data, 1)
	data[rec0End+8+4] ^= 0xff // a payload byte of record 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("loaded %d records past a corrupt payload, want 1", re.Len())
	}
	if _, ok := re.Get(recs[1].Engine, recs[1].ConfigKey, recs[1].Fingerprint); ok {
		t.Fatal("corrupt record served from the index")
	}
}

func TestBadHeaderRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-store")
	if err := os.WriteFile(path, []byte("p cnf 2 4\n1 2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a non-store file")
	}
	// The foreign file must not have been clobbered.
	data, _ := os.ReadFile(path)
	if !bytes.HasPrefix(data, []byte("p cnf")) {
		t.Fatal("Open mutated a foreign file")
	}
}

func TestCompact(t *testing.T) {
	s, path := openTemp(t)
	for i := 0; i < 5; i++ {
		if err := s.Put(testRecord(i, solver.StatusSat)); err != nil {
			t.Fatal(err)
		}
	}
	before := fileSize(t, path)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("compaction changed the live set: %d", s.Len())
	}
	// Compaction of an already-deduped store preserves content and the
	// store stays appendable.
	if err := s.Put(testRecord(7, solver.StatusUnsat)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 6 {
		t.Fatalf("reloaded %d records after compact+append, want 6", re.Len())
	}
	_ = before
}

func TestSnapshotSeedsNewStore(t *testing.T) {
	s, _ := openTemp(t)
	for i := 0; i < 3; i++ {
		if err := s.Put(testRecord(i, solver.StatusSat)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Ship the snapshot to a "new replica" and load it.
	dst := filepath.Join(t.TempDir(), "shipped.nbl")
	if err := os.WriteFile(dst, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("shipped snapshot loaded %d records, want 3", re.Len())
	}
}

// frameEnd returns the byte offset just past the n-th record (1-based)
// by walking the frames exactly as load does.
func frameEnd(t testing.TB, data []byte, n int) int64 {
	t.Helper()
	off := int64(len(magic))
	for i := 0; i < n; i++ {
		if int(off)+8 > len(data) {
			t.Fatalf("frameEnd: file too short at record %d", i)
		}
		length := int64(uint32(data[off]) | uint32(data[off+1])<<8 |
			uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + length
	}
	return off
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}
