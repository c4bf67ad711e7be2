package verdictstore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
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
	if re.Stats().Entries != int64(len(want)) {
		t.Fatalf("reloaded %d records, want %d", re.Stats().Entries, len(want))
	}
	for i, w := range want {
		got, ok := re.Get(TaskKey("", w.Engine, w.ConfigKey, w.Fingerprint))
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
	if s.Stats().Entries != 0 {
		t.Fatalf("UNKNOWN landed in the index: %d entries", s.Stats().Entries)
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
	got, _ := s.Get(TaskKey("", rec.Engine, rec.ConfigKey, rec.Fingerprint))
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
		if re.Stats().Entries != 1 {
			t.Fatalf("cut at %d: loaded %d records, want 1", cut, re.Stats().Entries)
		}
		if _, ok := re.Get(TaskKey("", recs[0].Engine, recs[0].ConfigKey, recs[0].Fingerprint)); !ok {
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
		if _, ok := re.Get(TaskKey("", recs[1].Engine, recs[1].ConfigKey, recs[1].Fingerprint)); !ok {
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
	if re.Stats().Entries != 1 {
		t.Fatalf("loaded %d records past a corrupt payload, want 1", re.Stats().Entries)
	}
	if _, ok := re.Get(TaskKey("", recs[1].Engine, recs[1].ConfigKey, recs[1].Fingerprint)); ok {
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

// TestConcatenationIsNotAMerge pins what the package doc says of
// concatenated store files: the second file's header does not parse as
// a frame, so Open keeps the first file's records and truncates the
// whole second file as a torn tail.
func TestConcatenationIsNotAMerge(t *testing.T) {
	defer func(old func(string, ...any)) { Warnf = old }(Warnf)
	Warnf = func(string, ...any) {}

	var files [2][]byte
	recs := []Record{testRecord(0, solver.StatusSat), testRecord(1, solver.StatusUnsat)}
	for i, r := range recs {
		s, path := openTemp(t)
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "concatenated.nbl")
	if err := os.WriteFile(path, append(files[0], files[1]...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Entries != 1 || st.TornBytes != int64(len(files[1])) {
		t.Fatalf("opened %d records with %d torn bytes, want 1 and %d", st.Entries, st.TornBytes, len(files[1]))
	}
	if _, ok := s.Get(TaskKey("", recs[0].Engine, recs[0].ConfigKey, recs[0].Fingerprint)); !ok {
		t.Error("the first file's record is lost")
	}
	if got := fileSize(t, path); got != int64(len(files[0])) {
		t.Errorf("file truncated to %d bytes, want the first file's %d", got, len(files[0]))
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

// TestPartialAppendIsOverwritten: a write that fails part way, as on a
// full disk, leaves a frame prefix at the end of the file with the
// descriptor's position past it. The next Put writes at the end of the
// last whole frame, over that prefix, so reopening keeps the records on
// both sides of the failure.
func TestPartialAppendIsOverwritten(t *testing.T) {
	s, path := openTemp(t)
	a, b := testRecord(0, solver.StatusSat), testRecord(1, solver.StatusUnsat)
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	framed, err := frameRecord(testRecord(2, solver.StatusSat))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := s.f.Write(framed[:12]); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b); err != nil {
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
	if st := re.Stats(); st.Loaded != 2 || st.TornBytes != 0 {
		t.Fatalf("reopened %d records with %d torn bytes, want 2 and 0", st.Loaded, st.TornBytes)
	}
	for _, r := range []Record{a, b} {
		if got, ok := re.Get(r.Key()); !ok || got.Result.Wall != r.Result.Wall {
			t.Errorf("record %s: Get = %+v, %v", r.Fingerprint, got.Result, ok)
		}
	}
}

// TestStoreHoldsNoRecords pins that the store keeps no record in
// memory, only where its frame starts, so the service's LRU capacity
// bounds verdict memory with a store attached: 2,000 records with
// 10,000-variable models (about 20 MiB of models) grow the live heap by
// less than 2 MiB, once after the Puts and again after reopening.
func TestStoreHoldsNoRecords(t *testing.T) {
	const records, vars, bound = 2000, 10_000, 2 << 20
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	s, path := openTemp(t)
	before := live()
	for i := range records {
		rec := testRecord(i, solver.StatusSat)
		rec.Fingerprint = fmt.Sprintf("%064x", i)
		rec.Result.Assignment = cnf.NewAssignment(vars)
		for v := 1; v <= vars; v++ {
			rec.Result.Assignment.Set(cnf.Var(v), cnf.Value(1+(v+i)%2))
		}
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	put := live() - before
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	before = live()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reopen := live() - before
	if n := re.Stats().Entries; n != records {
		t.Fatalf("reopened %d records, want %d", n, records)
	}
	t.Logf("live heap grew %.2f MiB over the Puts and %.2f MiB over the reopen",
		float64(put)/(1<<20), float64(reopen)/(1<<20))
	if put >= bound || reopen >= bound {
		t.Errorf("the store holds records: want both growths under %d MiB", bound>>20)
	}
}

// TestStoreStress runs Puts of distinct records alongside Gets of records
// already put (CI repeats it under -race): every Get must return the
// record filed under its key while appends land past it.
func TestStoreStress(t *testing.T) {
	const seeded, writers, perWriter, readers = 32, 4, 64, 4
	record := func(i int) Record {
		r := testRecord(i, solver.StatusSat)
		r.Fingerprint = fmt.Sprintf("stress-%d", i)
		return r
	}
	check := func(s *Store, i int) {
		want := record(i)
		if got, ok := s.Get(want.Key()); !ok || got.Fingerprint != want.Fingerprint ||
			got.Result.Wall != want.Result.Wall || got.Result.Stats != want.Result.Stats {
			t.Errorf("Get(%s) = %+v, %v", want.Fingerprint, got, ok)
		}
	}
	s, path := openTemp(t)
	for i := range seeded {
		if err := s.Put(record(i)); err != nil {
			t.Fatal(err)
		}
	}

	put := make(chan int, writers*perWriter)
	var writing, reading sync.WaitGroup
	for w := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for j := range perWriter {
				i := seeded + w*perWriter + j
				if err := s.Put(record(i)); err != nil {
					t.Error(err)
					return
				}
				put <- i
			}
		}()
	}
	for r := range readers {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for n := r; ; n++ {
				select {
				case i, ok := <-put:
					if !ok {
						return
					}
					check(s, i)
				default:
					check(s, n%seeded)
				}
			}
		}()
	}
	writing.Wait()
	close(put)
	reading.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	const total = seeded + writers*perWriter
	if st := re.Stats(); st.Entries != total || st.TornBytes != 0 {
		t.Fatalf("reopened %d records with %d torn bytes, want %d and 0", st.Entries, st.TornBytes, total)
	}
	for i := range total {
		check(re, i)
	}
}
