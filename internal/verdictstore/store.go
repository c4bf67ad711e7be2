// Package verdictstore is the durable second tier under the service's
// LRU verdict cache: an append-only, crash-safe, file-backed store of
// definitive verdicts keyed by (engine expression, solver config,
// canonical fingerprint).
//
// Why it exists: cnf.Canonicalize gives every clause set a
// renaming-stable identity, and the in-process LRU already replays
// definitive verdicts for equivalent resubmissions — but both die with
// the process. At fleet scale that is the expensive failure mode: a
// replica restart (deploy, crash, reschedule) discards every verdict it
// ever earned, and the router's fingerprint locality faithfully sends
// the repeats right back to the now-cold node. The store closes that
// hole: verdicts append to a single flat file as they are earned, load
// back on boot, and — because the file is append-only and
// self-validating — can be snapshot-shipped between nodes with a plain
// byte copy (Snapshot) to seed a new replica's locality before it
// serves its first request.
//
// Only definitive verdicts are admitted, for exactly the reason the LRU
// refuses them: SAT and UNSAT are properties of the clause set, while
// UNKNOWN is a statement about one run (a budget, a cancellation, an
// SNR gate). Persisting an UNKNOWN would upgrade a transient shortfall
// into a durable wrong answer; Put rejects it.
//
// # File format and the crash-safety argument
//
// The file is a magic header followed by length-prefixed, checksummed
// records:
//
//	"nblverdicts\x001\n"
//	repeat:
//	  uint32 LE  payload length
//	  uint32 LE  CRC-32 (IEEE) of payload
//	  payload    JSON-encoded Record
//
// Appends are a single Write of one fully-framed record. The only
// states a crash can leave behind are therefore (a) the file as it was,
// or (b) the file plus a prefix of the final record (a torn tail) —
// earlier records are never rewritten, so they are never at risk. Open
// scans forward validating frame bounds, checksum, JSON, and a
// definitive status; at the first record that fails any check it
// truncates the file back to the last good boundary and keeps
// everything before it. A torn tail thus costs exactly the verdict
// that was being written, which the next solve re-earns. (A single
// Write is not guaranteed atomic by POSIX, but nothing here depends on
// atomicity — any partial suffix is detected and dropped by the same
// scan.)
//
// Compaction: the file grows by one record per newly-earned verdict and
// Put skips keys already present, so growth is bounded by the number of
// distinct (engine, config, formula) triples ever decided — there is no
// rewrite amplification to compact away in steady state. Compact exists
// for the remaining case (a file inherited from an older node whose
// tail was repeatedly torn, or after manual concatenation of shipped
// snapshots): it rewrites live records to a temp file and renames it
// into place, so a crash mid-compaction leaves either the old file or
// the new one, never a hybrid.
package verdictstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/solver"
)

// magic identifies (and versions) a verdict store file. Open refuses a
// non-empty file that does not start with it rather than guess.
const magic = "nblverdicts\x001\n"

// maxRecordBytes bounds a single record's payload (a sanity check on
// the length prefix: a corrupt length must not trigger a huge
// allocation before the CRC gets a chance to reject the record).
const maxRecordBytes = 16 << 20

// Record is one stored verdict. The Result carries its model (if any)
// in *canonical* variable space — the store deduplicates across
// renamings, so the model must be stored in the renaming-stable frame
// and translated through each requester's own cnf.Canonical on the way
// out.
type Record struct {
	// Engine is the registry expression the verdict was produced under
	// and ConfigKey its solver.Config.Key(): both belong in the identity
	// because the statistical engines' "definitive" is
	// confidence-parameterized (see the service cache's correctness
	// argument).
	Engine      string `json:"engine"`
	ConfigKey   string `json:"config"`
	Fingerprint string `json:"fingerprint"`
	// Task is the solve task the verdict answers ("count",
	// "weighted-count", "equivalent"); empty means decide. Decide
	// records omit the field entirely, so a record written before tasks
	// existed marshals byte-identically and replays unchanged — the
	// store's record-version compatibility contract.
	Task string `json:"task,omitempty"`
	// Result is the verdict to replay verbatim (stats and wall
	// included), with Assignment in canonical variable space.
	Result solver.Result `json:"result"`
}

// Key returns the index key of the record's identity.
func (r Record) Key() string { return TaskKey(r.Task, r.Engine, r.ConfigKey, r.Fingerprint) }

// Key builds the store key for a decide identity triple. It matches the
// in-process cache's key composition so the two tiers agree on what
// "the same solve" means.
func Key(engine, configKey, fingerprint string) string {
	return engine + "\x00" + configKey + "\x00" + fingerprint
}

// TaskKey is Key extended with the solve task. A decide identity
// ("" or "decide") yields exactly the legacy three-part key, so old
// store files index under the same keys new decide lookups use; any
// other task prefixes the key — collision-free against triples, since
// engine expressions never contain NUL.
func TaskKey(task, engine, configKey, fingerprint string) string {
	k := Key(engine, configKey, fingerprint)
	if task == "" || task == "decide" {
		return k
	}
	return task + "\x00" + k
}

// ErrNotDefinitive is returned by Put for an UNKNOWN verdict.
var ErrNotDefinitive = errors.New("verdictstore: only definitive verdicts are stored")

// Warnf receives the store's rare operational warnings — today only
// the torn-tail truncation at Open, one structured line naming the
// file, the byte offset truncated to, the bytes dropped, and the
// records that survived. It defaults to the standard logger (stderr);
// tests swap it to capture the line.
var Warnf = func(format string, args ...any) { log.Printf(format, args...) }

// Store is a concurrency-safe, append-only verdict store over one file.
type Store struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	index map[string]Record

	hits, misses, appends int64
	loaded                int64 // records recovered at Open
	tornBytes             int64 // bytes truncated from the tail at Open
	compactions           int64
}

// Open loads (or creates) the store at path. A torn tail — a final
// record truncated or corrupted by a crash mid-append — is detected,
// counted, and truncated away; every record before it survives.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, path: path, index: make(map[string]Record)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load validates the header, scans the records, and truncates any torn
// tail so subsequent appends land on a clean boundary.
func (s *Store) load() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		_, err := s.f.Write([]byte(magic))
		return err
	}
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(s.f, hdr); err != nil || string(hdr) != magic {
		return fmt.Errorf("verdictstore: %s is not a verdict store (bad header)", s.path)
	}

	good := int64(len(magic)) // last known-good record boundary
	var frame [8]byte
	for {
		if _, err := io.ReadFull(s.f, frame[:]); err != nil {
			break // EOF, or a tail shorter than a frame header
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if length == 0 || length > maxRecordBytes {
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(s.f, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		// A record Put could not have written (UNKNOWN, or no status at
		// all) ends the scan like a corrupt one: replaying it would serve
		// a run's shortfall as the formula's verdict.
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || !rec.Result.Status.Definitive() {
			break
		}
		good += int64(len(frame)) + int64(length)
		// Later records win: an append-ordered file replayed forward
		// converges on its newest verdict per key (relevant only for
		// concatenated snapshots; Put itself never duplicates a key).
		s.index[rec.Key()] = rec
		s.loaded++
	}

	if good < info.Size() {
		s.tornBytes = info.Size() - good
		Warnf("verdictstore: torn tail truncated path=%s offset=%d torn_bytes=%d records_recovered=%d",
			s.path, good, s.tornBytes, s.loaded)
		if err := s.f.Truncate(good); err != nil {
			return err
		}
	}
	_, err = s.f.Seek(good, io.SeekStart)
	return err
}

// Get returns the stored decide verdict for the identity triple. The
// returned Result's Assignment is in canonical variable space.
func (s *Store) Get(engine, configKey, fingerprint string) (Record, bool) {
	return s.GetTask("", engine, configKey, fingerprint)
}

// GetTask returns the stored verdict for the task-qualified identity;
// an empty or "decide" task resolves the legacy triple key.
func (s *Store) GetTask(task, engine, configKey, fingerprint string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.index[TaskKey(task, engine, configKey, fingerprint)]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return rec, ok
}

// Put appends a definitive verdict. A key already present is left
// alone (the earlier verdict is just as definitive, and skipping the
// append is what keeps file growth bounded by distinct solves); an
// UNKNOWN verdict is rejected with ErrNotDefinitive.
func (s *Store) Put(rec Record) error {
	if !rec.Result.Status.Definitive() {
		return ErrNotDefinitive
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := rec.Key()
	if _, dup := s.index[key]; dup {
		return nil
	}
	framed, err := frameRecord(rec)
	if err != nil {
		return err
	}
	// One Write per record: the crash-safety argument in the package
	// comment depends on never splitting a record across appends.
	if _, err := s.f.Write(framed); err != nil {
		return err
	}
	s.index[key] = rec
	s.appends++
	return nil
}

func frameRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("verdictstore: record payload %d bytes exceeds cap %d",
			len(payload), maxRecordBytes)
	}
	framed := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(framed[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(framed[4:8], crc32.ChecksumIEEE(payload))
	copy(framed[8:], payload)
	return framed, nil
}

// Len returns the number of live (distinct-key) records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// Sync flushes the backing file to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Close syncs and closes the backing file. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// Snapshot copies the current file contents to w: a consistent,
// self-validating byte image a new replica can load directly (appends
// are blocked for the duration, reads are not affected afterwards).
func (s *Store) Snapshot(w io.Writer) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return io.Copy(w, io.NewSectionReader(s.f, 0, info.Size()))
}

// Compact rewrites the file to exactly the live records (sorted by key
// for determinism) via a temp file + rename, so a crash mid-compaction
// leaves either the old file or the new one intact.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()

	tmp, err := os.CreateTemp(filepath.Dir(s.path), ".nblverdicts-compact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if _, err := tmp.Write([]byte(magic)); err != nil {
		tmp.Close()
		return err
	}
	for _, k := range keys {
		framed, err := frameRecord(s.index[k])
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(framed); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return err
	}

	// Swap the handle to the new file, positioned for appends.
	nf, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return err
	}
	s.f.Close()
	s.f = nf
	s.compactions++
	return nil
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	// Hits and Misses count Get lookups.
	Hits, Misses int64
	// Appends counts records flushed to the file this process lifetime.
	Appends int64
	// Entries is the live (distinct-key) record count; Loaded how many
	// were recovered from disk at Open.
	Entries, Loaded int64
	// TornBytes is how many trailing bytes Open discarded as a torn
	// tail; Compactions counts Compact calls.
	TornBytes   int64
	Compactions int64
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Appends: s.appends,
		Entries: int64(len(s.index)), Loaded: s.loaded,
		TornBytes: s.tornBytes, Compactions: s.compactions,
	}
}
