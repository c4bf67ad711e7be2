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
// hole: verdicts append to a single flat file as they are earned and
// load back on boot. A store ships between nodes as a byte copy of its
// one file; a copy taken mid-append ends in a torn final frame, which
// Open drops.
//
// The package owns the stored verdict: its Record, the key that
// identifies it (TaskKey), and the rules for writing one. Only
// definitive verdicts are admitted, for exactly the reason the LRU
// refuses them: SAT and UNSAT are properties of the clause set, while
// UNKNOWN is a statement about one run (a budget, a cancellation, an
// SNR gate). Persisting an UNKNOWN would upgrade a transient shortfall
// into a durable wrong answer; Put rejects it, and Open stops at a
// record without a definitive status. A decide verdict is written with
// an empty Task, the form records had before tasks existed.
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
// Put skips keys the index already holds, so a file written by one
// process holds each key once and grows by one record per distinct
// (task, engine, config, formula) ever decided: there are no dead
// records to reclaim. Concatenated store files are not a merge: the
// second file's header does not parse as a frame, so Open keeps the
// first file and truncates the rest as a torn tail.
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
	"strconv"
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
	// "weighted-count", "equivalent"); empty or "decide" means decide.
	// Put writes a decide record with the field empty, and empty
	// omits it, so a record written before tasks existed marshals
	// byte-identically and replays unchanged — the store's
	// record-version compatibility contract.
	Task string `json:"task,omitempty"`
	// Result is the verdict to replay verbatim (stats and wall
	// included), with Assignment in canonical variable space.
	Result solver.Result `json:"result"`
}

// Key returns the index key of the record's identity.
func (r Record) Key() string { return TaskKey(r.Task, r.Engine, r.ConfigKey, r.Fingerprint) }

// TaskKey builds the key of a verdict's identity; the service's LRU
// keys by it too, so the two tiers agree on what "the same solve"
// means. A decide identity ("" or "decide") yields the three-part key
// engine NUL config NUL fingerprint that records had before tasks
// existed, so old store files index under the keys new decide lookups
// use; any other task prefixes that key with task NUL — collision-free
// against the three-part keys, since engine expressions never contain
// NUL.
func TaskKey(task, engine, configKey, fingerprint string) string {
	k := engine + "\x00" + configKey + "\x00" + fingerprint
	if task == "" || task == string(solver.TaskDecide) {
		return k
	}
	return task + "\x00" + k
}

// Fingerprint is the formula identity a verdict of task is keyed by:
// the canonical fingerprint fp, and for a count also the declared
// variable count, which fp drops and which doubles a count with each
// variable in no clause. Count records keyed by fp alone, as older
// store files hold, never match that form.
func Fingerprint(task, fp string, numVars int) string {
	if task != string(solver.TaskCount) {
		return fp
	}
	return fp + "/" + strconv.Itoa(numVars)
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
		// Put never appends a key the index holds, so a key repeats only
		// in a file no single Store wrote; the later record wins.
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

// GetTask returns the stored verdict for the task-qualified identity
// (see TaskKey). The returned Result's Assignment is in canonical
// variable space.
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
// UNKNOWN verdict is rejected with ErrNotDefinitive. A decide record
// is written with an empty Task, the pre-task form.
func (s *Store) Put(rec Record) error {
	if !rec.Result.Status.Definitive() {
		return ErrNotDefinitive
	}
	if rec.Task == string(solver.TaskDecide) {
		rec.Task = ""
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

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	// Hits and Misses count GetTask lookups.
	Hits, Misses int64
	// Appends counts records flushed to the file this process lifetime.
	Appends int64
	// Entries is the live (distinct-key) record count; Loaded how many
	// were recovered from disk at Open.
	Entries, Loaded int64
	// TornBytes is how many trailing bytes Open discarded as a torn
	// tail.
	TornBytes int64
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Appends: s.appends,
		Entries: int64(len(s.index)), Loaded: s.loaded,
		TornBytes: s.tornBytes,
	}
}
