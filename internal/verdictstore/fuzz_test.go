package verdictstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/solver"
)

// FuzzStoreOpen opens a store file holding arbitrary bytes. Open must
// refuse a bad header and accept everything else without panicking. On
// success the file must be cut back to a frame boundary of the bytes it
// held, every indexed key must read back a definitive record filed
// under that key, and closing and reopening must index the same
// records at the same offsets with nothing left to cut.
func FuzzStoreOpen(f *testing.F) {
	defer func(old func(string, ...any)) { Warnf = old }(Warnf)
	Warnf = func(string, ...any) {}

	// One file per fuzzing process, rewritten for every input: a fresh
	// temporary directory per input would cost more than Open does.
	path := filepath.Join(f.TempDir(), "verdicts.nbl")
	s, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	// Small records keep the inputs short enough to minimize quickly.
	for i, status := range []solver.Status{solver.StatusSat, solver.StatusUnsat} {
		r := Record{Engine: "cdcl", Fingerprint: string(rune('a' + i)), Result: solver.Result{Status: status}}
		if err := s.Put(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	two, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	first := two[:frameEnd(f, two, 1)]
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flipped := bytes.Clone(two)
	flipped[len(first)+4] ^= 0x01 // a CRC byte of the second record

	f.Add(two)
	f.Add(two[:len(two)-5]) // a torn tail
	f.Add(flipped)
	f.Add(join(first, frame(`{"engine":"mc","result":`)))                      // bad JSON under a good CRC
	f.Add(join(first, frame(`{"engine":"mc","result":{"status":"UNKNOWN"}}`))) // a record Put refuses
	f.Add(join([]byte("nblverdicts\x002\n"), two[len(magic):]))                // a bad header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		goodHeader := len(data) == 0 || bytes.HasPrefix(data, []byte(magic))
		s, err := Open(path)
		if err != nil {
			if goodHeader {
				t.Fatalf("Open refused a file with a good header: %v", err)
			}
			if kept, _ := os.ReadFile(path); !bytes.Equal(kept, data) {
				t.Fatal("Open refused the file but changed it")
			}
			return
		}
		if !goodHeader {
			s.Close()
			t.Fatal("Open accepted a bad header")
		}
		given := data
		if len(given) == 0 {
			given = []byte(magic) // Open heads an empty file
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frames, ok := countFrames(kept)
		if !ok || !bytes.HasPrefix(given, kept) {
			t.Fatalf("Open left %d bytes, not a frame boundary of the %d it was given", len(kept), len(given))
		}
		if st := s.Stats(); st.Loaded != int64(frames) || st.TornBytes != int64(len(given)-len(kept)) {
			t.Fatalf("stats %+v for %d frames cut from %d to %d bytes", st, frames, len(given), len(kept))
		}
		for key := range s.index {
			if rec, ok := s.Get(key); !ok || !rec.Result.Status.Definitive() || rec.Key() != key {
				t.Fatalf("Get(%q) = %+v, %v; want the definitive record filed under it", key, rec, ok)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := Open(path)
		if err != nil {
			t.Fatalf("reopening: %v", err)
		}
		defer re.Close()
		if re.Stats().Entries != s.Stats().Entries || !reflect.DeepEqual(re.index, s.index) {
			t.Fatalf("reopening recovered %d records, want the same %d", re.Stats().Entries, s.Stats().Entries)
		}
		if torn := re.Stats().TornBytes; torn != 0 {
			t.Fatalf("reopening cut %d more bytes", torn)
		}
	})
}

// frame wraps a payload in a record frame with a valid checksum.
func frame(payload string) []byte {
	b := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE([]byte(payload)))
	return append(b, payload...)
}

// countFrames walks data's frames after the header and reports how many
// there are and whether the last one ends exactly at the end of data.
func countFrames(data []byte) (int, bool) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return 0, false
	}
	n := 0
	for off := len(magic); off < len(data); n++ {
		if off+8 > len(data) {
			return n, false
		}
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if off > len(data) {
			return n, false
		}
	}
	return n, true
}
