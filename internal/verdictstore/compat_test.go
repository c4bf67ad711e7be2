package verdictstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/solver"
)

// TestParentFormatMCRecordReplays pins store compatibility for sampled
// verdicts. testdata/parent-mc-record.json is an mc decide record on
// PaperSAT as the previous release wrote it, its stats still carrying
// that release's stream-version echo. Framed by hand per the package
// doc, the file must open cleanly, and the record must resolve under the
// key this release derives for the same solve (default config,
// canonical fingerprint) and replay its verdict.
func TestParentFormatMCRecordReplays(t *testing.T) {
	payload, err := os.ReadFile(filepath.Join("testdata", "parent-mc-record.json"))
	if err != nil {
		t.Fatal(err)
	}
	payload = bytes.TrimSpace(payload)
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	file := append([]byte("nblverdicts\x001\n"), frame[:]...)
	file = append(file, payload...)
	path := filepath.Join(t.TempDir(), "parent.nbl")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Loaded != 1 || st.TornBytes != 0 {
		t.Fatalf("loaded %d records with %d torn bytes, want 1 and 0", st.Loaded, st.TornBytes)
	}
	fp := cnf.Canonicalize(gen.PaperSAT()).Fingerprint()
	got, ok := s.Get("mc", solver.Config{}.Key(), fp)
	if !ok {
		t.Fatal("parent mc record not found under this release's key")
	}
	r := got.Result
	if r.Status != solver.StatusSat || r.Engine != "mc" || r.Wall != 123456789 ||
		r.Stats.Samples != 4_000_000 || r.Stats.Mean != 4.0105332433855025 {
		t.Errorf("replayed %+v", r)
	}
}
