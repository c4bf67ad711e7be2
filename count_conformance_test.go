// Conformance suite for the counting tasks: on every instance small
// enough to enumerate, the counting engines — bare and behind the
// pre(...) pipeline — must reproduce the brute-force model count and
// clause-cover-weighted count exactly (big.Int equality, no tolerance).
// pre(count) == bare count is the count-safety proof obligation of the
// pipeline: unit propagation, subsumption, strengthening, and component
// decomposition preserve counts; pure-literal elimination and BVE do
// not and must stay disabled under counting.
package repro

import (
	"context"
	"math/big"
	"os"
	"testing"

	"repro/internal/cnf"
	"repro/internal/count"
	"repro/internal/verdictstore"
)

// countInstances is the shared worklist: the paper instances, the
// disjoint unions that exercise component-count multiplication, and the
// committed SATLIB testdata.
func countInstances(t *testing.T) map[string]*Formula {
	t.Helper()
	instances := conformanceInstances(t)
	instances["DisjointEx6x3"] = DisjointUnion(
		PaperExample6(), PaperExample6(), PaperExample6())
	instances["DisjointSatUnsat"] = DisjointUnion(PaperSAT(), PaperUNSAT())
	for _, path := range []string{
		"testdata/paper-sat-satlib.cnf",
		"testdata/paper-unsat.cnf",
		"testdata/uf8-satlib.cnf",
		"testdata/uf8-renamed.cnf",
	} {
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ReadDIMACS(file)
		file.Close()
		if err != nil {
			t.Fatal(err)
		}
		instances[path] = f
	}
	return instances
}

func TestCountConformanceWithBrute(t *testing.T) {
	for label, f := range countInstances(t) {
		brute := new(big.Int).SetUint64(count.Brute(f))
		for _, engine := range []string{"count", "pre(count)"} {
			r, err := Solve(context.Background(), engine, f, Config{Task: TaskCount})
			if err != nil {
				t.Fatalf("%s %s: %v", label, engine, err)
			}
			if r.Count == nil || r.Count.Cmp(brute) != 0 {
				t.Errorf("%s: %s = %v, brute force = %v", label, engine, r.Count, brute)
			}
			if satByCount := brute.Sign() > 0; (r.Status == StatusSat) != satByCount {
				t.Errorf("%s: %s status %v disagrees with count %v", label, engine, r.Status, brute)
			}
		}
	}
}

func TestWeightedCountConformanceWithBrute(t *testing.T) {
	for label, f := range countInstances(t) {
		brute := count.WeightedBrute(f)
		for _, engine := range []string{"wcount", "pre(wcount)"} {
			r, err := Solve(context.Background(), engine, f, Config{Task: TaskWeightedCount})
			if err != nil {
				t.Fatalf("%s %s: %v", label, engine, err)
			}
			if r.Count == nil || r.Count.Cmp(brute) != 0 {
				t.Errorf("%s: %s K' = %v, brute force = %v", label, engine, r.Count, brute)
			}
		}
	}
}

// TestCountEngineRejectsDecideOnlyWrapper: building a counting config
// over an engine that cannot count must fail loudly at construction,
// not return a countless SAT at solve time.
func TestCountEngineRejectsDecideOnlyWrapper(t *testing.T) {
	if _, err := NewWith("cdcl", Config{Task: TaskCount}); err == nil {
		t.Error("cdcl accepted task=count")
	}
	if _, err := NewWith("pre(cdcl)", Config{Task: TaskCount}); err == nil {
		t.Error("pre(cdcl) accepted task=count — the wrapper cannot add counting to a decide engine")
	}
	if _, err := NewWith("pre(count)", Config{Task: TaskCount}); err != nil {
		t.Errorf("pre(count) rejected its own task: %v", err)
	}
}

// TestGoldenCountRenamingInvariance pins the golden SATLIB pair: the
// uf8 instance and its committed variable renaming have the same model
// count (12), the same canonical fingerprint, and therefore the same
// task-qualified cache/store key — a count computed for one node's
// submission replays for the other across the fleet.
func TestGoldenCountRenamingInvariance(t *testing.T) {
	read := func(path string) *Formula {
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		f, err := ReadDIMACS(file)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	orig := read("testdata/uf8-satlib.cnf")
	renamed := read("testdata/uf8-renamed.cnf")

	want := big.NewInt(12) // golden: uf8-satlib has exactly 12 models
	for label, f := range map[string]*Formula{"uf8": orig, "uf8-renamed": renamed} {
		r, err := Solve(context.Background(), "pre(count)", f, Config{Task: TaskCount})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if r.Count == nil || r.Count.Cmp(want) != 0 {
			t.Errorf("%s: count = %v, want %v", label, r.Count, want)
		}
	}

	fpOrig := cnf.Canonicalize(orig).Fingerprint()
	fpRenamed := cnf.Canonicalize(renamed).Fingerprint()
	if fpOrig != fpRenamed {
		t.Fatalf("fingerprints diverge: %s vs %s", fpOrig, fpRenamed)
	}
	cfg := Config{Task: TaskCount}
	keyOrig := verdictstore.TaskKey(string(TaskCount), "pre(count)", cfg.Key(), fpOrig)
	keyRenamed := verdictstore.TaskKey(string(TaskCount), "pre(count)", cfg.Key(), fpRenamed)
	if keyOrig != keyRenamed {
		t.Errorf("task cache keys diverge:\n%s\n%s", keyOrig, keyRenamed)
	}
	// And the counting key never collides with the decide key for the
	// same bytes.
	if decideKey := verdictstore.TaskKey("", "pre(count)", Config{}.Key(), fpOrig); decideKey == keyOrig {
		t.Error("count key collides with the decide key")
	}
}
