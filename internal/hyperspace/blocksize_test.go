package hyperspace

import (
	"os"
	"path/filepath"
	"testing"
)

func TestBlockSizeBoundsAndMonotonicity(t *testing.T) {
	geoms := [][2]int{
		{1, 1}, {2, 4}, {3, 4}, {8, 30}, {20, 91}, {50, 218}, {100, 430}, {1000, 4300},
	}
	prev := 1 << 30
	for _, g := range geoms {
		k := BlockSize(g[0], g[1])
		if k < 16 || k > 256 {
			t.Errorf("BlockSize(%d,%d) = %d outside [16,256]", g[0], g[1], k)
		}
		if k&(k-1) != 0 {
			t.Errorf("BlockSize(%d,%d) = %d not a power of two", g[0], g[1], k)
		}
		if k > prev {
			t.Errorf("BlockSize not monotone: %d after %d for geometry %v", k, prev, g)
		}
		prev = k
	}
}

// The measured regimes are pinned against the default 2 MiB budget
// (machine-independent); the live BlockSize path is checked against
// whatever CacheBudget detected on this host.
func TestBlockSizePaperAndSATLIBRegimes(t *testing.T) {
	if k := blockSizeForBudget(2, 4, DefaultCacheBudget); k != 256 {
		t.Errorf("paper geometry should take the full 256-sample block, got %d", k)
	}
	// uf20-91: measured k = 16..128 beats 256 by ~10% (ROADMAP); the
	// cache model must land in that window at the default budget.
	if k := blockSizeForBudget(20, 91, DefaultCacheBudget); k < 16 || k > 128 {
		t.Errorf("uf20-91 block size %d outside the measured 16..128 window", k)
	}
	// The working set must stay under the live budget whenever k is
	// above the floor.
	budget := CacheBudget()
	for _, g := range [][2]int{{20, 91}, {100, 430}} {
		k := BlockSize(g[0], g[1])
		if k > 16 && 16*g[0]*g[1]*k > budget {
			t.Errorf("BlockSize(%d,%d) = %d exceeds the cache budget %d", g[0], g[1], k, budget)
		}
	}
}

func TestCacheBudgetClamped(t *testing.T) {
	b := CacheBudget()
	if b < 512<<10 || b > 8<<20 {
		t.Errorf("CacheBudget() = %d outside the clamp [512 KiB, 8 MiB]", b)
	}
	if got := clampBudget(0, false); got != DefaultCacheBudget {
		t.Errorf("failed detection must fall back to the default, got %d", got)
	}
	if got := clampBudget(64<<10, true); got != 512<<10 {
		t.Errorf("tiny L2 must clamp up, got %d", got)
	}
	if got := clampBudget(64<<20, true); got != 8<<20 {
		t.Errorf("huge L2 must clamp down, got %d", got)
	}
	if got := clampBudget(1<<20, true); got != 1<<20 {
		t.Errorf("in-range L2 must pass through, got %d", got)
	}
}

func TestParseCacheSize(t *testing.T) {
	cases := map[string]int{
		"1024K": 1 << 20, "2M": 2 << 20, "512K": 512 << 10,
		"1G": 1 << 30, "65536": 65536,
	}
	for in, want := range cases {
		got, ok := parseCacheSize(in)
		if !ok || got != want {
			t.Errorf("parseCacheSize(%q) = (%d, %v), want %d", in, got, ok, want)
		}
	}
	for _, bad := range []string{"", "K", "-1K", "0", "12Q3", "two"} {
		if _, ok := parseCacheSize(bad); ok {
			t.Errorf("parseCacheSize(%q) should fail", bad)
		}
	}
}

func TestDetectL2FromSysfsFixture(t *testing.T) {
	dir := t.TempDir()
	write := func(base, idx, name, content string) {
		t.Helper()
		p := filepath.Join(base, idx)
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(p, name), []byte(content+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// index0: L1 data — must be skipped. index2: the L2 we want.
	// index3: L3 — must be skipped.
	write(dir, "index0", "level", "1")
	write(dir, "index0", "type", "Data")
	write(dir, "index0", "size", "48K")
	write(dir, "index2", "level", "2")
	write(dir, "index2", "type", "Unified")
	write(dir, "index2", "size", "1280K")
	write(dir, "index3", "level", "3")
	write(dir, "index3", "type", "Unified")
	write(dir, "index3", "size", "32M")

	got, ok := detectL2(dir)
	if !ok || got != 1280<<10 {
		t.Fatalf("detectL2 = (%d, %v), want 1280K", got, ok)
	}

	// An instruction-only L2 must not be picked up.
	icache := t.TempDir()
	write(icache, "index0", "level", "2")
	write(icache, "index0", "type", "Instruction")
	write(icache, "index0", "size", "1M")
	if _, ok := detectL2(icache); ok {
		t.Error("instruction cache must not count as the L2 budget")
	}

	if _, ok := detectL2(filepath.Join(dir, "no-such-dir")); ok {
		t.Error("missing sysfs tree must report failure")
	}
}
