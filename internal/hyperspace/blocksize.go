package hyperspace

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// BlockSize returns the cache-aware sampling batch size for an n×m
// instance geometry: the largest power of two in [16, 256] whose
// StepBlockAt working set stays within the cache budget.
//
// The block working set is dominated by the SoA source matrices —
// 2·n·m·k float64s — plus per-variable product arrays of order n·k, so
// ~16·n·m·k bytes in total. At the paper's geometry (n·m = 8) any
// block fits and 256 amortizes dispatch best; at SATLIB scale
// (uf20-91, n·m = 1820) a 256-sample block is ~7.5 MB and spills L2 on
// every pass (measured: k = 16..128 beats 256 there by ~10%). The
// budget is the machine's L2 size where sysfs exposes it (see
// CacheBudget), 2 MiB otherwise, and the floor of 16 keeps the
// per-block dispatch overhead amortized even for huge instances, where
// the working set spills regardless of k.
func BlockSize(n, m int) int { return BlockSizeBytes(n, m, 16) }

// BlockSizeBytes is BlockSize for a kernel holding bytesPerCell bytes
// of block scratch per (source pair, sample) cell. The float evaluator
// keeps the two float64 source matrices (16 bytes); rtw's integer twin
// additionally keeps int64 copies of both (32 bytes), so its blocks
// halve again at the same geometry.
func BlockSizeBytes(n, m, bytesPerCell int) int {
	return blockSizeForBudget(n, m, bytesPerCell, CacheBudget())
}

// blockSizeForBudget is the selection rule with an explicit budget,
// split out so tests can pin the measured regimes machine-independently.
func blockSizeForBudget(n, m, bytesPerCell, budget int) int {
	k := 256
	for k > 16 && bytesPerCell*n*m*k > budget {
		k >>= 1
	}
	return k
}

// DefaultCacheBudget is the block working-set budget assumed when the
// machine's cache hierarchy cannot be read: an L2 on current server
// cores, and still cache-resident-ish under the shared L2/L3 of older
// parts.
const DefaultCacheBudget = 2 << 20

// CacheBudget returns the per-core cache budget the block-size model
// targets: the actual L2 data/unified cache size read once from sysfs
// (/sys/devices/system/cpu/cpu0/cache/index*/) on Linux, clamped to
// [512 KiB, 8 MiB] so an exotic topology cannot push the block kernel
// into either dispatch-bound (tiny blocks) or thrashing (huge blocks)
// regimes, and DefaultCacheBudget wherever detection fails.
var CacheBudget = sync.OnceValue(func() int {
	return clampBudget(detectL2("/sys/devices/system/cpu/cpu0/cache"))
})

func clampBudget(detected int, ok bool) int {
	if !ok {
		return DefaultCacheBudget
	}
	const lo, hi = 512 << 10, 8 << 20
	if detected < lo {
		return lo
	}
	if detected > hi {
		return hi
	}
	return detected
}

// detectL2 scans a sysfs cache directory for the level-2 data or
// unified cache and returns its size in bytes.
func detectL2(dir string) (int, bool) {
	indexes, err := filepath.Glob(filepath.Join(dir, "index*"))
	if err != nil || len(indexes) == 0 {
		return 0, false
	}
	for _, idx := range indexes {
		level, err := os.ReadFile(filepath.Join(idx, "level"))
		if err != nil || strings.TrimSpace(string(level)) != "2" {
			continue
		}
		if typ, err := os.ReadFile(filepath.Join(idx, "type")); err == nil {
			if t := strings.TrimSpace(string(typ)); t != "Unified" && t != "Data" {
				continue
			}
		}
		size, err := os.ReadFile(filepath.Join(idx, "size"))
		if err != nil {
			continue
		}
		if bytes, ok := parseCacheSize(strings.TrimSpace(string(size))); ok {
			return bytes, true
		}
	}
	return 0, false
}

// parseCacheSize parses the sysfs cache size notation: a decimal count
// with an optional K/M/G suffix (e.g. "1024K", "2M").
func parseCacheSize(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	mult := 1
	switch s[len(s)-1] {
	case 'K', 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'M', 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'G', 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n * mult, true
}
