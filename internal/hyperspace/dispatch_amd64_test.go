package hyperspace

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVX2DispatchFollowsCPU is rng's test of the same name for the
// evaluator: on a linux host whose /proc/cpuinfo lists avx2, the clause
// and tau kernels must dispatch to AVX2, so evalHaveAVX2, the gate they
// read, must be set. Elsewhere the test skips.
func TestAVX2DispatchFollowsCPU(t *testing.T) {
	if !cpuinfoListsAVX2(t) {
		t.Skip("/proc/cpuinfo does not list avx2")
	}
	if !evalHaveAVX2 {
		t.Error("the CPU lists avx2, but evalHaveAVX2 is false")
	}
}

// cpuinfoListsAVX2 reports whether the flags line of /proc/cpuinfo
// lists avx2, and skips the test off linux.
func cpuinfoListsAVX2(t *testing.T) bool {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skipf("the AVX2 kernels are checked on linux/amd64, not %s/amd64", runtime.GOOS)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if key, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			return slices.Contains(strings.Fields(flags), "avx2")
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
	return false
}
