package hyperspace

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVX2DispatchFollowsCPU is rng's test of the same name for the
// evaluator: on a linux/amd64 host whose /proc/cpuinfo lists avx2, the
// clause and tau kernels must dispatch to AVX2. Elsewhere the test skips.
func TestAVX2DispatchFollowsCPU(t *testing.T) {
	if !cpuinfoListsAVX2(t) {
		t.Skip("/proc/cpuinfo does not list avx2")
	}
	if got := EvalAccelName(); got != "avx2" {
		t.Errorf("the CPU lists avx2, but EvalAccelName() = %q", got)
	}
}

// cpuinfoListsAVX2 reports whether the flags line of /proc/cpuinfo
// lists avx2, and skips the test off linux/amd64.
func cpuinfoListsAVX2(t *testing.T) bool {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("the AVX2 kernels are checked on linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
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
