package rng

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// vecInsn matches an assembly instruction line whose operands name an
// X, Y or Z register, capturing the mnemonic. Operands stop at a "//"
// comment, so registers named in trailing comments do not count.
var vecInsn = regexp.MustCompile(`^\s*([A-Z][A-Z0-9]*)\s[^/]*\b[XYZ][0-9]+\b`)

// TestAMD64KernelsAreVEXEncoded guards every amd64 assembly file under
// internal/ against legacy-SSE instructions. A legacy-SSE instruction
// that touches an X register while a VEX instruction has left the upper
// YMM halves dirty forces an SSE/AVX state transition. On a virtualized
// Intel Xeon that costs ~190 ns per kernel call (a 5-instruction probe
// runs in 2 ns without it), and one prologue `MOVQ AX, X0` in each fill
// kernel once made the AVX2 fills slower than the portable loops at
// small block sizes. So any instruction naming a vector register must be
// VEX (or EVEX) encoded, which in Go assembly means a V mnemonic.
func TestAMD64KernelsAreVEXEncoded(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "*", "*_amd64.s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("found %d amd64 assembly files (%v), want the fill and evaluator kernels", len(files), files)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := vecInsn.FindStringSubmatch(line); m != nil && !strings.HasPrefix(m[1], "V") {
				t.Errorf("%s:%d: legacy-SSE %s on a vector register: %s",
					path, i+1, m[1], strings.TrimSpace(line))
			}
		}
	}
}
