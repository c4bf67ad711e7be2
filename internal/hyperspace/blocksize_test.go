package hyperspace

import "testing"

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

// TestBlockSizePaperAndSATLIBRegimes pins BlockSize at the geometries
// TestSamplerGolden and the nblperf workloads sample, from the paper's
// examples to SATLIB scale. The block is core's chunk size, which
// orders the sampler's moment merges, so a change here moves the bits
// of the golden runs' Mean and StdErr.
func TestBlockSizePaperAndSATLIBRegimes(t *testing.T) {
	for _, c := range []struct{ n, m, k int }{
		{2, 4, 256},   // the paper's examples
		{10, 40, 256}, // the golden mid-size 3-SAT
		{20, 91, 64},  // uf20-91: inside the measured 16..128 window
		{30, 120, 32}, // a serving-shaped planted block
		{50, 210, 16}, // a planted 50/210 formula: the floor
	} {
		if k := BlockSize(c.n, c.m); k != c.k {
			t.Errorf("BlockSize(%d,%d) = %d, want %d", c.n, c.m, k, c.k)
		}
	}
}
