package hyperspace

// blockBudget is the working-set budget BlockSize sizes a block to: an
// L2 on current server cores. It is a constant, not the host's cache
// size, because the block is also core's chunk size, which fixes the
// order of the sampler's moment merges: a budget read from the host
// would let two hosts answer one request with different bits.
const blockBudget = 2 << 20

// BlockSize returns the sampling batch size for an n×m instance
// geometry: the largest power of two in [16, 256] whose StepBlockAt
// working set stays within blockBudget.
//
// The block working set is dominated by the SoA source matrices —
// 2·n·m·k float64s — plus per-variable product arrays of order n·k, so
// ~16·n·m·k bytes in total. At the paper's geometry (n·m = 8) any
// block fits and 256 amortizes dispatch best; at SATLIB scale
// (uf20-91, n·m = 1820) a 256-sample block is ~7.5 MB and spills L2 on
// every pass (measured: k = 16..128 beats 256 there by ~10%). The
// floor of 16 keeps the per-block dispatch overhead amortized even for
// huge instances, where the working set spills regardless of k.
func BlockSize(n, m int) int {
	k := 256
	for k > 16 && 16*n*m*k > blockBudget {
		k >>= 1
	}
	return k
}
