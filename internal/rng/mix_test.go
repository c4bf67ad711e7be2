package rng

import "testing"

// TestMixDistinctOverDenseGrid exercises the key-derivation chain over a
// dense two-identifier grid under several seeds: no two (a, b) pairs may
// share a key, and the last identifier's injectivity must hold exactly
// (for a fixed prefix the chain step is a bijection of the identifier).
func TestMixDistinctOverDenseGrid(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xdeadbeef} {
		seen := make(map[uint64]bool, 256*256)
		for a := uint64(0); a < 256; a++ {
			for b := uint64(0); b < 256; b++ {
				k := Mix(seed, a, b)
				if seen[k] {
					t.Fatalf("seed %#x: duplicate key %#x at (%d,%d)", seed, k, a, b)
				}
				seen[k] = true
			}
		}
	}
}

// TestMixSensitivity checks that every argument position matters and
// that argument order is significant.
func TestMixSensitivity(t *testing.T) {
	base := Mix(1, 2, 3)
	for name, other := range map[string]uint64{
		"seed":    Mix(2, 2, 3),
		"first":   Mix(1, 4, 3),
		"second":  Mix(1, 2, 4),
		"swapped": Mix(1, 3, 2),
		"arity":   Mix(1, 2),
	} {
		if other == base {
			t.Errorf("Mix insensitive to %s", name)
		}
	}
}
