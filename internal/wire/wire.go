// Package wire implements the single-wire noise-based logic hyperspace
// of Kish, Khatri and Sethuraman ("Noise-based logic hyperspace with
// the superposition of 2^N states in a single wire", Physics Letters A,
// 2009) — the paper's reference [15] and the substrate its Section I
// builds on: starting from 2n pairwise-orthogonal basis noise sources,
// the 2^n products ("noise minterms") span a hyperspace, and the
// additive superposition of ANY subset of them can be carried on one
// wire, giving 2^(2^n) distinguishable wire states.
//
// The codec here makes that concrete:
//
//   - Encode: a set of minterms (bitmasks over n variables) becomes a
//     sampled signal, each sample the sum of the selected minterm
//     products.
//   - Contains: membership of a minterm in the transmitted superposition
//     is read back by correlating the signal against that minterm's
//     reference product; the correlation converges to sigma^(2n) times
//     the indicator (exactly 1 for unit-variance and RTW families).
//
// NBL-SAT is this codec at scale: tau_N is Encode(all minterms),
// Sigma_N encodes the satisfying set, and Algorithm 1 is one Contains
// query between them.
package wire

import (
	"fmt"
	"math"

	"repro/internal/noise"
	"repro/internal/stats"
)

// Wire models a single wire with 2n basis sources available: for each
// of the n variables, one source per literal polarity.
type Wire struct {
	n    int
	fam  noise.Family
	seed uint64
}

// maxVars caps n so minterm masks fit comfortably and per-sample cost
// (|set|·n) stays sane.
const maxVars = 30

// New returns a wire over n variables with the given source family.
func New(n int, fam noise.Family, seed uint64) (*Wire, error) {
	if n < 1 || n > maxVars {
		return nil, fmt.Errorf("wire: n must be in 1..%d, got %d", maxVars, n)
	}
	return &Wire{n: n, fam: fam, seed: seed}, nil
}

// HyperspaceSize returns the number of noise minterms, 2^n.
func (w *Wire) HyperspaceSize() uint64 { return 1 << uint(w.n) }

// StateCount returns log2 of the number of distinguishable wire states,
// i.e. 2^n: a wire state is any subset of the hyperspace, so there are
// 2^(2^n) states ("the wire behaves like 2^n wires carrying binary
// valued signals", Section I).
func (w *Wire) StateCount() string {
	return fmt.Sprintf("2^%d", w.HyperspaceSize())
}

// sources builds fresh streams for the wire's 2n basis sources; key
// layout is variable*2 + polarity (polarity 1 = negative literal).
func (w *Wire) sources() []*noise.Source {
	srcs := make([]*noise.Source, 2*w.n)
	for i := range srcs {
		srcs[i] = noise.NewSource(w.fam, w.seed, uint64(i))
	}
	return srcs
}

// Signal is a sampled superposition of noise minterms on the wire.
// Signals created from the same Wire share basis sources sample-for-
// sample, which is what makes cross-correlation between them
// meaningful.
type Signal struct {
	w        *Wire
	srcs     []*noise.Source
	minterms []uint64
	vals     []float64 // per-sample values of the 2n sources
}

// Encode returns the signal carrying the additive superposition of the
// given minterms. A minterm is a bitmask: bit i set means variable i+1
// is positive in the product, clear means negated. Duplicates are
// summed (amplitude 2), matching the physical superposition.
func (w *Wire) Encode(minterms []uint64) (*Signal, error) {
	for _, m := range minterms {
		if m >= w.HyperspaceSize() {
			return nil, fmt.Errorf("wire: minterm %#x outside hyperspace of size 2^%d", m, w.n)
		}
	}
	ms := make([]uint64, len(minterms))
	copy(ms, minterms)
	return &Signal{
		w:        w,
		srcs:     w.sources(),
		minterms: ms,
		vals:     make([]float64, 2*w.n),
	}, nil
}

// Next returns the next sample of the superposition.
func (s *Signal) Next() float64 {
	for i, src := range s.srcs {
		s.vals[i] = src.Next()
	}
	total := 0.0
	for _, m := range s.minterms {
		p := 1.0
		for v := 0; v < s.w.n; v++ {
			idx := 2 * v
			if m&(1<<uint(v)) == 0 {
				idx++ // negative literal source
			}
			p *= s.vals[idx]
		}
		total += p
	}
	return total
}

// Membership is the result of a Contains query.
type Membership struct {
	// Present is the decision: correlation significantly above zero.
	Present bool
	// Correlation is the measured <signal · reference>, normalized by
	// sigma^(2n) so the target is the multiplicity of the minterm in
	// the superposition (1 for a plain member, 0 for a non-member).
	Correlation float64
	// ZScore is the significance of the raw correlation.
	ZScore float64
	// Samples used.
	Samples int64
}

// Contains tests whether minterm is part of the superposition by
// correlating over the given number of samples with decision threshold
// theta (in standard errors).
//
// The signal is consumed from its current position; the reference
// replays the same underlying source streams from the start of the
// query, so call Contains on a fresh signal (or accept that re-queries
// see fresh noise — both are valid physical readings).
func (w *Wire) Contains(minterms []uint64, query uint64, samples int64, theta float64) (Membership, error) {
	if query >= w.HyperspaceSize() {
		return Membership{}, fmt.Errorf("wire: query minterm %#x outside hyperspace", query)
	}
	sig, err := w.Encode(minterms)
	if err != nil {
		return Membership{}, err
	}
	ref, err := w.Encode([]uint64{query})
	if err != nil {
		return Membership{}, err
	}
	var acc stats.Welford
	for i := int64(0); i < samples; i++ {
		acc.Add(sig.Next() * ref.Next())
	}
	norm := math.Pow(w.fam.Sigma2(), float64(w.n))
	se := acc.StdErr()
	z := 0.0
	if se > 0 && !math.IsInf(se, 0) {
		z = acc.Mean() / se
	} else if acc.Mean() > 0 {
		z = math.Inf(1) // zero-variance positive reading (RTW exact match)
	}
	return Membership{
		Present:     z > theta,
		Correlation: acc.Mean() / norm,
		ZScore:      z,
		Samples:     acc.Count(),
	}, nil
}

// Decode recovers the full membership vector of the superposition by
// querying every minterm of the hyperspace. Exponential in n by nature
// (there are 2^n minterms); intended for small n demonstrations.
func (w *Wire) Decode(minterms []uint64, samples int64, theta float64) ([]bool, error) {
	out := make([]bool, w.HyperspaceSize())
	for q := uint64(0); q < w.HyperspaceSize(); q++ {
		m, err := w.Contains(minterms, q, samples, theta)
		if err != nil {
			return nil, err
		}
		out[q] = m.Present
	}
	return out, nil
}
