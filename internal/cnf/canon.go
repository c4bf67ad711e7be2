package cnf

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"slices"
)

// Canonical is the renaming-stable normal form of a formula, produced by
// Canonicalize. Two formulas that differ only by a variable renaming, by
// duplicate literals or duplicate clauses, or by literal order inside
// clauses canonicalize to the same Canonical value, so its Fingerprint
// is a sound deduplication key: equal fingerprints imply the originals
// are renamings of one clause set and therefore equisatisfiable (clause
// *order* is deliberately not normalized away — that is graph
// canonicalization, not worth its cost for a cache key).
//
// The canonical variable space contains only variables that occur in at
// least one clause, renumbered 1..NumVars by occurrence signature (see
// Canonicalize). Models translate between the original and canonical
// spaces through ToCanonical/FromCanonical; original variables with no
// occurrences are unconstrained and stay unassigned on the way back,
// which still satisfies every clause. A Canonical holds nothing per
// declared variable: the original's declared count is kept as a number.
type Canonical struct {
	// F is the canonical formula: variables renamed, literals sorted
	// within clauses, duplicate literals dropped, clauses sorted with
	// duplicates removed.
	F *Formula
	// toOrig maps a canonical variable to its original name (index 0 is
	// unused); numVars, the length of the models FromCanonical returns,
	// is the larger of the original's declared count and the largest
	// name in toOrig (a formula built without Validate may name
	// variables past its declared count).
	toOrig  []Var
	numVars int
	// fp is the digest, computed once at Canonicalize (callers like the
	// service fingerprint the same Canonical at both lookup and store).
	fp string
}

// Canonicalize computes the renaming-stable normal form of f.
//
// The renaming is fixed by a name-independent invariant: each occurring
// variable's signature is the sorted set of (clause index, polarity)
// pairs of its occurrences, taken after duplicate literals and duplicate
// clauses are removed (both removals are themselves name-independent).
// Variables are numbered in signature order. Renaming f permutes no
// signature, so a renamed twin lands on the same canonical names; when
// two variables share a signature they occur in exactly the same clauses
// with the same polarities, which makes swapping them an automorphism of
// the clause set — the tie-break (first occurrence) cannot change the
// canonical formula, only which original name maps where.
//
// Every array Canonicalize builds is sized by the literals f holds or
// by a bound on the variables they name (see Formula.sizes), never by
// its declared variable count.
func Canonicalize(f *Formula) *Canonical {
	// Number the occurring variables 0, 1, ... in first-occurrence order
	// and keep each clause as its sorted set of dense literals (2i for
	// variable i, 2i+1 for its negation), unless an earlier clause has
	// the same set. Kept clause j is lits[bounds[j]:bounds[j+1]].
	n, v := f.sizes()
	ids := newVarIDs(v)
	seen := make([]int32, 2*v) // 1 + the last clause index holding a dense literal
	lits := make([]int32, 0, n)
	bounds := make([]int32, 1, len(f.Clauses)+1)
	b := bits.Len(uint(2 * len(f.Clauses)))
	table, shift := make([]int32, 1<<b), 64-uint(b) // 1 + a kept clause index; 0 is free
	for i, cl := range f.Clauses {
		a, stamp := len(lits), int32(i+1)
		for _, l := range cl {
			if d := ids.id(l.Var())<<1 | int32(l&1); seen[d] != stamp {
				seen[d] = stamp
				lits = append(lits, d)
			}
		}
		key := lits[a:]
		slices.Sort(key)
		h := uint64(len(key))
		for _, d := range key {
			h = (h ^ uint64(d)) * 0x9e3779b97f4a7c15
		}
		for s := h >> shift; ; s = (s + 1) & uint64(len(table)-1) {
			if j := table[s]; j == 0 {
				table[s] = int32(len(bounds))
				bounds = append(bounds, int32(len(lits)))
				break
			} else if slices.Equal(lits[bounds[j-1]:bounds[j]], key) {
				lits = lits[:a]
				break
			}
		}
	}
	kept := len(bounds) - 1

	// The signatures, packed: variable i's (clause<<1 | polarity) pairs
	// are sigs[off[i]:off[i+1]]. Appending clause by clause, each clause
	// sorted, puts every signature in order.
	nv := len(ids.orig)
	off := make([]int32, nv+1)
	for _, d := range lits {
		off[d>>1+1]++
	}
	for i := range nv {
		off[i+1] += off[i]
	}
	sigs := make([]int32, len(lits))
	next := slices.Clone(off[:nv])
	for j := range kept {
		for _, d := range lits[bounds[j]:bounds[j+1]] {
			sigs[next[d>>1]] = int32(j)<<1 | d&1
			next[d>>1]++
		}
	}
	order := make([]int32, nv)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		if c := slices.Compare(sigs[off[x]:off[x+1]], sigs[off[y]:off[y+1]]); c != 0 {
			return c
		}
		return cmp.Compare(x, y) // first occurrence
	})
	c := &Canonical{toOrig: make([]Var, nv+1), numVars: f.NumVars}
	rank := next // reused: rank[i] is variable i's canonical name
	for k, i := range order {
		rank[i] = int32(k + 1)
		c.toOrig[k+1] = ids.orig[i]
		c.numVars = max(c.numVars, int(ids.orig[i]))
	}

	// Rewrite the kept clauses under the canonical names into one arena,
	// sort literals, sort clauses.
	arena := make([]Lit, len(lits))
	out := make([]Clause, kept)
	for j := range out {
		cl := arena[bounds[j]:bounds[j+1]:bounds[j+1]]
		for k, d := range lits[bounds[j]:bounds[j+1]] {
			cl[k] = NewLit(Var(rank[d>>1]), d&1 == 1)
		}
		slices.Sort(cl)
		out[j] = cl
	}
	slices.SortFunc(out, slices.Compare[Clause])
	c.F = &Formula{NumVars: nv, Clauses: out}
	c.fp = fingerprint(c.F)
	return c
}

// Fingerprint returns a collision-resistant key for the canonical
// clause set: the hex SHA-256 of its packed-literal encoding, computed
// once at Canonicalize. The declared variable count is deliberately
// excluded — variables with no occurrences cannot affect
// satisfiability.
func (c *Canonical) Fingerprint() string { return c.fp }

func fingerprint(f *Formula) string {
	buf := make([]byte, 0, 4*(f.NumLiterals()+len(f.Clauses)))
	for _, cl := range f.Clauses {
		for _, l := range cl {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
		}
		buf = binary.LittleEndian.AppendUint32(buf, 0) // clause terminator; 0 is no literal
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// ToCanonical translates an assignment over the original variables into
// the canonical variable space (values of non-occurring variables are
// dropped).
func (c *Canonical) ToCanonical(a Assignment) Assignment {
	if a == nil {
		return nil
	}
	out := NewAssignment(c.F.NumVars)
	for cv, v := range c.toOrig[1:] {
		out[cv+1] = a.Get(v)
	}
	return out
}

// FromCanonical translates an assignment over the canonical variables
// back to the original variable space. Original variables with no
// occurrences stay Unassigned: no clause mentions them, so any
// completion satisfies the same clauses. So does a name below 1, which
// no Assignment can hold.
func (c *Canonical) FromCanonical(a Assignment) Assignment {
	if a == nil {
		return nil
	}
	out := NewAssignment(c.numVars)
	for cv, v := range c.toOrig[1:] {
		if v > 0 {
			out[v] = a.Get(Var(cv + 1))
		}
	}
	return out
}
