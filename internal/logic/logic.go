// Package logic provides a gate-level combinational circuit model with
// Tseitin CNF encoding and miter construction for equivalence checking.
//
// The paper motivates SAT by its EDA applications — "logic synthesis,
// formal verification, circuit testing" — and this package is the bridge
// from those applications to the NBL-SAT engines: build a circuit, ask a
// question about it (can this output be 1? are these two circuits
// equivalent?), encode the question as CNF, and hand it to any solver in
// the repository.
package logic

import (
	"fmt"

	"repro/internal/cnf"
)

// GateType enumerates supported gate functions.
type GateType int

// Gate kinds. Input gates have no fanin.
const (
	Input GateType = iota
	Not
	Buf
	And
	Or
	Nand
	Nor
	Xor
	Xnor
)

// String names the gate type.
func (g GateType) String() string {
	names := map[GateType]string{
		Input: "input", Not: "not", Buf: "buf", And: "and", Or: "or",
		Nand: "nand", Nor: "nor", Xor: "xor", Xnor: "xnor",
	}
	if s, ok := names[g]; ok {
		return s
	}
	return fmt.Sprintf("gate(%d)", int(g))
}

// Node identifies a signal in a circuit.
type Node int

// gate is one circuit element.
type gate struct {
	typ  GateType
	ins  []Node
	name string // inputs only
}

// Circuit is a combinational gate network. Nodes are created in
// topological order by construction (a gate's inputs must already
// exist), so evaluation and encoding are single passes.
type Circuit struct {
	gates   []gate
	inputs  []Node
	outputs []Node
}

// New returns an empty circuit.
func New() *Circuit { return &Circuit{} }

// Inputs returns the primary input nodes in creation order.
func (c *Circuit) Inputs() []Node { return append([]Node(nil), c.inputs...) }

// Outputs returns the marked output nodes.
func (c *Circuit) Outputs() []Node { return append([]Node(nil), c.outputs...) }

func (c *Circuit) add(t GateType, name string, ins ...Node) Node {
	for _, in := range ins {
		if int(in) < 0 || int(in) >= len(c.gates) {
			panic(fmt.Sprintf("logic: gate input %d does not exist", in))
		}
	}
	c.gates = append(c.gates, gate{typ: t, ins: ins, name: name})
	return Node(len(c.gates) - 1)
}

// NewInput creates a primary input.
func (c *Circuit) NewInput(name string) Node {
	n := c.add(Input, name)
	c.inputs = append(c.inputs, n)
	return n
}

// Not returns the negation of a.
func (c *Circuit) Not(a Node) Node { return c.add(Not, "", a) }

// Buf returns a buffer of a.
func (c *Circuit) Buf(a Node) Node { return c.add(Buf, "", a) }

// And returns the conjunction of ins (at least one input).
func (c *Circuit) And(ins ...Node) Node { return c.nary(And, ins) }

// Or returns the disjunction of ins (at least one input).
func (c *Circuit) Or(ins ...Node) Node { return c.nary(Or, ins) }

// Nand returns the negated conjunction of ins.
func (c *Circuit) Nand(ins ...Node) Node { return c.nary(Nand, ins) }

// Nor returns the negated disjunction of ins.
func (c *Circuit) Nor(ins ...Node) Node { return c.nary(Nor, ins) }

// Xor returns the exclusive-or of exactly two inputs.
func (c *Circuit) Xor(a, b Node) Node { return c.add(Xor, "", a, b) }

// Xnor returns the exclusive-nor of exactly two inputs.
func (c *Circuit) Xnor(a, b Node) Node { return c.add(Xnor, "", a, b) }

func (c *Circuit) nary(t GateType, ins []Node) Node {
	if len(ins) == 0 {
		panic("logic: n-ary gate needs at least one input")
	}
	return c.add(t, "", ins...)
}

// MarkOutput declares n a primary output.
func (c *Circuit) MarkOutput(n Node) {
	if int(n) < 0 || int(n) >= len(c.gates) {
		panic("logic: output node does not exist")
	}
	c.outputs = append(c.outputs, n)
}

// Eval computes all node values for the given input values (one per
// primary input, in creation order) and returns the output values.
func (c *Circuit) Eval(inputVals []bool) []bool {
	if len(inputVals) != len(c.inputs) {
		panic(fmt.Sprintf("logic: Eval got %d inputs, circuit has %d",
			len(inputVals), len(c.inputs)))
	}
	val := make([]bool, len(c.gates))
	nextIn := 0
	for i, g := range c.gates {
		switch g.typ {
		case Input:
			val[i] = inputVals[nextIn]
			nextIn++
		case Not:
			val[i] = !val[g.ins[0]]
		case Buf:
			val[i] = val[g.ins[0]]
		case And, Nand:
			v := true
			for _, in := range g.ins {
				v = v && val[in]
			}
			val[i] = v != (g.typ == Nand)
		case Or, Nor:
			v := false
			for _, in := range g.ins {
				v = v || val[in]
			}
			val[i] = v != (g.typ == Nor)
		case Xor:
			val[i] = val[g.ins[0]] != val[g.ins[1]]
		case Xnor:
			val[i] = val[g.ins[0]] == val[g.ins[1]]
		}
	}
	out := make([]bool, len(c.outputs))
	for i, o := range c.outputs {
		out[i] = val[o]
	}
	return out
}

// Walk visits every node in topological (creation) order. visit
// receives the node, its gate type, its fanin nodes, and — for Input
// gates — the input ordinal (creation order); inputIdx is -1 for
// non-input gates. Walk stops at the first error and returns it.
func Walk(c *Circuit, visit func(n Node, g GateType, ins []Node, inputIdx int) error) error {
	nextIn := 0
	for i, g := range c.gates {
		idx := -1
		if g.typ == Input {
			idx = nextIn
			nextIn++
		}
		if err := visit(Node(i), g.typ, g.ins, idx); err != nil {
			return err
		}
	}
	return nil
}

// Encoding maps a circuit to CNF via the Tseitin transformation.
type Encoding struct {
	// F is the CNF; satisfying assignments correspond one-to-one with
	// consistent circuit valuations.
	F *cnf.Formula
	// VarOf maps each circuit node to its CNF variable.
	VarOf []cnf.Var
	// InputVars lists the CNF variables of the primary inputs, in input
	// creation order.
	InputVars []cnf.Var
}

// Tseitin encodes the circuit as CNF with one variable per node and the
// standard gate consistency clauses. No output constraint is added; use
// AssertTrue on the result.
func Tseitin(c *Circuit) *Encoding {
	enc := &Encoding{F: cnf.New(len(c.gates)), VarOf: make([]cnf.Var, len(c.gates))}
	for i := range c.gates {
		enc.VarOf[i] = cnf.Var(i + 1)
	}
	f := enc.F
	for i, g := range c.gates {
		v := enc.VarOf[i]
		switch g.typ {
		case Input:
			enc.InputVars = append(enc.InputVars, v)
		case Not:
			a := enc.VarOf[g.ins[0]]
			f.AddClause(cnf.Clause{cnf.Neg(v), cnf.Neg(a)})
			f.AddClause(cnf.Clause{cnf.Pos(v), cnf.Pos(a)})
		case Buf:
			a := enc.VarOf[g.ins[0]]
			f.AddClause(cnf.Clause{cnf.Neg(v), cnf.Pos(a)})
			f.AddClause(cnf.Clause{cnf.Pos(v), cnf.Neg(a)})
		case And, Nand:
			lit := func(x cnf.Var) cnf.Lit { return cnf.Pos(x) }
			nlit := func(x cnf.Var) cnf.Lit { return cnf.Neg(x) }
			if g.typ == Nand {
				lit, nlit = nlit, lit
			}
			// v <-> AND(ins): (!v + a_k) for all k; (v + !a_1 + ... + !a_n)
			long := cnf.Clause{lit(v)}
			for _, in := range g.ins {
				a := enc.VarOf[in]
				f.AddClause(cnf.Clause{nlit(v), cnf.Pos(a)})
				long = append(long, cnf.Neg(a))
			}
			f.AddClause(long)
		case Or, Nor:
			lit := func(x cnf.Var) cnf.Lit { return cnf.Pos(x) }
			nlit := func(x cnf.Var) cnf.Lit { return cnf.Neg(x) }
			if g.typ == Nor {
				lit, nlit = nlit, lit
			}
			// v <-> OR(ins): (!v + a_1 + ... + a_n); (v + !a_k) for all k.
			long := cnf.Clause{nlit(v)}
			for _, in := range g.ins {
				a := enc.VarOf[in]
				f.AddClause(cnf.Clause{lit(v), cnf.Neg(a)})
				long = append(long, cnf.Pos(a))
			}
			f.AddClause(long)
		case Xor, Xnor:
			a, b := enc.VarOf[g.ins[0]], enc.VarOf[g.ins[1]]
			pv, nv := cnf.Pos(v), cnf.Neg(v)
			if g.typ == Xnor {
				pv, nv = nv, pv
			}
			// v <-> a XOR b
			f.AddClause(cnf.Clause{nv, cnf.Pos(a), cnf.Pos(b)})
			f.AddClause(cnf.Clause{nv, cnf.Neg(a), cnf.Neg(b)})
			f.AddClause(cnf.Clause{pv, cnf.Pos(a), cnf.Neg(b)})
			f.AddClause(cnf.Clause{pv, cnf.Neg(a), cnf.Pos(b)})
		}
	}
	return enc
}

// AssertTrue adds a unit clause forcing node n to 1.
func (e *Encoding) AssertTrue(n Node) {
	e.F.AddClause(cnf.Clause{cnf.Pos(e.VarOf[n])})
}

// Miter builds the equivalence-checking circuit for two circuits with
// matching input and output counts: shared inputs feed both, each output
// pair is XORed, and the XORs are ORed into a single output that is 1
// exactly when the circuits disagree on some input. SAT of the miter
// output asserted true means the circuits differ.
func Miter(a, b *Circuit) (*Circuit, error) {
	if len(a.inputs) != len(b.inputs) {
		return nil, fmt.Errorf("logic: input count mismatch %d vs %d",
			len(a.inputs), len(b.inputs))
	}
	if len(a.outputs) != len(b.outputs) {
		return nil, fmt.Errorf("logic: output count mismatch %d vs %d",
			len(a.outputs), len(b.outputs))
	}
	if len(a.outputs) == 0 {
		return nil, fmt.Errorf("logic: circuits have no outputs")
	}
	m := New()
	shared := make([]Node, len(a.inputs))
	for i := range shared {
		shared[i] = m.NewInput(fmt.Sprintf("in%d", i))
	}
	outsA := copyInto(m, a, shared)
	outsB := copyInto(m, b, shared)
	var diffs []Node
	for i := range outsA {
		diffs = append(diffs, m.Xor(outsA[i], outsB[i]))
	}
	var out Node
	if len(diffs) == 1 {
		out = m.Buf(diffs[0])
	} else {
		out = m.Or(diffs...)
	}
	m.MarkOutput(out)
	return m, nil
}

// copyInto replays circuit src inside dst with its primary inputs
// replaced by the given nodes, returning the images of src's outputs.
func copyInto(dst, src *Circuit, inputs []Node) []Node {
	imap := make([]Node, len(src.gates))
	nextIn := 0
	for i, g := range src.gates {
		switch g.typ {
		case Input:
			imap[i] = inputs[nextIn]
			nextIn++
		default:
			ins := make([]Node, len(g.ins))
			for k, in := range g.ins {
				ins[k] = imap[in]
			}
			imap[i] = dst.add(g.typ, "", ins...)
		}
	}
	outs := make([]Node, len(src.outputs))
	for i, o := range src.outputs {
		outs[i] = imap[o]
	}
	return outs
}
