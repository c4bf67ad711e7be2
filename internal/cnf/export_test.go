package cnf

// ToOrig exposes the canonical-to-original variable map, which
// TestCanonicalizeGolden pins.
func (c *Canonical) ToOrig() []Var { return c.toOrig }
