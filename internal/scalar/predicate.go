package scalar

import (
	"fmt"

	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// Predicate is a selection condition φ: a function from dom(𝓔) into the
// boolean domain (Definition 3.1).
type Predicate interface {
	// Holds evaluates the condition on a tuple.
	Holds(t tuple.Tuple) (bool, error)
	// Validate type-checks the condition against a schema.
	Validate(s schema.Relation) error
	// Refs appends the 0-based attribute positions the condition reads.
	Refs(dst []int) []int
	// Rebase rewrites attribute references through a position mapping.
	Rebase(mapping map[int]int) (Predicate, error)
	// String renders the condition in XRA surface syntax.
	String() string
}

// True is the always-true condition.
type True struct{}

// Holds implements Predicate.
func (True) Holds(tuple.Tuple) (bool, error) { return true, nil }

// Validate implements Predicate.
func (True) Validate(schema.Relation) error { return nil }

// Refs implements Predicate.
func (True) Refs(dst []int) []int { return dst }

// Rebase implements Predicate.
func (True) Rebase(map[int]int) (Predicate, error) { return True{}, nil }

// String implements Predicate.
func (True) String() string { return "true" }

// False is the always-false condition.
type False struct{}

// Holds implements Predicate.
func (False) Holds(tuple.Tuple) (bool, error) { return false, nil }

// Validate implements Predicate.
func (False) Validate(schema.Relation) error { return nil }

// Refs implements Predicate.
func (False) Refs(dst []int) []int { return dst }

// Rebase implements Predicate.
func (False) Rebase(map[int]int) (Predicate, error) { return False{}, nil }

// String implements Predicate.
func (False) String() string { return "false" }

// Compare is the atomic comparison condition "left op right" on scalar
// expressions.
type Compare struct {
	Op          value.CompareOp
	Left, Right Expr
}

// NewCompare builds a comparison condition.
func NewCompare(op value.CompareOp, left, right Expr) Compare {
	return Compare{Op: op, Left: left, Right: right}
}

// Eq builds the equality condition %l = %r on two attribute positions; it is
// the common shape of join conditions.
func Eq(left, right int) Compare {
	return Compare{Op: value.CmpEq, Left: NewAttr(left), Right: NewAttr(right)}
}

// Holds implements Predicate.
func (c Compare) Holds(t tuple.Tuple) (bool, error) {
	l, err := c.Left.Eval(t)
	if err != nil {
		return false, err
	}
	r, err := c.Right.Eval(t)
	if err != nil {
		return false, err
	}
	return c.Op.Apply(l, r)
}

// Validate implements Predicate.
func (c Compare) Validate(s schema.Relation) error {
	lk, err := c.Left.Type(s)
	if err != nil {
		return err
	}
	rk, err := c.Right.Type(s)
	if err != nil {
		return err
	}
	if lk == value.KindNull || rk == value.KindNull {
		return nil
	}
	if lk == rk || (lk.Numeric() && rk.Numeric()) {
		return nil
	}
	return fmt.Errorf("%w: cannot compare %s with %s in %s", ErrEval, lk, rk, c)
}

// Refs implements Predicate.
func (c Compare) Refs(dst []int) []int { return c.Right.Refs(c.Left.Refs(dst)) }

// Rebase implements Predicate.
func (c Compare) Rebase(mapping map[int]int) (Predicate, error) {
	l, err := c.Left.Rebase(mapping)
	if err != nil {
		return nil, err
	}
	r, err := c.Right.Rebase(mapping)
	if err != nil {
		return nil, err
	}
	return Compare{Op: c.Op, Left: l, Right: r}, nil
}

// String implements Predicate.
func (c Compare) String() string {
	return fmt.Sprintf("%s %s %s", c.Left.String(), c.Op, c.Right.String())
}

// And is the conjunction of two conditions.
type And struct {
	Left, Right Predicate
}

// NewAnd builds the conjunction of conditions, folding the slice left to
// right; the empty conjunction is True.
func NewAnd(preds ...Predicate) Predicate {
	switch len(preds) {
	case 0:
		return True{}
	case 1:
		return preds[0]
	}
	cur := preds[0]
	for _, p := range preds[1:] {
		cur = And{Left: cur, Right: p}
	}
	return cur
}

// Holds implements Predicate.
func (a And) Holds(t tuple.Tuple) (bool, error) {
	l, err := a.Left.Holds(t)
	if err != nil {
		return false, err
	}
	if !l {
		return false, nil
	}
	return a.Right.Holds(t)
}

// Validate implements Predicate.
func (a And) Validate(s schema.Relation) error {
	if err := a.Left.Validate(s); err != nil {
		return err
	}
	return a.Right.Validate(s)
}

// Refs implements Predicate.
func (a And) Refs(dst []int) []int { return a.Right.Refs(a.Left.Refs(dst)) }

// Rebase implements Predicate.
func (a And) Rebase(mapping map[int]int) (Predicate, error) {
	l, err := a.Left.Rebase(mapping)
	if err != nil {
		return nil, err
	}
	r, err := a.Right.Rebase(mapping)
	if err != nil {
		return nil, err
	}
	return And{Left: l, Right: r}, nil
}

// String implements Predicate.
func (a And) String() string {
	return fmt.Sprintf("(%s and %s)", a.Left.String(), a.Right.String())
}

// Or is the disjunction of two conditions.
type Or struct {
	Left, Right Predicate
}

// Holds implements Predicate.
func (o Or) Holds(t tuple.Tuple) (bool, error) {
	l, err := o.Left.Holds(t)
	if err != nil {
		return false, err
	}
	if l {
		return true, nil
	}
	return o.Right.Holds(t)
}

// Validate implements Predicate.
func (o Or) Validate(s schema.Relation) error {
	if err := o.Left.Validate(s); err != nil {
		return err
	}
	return o.Right.Validate(s)
}

// Refs implements Predicate.
func (o Or) Refs(dst []int) []int { return o.Right.Refs(o.Left.Refs(dst)) }

// Rebase implements Predicate.
func (o Or) Rebase(mapping map[int]int) (Predicate, error) {
	l, err := o.Left.Rebase(mapping)
	if err != nil {
		return nil, err
	}
	r, err := o.Right.Rebase(mapping)
	if err != nil {
		return nil, err
	}
	return Or{Left: l, Right: r}, nil
}

// String implements Predicate.
func (o Or) String() string {
	return fmt.Sprintf("(%s or %s)", o.Left.String(), o.Right.String())
}

// Not is the negation of a condition.
type Not struct {
	Operand Predicate
}

// Holds implements Predicate.
func (n Not) Holds(t tuple.Tuple) (bool, error) {
	v, err := n.Operand.Holds(t)
	if err != nil {
		return false, err
	}
	return !v, nil
}

// Validate implements Predicate.
func (n Not) Validate(s schema.Relation) error { return n.Operand.Validate(s) }

// Refs implements Predicate.
func (n Not) Refs(dst []int) []int { return n.Operand.Refs(dst) }

// Rebase implements Predicate.
func (n Not) Rebase(mapping map[int]int) (Predicate, error) {
	o, err := n.Operand.Rebase(mapping)
	if err != nil {
		return nil, err
	}
	return Not{Operand: o}, nil
}

// String implements Predicate.
func (n Not) String() string { return "not (" + n.Operand.String() + ")" }

// ErrorFree reports whether a predicate evaluates without error on every
// tuple of the schema it was validated against: comparisons between
// attributes and constants, and connectives over them.  Arithmetic can fail
// (division by zero), so any other shape counts as fallible.  A planner or
// rewrite law may move only error-free conjuncts: a moved fallible one runs
// on other rows than the written expression evaluates it on.
func ErrorFree(p Predicate) bool {
	switch x := p.(type) {
	case True, False:
		return true
	case Compare:
		return plainOperand(x.Left) && plainOperand(x.Right)
	case And:
		return ErrorFree(x.Left) && ErrorFree(x.Right)
	case Or:
		return ErrorFree(x.Left) && ErrorFree(x.Right)
	case Not:
		return ErrorFree(x.Operand)
	}
	return false
}

// plainOperand reports whether e is an attribute or a constant.
func plainOperand(e Expr) bool {
	switch e.(type) {
	case Attr, Const:
		return true
	}
	return false
}

// Conjuncts flattens a condition into its top-level conjuncts.  The rewrite
// engine uses it to push individual conjuncts of a selection condition to the
// operator sides that can evaluate them.
func Conjuncts(p Predicate) []Predicate {
	if a, ok := p.(And); ok {
		return append(Conjuncts(a.Left), Conjuncts(a.Right)...)
	}
	if _, ok := p.(True); ok {
		return nil
	}
	return []Predicate{p}
}

// MaxRef returns the largest 0-based attribute position referenced by the
// predicate, or -1 if it references none.
func MaxRef(p Predicate) int {
	max := -1
	for _, r := range p.Refs(nil) {
		if r > max {
			max = r
		}
	}
	return max
}

// MinRef returns the smallest referenced position, or -1 if none.
func MinRef(p Predicate) int {
	min := -1
	for _, r := range p.Refs(nil) {
		if min == -1 || r < min {
			min = r
		}
	}
	return min
}
