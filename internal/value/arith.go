package value

import (
	"errors"
	"fmt"
	"math"
)

// Arithmetic and logical evaluation errors.
var (
	// ErrType is returned when an operation is applied to values of an
	// unsupported domain (e.g. adding a string to a boolean).
	ErrType = errors.New("value: type error")
	// ErrDivideByZero is returned on integer or real division by zero.
	ErrDivideByZero = errors.New("value: division by zero")
	// ErrOverflow is returned when an integer result does not fit an int64:
	// integer +, - and * (and so unary minus) and integer SUM never wrap.
	ErrOverflow = errors.New("value: integer result overflows int64")
)

// BinaryOp identifies a scalar binary operator supported on atomic values.
type BinaryOp uint8

// The supported binary operators.
const (
	OpAdd    BinaryOp = iota // +
	OpSub                    // -
	OpMul                    // *
	OpDiv                    // /
	OpMod                    // %
	OpConcat                 // || (string concatenation)
)

// String returns the operator's surface syntax.
func (op BinaryOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpConcat:
		return "||"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// ResultKind returns the domain of op applied to operands of the given
// domains, or an error if the combination is not typeable.
func (op BinaryOp) ResultKind(a, b Kind) (Kind, error) {
	if a == KindNull || b == KindNull {
		return KindNull, nil
	}
	switch op {
	case OpConcat:
		if a == KindString && b == KindString {
			return KindString, nil
		}
		return KindNull, fmt.Errorf("%w: %s %s %s", ErrType, a, op, b)
	case OpMod:
		if a == KindInt && b == KindInt {
			return KindInt, nil
		}
		return KindNull, fmt.Errorf("%w: %s %s %s", ErrType, a, op, b)
	default:
		if !a.Numeric() || !b.Numeric() {
			return KindNull, fmt.Errorf("%w: %s %s %s", ErrType, a, op, b)
		}
		if a == KindFloat || b == KindFloat || op == OpDiv {
			return KindFloat, nil
		}
		return KindInt, nil
	}
}

// Apply evaluates the binary operator on two values.  Null operands propagate
// (any operation involving null yields null), mirroring SQL semantics required
// by the SQL front-end.
func (op BinaryOp) Apply(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch op {
	case OpConcat:
		if a.kind == KindString && b.kind == KindString {
			return NewString(a.s + b.s), nil
		}
		return Null, fmt.Errorf("%w: %s %s %s", ErrType, a.kind, op, b.kind)
	case OpMod:
		if a.kind == KindInt && b.kind == KindInt {
			if b.i == 0 {
				return Null, ErrDivideByZero
			}
			return NewInt(a.i % b.i), nil
		}
		return Null, fmt.Errorf("%w: %s %s %s", ErrType, a.kind, op, b.kind)
	}
	if !a.kind.Numeric() || !b.kind.Numeric() {
		return Null, fmt.Errorf("%w: %s %s %s", ErrType, a.kind, op, b.kind)
	}
	// Integer arithmetic stays in the integer domain except for division,
	// which always produces a real (the paper's AVG definition divides SUM by
	// CNT and must not truncate).
	if a.kind == KindInt && b.kind == KindInt && op != OpDiv {
		x, y := a.i, b.i
		var r int64
		var overflow bool
		switch op {
		case OpAdd:
			r = x + y
			overflow = (r^x)&(r^y) < 0
		case OpSub:
			r = x - y
			overflow = (x^y)&(r^x) < 0
		case OpMul:
			r = x * y
			overflow = x != 0 && (r/x != y || x == -1 && y == math.MinInt64)
		}
		if overflow {
			return Null, fmt.Errorf("%w: %d %s %d", ErrOverflow, x, op, y)
		}
		return NewInt(r), nil
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch op {
	case OpAdd:
		return NewFloat(x + y), nil
	case OpSub:
		return NewFloat(x - y), nil
	case OpMul:
		return NewFloat(x * y), nil
	case OpDiv:
		if y == 0 {
			return Null, ErrDivideByZero
		}
		return NewFloat(x / y), nil
	default:
		return Null, fmt.Errorf("%w: unsupported operator %s", ErrType, op)
	}
}

// CompareOp identifies a comparison predicate on atomic values.
type CompareOp uint8

// The supported comparison operators.
const (
	CmpEq CompareOp = iota // =
	CmpNe                  // <>
	CmpLt                  // <
	CmpLe                  // <=
	CmpGt                  // >
	CmpGe                  // >=
)

// String returns the comparison operator's surface syntax.
func (op CompareOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return fmt.Sprintf("cmp(%d)", uint8(op))
	}
}

// Negate returns the complementary comparison (= ↔ <>, < ↔ >=, ...).
func (op CompareOp) Negate() CompareOp {
	switch op {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	default:
		return op
	}
}

// Flip returns the comparison with its operands swapped (< ↔ >, <= ↔ >=).
func (op CompareOp) Flip() CompareOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	default:
		return op
	}
}

// Apply evaluates the comparison on two values.  Comparisons involving null
// evaluate to false (the selection operator keeps only tuples for which the
// condition definitely holds), except that null = null and null <> x follow
// value identity so the algebra's tuple-equality remains reflexive.
func (op CompareOp) Apply(a, b Value) (bool, error) {
	if a.IsNull() || b.IsNull() {
		switch op {
		case CmpEq:
			return a.IsNull() && b.IsNull(), nil
		case CmpNe:
			return a.IsNull() != b.IsNull(), nil
		default:
			return false, nil
		}
	}
	comparable := a.kind == b.kind || (a.kind.Numeric() && b.kind.Numeric())
	if !comparable {
		return false, fmt.Errorf("%w: cannot compare %s with %s", ErrType, a.kind, b.kind)
	}
	c := a.Compare(b)
	switch op {
	case CmpEq:
		return c == 0, nil
	case CmpNe:
		return c != 0, nil
	case CmpLt:
		return c < 0, nil
	case CmpLe:
		return c <= 0, nil
	case CmpGt:
		return c > 0, nil
	case CmpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("%w: unsupported comparison %s", ErrType, op)
	}
}

// ParseCompareOp parses the surface syntax of a comparison operator.
func ParseCompareOp(s string) (CompareOp, error) {
	switch s {
	case "=", "==":
		return CmpEq, nil
	case "<>", "!=":
		return CmpNe, nil
	case "<":
		return CmpLt, nil
	case "<=":
		return CmpLe, nil
	case ">":
		return CmpGt, nil
	case ">=":
		return CmpGe, nil
	default:
		return CmpEq, fmt.Errorf("value: unknown comparison operator %q", s)
	}
}

// ParseBinaryOp parses the surface syntax of an arithmetic operator.
func ParseBinaryOp(s string) (BinaryOp, error) {
	switch s {
	case "+":
		return OpAdd, nil
	case "-":
		return OpSub, nil
	case "*":
		return OpMul, nil
	case "/":
		return OpDiv, nil
	case "%":
		return OpMod, nil
	case "||":
		return OpConcat, nil
	default:
		return OpAdd, fmt.Errorf("value: unknown arithmetic operator %q", s)
	}
}
