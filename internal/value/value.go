// Package value implements the atomic value system of the multi-set extended
// relational algebra (Definition 2.1 of Grefen & de By, ICDE 1994).
//
// A domain is a set of atomic values; values are indivisible as far as the
// operators of the relational data model are concerned.  The package provides
// the concrete domains used throughout the library (integers, reals, booleans,
// strings and the null value), together with the comparison, hashing and
// arithmetic primitives the algebra layers build on.
package value

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Kind identifies the domain an atomic value belongs to.
type Kind uint8

// The supported atomic domains.
const (
	// KindNull is the domain of the single null value.  It is not part of the
	// paper's formal model but is required by the SQL front-end and by partial
	// aggregate functions (AVG/MIN/MAX on empty multi-sets).
	KindNull Kind = iota
	// KindInt is the domain of 64-bit signed integers.
	KindInt
	// KindFloat is the domain of 64-bit IEEE-754 reals.
	KindFloat
	// KindString is the domain of character strings.
	KindString
	// KindBool is the boolean domain.
	KindBool
)

// String returns the conventional lower-case name of the domain.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of the domain support arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// ParseKind converts a textual domain name into a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int", "integer":
		return KindInt, nil
	case "float", "real", "double":
		return KindFloat, nil
	case "string", "text", "varchar", "char":
		return KindString, nil
	case "bool", "boolean":
		return KindBool, nil
	case "null":
		return KindNull, nil
	default:
		return KindNull, fmt.Errorf("value: unknown domain %q", s)
	}
}

// Value is an atomic value of one of the supported domains.  Values are
// immutable; all operations return new values.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null is the single value of the null domain.
var Null = Value{kind: KindNull}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a real value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind returns the domain of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload.  It panics if the value is not an integer;
// use AsInt for a checked conversion.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the real payload.  It panics if the value is not a float; use
// AsFloat for a checked conversion.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("value: Float() on %s value", v.kind))
	}
	return v.f
}

// Str returns the string payload.  It panics if the value is not a string.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: Str() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload.  It panics if the value is not a boolean.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: Bool() on %s value", v.kind))
	}
	return v.b
}

// AsInt converts the value to an integer if its domain permits it.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	case KindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// AsFloat converts the value to a real if its domain permits it.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// String renders the value in the textual form used by the XRA front-end and
// the result printers: integers and reals as decimal literals, strings quoted
// with single quotes, booleans as true/false, null as null.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return fmt.Sprintf("value(%d)", uint8(v.kind))
	}
}

// Display renders the value for tabular output (strings unquoted).
func (v Value) Display() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// Equal reports whether two values are equal.  Values of different domains are
// never equal, with the exception that integer and real values compare
// numerically and exactly (3 == 3.0, but 2^53+1 ≠ 2^53.0 although both have
// one float64 image), so Equal is transitive, as every hash table's choice
// of representative needs.  Every NaN equals every other NaN, whatever its
// payload, as in PostgreSQL: bag identity (δ, ∸, ∩, grouping) needs Equal to
// be reflexive, exactly as null = null is.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		switch v.kind {
		case KindNull:
			return true
		case KindInt:
			return v.i == o.i
		case KindFloat:
			return v.f == o.f || (v.f != v.f && o.f != o.f)
		case KindString:
			return v.s == o.s
		case KindBool:
			return v.b == o.b
		}
	}
	return v.kind.Numeric() && o.kind.Numeric() && v.Compare(o) == 0
}

// Identical reports whether v and o spell the same value: one kind and the
// same payload bits.  Equal values may differ in spelling — 2^53 and 2^53.0,
// +0 and −0, two NaN payloads — and a change of spelling is a change of the
// data even where bag identity does not see one.
func (v Value) Identical(o Value) bool {
	// Each constructor sets only its kind's payload field.
	return v.kind == o.kind && v.i == o.i && v.s == o.s && v.b == o.b &&
		math.Float64bits(v.f) == math.Float64bits(o.f)
}

// Compare orders two values.  It returns a negative number, zero or a positive
// number when v sorts before, equal to, or after o.  Values of incomparable
// domains are ordered by domain kind so that Compare induces a total order
// usable for canonicalisation; Null sorts before every other value.  Numbers
// compare exactly: two integers as integers, an integer and a real by their
// exact values, never through the integer's float64 image, consistently with
// Equal.  NaN sorts above every other number and equal to any NaN.
func (v Value) Compare(o Value) int {
	switch {
	case v.kind == KindInt && o.kind == KindInt:
		return cmpInt(v.i, o.i)
	case v.kind == KindInt && o.kind == KindFloat:
		return cmpIntFloat(v.i, o.f)
	case v.kind == KindFloat && o.kind == KindInt:
		return -cmpIntFloat(o.i, v.f)
	case v.kind == KindFloat && o.kind == KindFloat:
		return cmpFloat(v.f, o.f)
	}
	if v.kind != o.kind {
		return int(v.kind) - int(o.kind)
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindString:
		return strings.Compare(v.s, o.s)
	case KindBool:
		switch {
		case v.b == o.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

// cmpInt is the three-way comparison of two integers.
func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpFloat is the three-way comparison of two reals, NaN above every number
// and equal to every NaN.
func cmpFloat(a, b float64) int {
	switch {
	case a < b, a == a && b != b:
		return -1
	case a > b, a != a && b == b:
		return 1
	}
	return 0
}

// cmpIntFloat orders integer i against real f exactly.  i is compared with
// f's integral part — an int64 whenever f lies inside int64's range — and,
// when they are equal, f's fraction decides; NaN sorts above every number.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f, f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	if c := cmpInt(i, int64(f)); c != 0 {
		return c
	}
	return cmpFloat(float64(int64(f)), f)
}

// Less reports whether v sorts strictly before o.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// Per-domain seeds of Hash, so that values of different domains whose
// payload words coincide (0, false, the empty string) still hash apart; the
// two odd multipliers of the string word step; and the one bit pattern every
// NaN hashes as (math.NaN's).
const (
	seedNull     uint64 = 0x243f6a8885a308d3
	seedNum      uint64 = 0x13198a2e03707344
	seedString   uint64 = 0xa4093822299f31d0
	seedBool     uint64 = 0x082efa98ec4e6c89
	wordMul1     uint64 = 0x87c37b91114253d5
	wordMul2     uint64 = 0x4cf5ad432745937f
	canonicalNaN uint64 = 0x7ff8000000000001
)

// Fmix64 is the 64-bit finaliser of MurmurHash3: a bijection on uint64 under
// which flipping any input bit flips each output bit with probability close
// to one half.  Hash ends every value's hash in it; consumers that read a few
// bits of a hash combined from several values apply it once more.
func Fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Hash returns a 64-bit hash of the value, consistent with Equal: values that
// compare equal hash to the same code.  Every numeric hashes its float64
// image, so 3 and 3.0 share a code; ±0 hash alike, and so does every NaN
// payload.  A value costs one finaliser, plus one multiply-rotate per eight
// bytes of a string.
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindInt:
		return numHash(float64(v.i))
	case KindFloat:
		return numHash(v.f)
	case KindString:
		return stringHash(v.s)
	case KindBool:
		if v.b {
			return Fmix64(seedBool ^ 1)
		}
		return Fmix64(seedBool)
	default:
		return Fmix64(seedNull)
	}
}

// numHash hashes a numeric's float64 image with ±0 and NaN normalised.
func numHash(f float64) uint64 {
	w := math.Float64bits(f)
	switch {
	case f == 0:
		w = 0
	case f != f:
		w = canonicalNaN
	}
	return Fmix64(seedNum ^ w)
}

// stringHash hashes s eight bytes per step, the last zero to seven bytes
// forming one short word.  The length in the seed separates a string from its
// zero-padded extension.
func stringHash(s string) uint64 {
	h := seedString ^ uint64(len(s))*wordMul2
	for ; len(s) >= 8; s = s[8:] {
		h = wordStep(h, le64(s))
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h = wordStep(h, w)
	}
	return Fmix64(h)
}

// wordStep folds word w into the running string hash h.  It is a bijection
// of h for a fixed w and of w for a fixed h, so two strings of one length
// that differ in a single word never collide.
func wordStep(h, w uint64) uint64 {
	return bits.RotateLeft64(h^w*wordMul1, 31) * wordMul2
}

// le64 reads the first eight bytes of s as a little-endian word; the compiler
// turns the shifts into one load.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}
