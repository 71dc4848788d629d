package value

import (
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "null",
		KindInt:    "int",
		KindFloat:  "float",
		KindString: "string",
		KindBool:   "bool",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestKindNumeric(t *testing.T) {
	if !KindInt.Numeric() || !KindFloat.Numeric() {
		t.Error("int and float must be numeric")
	}
	if KindString.Numeric() || KindBool.Numeric() || KindNull.Numeric() {
		t.Error("string, bool and null must not be numeric")
	}
}

func TestParseKind(t *testing.T) {
	good := map[string]Kind{
		"int": KindInt, "INTEGER": KindInt,
		"float": KindFloat, "real": KindFloat, "Double": KindFloat,
		"string": KindString, "text": KindString, "VARCHAR": KindString, "char": KindString,
		"bool": KindBool, "BOOLEAN": KindBool,
		"null":    KindNull,
		"  int  ": KindInt,
	}
	for in, want := range good {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("money"); err == nil {
		t.Error("ParseKind should reject unknown domains")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Errorf("NewInt: got %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat: got %v", v)
	}
	if v := NewString("hi"); v.Kind() != KindString || v.Str() != "hi" {
		t.Errorf("NewString: got %v", v)
	}
	if v := NewBool(true); v.Kind() != KindBool || !v.Bool() {
		t.Errorf("NewBool: got %v", v)
	}
	if !Null.IsNull() || NewInt(1).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Float on int", func() { NewInt(1).Float() })
	mustPanic("Str on bool", func() { NewBool(true).Str() })
	mustPanic("Bool on float", func() { NewFloat(1).Bool() })
}

func TestAsIntAsFloat(t *testing.T) {
	if n, ok := NewInt(7).AsInt(); !ok || n != 7 {
		t.Error("AsInt on int")
	}
	if n, ok := NewFloat(7.9).AsInt(); !ok || n != 7 {
		t.Error("AsInt on float should truncate")
	}
	if n, ok := NewBool(true).AsInt(); !ok || n != 1 {
		t.Error("AsInt on bool true")
	}
	if n, ok := NewBool(false).AsInt(); !ok || n != 0 {
		t.Error("AsInt on bool false")
	}
	if _, ok := NewString("x").AsInt(); ok {
		t.Error("AsInt on string must fail")
	}
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3.0 {
		t.Error("AsFloat on int")
	}
	if f, ok := NewFloat(3.5).AsFloat(); !ok || f != 3.5 {
		t.Error("AsFloat on float")
	}
	if _, ok := NewBool(true).AsFloat(); ok {
		t.Error("AsFloat on bool must fail")
	}
}

func TestStringAndDisplay(t *testing.T) {
	cases := []struct {
		v    Value
		str  string
		disp string
	}{
		{NewInt(5), "5", "5"},
		{NewFloat(2.5), "2.5", "2.5"},
		{NewString("ale"), "'ale'", "ale"},
		{NewString("o'brien"), "'o''brien'", "o'brien"},
		{NewBool(true), "true", "true"},
		{Null, "null", "null"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.str {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.str)
		}
		if got := c.v.Display(); got != c.disp {
			t.Errorf("Display(%v) = %q, want %q", c.v, got, c.disp)
		}
	}
}

func TestEqual(t *testing.T) {
	if !NewInt(3).Equal(NewInt(3)) || NewInt(3).Equal(NewInt(4)) {
		t.Error("int equality")
	}
	if !NewInt(3).Equal(NewFloat(3.0)) || !NewFloat(3.0).Equal(NewInt(3)) {
		t.Error("cross-numeric equality must hold")
	}
	if NewInt(3).Equal(NewString("3")) {
		t.Error("int must not equal string")
	}
	if !NewString("a").Equal(NewString("a")) || NewString("a").Equal(NewString("b")) {
		t.Error("string equality")
	}
	if !NewBool(true).Equal(NewBool(true)) || NewBool(true).Equal(NewBool(false)) {
		t.Error("bool equality")
	}
	if !Null.Equal(Null) || Null.Equal(NewInt(0)) {
		t.Error("null equality")
	}
}

func TestCompare(t *testing.T) {
	if NewInt(1).Compare(NewInt(2)) >= 0 || NewInt(2).Compare(NewInt(1)) <= 0 {
		t.Error("int ordering")
	}
	if NewInt(2).Compare(NewFloat(2.5)) >= 0 {
		t.Error("cross-numeric ordering")
	}
	if NewString("a").Compare(NewString("b")) >= 0 {
		t.Error("string ordering")
	}
	if NewBool(false).Compare(NewBool(true)) >= 0 || NewBool(true).Compare(NewBool(false)) <= 0 {
		t.Error("bool ordering")
	}
	if NewBool(true).Compare(NewBool(true)) != 0 {
		t.Error("bool equal ordering")
	}
	if Null.Compare(Null) != 0 {
		t.Error("null self comparison")
	}
	if Null.Compare(NewInt(5)) >= 0 {
		t.Error("null sorts before int")
	}
	if !NewInt(1).Less(NewInt(2)) || NewInt(2).Less(NewInt(1)) {
		t.Error("Less")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(3), NewFloat(3.0)},
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewString("x"), NewString("x")},
		{NewBool(true), NewBool(true)},
		{Null, Null},
	}
	for _, p := range pairs {
		if !p[0].Equal(p[1]) {
			t.Fatalf("test pair %v not equal", p)
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values %v and %v hash differently", p[0], p[1])
		}
	}
	if NewInt(1).Hash() == NewInt(2).Hash() {
		t.Error("suspicious: 1 and 2 hash to the same code")
	}
	if NewString("a").Hash() == NewString("b").Hash() {
		t.Error("suspicious: 'a' and 'b' hash to the same code")
	}
}

func TestHashDistinguishesValues(t *testing.T) {
	if NewInt(3).Hash() != NewFloat(3.0).Hash() {
		t.Error("3 and 3.0 must share a hash")
	}
	if NewInt(3).Hash() == NewInt(4).Hash() {
		t.Error("3 and 4 must not share a hash")
	}
	if NewString("3").Hash() == NewInt(3).Hash() {
		t.Error("string '3' and int 3 must not share a hash")
	}
	if NewBool(true).Hash() == NewBool(false).Hash() {
		t.Error("booleans must not share a hash")
	}
	if NewFloat(2.5).Hash() == NewFloat(3.5).Hash() {
		t.Error("distinct non-integral floats must not share a hash")
	}
}

func TestHashImpliedByEqualProperty(t *testing.T) {
	// Equal ⇒ same hash.  The converse holds only modulo collisions, so the
	// properties check the implication direction.
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return !va.Equal(vb) || va.Hash() == vb.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		va, vb := NewFloat(a), NewFloat(b)
		return !va.Equal(vb) || va.Hash() == vb.Hash()
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	h := func(a, b string) bool {
		va, vb := NewString(a), NewString(b)
		return !va.Equal(vb) || va.Hash() == vb.Hash()
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualityProperty(t *testing.T) {
	// An int and its float64 image always hash alike, and they are Equal
	// exactly when the image is the same number: always within ±2^53, and
	// beyond it only when the int needs no rounding.
	f := func(a int64) bool {
		img := float64(a)
		same := img < 0x1p63 && int64(img) == a
		return NewInt(a).Hash() == NewFloat(img).Hash() && NewInt(a).Equal(NewFloat(img)) == same
	}
	small := func(a int64) bool { return f(a%(1<<53)) && NewInt(a%(1<<53)).Equal(NewFloat(float64(a%(1<<53)))) }
	for _, g := range []any{f, small} {
		if err := quick.Check(g, nil); err != nil {
			t.Error(err)
		}
	}
}

// nanPayloads returns NaNs with different bit patterns: the canonical one,
// negative, quiet with a payload, and signalling.
func nanPayloads() []float64 {
	return []float64{
		math.NaN(),
		math.Copysign(math.NaN(), -1),
		math.Float64frombits(0x7ff8_0000_0000_beef),
		math.Float64frombits(0x7ff0_0000_0000_0001),
		math.Float64frombits(0xfff0_dead_beef_0000),
	}
}

// TestNaNContract pins PostgreSQL's NaN contract: every NaN equals every
// other NaN, hashes alike, and sorts above every other number.
func TestNaNContract(t *testing.T) {
	nans := nanPayloads()
	numbers := []Value{NewInt(math.MinInt64), NewInt(0), NewInt(math.MaxInt64),
		NewFloat(math.Inf(-1)), NewFloat(-1.5), NewFloat(0), NewFloat(math.MaxFloat64), NewFloat(math.Inf(1))}
	for _, a := range nans {
		if !math.IsNaN(a) {
			t.Fatalf("%x is not a NaN", math.Float64bits(a))
		}
		va := NewFloat(a)
		for _, b := range nans {
			vb := NewFloat(b)
			if !va.Equal(vb) || va.Compare(vb) != 0 || va.Hash() != vb.Hash() {
				t.Errorf("NaN %x vs NaN %x: Equal %v, Compare %d, hashes %x/%x",
					math.Float64bits(a), math.Float64bits(b), va.Equal(vb), va.Compare(vb), va.Hash(), vb.Hash())
			}
			if ok, err := CmpEq.Apply(va, vb); err != nil || !ok {
				t.Errorf("NaN = NaN: %v, %v", ok, err)
			}
		}
		for _, n := range numbers {
			if va.Equal(n) || n.Equal(va) {
				t.Errorf("NaN must not equal %v", n)
			}
			if va.Compare(n) <= 0 || n.Compare(va) >= 0 {
				t.Errorf("NaN must sort above %v: Compare %d / %d", n, va.Compare(n), n.Compare(va))
			}
			for op, want := range map[CompareOp]bool{CmpEq: false, CmpNe: true, CmpLt: false, CmpLe: false, CmpGt: true, CmpGe: true} {
				if got, err := op.Apply(va, n); err != nil || got != want {
					t.Errorf("NaN %s %v = %v, %v; want %v", op, n, got, err, want)
				}
			}
		}
	}
	if !Null.Less(NewFloat(math.NaN())) {
		t.Error("null must still sort before NaN")
	}
}

// TestHashEqualImpliesSameHash checks Equal ⇒ same hash over the cases a
// word hash could get wrong: int/float images, ±0 and NaN payloads.
func TestHashEqualImpliesSameHash(t *testing.T) {
	var pairs [][2]Value
	for _, i := range []int64{0, 1, -1, 2, 3, 1 << 31, -(1 << 31), 1 << 53, -(1 << 53), 1<<63 - 1024, math.MinInt64} {
		pairs = append(pairs, [2]Value{NewInt(i), NewFloat(float64(i))})
	}
	pairs = append(pairs,
		[2]Value{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		[2]Value{NewInt(0), NewFloat(math.Copysign(0, -1))},
		[2]Value{NewFloat(math.Inf(1)), NewFloat(math.Inf(1))},
	)
	nans := nanPayloads()
	for _, a := range nans {
		for _, b := range nans {
			pairs = append(pairs, [2]Value{NewFloat(a), NewFloat(b)})
		}
	}
	for _, p := range pairs {
		if !p[0].Equal(p[1]) {
			t.Fatalf("test pair %v, %v not equal", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values %v (%s) and %v (%s) hash %x and %x",
				p[0], p[0].Kind(), p[1], p[1].Kind(), p[0].Hash(), p[1].Hash())
		}
	}
}

// TestStringHashWords covers every position of the eight-byte word loop: the
// empty string, tails of every short length, exact words and a word plus a
// tail.  Equal strings held in different memory hash alike; all lengths hash
// apart; a zero byte appended changes the hash; and flipping the last byte of
// any word (the one a word-at-a-time hash reads last) changes it too.
func TestStringHashWords(t *testing.T) {
	seen := map[uint64]string{}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17} {
		s := strings.Repeat("x", n)
		h := NewString(s).Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("len %d and %q share hash %x", n, prev, h)
		}
		seen[h] = s
		if c := string([]byte(s)); NewString(c).Hash() != h {
			t.Errorf("len %d: a copy hashes differently", n)
		}
		if NewString(s+"\x00").Hash() == h {
			t.Errorf("len %d: appending a zero byte leaves the hash unchanged", n)
		}
		for w := 7; w < n; w += 8 {
			b := []byte(s)
			b[w] ^= 1
			if NewString(string(b)).Hash() == h {
				t.Errorf("len %d: flipping byte %d (last of word %d) leaves the hash unchanged", n, w, w/8)
			}
		}
		if n > 0 {
			b := []byte(s)
			b[n-1] ^= 0x80
			if NewString(string(b)).Hash() == h {
				t.Errorf("len %d: flipping the top bit of the last byte leaves the hash unchanged", n)
			}
		}
	}
	if NewString("").Hash() == Null.Hash() || NewString("").Hash() == NewInt(0).Hash() ||
		NewBool(false).Hash() == NewInt(0).Hash() {
		t.Error("empty string, null, false and 0 must hash apart")
	}
}

func BenchmarkHash(b *testing.B) {
	cases := []struct {
		name string
		v    Value
	}{
		{"int", NewInt(123456789)},
		{"float", NewFloat(3.25)},
		{"string8", NewString("abcdefgh")},
		{"string32", NewString(strings.Repeat("abcdefgh", 4))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += c.v.Hash()
			}
			benchSink = sink
		})
	}
}

// benchSink keeps benchmark results live.
var benchSink uint64

// TestCompareIntsExactly pins the int/int order above 2^53, where distinct
// int64s share a float64 image: Compare must separate them, and
// Compare(a, b) == 0 must coincide with Equal(a, b) for every int pair.
func TestCompareIntsExactly(t *testing.T) {
	lo, hi := NewInt(1<<53), NewInt(1<<53+1)
	if lo.Compare(hi) >= 0 || hi.Compare(lo) <= 0 {
		t.Errorf("Compare(2^53, 2^53+1) = %d, Compare(2^53+1, 2^53) = %d", lo.Compare(hi), hi.Compare(lo))
	}
	if ok, err := CmpLt.Apply(lo, hi); err != nil || !ok {
		t.Errorf("2^53 < 2^53+1 = %v, %v", ok, err)
	}
	if ok, err := CmpEq.Apply(lo, hi); err != nil || ok {
		t.Errorf("2^53 = 2^53+1 = %v, %v", ok, err)
	}
	same := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return (va.Compare(vb) == 0) == va.Equal(vb) && va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(same, nil); err != nil {
		t.Error(err)
	}
	near := func(a int64, d uint8) bool {
		b := a + int64(d%4)
		return same(a, b) && same(math.MaxInt64-int64(d), math.MaxInt64)
	}
	if err := quick.Check(near, nil); err != nil {
		t.Error(err)
	}
}

// TestCmpEqImpliesSameHash checks the invariant a key lookup relies on:
// whenever CompareOp(=).Apply(a, b) holds, a and b hash alike, so the chain
// of b's hash holds every entry whose key satisfies "= b".  The cases cover
// null, NaN payloads, ±0, ints against their float images and ints beyond
// 2^53.
func TestCmpEqImpliesSameHash(t *testing.T) {
	vals := []Value{Null, NewFloat(0), NewFloat(math.Copysign(0, -1)), NewInt(0),
		NewInt(1), NewFloat(1), NewInt(-1), NewFloat(-1),
		NewInt(1 << 53), NewInt(1<<53 + 1), NewFloat(1 << 53), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewString(""), NewString("1"), NewBool(true), NewBool(false)}
	for _, n := range nanPayloads() {
		vals = append(vals, NewFloat(n))
	}
	for _, a := range vals {
		for _, b := range vals {
			ok, err := CmpEq.Apply(a, b)
			if err == nil && ok && a.Hash() != b.Hash() {
				t.Errorf("%v (%s) = %v (%s) holds but hashes %x and %x", a, a.Kind(), b, b.Kind(), a.Hash(), b.Hash())
			}
		}
	}
	ints := func(a, b int64) bool {
		ok, _ := CmpEq.Apply(NewInt(a), NewInt(b))
		return !ok || NewInt(a).Hash() == NewInt(b).Hash()
	}
	mixed := func(a int64, f float64) bool {
		ok, _ := CmpEq.Apply(NewInt(a), NewFloat(f))
		return !ok || NewInt(a).Hash() == NewFloat(f).Hash()
	}
	floats := func(a, b float64) bool {
		ok, _ := CmpEq.Apply(NewFloat(a), NewFloat(b))
		return !ok || NewFloat(a).Hash() == NewFloat(b).Hash()
	}
	for _, f := range []any{ints, mixed, floats} {
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	}
}

// exactnessValues is TestCmpEqImpliesSameHash's value set plus the ints
// around 2^53 and ±2^63 and their float neighbours: the values where an int
// and a float share a float64 image without being equal.
func exactnessValues() []Value {
	const two53 = 1 << 53
	vals := []Value{Null, NewFloat(0), NewFloat(math.Copysign(0, -1)), NewInt(0),
		NewInt(1), NewFloat(1), NewInt(-1), NewFloat(-1), NewFloat(0.5), NewFloat(-0.5),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewString(""), NewString("1"), NewBool(true), NewBool(false),
		NewFloat(two53), NewFloat(-two53), NewFloat(0x1p63), NewFloat(-0x1p63),
		NewFloat(math.Nextafter(two53, 0)), NewFloat(math.Nextafter(two53, math.Inf(1))),
		NewFloat(math.Nextafter(0x1p63, 0)), NewFloat(math.Nextafter(-0x1p63, 0)),
		NewFloat(math.Nextafter(-0x1p63, math.Inf(-1))), NewFloat(two53/2 + 0.5)}
	for k := int64(-3); k <= 3; k++ {
		vals = append(vals, NewInt(two53+k), NewInt(-two53+k))
	}
	for k := int64(0); k < 3; k++ {
		vals = append(vals, NewInt(math.MaxInt64-k), NewInt(math.MinInt64+k))
	}
	for _, n := range nanPayloads() {
		vals = append(vals, NewFloat(n))
	}
	return vals
}

// TestEqualIsAnEquivalence checks that Equal is reflexive, symmetric and
// transitive and that Compare is a total order consistent with it, over the
// values where equality on float64 images was not transitive (2^53 =
// 2^53.0 = 2^53+1 but 2^53 ≠ 2^53+1).  Equal still implies one hash.
// Identical holds only for a value and itself: every value of the list is
// spelled differently, equal ones included (±0, 2^53 and 2^53.0, NaNs).
func TestEqualIsAnEquivalence(t *testing.T) {
	vals := exactnessValues()
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	for i, a := range vals {
		if !a.Equal(a) || a.Compare(a) != 0 {
			t.Errorf("%v (%s) must equal itself", a, a.Kind())
		}
		for j, b := range vals {
			if a.Identical(b) != (i == j) {
				t.Errorf("Identical(%v (%s), %v (%s)) = %v", a, a.Kind(), b, b.Kind(), a.Identical(b))
			}
			if a.Equal(b) != b.Equal(a) {
				t.Errorf("Equal(%v, %v) is not symmetric", a, b)
			}
			if (a.Compare(b) == 0) != a.Equal(b) {
				t.Errorf("%v (%s) vs %v (%s): Compare %d but Equal %v", a, a.Kind(), b, b.Kind(), a.Compare(b), a.Equal(b))
			}
			if sign(a.Compare(b)) != -sign(b.Compare(a)) {
				t.Errorf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, a.Compare(b), b, a, b.Compare(a))
			}
			if a.Equal(b) && a.Hash() != b.Hash() {
				t.Errorf("%v = %v but they hash apart", a, b)
			}
			for _, c := range vals {
				if a.Equal(b) && b.Equal(c) && !a.Equal(c) {
					t.Errorf("%v (%s) = %v (%s) = %v (%s) but %v ≠ %v", a, a.Kind(), b, b.Kind(), c, c.Kind(), a, c)
				}
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Errorf("%v ≤ %v ≤ %v but Compare(%v, %v) > 0", a, b, c, a, c)
				}
			}
		}
	}
}

// TestCompareIsExactAcrossIntAndFloat checks Compare, Equal and the
// comparison operators of an int against a float against the exact rational
// order (math/big), on random pairs near each other and at the edges of
// int64 and of the exactly representable range.
func TestCompareIsExactAcrossIntAndFloat(t *testing.T) {
	exact := func(i int64, f float64) int {
		if math.IsNaN(f) {
			return -1
		}
		return new(big.Float).SetInt64(i).Cmp(new(big.Float).SetFloat64(f))
	}
	check := func(i int64, f float64) bool {
		vi, vf := NewInt(i), NewFloat(f)
		want := exact(i, f)
		lt, _ := CmpLt.Apply(vi, vf)
		eq, _ := CmpEq.Apply(vf, vi)
		return vi.Compare(vf) == want && vf.Compare(vi) == -want && vi.Equal(vf) == (want == 0) &&
			lt == (want < 0) && eq == (want == 0)
	}
	near := func(i int64, d int8) bool {
		f := float64(i)
		return check(i, f) && check(i+int64(d), f) && check(i, math.Nextafter(f, math.Inf(int(d)))) && check(i, f+float64(d)/4)
	}
	if err := quick.Check(near, nil); err != nil {
		t.Error(err)
	}
	for _, v := range exactnessValues() {
		for _, w := range exactnessValues() {
			if v.Kind() == KindInt && w.Kind() == KindFloat && !check(v.Int(), w.Float()) {
				t.Errorf("%d vs %v: Compare %d, want %d", v.Int(), w.Float(), v.Compare(w), exact(v.Int(), w.Float()))
			}
		}
	}
}

// TestIntegerArithmeticNeverWraps checks integer +, - and * against exact
// (math/big) arithmetic: the int64 result when the exact one fits, and
// ErrOverflow when it does not, on operands at and around both ends of the
// range and on random pairs whose products straddle it.
func TestIntegerArithmeticNeverWraps(t *testing.T) {
	exact := map[BinaryOp]func(z, x, y *big.Int) *big.Int{
		OpAdd: (*big.Int).Add, OpSub: (*big.Int).Sub, OpMul: (*big.Int).Mul,
	}
	check := func(op BinaryOp, x, y int64) bool {
		want := exact[op](new(big.Int), big.NewInt(x), big.NewInt(y))
		got, err := op.Apply(NewInt(x), NewInt(y))
		if !want.IsInt64() {
			if !errors.Is(err, ErrOverflow) {
				t.Errorf("%d %s %d = %v, %v; want ErrOverflow", x, op, y, got, err)
				return false
			}
			return true
		}
		if err != nil || got.Kind() != KindInt || got.Int() != want.Int64() {
			t.Errorf("%d %s %d = %v, %v; want %s", x, op, y, got, err, want)
			return false
		}
		return true
	}
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 32, -1 << 31, -3, -2, -1, 0, 1, 2, 3,
		1 << 31, 1 << 32, 1 << 62, math.MaxInt64 - 1, math.MaxInt64}
	for op := range exact {
		for _, x := range edges {
			for _, y := range edges {
				check(op, x, y)
			}
		}
		random := func(x int64, shift uint8) bool { return check(op, x>>(shift%64), x>>(shift/4%64)) }
		if err := quick.Check(random, nil); err != nil {
			t.Error(err)
		}
	}
	// Unary minus is 0 - x, so negating the least int64 overflows too.
	if got, err := OpSub.Apply(NewInt(0), NewInt(math.MinInt64)); !errors.Is(err, ErrOverflow) {
		t.Errorf("-(%d) = %v, %v; want ErrOverflow", int64(math.MinInt64), got, err)
	}
}
