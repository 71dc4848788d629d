package tuple

import (
	"strings"
	"testing"
	"testing/quick"

	"mra/internal/value"
)

func TestNewCopiesInput(t *testing.T) {
	vals := []value.Value{value.NewInt(1), value.NewInt(2)}
	tp := New(vals...)
	vals[0] = value.NewInt(99)
	if tp.At(0).Int() != 1 {
		t.Error("New must copy its argument slice")
	}
	if tp.Arity() != 2 {
		t.Errorf("Arity = %d", tp.Arity())
	}
}

func TestValuesCopies(t *testing.T) {
	tp := Ints(1, 2, 3)
	vs := tp.Values()
	vs[0] = value.NewInt(42)
	if tp.At(0).Int() != 1 {
		t.Error("Values must return a copy")
	}
}

func TestProject(t *testing.T) {
	tp := New(value.NewString("grolsch"), value.NewString("grolsche"), value.NewFloat(5.0))
	p, err := tp.Project([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 2 || p.At(0).Float() != 5.0 || p.At(1).Str() != "grolsch" {
		t.Errorf("Project = %v", p)
	}
	// Repeated indices are allowed (Definition 2.4 only requires 1 ≤ i ≤ #r).
	pp, err := tp.Project([]int{0, 0})
	if err != nil || pp.Arity() != 2 || !pp.At(0).Equal(pp.At(1)) {
		t.Errorf("repeated projection = %v, %v", pp, err)
	}
	if _, err := tp.Project([]int{3}); err == nil {
		t.Error("out-of-range index must fail")
	}
	if _, err := tp.Project([]int{-1}); err == nil {
		t.Error("negative index must fail")
	}
}

func TestConcat(t *testing.T) {
	a := Ints(1, 2)
	b := Strings("x")
	c := a.Concat(b)
	if c.Arity() != 3 || c.At(2).Str() != "x" {
		t.Errorf("Concat = %v", c)
	}
	// ⊕ is not commutative on the attribute order.
	d := b.Concat(a)
	if d.At(0).Kind() != value.KindString {
		t.Error("Concat must preserve operand order")
	}
	empty := New()
	if !a.Concat(empty).Equal(a) || !empty.Concat(a).Equal(a) {
		t.Error("concatenation with the empty tuple is identity")
	}
}

func TestEqual(t *testing.T) {
	if !Ints(1, 2).Equal(Ints(1, 2)) {
		t.Error("equal tuples")
	}
	if Ints(1, 2).Equal(Ints(2, 1)) {
		t.Error("order matters")
	}
	if Ints(1).Equal(Ints(1, 2)) {
		t.Error("arity matters")
	}
	if !New(value.NewInt(3)).Equal(New(value.NewFloat(3.0))) {
		t.Error("cross-numeric attribute equality must hold")
	}
}

func TestCompare(t *testing.T) {
	if Ints(1, 2).Compare(Ints(1, 3)) >= 0 {
		t.Error("lexicographic ordering")
	}
	if Ints(1, 2).Compare(Ints(1, 2)) != 0 {
		t.Error("equal tuples compare 0")
	}
	if Ints(1).Compare(Ints(1, 0)) >= 0 {
		t.Error("prefix sorts first")
	}
	if Ints(2).Compare(Ints(1, 9)) <= 0 {
		t.Error("first attribute dominates")
	}
}

func TestHashMatchesEquality(t *testing.T) {
	a := New(value.NewString("ab"), value.NewString("c"))
	b := New(value.NewString("a"), value.NewString("bc"))
	if a.Hash() == b.Hash() {
		t.Error("suspicious: attribute boundaries should influence the hash")
	}
	if Ints(1, 2).Hash() != Ints(1, 2).Hash() {
		t.Error("equal tuples must share hashes")
	}
	if New(value.NewInt(3)).Hash() != New(value.NewFloat(3)).Hash() {
		t.Error("3 and 3.0 single-attribute tuples must share hashes")
	}
}

func TestHashProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 int64) bool {
		x, y := Ints(a1, a2), Ints(b1, b2)
		// Equal ⇒ same hash; the converse only holds modulo collisions, so
		// check the implication, not the equivalence.
		return !x.Equal(y) || x.Hash() == y.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b []string) bool {
		x, y := Strings(a...), Strings(b...)
		return !x.Equal(y) || x.Hash() == y.Hash()
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestHashConsistency(t *testing.T) {
	f := func(a1, a2 int64) bool {
		x, y := Ints(a1, a2), Ints(a1, a2)
		return x.Hash() == y.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Ints(1, 2).Hash() == Ints(2, 1).Hash() {
		t.Error("suspicious: permuted tuples hash equal")
	}
}

func TestHashOn(t *testing.T) {
	a := New(value.NewString("heineken"), value.NewString("nl"), value.NewFloat(5))
	b := New(value.NewString("amstel"), value.NewString("nl"), value.NewFloat(4.1))
	if a.HashOn([]int{1}) != b.HashOn([]int{1}) {
		t.Error("HashOn shared attribute must match")
	}
	if a.HashOn([]int{0}) == b.HashOn([]int{0}) {
		t.Error("HashOn distinct attribute must differ")
	}
	proj, _ := a.Project([]int{1, 2})
	if a.HashOn([]int{1, 2}) != proj.Hash() {
		t.Error("HashOn must equal the hash of the projected tuple")
	}
}

func TestString(t *testing.T) {
	s := New(value.NewString("ale"), value.NewInt(5)).String()
	if !strings.HasPrefix(s, "<") || !strings.Contains(s, "'ale'") || !strings.Contains(s, "5") {
		t.Errorf("String = %q", s)
	}
	if New().String() != "<>" {
		t.Errorf("empty tuple String = %q", New().String())
	}
}

func TestFromSlice(t *testing.T) {
	vals := []value.Value{value.NewInt(9)}
	tp := FromSlice(vals)
	if tp.Arity() != 1 || tp.At(0).Int() != 9 {
		t.Errorf("FromSlice = %v", tp)
	}
}

func TestConvenienceConstructors(t *testing.T) {
	it := Ints(3, 4)
	if it.At(0).Kind() != value.KindInt || it.At(1).Int() != 4 {
		t.Errorf("Ints = %v", it)
	}
	st := Strings("a", "b")
	if st.At(1).Str() != "b" {
		t.Errorf("Strings = %v", st)
	}
}

func BenchmarkHash(b *testing.B) {
	cases := []struct {
		name string
		t    Tuple
	}{
		{"arity2", Ints(4711, 42)},
		{"arity5", New(value.NewInt(4711), value.NewString("customer"), value.NewFloat(12.5),
			value.NewInt(-3), value.NewString("a somewhat longer label"))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += c.t.Hash()
			}
			benchSink = sink
		})
	}
}

// benchSink keeps benchmark results live.
var benchSink uint64
