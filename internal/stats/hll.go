package stats

import (
	"math"
	"math/bits"
	"sync/atomic"

	"mra/internal/value"
)

// hllPrecision is the HyperLogLog precision p: sketches use m = 2^p one-byte
// registers.  p = 12 gives 4 KiB per sketch and a relative standard error of
// 1.04/sqrt(m) ~= 1.6%, which is far below the factor-of-two accuracy the
// cost model needs.
const hllPrecision = 12

// hllRegisters is m = 2^p, the register count of every sketch.
const hllRegisters = 1 << hllPrecision

// Sketch is a HyperLogLog distinct-count sketch over 64-bit hashes.  The zero
// value is not usable; create sketches with NewSketch.  A Sketch is
// insert-only: it can absorb new hashes and merge with other sketches, but it
// cannot forget — deleting a value from the underlying relation leaves the
// estimate unchanged (see Table.ApplyDelta for how the maintenance layer
// bounds the resulting staleness).
//
// Estimate is memoised: the planner reads the NDV of every column of every
// scanned relation on every plan, while a sketch changes only while its
// Table is being built, and a committed delta that raises no register keeps
// the sketch itself, memo included (Table.ApplyDelta shares it).
// Concurrent readers of a finished sketch may all fill the memo; they store
// the same value.
type Sketch struct {
	reg []uint8
	// est holds math.Float64bits of the last estimate plus one; zero means
	// not computed since the last Add or Merge.
	est atomic.Uint64
}

// NewSketch returns an empty sketch (estimate 0).
func NewSketch() *Sketch {
	return &Sketch{reg: make([]uint8, hllRegisters)}
}

// Clone returns an independent copy of the sketch, memoised estimate
// included.
func (s *Sketch) Clone() *Sketch {
	cp := &Sketch{reg: make([]uint8, hllRegisters)}
	copy(cp.reg, s.reg)
	cp.est.Store(s.est.Load())
	return cp
}

// Add observes one 64-bit hash.  The top p bits select a register; the rank
// (position of the first 1-bit) of the remaining bits updates it.  Index and
// rank must behave as independent uniform bits, but the table sketch is fed
// tuple hashes, which fold their value hashes with one xor-multiply step per
// attribute: a product's low bits depend only on its operands' low bits.
// Every hash is therefore scrambled once more on the way in.
func (s *Sketch) Add(h uint64) { s.add(h, true) }

// add observes h and returns the sketch that holds the result: s itself, or,
// when s is not owned by the caller and h raises one of its registers, a
// clone of s with the register raised.  A shared sketch that h does not
// raise is returned as it is, so an unchanged sketch is never copied.
func (s *Sketch) add(h uint64, owned bool) *Sketch {
	h = value.Fmix64(h)
	idx := h >> (64 - hllPrecision)
	rank := uint8(bits.LeadingZeros64(h<<hllPrecision|1<<(hllPrecision-1))) + 1
	if rank <= s.reg[idx] {
		return s
	}
	if !owned {
		s = s.Clone()
	}
	s.reg[idx] = rank
	s.est.Store(0)
	return s
}

// Merge folds another sketch into s (register-wise max), so the estimate of s
// becomes an estimate of the union of the two observed hash sets.
func (s *Sketch) Merge(o *Sketch) {
	for i, r := range o.reg {
		if r > s.reg[i] {
			s.reg[i] = r
		}
	}
	s.est.Store(0)
}

// Estimate returns the estimated number of distinct hashes observed, using
// the standard HyperLogLog estimator with the linear-counting correction for
// small cardinalities.
func (s *Sketch) Estimate() float64 {
	if bits := s.est.Load(); bits != 0 {
		return math.Float64frombits(bits - 1)
	}
	e := s.estimate()
	s.est.Store(math.Float64bits(e) + 1)
	return e
}

// estimate computes Estimate from the registers.
func (s *Sketch) estimate() float64 {
	const m = float64(hllRegisters)
	alpha := 0.7213 / (1 + 1.079/m)
	sum := 0.0
	zeros := 0
	for _, r := range s.reg {
		sum += 1.0 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting on empty registers.
		e = m * math.Log(m/float64(zeros))
	}
	return e
}
