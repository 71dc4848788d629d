package oracle

import (
	"encoding/binary"
	"math"

	"mra/internal/value"
)

// appendKey appends v's canonical key to b: a tag byte and the payload.  An
// int, and a float that is integral and inside int64's range (−0 included),
// key as that int, so 3 = 3.0 but 2^53+1 ≠ 2^53.0; every NaN shares one key;
// any other float keys by its bits; strings (length first), booleans and
// null key by kind and payload.  The oracle's equality is equality of keys,
// an equivalence by construction, and keys are self-delimiting, so a row's
// key (its values' keys in order) identifies the row.
func appendKey(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindInt:
		return binary.BigEndian.AppendUint64(append(b, 'i'), uint64(v.Int()))
	case value.KindFloat:
		switch f := v.Float(); {
		case math.IsNaN(f):
			return append(b, 'n')
		case f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63:
			return binary.BigEndian.AppendUint64(append(b, 'i'), uint64(int64(f)))
		default:
			return binary.BigEndian.AppendUint64(append(b, 'f'), math.Float64bits(f))
		}
	case value.KindString:
		return append(binary.AppendUvarint(append(b, 's'), uint64(len(v.Str()))), v.Str()...)
	case value.KindBool:
		if v.Bool() {
			return append(b, 'T')
		}
		return append(b, 'F')
	default:
		return append(b, 'z')
	}
}

// valueKey is v's canonical key.
func valueKey(v value.Value) string { return string(appendKey(nil, v)) }

// rowKey is the canonical key of a row.
func rowKey(vals []value.Value) string {
	var b []byte
	for _, v := range vals {
		b = appendKey(b, v)
	}
	return string(b)
}

// row is one element of a bag with its multiplicity.
type row struct {
	vals  []value.Value
	count uint64
}

// distinct merges the rows that share a key, summing their counts, and drops
// rows whose count is zero.  Each merged row keeps the values of its first
// occurrence, so the result follows the input's order.
func distinct(in []row) []row {
	at := make(map[string]int, len(in))
	out := make([]row, 0, len(in))
	for _, x := range in {
		if x.count == 0 {
			continue
		}
		k := rowKey(x.vals)
		if i, ok := at[k]; ok {
			out[i].count += x.count
			continue
		}
		at[k] = len(out)
		out = append(out, x)
	}
	return out
}

// counts maps each row key to its multiplicity.
func counts(rows []row) map[string]uint64 {
	m := make(map[string]uint64, len(rows))
	for _, x := range rows {
		m[rowKey(x.vals)] += x.count
	}
	return m
}
