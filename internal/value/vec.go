package value

// Vec is a column vector: the values one attribute takes across the rows of a
// batch, laid out contiguously so column-at-a-time operator kernels (filters,
// join probes, aggregate updates) stream through memory instead of chasing
// per-tuple indirections.  A Vec is a plain slice — index it, reslice it,
// share it; the values inside are immutable as always.
type Vec []Value
