package eval

import (
	"strings"

	"mra/internal/stats"
)

// StatsSource decorates a Source with precomputed per-relation statistics, so
// callers without a storage database underneath (benchmarks over MapSource,
// tests) can feed the planner ANALYZE-grade summaries.  Lookup is
// case-insensitive, matching MapSource.
type StatsSource struct {
	Source
	// Tables maps relation names to their statistics summaries.
	Tables map[string]*stats.Table
}

// TableStats reports the named relation's summary; the planner reads it as
// its source's optional statistics.
func (s StatsSource) TableStats(name string) (*stats.Table, bool) {
	if t, ok := s.Tables[name]; ok {
		return t, true
	}
	for k, t := range s.Tables {
		if strings.EqualFold(k, name) {
			return t, true
		}
	}
	return nil, false
}

// AnalyzeSource builds statistics for every relation of a map source and
// keys a copy of each relation on the column they choose, wrapping the
// copies as a StatsSource — the in-memory equivalent of running ANALYZE on
// each relation.  m is left as it was.
func AnalyzeSource(m MapSource) StatsSource {
	tables := make(map[string]*stats.Table, len(m))
	keyed := make(MapSource, len(m))
	for name, r := range m {
		tables[name] = stats.Analyze(r, 0)
		keyed[name] = r.WithKey(tables[name].KeyColumn())
	}
	return StatsSource{Source: keyed, Tables: tables}
}
