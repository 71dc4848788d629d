package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"mra"
	"mra/internal/server"
)

// bagSum identifies a query result up to row order: its cardinality and the
// sum of its rows' hashes.  Two executions return the same bag exactly when
// (collisions aside) both agree.
type bagSum struct {
	Rows int    `json:"rows"`
	Sum  string `json:"checksum"` // hex; a uint64 does not survive a JSON number
}

func bagChecksum(rows [][]any) bagSum {
	var total uint64
	for _, row := range rows {
		h := uint64(0x9e3779b97f4a7c15)
		for _, v := range row {
			var x uint64
			switch t := v.(type) {
			case int64:
				x = uint64(t)
			case float64:
				x = math.Float64bits(t)
			case string:
				x = 14695981039346656037
				for i := 0; i < len(t); i++ {
					x = (x ^ uint64(t[i])) * 1099511628211
				}
			case bool:
				if t {
					x = 1
				}
			case nil:
				x = 0xdeadbeef
			}
			// One round of a 64-bit mix per value keeps column order and
			// value both significant.
			h = (h ^ x) * 0xff51afd7ed558ccd
			h ^= h >> 33
		}
		total += h
	}
	return bagSum{Rows: len(rows), Sum: strconv.FormatUint(total, 16)}
}

// golden holds the expected result of every olap query on the data of
// goldenSeed.  `--print-golden` regenerates it.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Queries map[string]bagSum `json:"queries"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// olapBags runs every olap query once and returns the bag each returned.
func olapBags(ctx context.Context, db *mra.DB) (map[string]bagSum, error) {
	bags := map[string]bagSum{}
	for _, q := range olapQueries {
		rows, err := libraryQuery(ctx, db, q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Kind, err)
		}
		bags[q.Kind] = bagChecksum(rows)
	}
	return bags, nil
}

// olapReference runs every olap query once at one worker and returns the
// bags later executions, at either worker width, must reproduce.  On the
// golden seed the bags must also equal golden.json.
func olapReference(ctx context.Context, e *env, seed int64) (map[string]bagSum, error) {
	width := e.db.Workers()
	e.db.SetWorkers(1)
	defer e.db.SetWorkers(width)
	refs, err := olapBags(ctx, e.db)
	if err != nil {
		return nil, err
	}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if seed == g.Seed {
		for kind, got := range refs {
			if want := g.Queries[kind]; got != want {
				return nil, fmt.Errorf("%s: result %+v differs from golden.json %+v", kind, got, want)
			}
		}
	}
	return refs, nil
}

// checkServed verifies one successful response of a served op kind.
func checkServed(kind string, resp server.Response) error {
	switch kind {
	case "analytics", "agg":
		if len(resp.Results) != 1 || resp.Results[0].RowCount != 1 || len(resp.Results[0].Rows) != 1 {
			return fmt.Errorf("%s: want one result row, got %+v", kind, resp.Results)
		}
		row := resp.Results[0].Rows[0]
		n, ok := toFloat(row[0])
		if len(row) != 2 || !ok || n < 0 || n > bankAccounts || n != math.Trunc(n) {
			return fmt.Errorf("%s: count %v outside [0, %d]", kind, row, bankAccounts)
		}
	case "point":
		if len(resp.Results) != 1 || resp.Results[0].RowCount != 1 || len(resp.Results[0].Rows) != 1 {
			return fmt.Errorf("point: want exactly one row, got %+v", resp.Results)
		}
	case "wide":
		if len(resp.Results) != 1 {
			return fmt.Errorf("wide: want one result set, got %d", len(resp.Results))
		}
		rs := resp.Results[0]
		if rs.RowCount != len(rs.Rows) || rs.RowCount == 0 || rs.RowCount > bankAccounts {
			return fmt.Errorf("wide: row_count %d with %d rows", rs.RowCount, len(rs.Rows))
		}
	}
	return nil
}

// toFloat reads a count that is an int64 in process and a float64 once it
// has been through JSON.
func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case float64:
		return t, true
	case int64:
		return float64(t), true
	}
	return 0, false
}
