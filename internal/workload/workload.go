// Package workload provides the data generators used by the examples, the
// paper's experiments (bench_test.go) and xraserve's demo data: the paper's
// beer/brewery running example at configurable scale, synthetic relations
// with a controlled duplication factor, Zipf-skewed join workloads, graph
// relations for the transitive-closure extension, and bank accounts.
//
// All generators are deterministic for a given seed so experiment runs are
// reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"mra/internal/multiset"
	"mra/internal/schema"
	"mra/internal/tuple"
	"mra/internal/value"
)

// BeerSchema returns the schema of the paper's beer relation:
// beer(name, brewery, alcperc).
func BeerSchema() schema.Relation {
	return schema.NewRelation("beer",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "brewery", Type: value.KindString},
		schema.Attribute{Name: "alcperc", Type: value.KindFloat},
	)
}

// BrewerySchema returns the schema of the paper's brewery relation:
// brewery(name, city, country).
func BrewerySchema() schema.Relation {
	return schema.NewRelation("brewery",
		schema.Attribute{Name: "name", Type: value.KindString},
		schema.Attribute{Name: "city", Type: value.KindString},
		schema.Attribute{Name: "country", Type: value.KindString},
	)
}

// BeerConfig controls the scale of the generated beer database.
type BeerConfig struct {
	// Breweries is the number of breweries (default 16).
	Breweries int
	// BeersPerBrewery is the number of beers each brewery brews (default 8).
	BeersPerBrewery int
	// DuplicateNames makes distinct breweries reuse beer names, so projections
	// on the name attribute produce duplicates (the paper's Example 3.1).
	DuplicateNames bool
	// DiscreteAlcohol restricts alcohol percentages to a small grid
	// (4.0, 4.5, ..., 9.5) so that distinct beers share percentages and the
	// set-vs-bag aggregation difference of Example 3.2 becomes observable.
	DiscreteAlcohol bool
	// Seed drives the pseudo-random alcohol percentages.
	Seed int64
}

// withDefaults fills in zero fields.
func (c BeerConfig) withDefaults() BeerConfig {
	if c.Breweries == 0 {
		c.Breweries = 16
	}
	if c.BeersPerBrewery == 0 {
		c.BeersPerBrewery = 8
	}
	return c
}

// countries is the country pool breweries are spread over.
var countries = []string{"netherlands", "belgium", "germany", "ireland", "czechia"}

// Beers generates a beer database (beer and brewery relation instances) of the
// configured size.
func Beers(cfg BeerConfig) (beer, brewery *multiset.Relation) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	beer = multiset.New(BeerSchema())
	brewery = multiset.New(BrewerySchema())
	for b := 0; b < cfg.Breweries; b++ {
		bname := fmt.Sprintf("brewery%03d", b)
		country := countries[b%len(countries)]
		city := fmt.Sprintf("city%03d", b)
		brewery.Add(tuple.New(value.NewString(bname), value.NewString(city), value.NewString(country)), 1)
		for i := 0; i < cfg.BeersPerBrewery; i++ {
			var name string
			if cfg.DuplicateNames {
				// Reuse names across breweries so π_name produces duplicates.
				name = fmt.Sprintf("beer%03d", i)
			} else {
				name = fmt.Sprintf("beer%03d_%03d", b, i)
			}
			alc := 4.0 + rng.Float64()*6.0
			if cfg.DiscreteAlcohol {
				alc = 4.0 + 0.5*float64(rng.Intn(12))
			}
			beer.Add(tuple.New(value.NewString(name), value.NewString(bname), value.NewFloat(alc)), 1)
		}
	}
	return beer, brewery
}

// DuplicationConfig controls the synthetic duplication workload used by the
// duplicate-removal cost experiment (E7).
type DuplicationConfig struct {
	// DistinctTuples is the number of distinct tuples (default 1000).
	DistinctTuples int
	// DuplicationFactor is the multiplicity given to every distinct tuple
	// (default 1, i.e. a set).
	DuplicationFactor int
	// Attributes is the tuple width (default 2).
	Attributes int
	// Seed drives the pseudo-random attribute values.
	Seed int64
}

func (c DuplicationConfig) withDefaults() DuplicationConfig {
	if c.DistinctTuples == 0 {
		c.DistinctTuples = 1000
	}
	if c.DuplicationFactor == 0 {
		c.DuplicationFactor = 1
	}
	if c.Attributes == 0 {
		c.Attributes = 2
	}
	return c
}

// Duplicated generates a relation with the configured number of distinct
// tuples, each repeated DuplicationFactor times.
func Duplicated(cfg DuplicationConfig) *multiset.Relation {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	attrs := make([]schema.Attribute, cfg.Attributes)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i+1), Type: value.KindInt}
	}
	r := multiset.New(schema.NewRelation("dup", attrs...))
	for i := 0; i < cfg.DistinctTuples; i++ {
		vals := make([]value.Value, cfg.Attributes)
		vals[0] = value.NewInt(int64(i))
		for j := 1; j < cfg.Attributes; j++ {
			vals[j] = value.NewInt(int64(rng.Intn(1 << 16)))
		}
		r.Add(tuple.New(vals...), uint64(cfg.DuplicationFactor))
	}
	return r
}

// JoinConfig controls the synthetic two-relation equi-join workload used by
// the optimizer and join benchmarks (E3, E9).
type JoinConfig struct {
	// LeftTuples and RightTuples are the relation sizes (defaults 2000, 200).
	LeftTuples, RightTuples int
	// KeyRange is the number of distinct join-key values (default RightTuples).
	KeyRange int
	// Skew, when positive, draws left-side keys from a Zipf-like distribution
	// with the given exponent instead of uniformly.
	Skew float64
	// Seed drives the random draws.
	Seed int64
}

func (c JoinConfig) withDefaults() JoinConfig {
	if c.LeftTuples == 0 {
		c.LeftTuples = 2000
	}
	if c.RightTuples == 0 {
		c.RightTuples = 200
	}
	if c.KeyRange == 0 {
		c.KeyRange = c.RightTuples
	}
	return c
}

// JoinPair generates a fact relation fact(key, payload) and a dimension
// relation dim(key, attr) for equi-join workloads.
func JoinPair(cfg JoinConfig) (fact, dim *multiset.Relation) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	fact = multiset.New(schema.NewRelation("fact",
		schema.Attribute{Name: "key", Type: value.KindInt},
		schema.Attribute{Name: "payload", Type: value.KindInt},
	))
	dim = multiset.New(schema.NewRelation("dim",
		schema.Attribute{Name: "key", Type: value.KindInt},
		schema.Attribute{Name: "attr", Type: value.KindInt},
	))
	var zipf *rand.Zipf
	if cfg.Skew > 1 {
		zipf = rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.KeyRange-1))
	}
	for i := 0; i < cfg.LeftTuples; i++ {
		var key int64
		if zipf != nil {
			key = int64(zipf.Uint64())
		} else {
			key = int64(rng.Intn(cfg.KeyRange))
		}
		fact.Add(tuple.Ints(key, int64(rng.Intn(1<<16))), 1)
	}
	for k := 0; k < cfg.RightTuples; k++ {
		dim.Add(tuple.Ints(int64(k%cfg.KeyRange), int64(k)), 1)
	}
	return fact, dim
}

// GraphConfig controls the random-graph generator for the transitive-closure
// experiment (E10).
type GraphConfig struct {
	// Nodes is the number of graph nodes (default 64).
	Nodes int
	// OutDegree is the average number of outgoing edges per node (default 2).
	OutDegree int
	// Seed drives the random draws.
	Seed int64
}

func (c GraphConfig) withDefaults() GraphConfig {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.OutDegree == 0 {
		c.OutDegree = 2
	}
	return c
}

// Graph generates a binary edge relation edge(src, dst) over the configured
// random graph.
func Graph(cfg GraphConfig) *multiset.Relation {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := multiset.New(schema.NewRelation("edge",
		schema.Attribute{Name: "src", Type: value.KindInt},
		schema.Attribute{Name: "dst", Type: value.KindInt},
	))
	for src := 0; src < cfg.Nodes; src++ {
		for e := 0; e < cfg.OutDegree; e++ {
			dst := rng.Intn(cfg.Nodes)
			r.Add(tuple.Ints(int64(src), int64(dst)), 1)
		}
	}
	return r
}

// AccountsSchema returns the schema of the banking example's accounts
// relation: account(id, owner, balance).
func AccountsSchema() schema.Relation {
	return schema.NewRelation("account",
		schema.Attribute{Name: "id", Type: value.KindInt},
		schema.Attribute{Name: "owner", Type: value.KindString},
		schema.Attribute{Name: "balance", Type: value.KindFloat},
	)
}

// AccountRows generates the same accounts as Accounts but as plain Go rows
// for mra.DB.InsertValues, for callers seeding a database through the public
// API rather than the storage layer.
func AccountRows(n int, seed int64) [][]any {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i), fmt.Sprintf("owner%04d", i), float64(rng.Intn(100000)) / 100}
	}
	return rows
}

// Accounts generates n bank accounts with pseudo-random balances.
func Accounts(n int, seed int64) *multiset.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := multiset.New(AccountsSchema())
	for i := 0; i < n; i++ {
		r.Add(tuple.New(
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("owner%04d", i)),
			value.NewFloat(float64(rng.Intn(100000))/100),
		), 1)
	}
	return r
}
