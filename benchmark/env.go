package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"mra"
	"mra/internal/server"
)

// spec is one workload.
type spec struct {
	Name string
	// Why is the one sentence BENCHMARK.json carries for the workload.
	Why string
	// Deck is a served workload's op mix; nil for the olap workloads.
	Deck []kindWeight
	// Workers is an olap workload's mra.DB worker count.
	Workers int
	// StagedOps is the fixed op count of the traced replay.
	StagedOps int
}

func (s *spec) served() bool { return s.Deck != nil }

// kinds lists the workload's op kinds in a fixed order.
func (s *spec) kinds() []string {
	var out []string
	if s.served() {
		for _, w := range s.Deck {
			out = append(out, w.Kind)
		}
		return out
	}
	for _, q := range olapQueries {
		out = append(out, q.Kind)
	}
	return out
}

const (
	clients    = 2  // closed-loop sessions of the served workloads
	maxRetries = 10 // conflict retries before a transaction counts as failed
)

var specs = []spec{
	{
		Name:      "bank_mix",
		Why:       "served SQL transactions, half aggregate reads and half two-update transfers, some on a hot set: every layer on the wire path plus stmt.Update, multiset.Diff, key-log validation and install",
		Deck:      bankMixDeck,
		StagedOps: 1200,
	},
	{
		Name:      "bank_read",
		Why:       "same server and data, auto-committed reads only: per-statement fixed costs (wire, sqlfront, planner, row boxing, JSON) dominate and the commit path does nothing, so commit-path work must not move it",
		Deck:      bankReadDeck,
		StagedOps: 4000,
	},
	{
		Name:      "olap_serial",
		Why:       "library callers, six analytic XRA/SQL queries round-robin at one worker: execute-dominated (operators, kernels, hash build and probe, group tables, join enumeration); server and commit path idle",
		Workers:   1,
		StagedOps: 102, // seventeen turns of the six queries
	},
	{
		Name:      "olap_parallel",
		Why:       "identical data and queries at two workers: the same plan layer through gangs, morsel queues and merges, so a serial win that taxes the exchange path, or speed bought with CPU, shows here",
		Workers:   2,
		StagedOps: 102, // seventeen turns of the six queries
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i]
		}
	}
	return nil
}

// env is one loaded database, with a server and client sessions around it
// for the served workloads.
type env struct {
	db *mra.DB
	// sum0 is Σ balance at load time, the bank workloads' invariant.
	sum0 float64

	srv      *server.Server
	addr     string
	served   chan error // Serve's return value
	sessions []*server.Client
	streams  []*opStream // one per session
	bytesOut atomic.Int64

	// refs holds, per olap query, the bag every execution must return.
	refs map[string]bagSum
}

func (s *spec) data(seed int64) []relation {
	if s.served() {
		return bankData(seed)
	}
	return olapData(seed)
}

// openDB generates the workload's data, loads it through the facade and
// analyzes it.
func openDB(ctx context.Context, s *spec, seed int64) (*env, error) {
	e := &env{db: mra.Open()}
	for _, r := range s.data(seed) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cols := make([]mra.Column, len(r.Cols))
		for i, c := range r.Cols {
			t := mra.Int
			switch c.Kind {
			case 'f':
				t = mra.Float
			case 's':
				t = mra.String
			}
			cols[i] = mra.Col(c.Name, t)
		}
		if err := e.db.CreateRelation(r.Name, cols...); err != nil {
			return nil, err
		}
		if err := e.db.InsertValues(r.Name, r.Rows...); err != nil {
			return nil, err
		}
		if r.Name == "account" {
			for _, row := range r.Rows {
				e.sum0 += row[2].(float64)
			}
		}
	}
	if err := e.db.Analyze(""); err != nil {
		return nil, err
	}
	if !s.served() {
		e.db.SetWorkers(s.Workers)
	}
	return e, nil
}

// setup loads the workload's data and makes it ready to serve.  For an olap
// workload that is every query once at one worker, which yields the
// reference bags; for a served workload it is an in-process server on a
// loopback listener and the client sessions.
func setup(ctx context.Context, s *spec, seed int64) (*env, error) {
	e, err := openDB(ctx, s, seed)
	if err != nil {
		return nil, err
	}
	if !s.served() {
		e.refs, err = olapReference(ctx, e, seed)
		return e, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(e.db, server.Config{MaxSessions: clients})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(countingListener{ln, &e.bytesOut}) }()
	e.srv, e.served, e.addr = srv, served, ln.Addr().String()
	for i := 0; i < clients; i++ {
		c, err := server.Dial(e.addr, 30*time.Second)
		if err != nil {
			e.close()
			return nil, err
		}
		e.sessions = append(e.sessions, c)
		e.streams = append(e.streams, newOpStream(s.Deck, clientSeed(seed, i)))
	}
	return e, nil
}

// hangUp closes the client connections, which unblocks any request in flight.
func (e *env) hangUp() {
	for _, c := range e.sessions {
		c.Close()
	}
	e.sessions = nil
}

// close hangs up, shuts the server down and waits until Serve has returned:
// after it no goroutine, connection or listener of the environment is left.
// It has its own 5 s budget instead of the run's context, because it is the
// clean-up that runs when that context has already ended.
func (e *env) close() error {
	e.hangUp()
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	select {
	case serveErr := <-e.served:
		if !errors.Is(serveErr, server.ErrServerClosed) && err == nil {
			err = serveErr
		}
	case <-ctx.Done():
		err = errors.Join(err, errors.New("Serve did not return within 5 s of Shutdown"))
	}
	e.srv = nil
	return err
}

// checkBank verifies the bank invariants: transfers neither create nor lose
// rows or money.
func (e *env) checkBank() error {
	res, err := e.db.QuerySQL("select count(*), sum(balance) from account")
	if err != nil {
		return err
	}
	rows := res.Rows()
	if len(rows) != 1 || len(rows[0]) != 2 {
		return fmt.Errorf("bank check: unexpected result shape %v", rows)
	}
	if n, _ := rows[0][0].(int64); n != bankAccounts {
		return fmt.Errorf("bank check: %v rows, want %d", rows[0][0], bankAccounts)
	}
	total, _ := rows[0][1].(float64)
	if math.Abs(total-e.sum0) >= 0.005 {
		return fmt.Errorf("bank check: sum(balance) = %.4f, want %.4f", total, e.sum0)
	}
	return nil
}

// countingListener counts the bytes the server writes to its connections.
type countingListener struct {
	net.Listener
	out *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.out}, nil
}

type countingConn struct {
	net.Conn
	out *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
