package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"mra"
	"mra/internal/txn"
)

// session is one TCP connection's serving state: a transaction state machine
// plus the session-local engine settings.  All fields after mu are owned by
// the session goroutine; mu only guards the busy flag the shutdown path
// inspects.
type session struct {
	id     uint64
	srv    *Server
	conn   net.Conn
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	busy bool

	// sql selects the statement language (true = SQL, false = XRA).
	sql bool
	// timeout is the per-statement deadline; zero disables.
	timeout time.Duration
	// opts are the session's per-transaction engine settings — they ride on
	// every BeginTx, so one session's \set never touches another session or
	// the database defaults.
	opts mra.TxOptions
	// tx is the open explicit transaction, nil when idle or aborted.
	tx *mra.Tx
	// aborted marks the failed-transaction state: a statement inside the
	// explicit transaction errored, so the session refuses further statements
	// until rollback (or commit, which rolls back) resets it.
	aborted bool
}

// state derives the protocol-visible session state.
func (s *session) state() SessionState {
	switch {
	case s.aborted:
		return StateAborted
	case s.tx != nil:
		return StateTxn
	default:
		return StateIdle
	}
}

// setBusy flips the in-flight flag the shutdown path inspects.
func (s *session) setBusy(b bool) {
	s.mu.Lock()
	s.busy = b
	s.mu.Unlock()
}

// closeIfIdle closes the connection unless a statement is in flight; the
// shutdown path uses it so idle sessions (including idle-in-transaction ones)
// are cut immediately while busy sessions drain.
func (s *session) closeIfIdle() {
	s.mu.Lock()
	idle := !s.busy
	s.mu.Unlock()
	if idle {
		s.conn.Close()
	}
}

// serve runs the session loop: read one command line, execute it, answer
// with one JSON line.  The loop ends on client EOF, \q, a read deadline
// (idle timeout), a write deadline (client stopped reading), or server
// shutdown; any open transaction is aborted on the way out.
func (s *session) serve() {
	defer func() {
		if s.tx != nil {
			s.tx.Abort()
			s.tx = nil
		}
		s.cancel()
		s.conn.Close()
	}()

	scanner := bufio.NewScanner(s.conn)
	scanner.Buffer(make([]byte, 64*1024), 1<<20)
	enc := json.NewEncoder(s.conn)
	for {
		if s.srv.isDraining() {
			return
		}
		s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.IdleTimeout))
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		// Stay "busy" until the response is on the wire: a graceful shutdown
		// must not cut a session between finishing a statement and delivering
		// its result.
		s.setBusy(true)
		resp, quit := s.dispatch(line)
		s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
		// The encoder writes nothing when marshalling fails, so a result
		// JSON cannot carry is answered in its place; only a write error
		// ends the session.
		err := enc.Encode(resp)
		if errors.As(err, new(*json.UnsupportedValueError)) {
			err = enc.Encode(unencodable(resp, err))
		}
		s.setBusy(false)
		if err != nil || quit {
			return
		}
	}
}

// unencodable is the error response that stands in for resp when its result
// rows hold a value JSON cannot carry (a NaN or ±Inf float).  It keeps resp's
// session state: the statement ran, so the session and its transaction carry
// on.
func unencodable(resp Response, err error) Response {
	return Response{OK: false, State: resp.State, ElapsedUS: resp.ElapsedUS,
		Error: "result cannot be encoded: " + err.Error()}
}

// dispatch executes one command line and builds its response; the second
// return value requests session close (\q).
func (s *session) dispatch(line string) (Response, bool) {
	s.srv.statements.Add(1)
	start := time.Now()
	trimmed := strings.TrimSpace(line)
	keyword := strings.ToLower(strings.TrimRight(trimmed, "; \t"))

	var resp Response
	quit := false
	switch {
	case trimmed == "":
		resp = Response{OK: true, State: s.state()}
	case keyword == `\q` || keyword == `\quit`:
		resp, quit = Response{OK: true, State: s.state()}, true
	case strings.HasPrefix(trimmed, `\`):
		resp = s.meta(trimmed)
	case keyword == "begin":
		resp = s.begin()
	case keyword == "commit" || keyword == "end":
		resp = s.commit()
	case keyword == "rollback" || keyword == "abort":
		resp = s.rollback()
	default:
		resp = s.runStatements(trimmed)
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	return resp, quit
}

// begin opens the session's explicit transaction bracket.
func (s *session) begin() Response {
	if s.aborted || s.tx != nil {
		return Response{OK: false, State: s.state(), Error: "already in a transaction"}
	}
	s.tx = s.srv.db.BeginTx(s.opts)
	return Response{OK: true, State: s.state()}
}

// commit closes the explicit transaction bracket.  Committing the aborted
// state rolls back, like the end bracket of a failed transaction: T(D) = D.
func (s *session) commit() Response {
	if s.aborted {
		s.aborted = false
		return Response{OK: false, State: s.state(), Error: "transaction aborted by an earlier error; rolled back"}
	}
	if s.tx == nil {
		return Response{OK: false, State: s.state(), Error: "no transaction in progress"}
	}
	err := s.tx.Commit()
	s.tx = nil
	if err != nil {
		return s.failure(err)
	}
	return Response{OK: true, State: s.state()}
}

// rollback abandons the explicit transaction (idempotent when idle).
func (s *session) rollback() Response {
	s.aborted = false
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
	return Response{OK: true, State: s.state()}
}

// runStatements executes a ';'-separated statement line: inside the explicit
// transaction when one is open, as its own auto-committed transaction
// otherwise.  Every execution runs under the session's lifecycle context
// stacked with the per-statement timeout.
func (s *session) runStatements(script string) Response {
	if s.aborted {
		return Response{OK: false, State: s.state(),
			Error: "current transaction is aborted; statements ignored until rollback"}
	}
	ctx := s.ctx
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	if s.tx != nil {
		s.tx.WithContext(ctx)
		results, err := execScript(s.tx, script, s.sql)
		if err != nil {
			// The failed transaction cannot commit anyway: abort it now so its
			// snapshot is released, and hold the session in the aborted state
			// until the client acknowledges with rollback.
			s.tx.Abort()
			s.tx = nil
			s.aborted = true
			return s.failure(err)
		}
		return Response{OK: true, State: s.state(), Results: resultSets(results)}
	}
	resp := s.srv.autocommit(ctx, script, s.sql, s.opts)
	resp.State = s.state()
	return resp
}

// failure builds an error response, flagging first-committer-wins conflicts
// so clients know the statement is retryable.
func (s *session) failure(err error) Response {
	return Response{
		OK:       false,
		State:    s.state(),
		Error:    err.Error(),
		Conflict: errors.Is(err, txn.ErrConflict),
	}
}

// meta handles backslash commands: the session-local engine knobs and \q.
func (s *session) meta(cmd string) Response {
	fields := strings.Fields(strings.TrimRight(cmd, "; \t"))
	fail := func(format string, args ...any) Response {
		return Response{OK: false, State: s.state(), Error: fmt.Sprintf(format, args...)}
	}
	switch fields[0] {
	case `\set`:
		if len(fields) != 3 {
			return fail(`usage: \set workers N | \set timeout <dur> | \set memlimit <bytes> | \set serializable on|off`)
		}
		switch fields[1] {
		case "workers":
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return fail("workers must be a non-negative integer, got %q", fields[2])
			}
			s.opts.Workers = n
		case "timeout":
			d, err := time.ParseDuration(fields[2])
			if err != nil || d < 0 {
				return fail("timeout must be a duration like 500ms or 2s (0 disables), got %q", fields[2])
			}
			s.timeout = d
		case "memlimit":
			n, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || n < 0 {
				return fail("memlimit must be a byte count (0 disables), got %q", fields[2])
			}
			if n == 0 {
				n = -1 // explicit off overrides the server default
			}
			s.opts.MemoryLimit = n
		case "serializable":
			switch fields[2] {
			case "on":
				s.opts.Serializable = true
			case "off":
				s.opts.Serializable = false
			default:
				return fail(`serializable must be "on" or "off", got %q`, fields[2])
			}
		default:
			return fail(`unknown setting %q`, fields[1])
		}
		return Response{OK: true, State: s.state()}
	case `\lang`:
		if len(fields) != 2 || (fields[1] != "sql" && fields[1] != "xra") {
			return fail(`usage: \lang sql|xra`)
		}
		s.sql = fields[1] == "sql"
		return Response{OK: true, State: s.state()}
	case `\state`:
		return Response{OK: true, State: s.state()}
	default:
		return fail("unknown meta-command %s", fields[0])
	}
}

// autocommit runs a statement line as one transaction: evaluate, then commit,
// aborting on any failure.  Shared by TCP autocommit statements and HTTP
// queries.
func (s *Server) autocommit(ctx context.Context, script string, sql bool, opts mra.TxOptions) Response {
	tx := s.db.BeginTx(opts).WithContext(ctx)
	results, err := execScript(tx, script, sql)
	if err == nil {
		err = tx.Commit()
	} else {
		tx.Abort()
	}
	if err != nil {
		return Response{OK: false, Error: err.Error(), Conflict: errors.Is(err, txn.ErrConflict)}
	}
	return Response{OK: true, Results: resultSets(results)}
}

// execScript runs a statement line in the session's language inside tx.
func execScript(tx *mra.Tx, script string, sql bool) ([]*mra.Result, error) {
	if sql {
		return tx.ExecSQLScript(script)
	}
	return tx.ExecXRAScript(script)
}

// resultSets converts query results into wire result sets.
func resultSets(results []*mra.Result) []ResultSet {
	if len(results) == 0 {
		return nil
	}
	out := make([]ResultSet, len(results))
	for i, r := range results {
		rows := r.Rows()
		out[i] = ResultSet{Columns: r.Columns(), Rows: rows, RowCount: len(rows)}
	}
	return out
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
