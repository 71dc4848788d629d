package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mra"
	"mra/internal/plan"
	"mra/internal/workload"
)

// startTestServer serves a seeded banking database on an ephemeral loopback
// port and returns the server plus its address.
func startTestServer(t testing.TB, accounts int, cfg Config) (*Server, string) {
	t.Helper()
	db := mra.Open()
	db.MustCreateRelation("account",
		mra.Col("id", mra.Int), mra.Col("owner", mra.String), mra.Col("balance", mra.Float))
	if err := db.InsertValues("account", workload.AccountRows(accounts, 7)...); err != nil {
		t.Fatal(err)
	}
	return serveDB(t, db, cfg)
}

// serveDB serves db on an ephemeral loopback port until the test ends and
// returns the server plus its address.
func serveDB(t testing.TB, db *mra.DB, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(db, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, l.Addr().String()
}

// mustDo sends a line and fails the test on a transport error.
func mustDo(t *testing.T, cl *Client, line string) Response {
	t.Helper()
	resp, err := cl.Do(line)
	if err != nil {
		t.Fatalf("Do(%q): %v", line, err)
	}
	return resp
}

func TestProtocolBasics(t *testing.T) {
	srv, addr := startTestServer(t, 16, Config{})
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// do sends one command line and counts it for the server's counter.
	var sent uint64
	do := func(line string) Response {
		t.Helper()
		sent++
		return mustDo(t, cl, line)
	}

	resp := do("select count(*) from account;")
	if !resp.OK || len(resp.Results) != 1 || resp.Results[0].RowCount != 1 {
		t.Fatalf("autocommit select failed: %+v", resp)
	}
	if got := resp.Results[0].Rows[0][0]; got != float64(16) && got != int64(16) {
		t.Fatalf("count = %v, want 16", got)
	}

	// Explicit transaction: update inside, visible after commit.
	if resp := do("begin"); !resp.OK || resp.State != StateTxn {
		t.Fatalf("begin: %+v", resp)
	}
	if resp := do("update account set balance = 0 where id = 3;"); !resp.OK {
		t.Fatalf("update in txn: %+v", resp)
	}
	if resp := do("commit"); !resp.OK || resp.State != StateIdle {
		t.Fatalf("commit: %+v", resp)
	}
	resp = do("select balance from account where id = 3;")
	if !resp.OK || resp.Results[0].Rows[0][0] != float64(0) {
		t.Fatalf("committed update not visible: %+v", resp)
	}

	// A statement error inside a transaction forces the aborted state until
	// rollback; commit in that state rolls back with ok=false.
	do("begin")
	if resp := do("select nope from nothing;"); resp.OK || resp.State != StateAborted {
		t.Fatalf("bad statement should abort the transaction: %+v", resp)
	}
	if resp := do("select count(*) from account;"); resp.OK {
		t.Fatalf("aborted session must reject statements: %+v", resp)
	}
	if resp := do("rollback"); !resp.OK || resp.State != StateIdle {
		t.Fatalf("rollback should clear the aborted state: %+v", resp)
	}

	// Session knobs.
	if resp := do(`\set workers 2`); !resp.OK {
		t.Fatalf("\\set workers: %+v", resp)
	}
	if resp := do(`\set serializable on`); !resp.OK {
		t.Fatalf("\\set serializable: %+v", resp)
	}
	if resp := do(`\set bogus 1`); resp.OK {
		t.Fatalf("unknown setting must fail: %+v", resp)
	}
	if resp := do(`\set timeout 50ms`); !resp.OK {
		t.Fatalf("\\set timeout: %+v", resp)
	}

	if got := srv.Statements(); got != sent {
		t.Errorf("Statements() = %d, the client sent %d command lines", got, sent)
	}
	if got := srv.Refused(); got != 0 {
		t.Errorf("Refused() = %d, the client saw no refusal", got)
	}
}

// TestFirstCommitterWinsOverWire drives the key-granular conflict semantics
// end to end over the wire: two sessions updating disjoint keys of the same
// relation both commit, while two sessions updating the same key produce
// exactly one winner — the loser's commit fails with the conflict flag set.
func TestFirstCommitterWinsOverWire(t *testing.T) {
	_, addr := startTestServer(t, 16, Config{})
	a, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Disjoint keys: both writers of the same relation must commit.
	mustDo(t, a, "begin")
	mustDo(t, b, "begin")
	if resp := mustDo(t, a, "update account set balance = balance + 1 where id = 0;"); !resp.OK {
		t.Fatalf("a's update: %+v", resp)
	}
	if resp := mustDo(t, b, "update account set balance = balance + 2 where id = 1;"); !resp.OK {
		t.Fatalf("b's update: %+v", resp)
	}
	if resp := mustDo(t, a, "commit"); !resp.OK {
		t.Fatalf("disjoint-key writer a must commit: %+v", resp)
	}
	if resp := mustDo(t, b, "commit"); !resp.OK || resp.Conflict {
		t.Fatalf("disjoint-key writer b must commit without conflict: %+v", resp)
	}

	// Overlapping key: the second committer must lose with the conflict flag.
	mustDo(t, a, "begin")
	mustDo(t, b, "begin")
	if resp := mustDo(t, a, "update account set balance = balance + 1 where id = 0;"); !resp.OK {
		t.Fatalf("a's update: %+v", resp)
	}
	if resp := mustDo(t, b, "update account set balance = balance + 2 where id = 0;"); !resp.OK {
		t.Fatalf("b's update: %+v", resp)
	}
	if resp := mustDo(t, a, "commit"); !resp.OK {
		t.Fatalf("first committer must win: %+v", resp)
	}
	resp := mustDo(t, b, "commit")
	if resp.OK || !resp.Conflict {
		t.Fatalf("second committer must lose with the conflict flag: %+v", resp)
	}

	// Both updates landed: id 0 carries a's +1 from the overlap round plus
	// its +1 from the disjoint round.
	mustDo(t, a, "begin")
	check := mustDo(t, a, "select balance from account where id = 0;")
	if !check.OK || len(check.Results) != 1 {
		t.Fatalf("reading id 0 back: %+v", check)
	}
	mustDo(t, a, "commit")
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	srv, addr := startTestServer(t, 2000, Config{})
	cl, err := Dial(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Fire a deliberately expensive statement, then shut down while it runs.
	type result struct {
		resp Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := cl.Do("select count(*) from account a, account b where a.balance < b.balance;")
		done <- result{resp, err}
	}()

	// Wait until the statement is actually in flight.
	busy := func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for sess := range srv.sessions {
			sess.mu.Lock()
			b := sess.busy
			sess.mu.Unlock()
			if b {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for !busy() {
		if time.Now().After(deadline) {
			t.Fatal("statement never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown should drain, got %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight statement lost its response: %v", res.err)
	}
	if !res.resp.OK {
		t.Fatalf("drained statement should succeed: %+v", res.resp)
	}
}

func TestShutdownAbortsIdleInTransaction(t *testing.T) {
	srv, addr := startTestServer(t, 8, Config{})
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mustDo(t, cl, "begin")
	if resp := mustDo(t, cl, "update account set balance = -1 where id = 0;"); !resp.OK {
		t.Fatalf("update: %+v", resp)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with only an idle-in-txn session should drain: %v", err)
	}
	// The uncommitted update must be gone.
	res, err := srv.DB().QuerySQL("select balance from account where id = 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0] == float64(-1) {
		t.Fatal("uncommitted update survived shutdown")
	}
}

func TestSlowClientCannotWedgeServer(t *testing.T) {
	srv, addr := startTestServer(t, 8, Config{IdleTimeout: 50 * time.Millisecond})

	// A client that connects and never sends anything must be cut by the idle
	// deadline rather than holding its session slot forever.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the server to close the silent connection")
	}

	// The listener must still serve new clients.
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp := mustDo(t, cl, "select count(*) from account;"); !resp.OK {
		t.Fatalf("server wedged after slow client: %+v", resp)
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveSessions() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session never reaped: %d active", srv.ActiveSessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMaxSessionsRefusal(t *testing.T) {
	srv, addr := startTestServer(t, 8, Config{MaxSessions: 1})
	first, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	mustDo(t, first, "select count(*) from account;")

	second, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	resp, err := second.Do("select count(*) from account;")
	if err != nil {
		// The refusal response is written before our command line is read, so
		// reading it directly is also acceptable.
		t.Fatalf("expected a refusal response, got transport error %v", err)
	}
	if resp.OK || !strings.Contains(resp.Error, "session limit") {
		t.Fatalf("expected a session-limit refusal, got %+v", resp)
	}
	if got := srv.Refused(); got != 1 {
		t.Fatalf("Refused() = %d, the client saw one refusal", got)
	}
}

func TestHTTPFrontEnd(t *testing.T) {
	srv, _ := startTestServer(t, 16, Config{})
	hs := httptest.NewServer(srv.HTTPHandler())
	defer hs.Close()

	resp, err := hs.Client().Post(hs.URL+"/query", "text/plain",
		strings.NewReader("select count(*) from account"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST /query status %d", resp.StatusCode)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if !r.OK || len(r.Results) != 1 {
		t.Fatalf("http query: %+v", r)
	}

	health, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != 200 {
		t.Fatalf("GET /healthz status %d", health.StatusCode)
	}

	bad, err := hs.Client().Post(hs.URL+"/query", "application/json",
		strings.NewReader(`{"query": "select nope from nothing"}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode == 200 {
		t.Fatal("bad query should not return 200")
	}
}

func TestStatementTimeout(t *testing.T) {
	_, addr := startTestServer(t, 3000, Config{})
	cl, err := Dial(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp := mustDo(t, cl, `\set timeout 1ms`); !resp.OK {
		t.Fatalf("\\set timeout: %+v", resp)
	}
	resp := mustDo(t, cl, "select count(*) from account a, account b where a.balance < b.balance;")
	if resp.OK {
		t.Fatalf("statement should exceed its 1ms deadline: %+v", resp)
	}
	if !strings.Contains(resp.Error, "deadline") && !strings.Contains(resp.Error, "cancel") {
		t.Fatalf("expected a deadline error, got %q", resp.Error)
	}
}

// TestConcurrentBankSoak is the serving-layer soak: eight sessions share one
// server, half their traffic two-update transfers among four hot accounts
// (begin/commit, retried on conflict), half auto-committed aggregate reads.
// Run under -race it exercises concurrent snapshots, commits, conflict
// retries and the session machinery at once.
func TestConcurrentBankSoak(t *testing.T) {
	duration := 2 * time.Second
	if testing.Short() {
		duration = 500 * time.Millisecond
	}
	srv, addr := startTestServer(t, 256, Config{})
	seeded := bankTotal(t, srv.DB())

	var commits, conflicts, reads atomic.Int64
	deadline := time.Now().Add(duration)
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			cl, err := Dial(addr, 30*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for time.Now().Before(deadline) {
				if rng.Intn(2) == 0 {
					resp, err := cl.Do(fmt.Sprintf(
						"select count(*), sum(balance) from account where balance > %d;", rng.Intn(900)))
					if err == nil && (!resp.OK || resp.Conflict) {
						err = fmt.Errorf("read-only statement failed: %+v", resp)
					}
					if err != nil {
						errs <- err
						return
					}
					reads.Add(1)
					continue
				}
				from := rng.Intn(4)
				to := (from + 1 + rng.Intn(3)) % 4
				amt := float64(1+rng.Intn(500)) / 100
				for {
					resp, err := transfer(cl, from, to, amt)
					if err == nil && !resp.OK && !resp.Conflict {
						err = fmt.Errorf("non-conflict transfer failure: %+v", resp)
					}
					if err != nil {
						errs <- err
						return
					}
					if resp.OK {
						commits.Add(1)
						break
					}
					conflicts.Add(1)
				}
			}
		}(rand.New(rand.NewSource(int64(42 + i))))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("soak: commits=%d conflicts=%d reads=%d", commits.Load(), conflicts.Load(), reads.Load())
	if commits.Load() == 0 || reads.Load() == 0 {
		t.Fatal("transfers and read-only statements must both commit")
	}
	if conflicts.Load() == 0 {
		t.Fatal("8 saturating sessions over 4 hot accounts must produce first-committer-wins conflicts")
	}
	if got := bankTotal(t, srv.DB()); got != seeded {
		t.Fatalf("transfers must conserve money: sum(balance) %d cents after, %d seeded", got, seeded)
	}
}

// transfer moves amt between two accounts in one explicit transaction and
// returns the response that ended it, rolling back a transaction a failed
// statement left aborted.
func transfer(cl *Client, from, to int, amt float64) (Response, error) {
	var resp Response
	var err error
	for _, line := range []string{
		"begin",
		fmt.Sprintf("update account set balance = balance - %.2f where id = %d;", amt, from),
		fmt.Sprintf("update account set balance = balance + %.2f where id = %d;", amt, to),
		"commit",
	} {
		if resp, err = cl.Do(line); err != nil || !resp.OK {
			break
		}
	}
	if err == nil && resp.State == StateAborted {
		_, err = cl.Do("rollback")
	}
	return resp, err
}

// bankTotal returns sum(balance) over all accounts in whole cents.
func bankTotal(t *testing.T, db *mra.DB) int64 {
	t.Helper()
	res, err := db.QuerySQL("select sum(balance) from account")
	if err != nil {
		t.Fatal(err)
	}
	return int64(math.Round(res.Rows()[0][0].(float64) * 100))
}

// TestOrderByMemoryBudgetOverWire pins the served ORDER BY on the physical
// Sort operator: the session's memory budget applies to the sort, so sorting
// a 5000-row table under 64 KiB fails with the budget error while the same
// session scans the table unsorted.
func TestOrderByMemoryBudgetOverWire(t *testing.T) {
	db := mra.Open()
	db.MustCreateRelation("t", mra.Col("a", mra.Int), mra.Col("b", mra.Int))
	rows := make([][]any, 5000)
	for i := range rows {
		rows[i] = []any{i, i % 97}
	}
	if err := db.InsertValues("t", rows...); err != nil {
		t.Fatal(err)
	}
	_, addr := serveDB(t, db, Config{})
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp := mustDo(t, cl, `\set memlimit 65536`); !resp.OK {
		t.Fatalf("\\set memlimit: %+v", resp)
	}
	if resp := mustDo(t, cl, "select a, b from t;"); !resp.OK || resp.Results[0].RowCount != 5000 {
		t.Fatalf("an unordered scan must fit the budget: %+v", resp.Error)
	}
	resp := mustDo(t, cl, "select a, b from t order by b desc, a;")
	if resp.OK || !strings.Contains(resp.Error, plan.ErrMemoryBudget.Error()) {
		t.Fatalf("ordered scan: ok=%v error=%q, want the memory budget", resp.OK, resp.Error)
	}
}

// TestXRAOverWire drives the XRA front end through a session: an
// auto-committed query, an insert inside begin/commit, and a begin … end
// block sent inside an open transaction, which is rejected and aborts it.
func TestXRAOverWire(t *testing.T) {
	_, addr := startTestServer(t, 16, Config{})
	cl, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp := mustDo(t, cl, `\lang xra`); !resp.OK {
		t.Fatalf("\\lang xra: %+v", resp)
	}
	resp := mustDo(t, cl, "? project[%2](select[%1 = 3](account));")
	if !resp.OK || resp.State != StateIdle || len(resp.Results) != 1 || resp.Results[0].RowCount != 1 {
		t.Fatalf("auto-committed XRA query: %+v", resp)
	}

	mustDo(t, cl, "begin")
	if resp := mustDo(t, cl, "insert(account, [(100, 'zed', 5.0)]);"); !resp.OK || resp.State != StateTxn {
		t.Fatalf("XRA insert in a transaction: %+v", resp)
	}
	if resp := mustDo(t, cl, "commit"); !resp.OK {
		t.Fatalf("commit: %+v", resp)
	}
	resp = mustDo(t, cl, "select[%1 = 100](account);")
	if !resp.OK || resp.Results[0].RowCount != 1 || resp.Results[0].Rows[0][1] != "zed" {
		t.Fatalf("committed XRA insert not visible: %+v", resp)
	}

	mustDo(t, cl, "begin")
	if resp := mustDo(t, cl, "begin ? account; end;"); resp.OK || resp.State != StateAborted ||
		!strings.Contains(resp.Error, "begin/end") {
		t.Fatalf("a begin … end block inside a transaction must be rejected: %+v", resp)
	}
	if resp := mustDo(t, cl, "rollback"); !resp.OK || resp.State != StateIdle {
		t.Fatalf("rollback: %+v", resp)
	}
}

// TestHTTPLang checks the per-request language of POST /query: "xra" runs
// XRA, and an unknown language is a 400.
func TestHTTPLang(t *testing.T) {
	srv, _ := startTestServer(t, 16, Config{})
	hs := httptest.NewServer(srv.HTTPHandler())
	defer hs.Close()
	post := func(body string) (int, Response) {
		t.Helper()
		resp, err := hs.Client().Post(hs.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, r
	}
	if code, r := post(`{"query": "? select[%1 = 3](account)", "lang": "xra"}`); code != http.StatusOK ||
		!r.OK || len(r.Results) != 1 || r.Results[0].RowCount != 1 {
		t.Fatalf("lang xra: status %d, %+v", code, r)
	}
	if code, r := post(`{"query": "select count(*) from account", "lang": "cobol"}`); code != http.StatusBadRequest || r.OK {
		t.Fatalf("unknown lang: status %d, %+v", code, r)
	}
}
