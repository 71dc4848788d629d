package server

// The xraserve wire protocol is deliberately minimal: the client sends one
// command per line of plain text, the server answers each line with exactly
// one JSON object on a single line.  Commands are either transaction-control
// words (begin / commit / rollback), backslash meta-commands mirroring the
// shell's knobs (\set workers N, \set timeout 500ms, \set memlimit 1048576,
// \set serializable on, \lang sql|xra, \q), or statements in the session's
// language.  A line may carry several ';'-separated statements; they execute
// in order inside one transaction bracket.  A result JSON cannot carry (a
// NaN or ±Inf float) is answered with an error response; the statement has
// run, and the session state it reports stands.
//
// The same Response shape is served over HTTP by POST /query, which runs its
// payload as one auto-committed transaction — curl-able without any client.

// SessionState names the per-session transaction state machine's states.
type SessionState string

// The session states: outside any transaction, inside an open transaction,
// and inside a transaction that failed and must be rolled back before the
// session accepts statements again.
const (
	StateIdle    SessionState = "idle"
	StateTxn     SessionState = "txn"
	StateAborted SessionState = "aborted"
)

// Response is the server's answer to one command line (or one HTTP query).
type Response struct {
	// OK reports whether the command succeeded.
	OK bool `json:"ok"`
	// State is the session's transaction state after the command.
	State SessionState `json:"state"`
	// Error holds the failure message when OK is false.
	Error string `json:"error,omitempty"`
	// Conflict is set when the failure was a first-committer-wins write
	// conflict — the canonical retry signal for clients.
	Conflict bool `json:"conflict,omitempty"`
	// Results carries one result set per query statement of the command.
	Results []ResultSet `json:"results,omitempty"`
	// ElapsedUS is the server-side execution time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
}

// ResultSet is one query statement's materialised output.
type ResultSet struct {
	// Columns names the result columns.
	Columns []string `json:"columns"`
	// Rows holds the result rows in presentation order (ORDER BY order when
	// the query gave one); values are JSON numbers, strings, booleans or
	// null.
	Rows [][]any `json:"rows"`
	// RowCount is len(Rows), duplicated for clients that discard Rows.
	RowCount int `json:"row_count"`
}
