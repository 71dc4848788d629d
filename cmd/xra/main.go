// Command xra is an interactive shell and script runner for the multi-set
// extended relational algebra.  It speaks the XRA language (the PRISMA/DB-
// style textual algebra) and, with -sql, the SQL subset of the front-end.
//
// Usage:
//
//	xra                     # interactive XRA shell on an empty database
//	xra -init schema.xra    # run an initialisation script first
//	xra script.xra ...      # run scripts and exit
//	xra -sql                # interactive SQL shell
//
// Inside the shell, statements end with ';'.  `begin ... end;` groups
// statements into one transaction.  Ctrl-C cancels the running statement
// (the transaction aborts, the database stays unchanged); pressing it at the
// prompt exits.  The meta-commands are:
//
//	\d                  list relations
//	\d name             show a relation's schema and cardinality
//	\explain <expr>     show the parsed expression and physical plan of an XRA expression
//	\stats name         show a relation's optimizer statistics (run analyze(name) first)
//	\set workers N      set the parallel worker count (1 = serial, 0 = auto)
//	\set timeout <dur>  set a per-statement deadline (e.g. 500ms, 2s; 0 = off)
//	\set memlimit <n>   set a per-query memory budget in bytes (0 = off)
//	\time on|off        toggle per-statement timing
//	\q                  quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"mra"
	"mra/internal/xraparse"
)

func main() {
	sqlMode := flag.Bool("sql", false, "interpret input as SQL instead of XRA")
	initScript := flag.String("init", "", "XRA script to run before the shell starts")
	flag.Parse()

	db := mra.Open()
	if *initScript != "" {
		data, err := os.ReadFile(*initScript)
		if err != nil {
			fatal(err)
		}
		if _, err := db.ExecXRA(string(data)); err != nil {
			fatal(err)
		}
	}

	// Script mode: run every file argument and exit.
	if flag.NArg() > 0 {
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fatal(err)
			}
			if err := runScript(context.Background(), db, string(data), *sqlMode, os.Stdout); err != nil {
				fatal(err)
			}
		}
		return
	}

	repl(db, *sqlMode, os.Stdin, os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xra:", err)
	os.Exit(1)
}

// runScript executes a whole script in the selected language under the given
// lifecycle context, printing query outputs as tables.
func runScript(ctx context.Context, db *mra.DB, script string, sqlMode bool, out io.Writer) error {
	var results []*mra.Result
	var err error
	if sqlMode {
		results, err = db.ExecSQLContext(ctx, script)
	} else {
		results, err = db.ExecXRAContext(ctx, script)
	}
	for _, r := range results {
		fmt.Fprintln(out, r.Table())
	}
	return err
}

// statementCtx builds the lifecycle context of one statement execution: the
// per-statement deadline (when set) stacked on Ctrl-C cancellation.  The
// returned stop must be called when the statement finishes, so a later Ctrl-C
// at the prompt is not swallowed by a dead context.
func statementCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if timeout <= 0 {
		return ctx, stop
	}
	dctx, cancel := context.WithTimeout(ctx, timeout)
	return dctx, func() { cancel(); stop() }
}

// repl runs the interactive shell.
func repl(db *mra.DB, sqlMode bool, in io.Reader, out io.Writer) {
	lang := "xra"
	if sqlMode {
		lang = "sql"
	}
	fmt.Fprintf(out, "multi-set extended relational algebra shell (%s mode); \\q quits\n", lang)
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	timing := false
	var timeout time.Duration
	prompt := func() { fmt.Fprintf(out, "%s> ", lang) }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "\\") && buf.Len() == 0 {
			if handleMeta(db, trimmed, &timing, &timeout, out) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") || !sqlMode && xraparse.OpenBlock(buf.String()) {
			fmt.Fprint(out, "... ")
			continue
		}
		start := time.Now()
		ctx, stop := statementCtx(timeout)
		err := runScript(ctx, db, buf.String(), sqlMode, out)
		stop()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		}
		if timing {
			fmt.Fprintf(out, "time: %v\n", time.Since(start))
		}
		buf.Reset()
		prompt()
	}
}

// handleMeta processes a backslash meta-command; it returns true when the
// shell should exit.
func handleMeta(db *mra.DB, cmd string, timing *bool, timeout *time.Duration, out io.Writer) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\d":
		if len(fields) == 1 {
			for _, name := range db.Relations() {
				fmt.Fprintf(out, "%s (%d tuples)\n", name, db.Cardinality(name))
			}
			return false
		}
		name := fields[1]
		rel, ok := db.Catalog().RelationSchema(name)
		if !ok {
			fmt.Fprintf(out, "no such relation %q\n", name)
			return false
		}
		fmt.Fprintf(out, "%s (%d tuples)\n", rel, db.Cardinality(name))
	case "\\set":
		if len(fields) != 3 {
			fmt.Fprintln(out, "usage: \\set workers N | \\set timeout <dur> | \\set memlimit <bytes>")
			return false
		}
		switch fields[1] {
		case "workers":
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				fmt.Fprintf(out, "workers must be an integer, got %q\n", fields[2])
				return false
			}
			db.SetWorkers(n)
			fmt.Fprintf(out, "workers: %d\n", db.Workers())
		case "timeout":
			d, err := time.ParseDuration(fields[2])
			if err != nil || d < 0 {
				fmt.Fprintf(out, "timeout must be a duration like 500ms or 2s (0 disables), got %q\n", fields[2])
				return false
			}
			*timeout = d
			if d == 0 {
				fmt.Fprintln(out, "timeout: off")
			} else {
				fmt.Fprintf(out, "timeout: %v\n", d)
			}
		case "memlimit":
			n, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || n < 0 {
				fmt.Fprintf(out, "memlimit must be a byte count (0 disables), got %q\n", fields[2])
				return false
			}
			db.SetMemoryLimit(n)
			if n == 0 {
				fmt.Fprintln(out, "memlimit: off")
			} else {
				fmt.Fprintf(out, "memlimit: %d bytes\n", n)
			}
		default:
			fmt.Fprintln(out, "usage: \\set workers N | \\set timeout <dur> | \\set memlimit <bytes>")
		}
	case "\\time":
		if len(fields) > 1 && fields[1] == "on" {
			*timing = true
		} else if len(fields) > 1 && fields[1] == "off" {
			*timing = false
		} else {
			*timing = !*timing
		}
		fmt.Fprintf(out, "timing: %v\n", *timing)
	case "\\explain":
		expr := strings.TrimSpace(strings.TrimPrefix(cmd, "\\explain"))
		ex, err := db.Explain(expr)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		fmt.Fprintln(out, "original :", ex.Logical)
		if ex.Workers > 1 {
			fmt.Fprintln(out, "workers  :", ex.Workers)
		}
		fmt.Fprintln(out, "physical :")
		for _, line := range strings.Split(ex.Physical, "\n") {
			fmt.Fprintln(out, "  "+line)
		}
	case "\\stats":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\stats <relation>")
			return false
		}
		name := fields[1]
		st, ok := db.RelationStats(name)
		if !ok {
			if _, exists := db.Catalog().RelationSchema(name); !exists {
				fmt.Fprintf(out, "no such relation %q\n", name)
			} else {
				fmt.Fprintf(out, "no statistics for %q; run analyze(%s); first\n", name, name)
			}
			return false
		}
		fmt.Fprintf(out, "%s: %d rows, ~%d distinct tuples (version %d)\n",
			st.Relation, st.Rows, st.DistinctTuples, st.Version)
		for i, c := range st.Columns {
			label := c.Name
			if label == "" {
				label = fmt.Sprintf("%%%d", i+1)
			}
			fmt.Fprintf(out, "  %s: ndv~%d nulls=%.1f%%", label, c.NDV, 100*c.NullFraction)
			if c.Min != "" || c.Max != "" {
				fmt.Fprintf(out, " range=[%s .. %s]", c.Min, c.Max)
			}
			if c.HistogramBuckets > 0 {
				fmt.Fprintf(out, " histogram=%d buckets", c.HistogramBuckets)
			}
			fmt.Fprintln(out)
		}
	default:
		fmt.Fprintf(out, "unknown meta-command %s\n", fields[0])
	}
	return false
}
