package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer.  Spans of one op share Op; Parent is
// the span that caused this one (-1 for the op's root).  A probe span times
// work the harness does on the layer's inputs purely to measure it
// (multiset.Diff ahead of Commit): it is subtracted from every enclosing span
// and from the op, so it never counts as time the op took.
type span struct {
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // op kind, on root spans only
	Op     int32  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

// tracer records spans in memory.  It is used from the single goroutine of
// the staged replay, so it needs no lock; with on == false every call is a
// compare and a return, which is the no-op tracer the overhead figure is
// measured against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	cur   int32
	op    int32
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), cur: -1}
}

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: t.cur, Start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.cur = s.Parent
}

// beginOp opens the root span of the next op.
func (t *tracer) beginOp(kind string) int32 {
	if !t.on {
		return -1
	}
	t.op++
	t.cur = -1
	id := t.begin("op")
	t.spans[id].Kind = kind
	return id
}

func (t *tracer) beginProbe(name string) int32 {
	id := t.begin(name)
	if id >= 0 {
		t.spans[id].Probe = true
	}
	return id
}

// writeJSONL writes the spans one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opTrace is one op's time broken down by stage.
type opTrace struct {
	Kind string
	// Dur is the root span's duration with probe time taken out.
	Dur int64
	// Self maps a stage name to its self time in this op: each span's duration
	// minus the part its child spans cover, summed over the stage's spans.
	// The root's own self time is under "op": time between layer calls that no
	// layer span accounts for.
	Self map[string]int64
	// Probe maps a probe's name to the time it took.
	Probe map[string]int64
}

// selfTimes folds spans into per-op stage self times.
func selfTimes(spans []span) []opTrace {
	children := make([]int64, len(spans)) // time covered by direct children
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] += spans[i].End - spans[i].Start
		}
	}
	var out []opTrace
	index := map[int32]int{}
	for i := range spans {
		s := &spans[i]
		j, ok := index[s.Op]
		if !ok {
			j = len(out)
			index[s.Op] = j
			out = append(out, opTrace{Self: map[string]int64{}, Probe: map[string]int64{}})
		}
		o := &out[j]
		dur := s.End - s.Start
		switch {
		case s.Probe:
			o.Probe[s.Name] += dur
			o.Dur -= dur
		case s.Parent < 0:
			o.Kind = s.Kind
			o.Dur += dur
			o.Self["op"] += dur - children[i]
		default:
			o.Self[s.Name] += dur - children[i]
		}
	}
	return out
}

// The stages every traced run reports.  txn.commit and multiset.diff are
// measured; storage.install is their difference.
var stageNames = []string{
	"sqlfront.compile", "xraparse.parse", "algebra.validate", "rewrite.rewrite",
	"plan.plan", "plan.execute", "stmt.apply", "txn.begin", "txn.commit",
	"multiset.diff", "storage.install", "mra.rows", "server.encode",
}

// stageTime returns the op's time in a stage, and whether the op has it.
func (o *opTrace) stageTime(stage string) (int64, bool) {
	switch stage {
	case "multiset.diff":
		d, ok := o.Probe[stage]
		return d, ok
	case "storage.install":
		c, ok := o.Self["txn.commit"]
		if !ok {
			return 0, false
		}
		if d := c - o.Probe["multiset.diff"]; d > 0 {
			return d, true
		}
		return 0, true
	}
	d, ok := o.Self[stage]
	return d, ok
}

// stageSummary is one stage's p50 per op that has it and its share of all
// traced time.
type stageSummary struct {
	P50us float64
	Share float64
	N     int
}

func summariseStage(ops []opTrace, stage string) stageSummary {
	var per []float64
	var total, all int64
	for i := range ops {
		all += ops[i].Dur
		if d, ok := ops[i].stageTime(stage); ok {
			per = append(per, float64(d)/1e3)
			total += d
		}
	}
	return stageSummary{P50us: median(per), Share: ratio(float64(total), float64(all)), N: len(per)}
}

// coverage is the share of traced time that layer spans account for; the
// rest is the roots' own self time, i.e. dark time between layer calls.
func coverage(ops []opTrace) float64 {
	var covered, all int64
	for i := range ops {
		all += ops[i].Dur
		covered += ops[i].Dur - ops[i].Self["op"]
	}
	return ratio(float64(covered), float64(all))
}

// whereTable renders the "where the time goes" table: one column per op
// kind, one row per stage, each cell the stage's p50 self time per op and its
// share of that kind's traced time.
func whereTable(ops []opTrace, kinds []string) string {
	byKind := map[string][]opTrace{}
	for _, o := range ops {
		byKind[o.Kind] = append(byKind[o.Kind], o)
	}
	var b strings.Builder
	b.WriteString("| stage |")
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s |", k)
	}
	b.WriteString("\n|---|")
	b.WriteString(strings.Repeat("---|", len(kinds)))
	b.WriteByte('\n')
	rows := append(append([]string{}, stageNames...), "server.session", "op")
	for _, stage := range rows {
		cells := make([]string, len(kinds))
		any := false
		for i, k := range kinds {
			s := summariseStage(byKind[k], stage)
			if s.N == 0 {
				cells[i] = "–"
				continue
			}
			any = true
			cells[i] = fmt.Sprintf("%.0f µs (%.1f %%)", s.P50us, 100*s.Share)
		}
		if !any {
			continue
		}
		label := stage
		switch stage {
		case "op":
			label = "(untraced glue)"
		case "multiset.diff":
			label = "multiset.diff (probe, inside txn.commit)"
		case "storage.install":
			label = "storage.install (txn.commit − diff)"
		}
		fmt.Fprintf(&b, "| %s | %s |\n", label, strings.Join(cells, " | "))
	}
	b.WriteString("| **op total (p50)** |")
	for _, k := range kinds {
		var durs []float64
		for _, o := range byKind[k] {
			durs = append(durs, float64(o.Dur)/1e3)
		}
		fmt.Fprintf(&b, " %.0f µs, n=%d |", median(durs), len(durs))
	}
	b.WriteByte('\n')
	return b.String()
}
