// Command tracecat renders the span JSONL stream written by placed
// -trace (an obs.JSONL sink of kind=span lines) into human-readable
// per-trace waterfalls plus aggregate span statistics.
//
//	placed -trace spans.jsonl &
//	curl -s -X POST localhost:8080/v1/place -d @req.json
//	kill %1 && tracecat spans.jsonl
//
// With no file arguments tracecat reads stdin, so it also works as the
// tail end of a pipe. Output:
//
//	trace 6f0a… request 8.42ms, 6 spans
//	  request       ▕██████████████████████████████▏   0.00ms +8.42ms
//	  canonicalize  ▕█▏                                0.02ms +0.31ms
//	  ...
//
// followed by a per-span-name table of count, total, mean, self time
// (duration minus child spans — the span's own contribution to the
// critical path) and the share of all root time that self time
// explains. Traces are printed slowest first; -n bounds how many.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	n := flag.Int("n", 5, "render at most this many traces (slowest first, 0 for none)")
	flag.Parse()

	var readers []io.Reader
	var files []*os.File
	if flag.NArg() == 0 {
		readers = append(readers, os.Stdin)
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracecat:", err)
			os.Exit(1)
		}
		files = append(files, f)
		readers = append(readers, f)
	}
	err := run(os.Stdout, *n, readers...)
	for _, f := range files {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecat:", err)
		os.Exit(1)
	}
}

// spanLine is the wire form of one kind=span JSONL event (a subset of
// internal/obs's jsonEvent).
type spanLine struct {
	Kind    string  `json:"kind"`
	TraceID string  `json:"trace"`
	Name    string  `json:"span"`
	SpanID  int     `json:"span_id"`
	Parent  int     `json:"parent"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
	Attrs   string  `json:"attrs"`
}

// trace is one reassembled request trace.
type trace struct {
	id    string
	spans []spanLine
}

// dur is the trace's extent: the root span when present (the root is
// emitted at Finish), otherwise the furthest span end seen.
func (t *trace) dur() float64 {
	var d float64
	for _, s := range t.spans {
		if s.Parent == 0 && s.DurMs > d {
			d = s.DurMs
		}
		if end := s.StartMs + s.DurMs; end > d {
			d = end
		}
	}
	return d
}

// run parses every reader and renders the report: up to n waterfalls,
// then the aggregate table. Malformed and non-span lines are skipped,
// so a stream with other kinds of line mixed in still renders.
func run(w io.Writer, n int, readers ...io.Reader) error {
	byID := make(map[string]*trace)
	var order []string // first-seen order, the JSONL's own chronology
	for _, r := range readers {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var s spanLine
			if err := json.Unmarshal(line, &s); err != nil || s.Kind != "span" || s.TraceID == "" {
				continue
			}
			tr, ok := byID[s.TraceID]
			if !ok {
				tr = &trace{id: s.TraceID}
				byID[s.TraceID] = tr
				order = append(order, s.TraceID)
			}
			tr.spans = append(tr.spans, s)
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	if len(order) == 0 {
		fmt.Fprintln(w, "tracecat: no span events found")
		return nil
	}

	// Slowest first; ties keep stream order so output is deterministic.
	sorted := make([]string, len(order))
	copy(sorted, order)
	sort.SliceStable(sorted, func(i, j int) bool {
		return byID[sorted[i]].dur() > byID[sorted[j]].dur()
	})
	shown := len(sorted)
	if n >= 0 && n < shown {
		shown = n
	}
	for _, id := range sorted[:shown] {
		renderWaterfall(w, byID[id])
		fmt.Fprintln(w)
	}
	if shown < len(sorted) {
		fmt.Fprintf(w, "(%d more traces not rendered; raise -n)\n\n", len(sorted)-shown)
	}
	renderAggregate(w, byID, order)
	return nil
}

const barWidth = 30

// renderWaterfall prints one trace as a depth-indented span tree with
// proportional time bars.
func renderWaterfall(w io.Writer, tr *trace) {
	total := tr.dur()
	fmt.Fprintf(w, "trace %s  %.2fms, %d spans\n", tr.id, total, len(tr.spans))

	children := make(map[int][]spanLine)
	ids := make(map[int]bool)
	for _, s := range tr.spans {
		ids[s.SpanID] = true
	}
	var roots []spanLine
	for _, s := range tr.spans {
		if s.Parent == 0 || !ids[s.Parent] { // orphans render as roots
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byStart := func(list []spanLine) {
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].StartMs != list[j].StartMs {
				return list[i].StartMs < list[j].StartMs
			}
			return list[i].SpanID < list[j].SpanID
		})
	}
	byStart(roots)

	width := 0
	for _, s := range tr.spans {
		if l := len(s.Name); l > width {
			width = l
		}
	}
	var walk func(s spanLine, depth int)
	walk = func(s spanLine, depth int) {
		indent := strings.Repeat("  ", depth)
		label := fmt.Sprintf("%s%-*s", indent, width, s.Name)
		attrs := ""
		if s.Attrs != "" {
			attrs = "  " + s.Attrs
		}
		fmt.Fprintf(w, "  %s  %s  %7.2fms +%.2fms%s\n", label, bar(s.StartMs, s.DurMs, total), s.StartMs, s.DurMs, attrs)
		kids := children[s.SpanID]
		byStart(kids)
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// bar renders the span's [start, start+dur) window scaled into
// barWidth cells of the trace's extent.
func bar(start, dur, total float64) string {
	cells := make([]rune, barWidth)
	for i := range cells {
		cells[i] = ' '
	}
	if total > 0 {
		lo := int(start / total * barWidth)
		hi := int((start + dur) / total * barWidth)
		if lo >= barWidth {
			lo = barWidth - 1
		}
		if hi <= lo {
			hi = lo + 1 // every span is at least one cell wide
		}
		if hi > barWidth {
			hi = barWidth
		}
		for i := lo; i < hi; i++ {
			cells[i] = '█'
		}
	}
	return "▕" + string(cells) + "▏"
}

// aggRow accumulates per-span-name statistics across all traces.
type aggRow struct {
	name         string
	count        int
	totalMs      float64
	maxMs        float64
	selfMs       float64
	unendedNote  bool
	childDeficit bool
}

// renderAggregate prints the per-name table. Self time is a span's
// duration minus the summed durations of its direct children (clamped
// at zero for overlapping concurrent children): the time the span
// itself contributed to its trace's critical path. The final column is
// that self time as a share of all root-span time — where the fleet of
// requests actually spent its latency.
func renderAggregate(w io.Writer, byID map[string]*trace, order []string) {
	rows := make(map[string]*aggRow)
	var rootMs float64
	for _, id := range order {
		tr := byID[id]
		childSum := make(map[int]float64)
		for _, s := range tr.spans {
			if s.Parent != 0 {
				childSum[s.Parent] += s.DurMs
			}
		}
		for _, s := range tr.spans {
			row := rows[s.Name]
			if row == nil {
				row = &aggRow{name: s.Name}
				rows[s.Name] = row
			}
			row.count++
			row.totalMs += s.DurMs
			if s.DurMs > row.maxMs {
				row.maxMs = s.DurMs
			}
			self := s.DurMs - childSum[s.SpanID]
			if self < 0 {
				self = 0
				row.childDeficit = true
			}
			row.selfMs += self
			if s.Parent == 0 {
				rootMs += s.DurMs
			}
		}
	}

	list := make([]*aggRow, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].selfMs != list[j].selfMs {
			return list[i].selfMs > list[j].selfMs
		}
		return list[i].name < list[j].name
	})

	width := len("span")
	for _, r := range list {
		if len(r.name) > width {
			width = len(r.name)
		}
	}
	fmt.Fprintf(w, "%-*s  %6s  %10s  %9s  %9s  %10s  %6s\n",
		width, "span", "count", "total", "mean", "max", "self", "%crit")
	for _, r := range list {
		crit := "-"
		if rootMs > 0 {
			crit = fmt.Sprintf("%5.1f%%", r.selfMs/rootMs*100)
		}
		note := ""
		if r.childDeficit {
			note = "  (concurrent children)"
		}
		fmt.Fprintf(w, "%-*s  %6d  %8.2fms  %7.2fms  %7.2fms  %8.2fms  %6s%s\n",
			width, r.name, r.count, r.totalMs, r.totalMs/float64(r.count), r.maxMs, r.selfMs, crit, note)
	}
}
