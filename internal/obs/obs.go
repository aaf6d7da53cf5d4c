// Package obs is the observability layer: a concurrency-safe metric
// registry (counters, gauges, histograms, phase timers), request-scoped
// tracing spans, and sinks that render the registry as a Prometheus-style
// text exposition or a human-readable summary table and the spans as a
// JSONL stream.
//
// The package is deliberately dependency-free (stdlib only). The solver
// counts its own effort in plain fields and exports the totals into a
// Registry after each solve; a nil Registry is a valid, inert one, so
// uninstrumented callers pay nothing.
package obs

// NewStats is ignored: it returns an empty value for the equally
// ignored core.Options.Recorder field, and nothing reads either. The
// solver exports its effort counters to core.Options.Metrics itself.
// Both declarations stay only until the benchmark harness stops
// assigning opts.Recorder = obs.NewStats(reg) (ROADMAP item 1, Step B);
// that change deletes them with it.
func NewStats(*Registry) struct{} { return struct{}{} }
