package core

import (
	"fmt"
	"time"
)

// RequestOptions is the request-level subset of Options: the solver
// parameters a remote caller may set on one placement request. It
// deliberately excludes the process-local Metrics hook, which cannot
// travel over a wire and must be attached by the serving side. The zero value selects the solver defaults.
//
// RequestOptions is plain data with a deterministic meaning, which is
// what makes placement requests canonicalizable: two requests with
// equal RequestOptions (and equal fabric and modules) run the same
// search and produce the same result.
type RequestOptions struct {
	// Timeout bounds the optimisation (see Options.Timeout). Zero
	// means no limit.
	Timeout time.Duration
	// Strategy is the branching-variable heuristic.
	Strategy Strategy
	// ValueOrder is the placement-value heuristic.
	ValueOrder ValueOrder
	// FirstSolutionOnly stops at the first complete placement.
	FirstSolutionOnly bool
	// StallNodes is the convergence criterion (see Options.StallNodes).
	StallNodes int64
	// BusRows restricts placements to boxes crossing a bus row (see
	// Options.BusRows).
	BusRows []int
	// Workers enables parallel branch-and-bound (see Options.Workers).
	Workers int
	// StrongPropagation adds compulsory-part pruning (see
	// Options.StrongPropagation).
	StrongPropagation bool
	// Presolve toggles the optimality-preserving presolve pipeline
	// (see Options.Presolve). The zero value runs it.
	Presolve PresolveMode
}

// Options expands the request-level options into full solver Options,
// leaving the process-local hooks unset for the caller to attach.
func (o RequestOptions) Options() Options {
	return Options{
		Timeout:           o.Timeout,
		Strategy:          o.Strategy,
		ValueOrder:        o.ValueOrder,
		FirstSolutionOnly: o.FirstSolutionOnly,
		StallNodes:        o.StallNodes,
		BusRows:           o.BusRows,
		Workers:           o.Workers,
		StrongPropagation: o.StrongPropagation,
		Presolve:          o.Presolve,
	}
}

// OptionError reports an invalid RequestOptions field value: the typed
// rejection the request boundary returns so callers can distinguish a
// misconfigured request from a solver failure.
type OptionError struct {
	// Field is the RequestOptions field name.
	Field string
	// Value is the rejected value.
	Value int64
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("core: invalid RequestOptions.%s: %d", e.Field, e.Value)
}

// Validate reports the first inconsistency in the options as a typed
// *OptionError.
func (o RequestOptions) Validate() error {
	switch {
	case o.Timeout < 0:
		return &OptionError{Field: "Timeout", Value: int64(o.Timeout)}
	case o.StallNodes < 0:
		return &OptionError{Field: "StallNodes", Value: o.StallNodes}
	case o.Workers < 0:
		return &OptionError{Field: "Workers", Value: int64(o.Workers)}
	case o.Strategy.String() == "unknown":
		return &OptionError{Field: "Strategy", Value: int64(o.Strategy)}
	case o.ValueOrder.String() == "unknown":
		return &OptionError{Field: "ValueOrder", Value: int64(o.ValueOrder)}
	case o.Presolve.String() == "unknown":
		return &OptionError{Field: "Presolve", Value: int64(o.Presolve)}
	}
	for _, r := range o.BusRows {
		if r < 0 {
			return &OptionError{Field: "BusRows", Value: int64(r)}
		}
	}
	return nil
}

// Strategies lists the branching strategies in declaration order.
func Strategies() []Strategy {
	return []Strategy{StrategyFirstFail, StrategyLargestFirst, StrategyInputOrder}
}

// ValueOrders lists the value orderings in declaration order.
func ValueOrders() []ValueOrder {
	return []ValueOrder{OrderBottomLeft, OrderLexicographic}
}

// ParseStrategy converts a strategy name (as produced by
// Strategy.String) back to the Strategy.
func ParseStrategy(s string) (Strategy, error) {
	for _, st := range Strategies() {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q", s)
}

// ParseValueOrder converts a value-order name (as produced by
// ValueOrder.String) back to the ValueOrder.
func ParseValueOrder(s string) (ValueOrder, error) {
	for _, v := range ValueOrders() {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: unknown value order %q", s)
}

// PresolveMode toggles the optimality-preserving presolve pipeline
// (dominance elimination, symmetry breaking, bound strengthening and
// warm start; see internal/presolve). The zero value runs it, so
// presolve is on by default everywhere a RequestOptions travels.
type PresolveMode uint8

// Presolve modes.
const (
	// PresolveOn runs the presolve pipeline before search (default).
	PresolveOn PresolveMode = iota
	// PresolveOff searches the model exactly as built — the escape
	// hatch for debugging and for measuring presolve's effect.
	PresolveOff
)

// String names the mode.
func (p PresolveMode) String() string {
	switch p {
	case PresolveOn:
		return "on"
	case PresolveOff:
		return "off"
	}
	return "unknown"
}

// PresolveModes lists the presolve modes in declaration order.
func PresolveModes() []PresolveMode {
	return []PresolveMode{PresolveOn, PresolveOff}
}

// ParsePresolve converts a mode name (as produced by
// PresolveMode.String) back to the PresolveMode. The empty string
// selects the default (PresolveOn), so callers can pass an unset
// flag or config field through unchanged.
func ParsePresolve(s string) (PresolveMode, error) {
	if s == "" {
		return PresolveOn, nil
	}
	for _, p := range PresolveModes() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown presolve mode %q", s)
}
