package csp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// ErrInconsistent is returned by propagation when some variable's domain
// became empty: the current search node admits no solution.
var ErrInconsistent = errors.New("csp: inconsistent (empty domain)")

// Var is a finite-domain integer variable. Mutate its domain only
// through Store methods so changes are trailed for backtracking and
// watching propagators are scheduled.
type Var struct {
	id       int
	name     string
	dom      *Domain
	watchers []int // indices into Store.props

	// trailedAt is the trail level at which the current domain object
	// was installed; a mutation at a deeper level must clone first
	// (copy-on-write trailing).
	trailedAt int
}

// Name returns the variable name.
func (v *Var) Name() string { return v.name }

// ID returns the variable's index in its store's creation order. Store
// cloning preserves ids, so st.Vars()[v.ID()] addresses the counterpart
// of v in any clone of v's store — the lookup solution callbacks use to
// read assignments when search runs on cloned stores.
func (v *Var) ID() int { return v.id }

// Domain returns the current domain for read-only inspection.
func (v *Var) Domain() *Domain { return v.dom }

// Min returns the current lower bound.
func (v *Var) Min() int { return v.dom.Min() }

// Max returns the current upper bound.
func (v *Var) Max() int { return v.dom.Max() }

// Size returns the current domain size.
func (v *Var) Size() int { return v.dom.Size() }

// Assigned reports whether the variable is fixed to a single value.
func (v *Var) Assigned() bool { return v.dom.Size() == 1 }

// Value returns the assigned value; it panics if the variable is not
// assigned, which always indicates a solver bug.
func (v *Var) Value() int {
	val, ok := v.dom.Singleton()
	if !ok {
		panic(fmt.Sprintf("csp: Value() on unassigned %s%v", v.name, v.dom))
	}
	return val
}

// String renders "name{domain}".
func (v *Var) String() string { return v.name + v.dom.String() }

// Propagator is a constraint's filtering algorithm. Propagate prunes the
// domains of the variables it watches and returns ErrInconsistent when
// it detects unsatisfiability. Propagators must be idempotent at a
// fixpoint and must not retain references to domains across calls.
type Propagator interface {
	Propagate(st *Store) error
}

// Named is an optional Propagator extension: a stable human-readable
// name used to attribute propagation metrics and trace events. Unnamed
// propagators fall back to their Go type name.
type Named interface {
	Name() string
}

type trailEntry struct {
	v   *Var
	dom *Domain
	at  int
}

// Store owns variables and propagators and provides trailing (Push/Pop)
// and fixpoint propagation. It is the solver state threaded through
// search.
// propEntry is a registered propagator plus its always-on bookkeeping.
// Keeping runs inline (rather than in a parallel slice) means Post does
// exactly the same number of allocations as before instrumentation, and
// the per-execution cost is a single field increment. The name is
// resolved lazily and cached, so the uninstrumented path never touches
// it.
type propEntry struct {
	p    Propagator
	name string // lazily cached; see Store.propName
	runs int64
}

type Store struct {
	vars  []*Var
	props []propEntry

	queue   []int // propagator indices, pending from qhead on
	qhead   int   // next queue entry to run; 0 once the queue drains
	queued  []bool
	trail   []trailEntry
	marks   []int // trail lengths at Push points
	level   int
	failed  bool
	nPropag int64 // statistics: propagator executions

	// folded holds the per-propagator runs of finished clones, by
	// name (see fold).
	folded map[string]int64

	// Observability. rec is nil on the uninstrumented path; running is
	// the index of the propagator currently executing, for prune
	// attribution (-1 outside propagation).
	rec       obs.Recorder
	running   int
	timing    bool
	propagDur time.Duration
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{running: -1} }

// SetRecorder installs rec as the event sink for propagate/prune events
// (nil disables recording). Search installs Options.Recorder here for
// the duration of a run.
func (st *Store) SetRecorder(rec obs.Recorder) { st.rec = rec }

// Recorder returns the currently installed event sink (nil when none).
func (st *Store) Recorder() obs.Recorder { return st.rec }

// EnableTiming makes Propagate accumulate wall-clock time spent in
// propagation, readable via PropagationTime. Off by default: timing
// costs two clock reads per fixpoint computation.
func (st *Store) EnableTiming(on bool) { st.timing = on }

// PropagationTime returns the accumulated propagation wall-clock time
// (zero unless EnableTiming was switched on). A parallel Minimize adds
// each worker clone's time, so it can exceed the search's wall clock.
func (st *Store) PropagationTime() time.Duration { return st.propagDur }

// NewVar creates a variable with the given initial domain. The domain is
// cloned: callers may reuse the argument. It panics on a nil or empty
// domain — a variable with no values is a modelling bug, not a search
// state.
func (st *Store) NewVar(name string, dom *Domain) *Var {
	if dom == nil || dom.Empty() {
		panic("csp: NewVar with nil or empty domain")
	}
	v := &Var{id: len(st.vars), name: name, dom: dom.Clone(), trailedAt: 0}
	st.vars = append(st.vars, v)
	return v
}

// NewVarRange creates a variable with domain {lo..hi}.
func (st *Store) NewVarRange(name string, lo, hi int) *Var {
	return st.NewVar(name, NewDomainRange(lo, hi))
}

// Vars returns all variables in creation order.
func (st *Store) Vars() []*Var { return st.vars }

// Post registers a propagator and schedules it for an initial run. The
// watched variables wake the propagator whenever their domain changes.
// The returned handle can be passed to Schedule to force a re-run when
// solver state outside the domains (such as a branch-and-bound bound)
// changes.
func (st *Store) Post(p Propagator, watched ...*Var) int {
	idx := len(st.props)
	st.props = append(st.props, propEntry{p: p})
	st.queued = append(st.queued, false)
	for _, v := range watched {
		v.watchers = append(v.watchers, idx)
	}
	st.enqueue(idx)
	return idx
}

// Schedule re-enqueues the propagator with the given handle.
func (st *Store) Schedule(handle int) { st.enqueue(handle) }

func (st *Store) enqueue(idx int) {
	if !st.queued[idx] {
		st.queued[idx] = true
		st.queue = append(st.queue, idx)
	}
}

// PropagatorStat is the aggregated execution count of all propagators
// sharing one name (e.g. the geost.non-overlap propagators of all
// objects).
type PropagatorStat struct {
	Name string
	Runs int64
}

// propName names the propagator at idx, resolving and caching it on
// first use: the declared Named name when available, the Go type name
// otherwise.
func (st *Store) propName(idx int) string {
	e := &st.props[idx]
	if e.name == "" {
		if n, ok := e.p.(Named); ok {
			e.name = n.Name()
		} else {
			e.name = fmt.Sprintf("%T", e.p)
		}
	}
	return e.name
}

// PropagatorStats returns per-propagator execution counts aggregated by
// name, most-run first (ties broken alphabetically). Like Stats, it
// includes the runs of a parallel Minimize's worker clones.
func (st *Store) PropagatorStats() []PropagatorStat {
	byName := map[string]int64{}
	//solverlint:allow nondeterminism aggregation order is irrelevant; the result is fully sorted below before returning
	for n, r := range st.folded {
		byName[n] += r
	}
	for i := range st.props {
		byName[st.propName(i)] += st.props[i].runs
	}
	out := make([]PropagatorStat, 0, len(byName))
	//solverlint:allow nondeterminism aggregation order is irrelevant; the result is fully sorted below before returning
	for n, r := range byName {
		out = append(out, PropagatorStat{Name: n, Runs: r})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Runs != out[j].Runs {
			return out[i].Runs > out[j].Runs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// fold adds the statistics of cl, a finished clone of st, to st's own:
// the propagation count, the propagation time and the per-propagator
// runs. Runs fold by name, not by index: a clone may carry propagators
// st does not, such as a parallel worker's branch-and-bound cut.
func (st *Store) fold(cl *Store) {
	st.nPropag += cl.nPropag
	st.propagDur += cl.propagDur
	if st.folded == nil {
		st.folded = map[string]int64{}
	}
	for i := range cl.props {
		if r := cl.props[i].runs; r > 0 {
			st.folded[cl.propName(i)] += r
		}
	}
}

// namedProp decorates a propagator with an explicit metrics name.
type namedProp struct {
	Propagator
	name string
}

// Name implements Named.
func (p namedProp) Name() string { return p.name }

// CloneFor implements Clonable by cloning the wrapped propagator and
// re-attaching the name; it returns nil (not clonable) when the wrapped
// propagator is not Clonable.
func (p namedProp) CloneFor(ctx *CloneCtx) Propagator {
	c, ok := p.Propagator.(Clonable)
	if !ok {
		return nil
	}
	inner := c.CloneFor(ctx)
	if inner == nil {
		return nil
	}
	return namedProp{inner, p.name}
}

// WithName gives p an explicit name for metrics and trace attribution,
// overriding the Go type-name fallback.
func WithName(p Propagator, name string) Propagator { return namedProp{p, name} }

// runningName names the propagator currently executing ("" outside
// propagation — e.g. a prune caused by a search branching decision).
func (st *Store) runningName() string {
	if st.running < 0 {
		return ""
	}
	return st.propName(st.running)
}

// notePrune emits a prune event for v; before is v's domain size
// captured ahead of the mutation. Call only when st.rec != nil was
// already checked to keep the disabled path free of any work.
func (st *Store) notePrune(v *Var, before int) {
	//solverlint:allow obsgate the nil check is the caller's documented precondition (see doc comment); re-checking here would double the guard on every prune
	st.rec.Record(obs.Event{
		Kind:    obs.KindPrune,
		Var:     v.name,
		Removed: before - v.dom.Size(),
		Prop:    st.runningName(),
	})
}

// ensureOwned makes v's domain writable at the current level, trailing
// the previous domain for restoration on Pop.
func (st *Store) ensureOwned(v *Var) {
	if v.trailedAt == st.level {
		return
	}
	st.trail = append(st.trail, trailEntry{v: v, dom: v.dom, at: v.trailedAt})
	v.dom = v.dom.Clone()
	v.trailedAt = st.level
}

func (st *Store) changed(v *Var) error {
	for _, w := range v.watchers {
		st.enqueue(w)
	}
	if v.dom.Empty() {
		st.failed = true
		return ErrInconsistent
	}
	return nil
}

// SetMin prunes v to values >= lo.
func (st *Store) SetMin(v *Var, lo int) error {
	if v.dom.Empty() || lo <= v.dom.Min() {
		return nil
	}
	before := 0
	if st.rec != nil {
		before = v.dom.Size()
	}
	st.ensureOwned(v)
	if v.dom.RemoveBelow(lo) {
		if st.rec != nil {
			st.notePrune(v, before)
		}
		return st.changed(v)
	}
	return nil
}

// SetMax prunes v to values <= hi.
func (st *Store) SetMax(v *Var, hi int) error {
	if v.dom.Empty() || hi >= v.dom.Max() {
		return nil
	}
	before := 0
	if st.rec != nil {
		before = v.dom.Size()
	}
	st.ensureOwned(v)
	if v.dom.RemoveAbove(hi) {
		if st.rec != nil {
			st.notePrune(v, before)
		}
		return st.changed(v)
	}
	return nil
}

// Assign fixes v to val; it fails if val is not in the domain.
func (st *Store) Assign(v *Var, val int) error {
	if !v.dom.Contains(val) {
		st.failed = true
		return ErrInconsistent
	}
	if v.dom.Size() == 1 {
		return nil
	}
	before := 0
	if st.rec != nil {
		before = v.dom.Size()
	}
	st.ensureOwned(v)
	if v.dom.KeepOnly(val) {
		if st.rec != nil {
			st.notePrune(v, before)
		}
		return st.changed(v)
	}
	return nil
}

// FilterDomain retains only the values of v for which keep returns true.
func (st *Store) FilterDomain(v *Var, keep func(int) bool) error {
	return st.FilterDomainIn(v, math.MinInt, math.MaxInt, keep)
}

// FilterDomainIn retains the values of v outside [lo, hi] and those
// inside it for which keep returns true. keep sees only the values in
// [lo, hi], so a propagator that knows where its removals can lie pays
// nothing for the rest of the domain.
func (st *Store) FilterDomainIn(v *Var, lo, hi int, keep func(int) bool) error {
	// Probe first so untouched domains stay shared across levels.
	any := false
	v.dom.ForEachIn(lo, hi, func(val int) bool {
		if !keep(val) {
			any = true
			return false
		}
		return true
	})
	if !any {
		return nil
	}
	before := 0
	if st.rec != nil {
		before = v.dom.Size()
	}
	st.ensureOwned(v)
	if v.dom.FilterIn(lo, hi, keep) {
		if st.rec != nil {
			st.notePrune(v, before)
		}
		return st.changed(v)
	}
	return nil
}

// Propagate runs the propagation queue to fixpoint. On failure the queue
// is drained and ErrInconsistent returned; the store remains usable
// after a Pop.
func (st *Store) Propagate() error {
	if !st.timing {
		return st.propagate()
	}
	//solverlint:allow nondeterminism opt-in EnableTiming measurement; the timing never influences propagation or search
	start := time.Now()
	err := st.propagate()
	//solverlint:allow nondeterminism opt-in EnableTiming measurement; the timing never influences propagation or search
	st.propagDur += time.Since(start)
	return err
}

func (st *Store) propagate() error {
	if st.failed {
		st.clearQueue()
		return ErrInconsistent
	}
	for st.qhead < len(st.queue) {
		idx := st.queue[st.qhead]
		st.qhead++
		st.queued[idx] = false
		st.nPropag++
		st.props[idx].runs++
		if st.rec != nil {
			st.rec.Record(obs.Event{Kind: obs.KindPropagate, Prop: st.propName(idx)})
		}
		st.running = idx
		err := st.props[idx].p.Propagate(st)
		st.running = -1
		if err != nil {
			st.failed = true
			st.clearQueue()
			return err
		}
	}
	st.queue, st.qhead = st.queue[:0], 0
	return nil
}

// clearQueue drops every pending propagator, keeping the queue's
// capacity for the next fixpoint.
func (st *Store) clearQueue() {
	st.queue, st.qhead = st.queue[:0], 0
	for i := range st.queued {
		st.queued[i] = false
	}
}

// Push opens a new trail level. Subsequent domain mutations are undone
// by the matching Pop.
func (st *Store) Push() {
	st.marks = append(st.marks, len(st.trail))
	st.level++
}

// Pop restores all domains to their state at the matching Push and
// clears any pending failure. It panics when no Push is open: an
// unbalanced Pop always indicates a search-loop bug.
func (st *Store) Pop() {
	if len(st.marks) == 0 {
		panic("csp: Pop without Push")
	}
	mark := st.marks[len(st.marks)-1]
	st.marks = st.marks[:len(st.marks)-1]
	for i := len(st.trail) - 1; i >= mark; i-- {
		e := st.trail[i]
		e.v.dom = e.dom
		e.v.trailedAt = e.at
	}
	st.trail = st.trail[:mark]
	st.level--
	st.failed = false
	st.clearQueue()
}
