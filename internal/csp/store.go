package csp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
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

// ID returns the variable's index in its store's creation order. Every
// build of the same model creates its variables in the same order, so
// st.Vars()[v.ID()] addresses the counterpart of v in another build's
// store — the lookup solution callbacks use to read assignments when
// search runs on parallel workers' stores.
func (v *Var) ID() int { return v.id }

// Domain returns the current domain for read-only inspection. The
// store reuses a domain once the level it belongs to is popped, so do
// not keep the result across a Pop.
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
// name used to attribute propagation metrics. Unnamed
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

	queue  []int // propagator indices, pending from qhead on
	qhead  int   // next queue entry to run; 0 once the queue drains
	queued []bool
	trail  []trailEntry
	marks  []int // trail lengths at Push points
	level  int
	failed bool
	stats  stats

	// folded holds the per-propagator runs of finished parallel
	// workers, by name (see fold).
	folded map[string]int64

	// free holds the domains Pop discarded, by word count, for
	// ensureOwned to copy into, so that a warmed search trails without
	// allocating. A discarded domain belongs to a popped level, so
	// nothing reads it any more (propagators keep no domain across
	// calls).
	free [][]*Domain

	timing    bool
	propagDur time.Duration
}

// stats are a store's always-on effort counters: plain fields, since
// only the goroutine searching the store writes them. A parallel run
// adds up its workers' with fold.
type stats struct {
	propagations int64 // propagator executions
	prunes       int64 // domain reductions
	pruned       int64 // values those reductions removed
	branches     int64 // branch attempts of searches on the store
	maxDepth     int   // depth of the deepest branch attempt of the current run
}

// add folds o, a parallel worker's statistics, into s.
func (s *stats) add(o stats) {
	s.propagations += o.propagations
	s.prunes += o.prunes
	s.pruned += o.pruned
	s.branches += o.branches
	s.maxDepth = max(s.maxDepth, o.maxDepth)
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Prunes returns the domain reductions made on the store so far and the
// values they removed. Every SetMin, SetMax, Assign, FilterDomain or
// RemoveMasks call that changes a domain is one reduction.
func (st *Store) Prunes() (reductions, values int64) {
	return st.stats.prunes, st.stats.pruned
}

// EnableTiming makes Propagate accumulate wall-clock time spent in
// propagation, readable via PropagationTime. Off by default: timing
// costs two clock reads per fixpoint computation.
func (st *Store) EnableTiming(on bool) { st.timing = on }

// PropagationTime returns the accumulated propagation wall-clock time
// (zero unless EnableTiming was switched on). A parallel Minimize adds
// each worker's search time, so it can exceed the search's wall clock.
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
// The returned handle is the propagator's index in the store.
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

// PropagatorNames returns the name of every registered propagator, in
// posting order. Two builds of one model return the same list.
func (st *Store) PropagatorNames() []string {
	names := make([]string, len(st.props))
	for i := range st.props {
		names[i] = st.propName(i)
	}
	return names
}

// PropagatorStats returns per-propagator execution counts aggregated by
// name, most-run first (ties broken alphabetically). Like Stats, it
// includes the search runs of a parallel Minimize's workers.
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

// fold adds the statistics of ws, a finished parallel worker's store,
// to st's own: the propagation count, the propagation time and the
// per-propagator runs. Runs fold by name, not by index: ws carries the
// worker's branch-and-bound cut, which st does not.
func (st *Store) fold(ws *Store) {
	st.stats.add(ws.stats)
	st.propagDur += ws.propagDur
	if st.folded == nil {
		st.folded = map[string]int64{}
	}
	for i := range ws.props {
		if r := ws.props[i].runs; r > 0 {
			st.folded[ws.propName(i)] += r
		}
	}
}

// resetStats zeroes the statistics fold reads, so that a worker's store
// folds only what it did from its root fixpoint on.
func (st *Store) resetStats() {
	st.stats, st.propagDur = stats{}, 0
	for i := range st.props {
		st.props[i].runs = 0
	}
}

// countPrune counts a reduction of v's domain; before is its size
// ahead of the mutation.
func (st *Store) countPrune(v *Var, before int) {
	st.stats.prunes++
	st.stats.pruned += int64(before - v.dom.Size())
}

// ensureOwned makes v's domain writable at the current level, trailing
// the previous domain for restoration on Pop.
func (st *Store) ensureOwned(v *Var) {
	if v.trailedAt == st.level {
		return
	}
	st.trail = append(st.trail, trailEntry{v: v, dom: v.dom, at: v.trailedAt})
	v.dom = st.copyOf(v.dom)
	v.trailedAt = st.level
}

// copyOf returns a copy of d, written into a free domain of d's word
// count when there is one.
func (st *Store) copyOf(d *Domain) *Domain {
	n := len(d.words)
	if n >= len(st.free) || len(st.free[n]) == 0 {
		return d.Clone()
	}
	last := len(st.free[n]) - 1
	c := st.free[n][last]
	st.free[n] = st.free[n][:last]
	c.copyFrom(d)
	return c
}

// release puts d, a domain Pop discarded, on the free list.
func (st *Store) release(d *Domain) {
	n := len(d.words)
	for len(st.free) <= n {
		st.free = append(st.free, nil)
	}
	st.free[n] = append(st.free[n], d)
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
	before := v.dom.Size()
	st.ensureOwned(v)
	if v.dom.RemoveBelow(lo) {
		st.countPrune(v, before)
		return st.changed(v)
	}
	return nil
}

// SetMax prunes v to values <= hi.
func (st *Store) SetMax(v *Var, hi int) error {
	if v.dom.Empty() || hi >= v.dom.Max() {
		return nil
	}
	before := v.dom.Size()
	st.ensureOwned(v)
	if v.dom.RemoveAbove(hi) {
		st.countPrune(v, before)
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
	before := v.dom.Size()
	st.ensureOwned(v)
	if v.dom.KeepOnly(val) {
		st.countPrune(v, before)
		return st.changed(v)
	}
	return nil
}

// FilterDomain retains only the values of v for which keep returns
// true. keep sees each value once.
func (st *Store) FilterDomain(v *Var, keep func(int) bool) error {
	// Probe first so untouched domains stay shared across levels, then
	// filter from the first rejected value, so keep sees each value once.
	first, found := 0, false
	v.dom.ForEach(func(val int) bool {
		first, found = val, !keep(val)
		return !found
	})
	if !found {
		return nil
	}
	before := v.dom.Size()
	st.ensureOwned(v)
	v.dom.FilterIn(first, math.MaxInt, func(val int) bool { return val != first && keep(val) })
	st.countPrune(v, before)
	return st.changed(v)
}

// RemoveMasks deletes from v every value the masks mark, as one change
// however many masks there are: one trailed copy, one counted prune
// and one wake-up of v's watchers. Marked values that v lacks are ignored,
// and when it lacks them all nothing is trailed.
func (st *Store) RemoveMasks(v *Var, masks []Mask64) error {
	i := 0
	for i < len(masks) && v.dom.Bits64(masks[i].Lo)&masks[i].Bits == 0 {
		i++
	}
	if i == len(masks) {
		return nil
	}
	before := v.dom.Size()
	st.ensureOwned(v)
	v.dom.removeMasks(masks[i:])
	st.countPrune(v, before)
	return st.changed(v)
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
		st.stats.propagations++
		st.props[idx].runs++
		err := st.props[idx].p.Propagate(st)
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
// clears any pending failure. The domains the popped level owned go to
// the store's free list, so a *Domain read at a level must not be kept
// past that level's Pop. It panics when no Push is open: an unbalanced
// Pop always indicates a search-loop bug.
func (st *Store) Pop() {
	if len(st.marks) == 0 {
		panic("csp: Pop without Push")
	}
	mark := st.marks[len(st.marks)-1]
	st.marks = st.marks[:len(st.marks)-1]
	for i := len(st.trail) - 1; i >= mark; i-- {
		e := st.trail[i]
		st.release(e.v.dom)
		e.v.dom = e.dom
		e.v.trailedAt = e.at
	}
	st.trail = st.trail[:mark]
	st.level--
	st.failed = false
	st.clearQueue()
}
