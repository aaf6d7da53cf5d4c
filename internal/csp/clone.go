package csp

import "fmt"

// This file implements store cloning, the foundation of the parallel
// branch-and-bound search: each worker solves on an independent deep
// copy of the constraint store, so workers share nothing mutable and
// the only cross-worker channel is the explicit incumbent bound.
//
// Cloning a store means cloning the whole constraint network, not just
// the domains: propagators hold *Var pointers (and, in the geost
// kernel, pointers into object/kernel structures), so every propagator
// must be re-targeted at the cloned variables. Propagators opt into
// cloning by implementing Clonable; a store holding any propagator that
// does not is rejected by Clone with a *CloneError rather than silently
// aliasing state across goroutines.

// CloneCtx carries the original-to-clone mapping of one Store.Clone
// call. Propagator CloneFor implementations use it to re-target the
// variables they watch; constraint kernels layered on top of csp (such
// as geost) use the memo table to clone their own shared structures
// exactly once per Clone call.
type CloneCtx struct {
	dst  *Store
	vars []*Var // indexed by original variable id
	memo map[any]any
}

// Store returns the destination store of the clone in progress.
func (c *CloneCtx) Store() *Store { return c.dst }

// Var maps a variable of the source store to its clone. Mapping is by
// variable id, so passing a variable that does not belong to the source
// store is a caller bug (and panics when the id is out of range).
func (c *CloneCtx) Var(v *Var) *Var {
	if v == nil {
		return nil
	}
	if v.id < 0 || v.id >= len(c.vars) {
		panic(fmt.Sprintf("csp: CloneCtx.Var on foreign variable %s (id %d)", v.name, v.id))
	}
	return c.vars[v.id]
}

// Vars maps a slice of source-store variables to their clones (freshly
// allocated; the input is not retained).
func (c *CloneCtx) Vars(vs []*Var) []*Var {
	out := make([]*Var, len(vs))
	for i, v := range vs {
		out[i] = c.Var(v)
	}
	return out
}

// MemoGet looks up a previously memoized clone of key (any shared
// structure cloned at most once per Clone call).
func (c *CloneCtx) MemoGet(key any) (any, bool) {
	v, ok := c.memo[key]
	return v, ok
}

// MemoPut memoizes val as the clone of key. Callers cloning cyclic
// structures must memoize the new object before descending into its
// references, so the cycle resolves through the memo table.
func (c *CloneCtx) MemoPut(key, val any) { c.memo[key] = val }

// Clonable is the propagator extension required by Store.Clone: return
// an independent copy of the propagator with every variable reference
// mapped through ctx. Immutable payload (lookup tables, shape
// geometry, capacity prefixes) may be shared between the original and
// the clone; any mutable scratch state must be duplicated. A CloneFor
// returning nil marks the propagator as not clonable after all (used by
// wrappers whose wrapped propagator is not Clonable).
type Clonable interface {
	CloneFor(ctx *CloneCtx) Propagator
}

// CloneError reports the propagator that prevented a Store.Clone.
type CloneError struct {
	// Prop is the metrics/trace name of the offending propagator.
	Prop string
}

// Error implements error.
func (e *CloneError) Error() string {
	return fmt.Sprintf("csp: propagator %s does not support Store.Clone", e.Prop)
}

// Clone returns an independent deep copy of the store: cloned domains,
// re-targeted propagators, copied propagation-queue state. The clone
// starts at trail level zero regardless of the source's level — it is a
// snapshot of the current domains, and cannot Pop below the clone
// point. Statistics (propagation counts, per-propagator runs,
// accumulated propagation time) restart at zero, no recorder is
// installed on the clone, and the clone's trailing free list starts
// empty: clones share no domain, discarded or live.
//
// Clone fails with a *CloneError if any registered propagator does not
// implement Clonable (FuncProp closures, for example, cannot be
// re-targeted mechanically).
//
// Clone itself is not safe for concurrent use with mutations of the
// source store; take all clones before handing them to workers.
func (st *Store) Clone() (*Store, error) {
	dst := NewStore()
	dst.timing = st.timing
	dst.vars = make([]*Var, len(st.vars))
	ctx := &CloneCtx{dst: dst, vars: dst.vars, memo: map[any]any{}}
	for i, v := range st.vars {
		dst.vars[i] = &Var{
			id:       v.id,
			name:     v.name,
			dom:      v.dom.Clone(),
			watchers: append([]int(nil), v.watchers...),
		}
	}
	dst.props = make([]propEntry, len(st.props))
	for i := range st.props {
		c, ok := st.props[i].p.(Clonable)
		var np Propagator
		if ok {
			np = c.CloneFor(ctx)
		}
		if np == nil {
			return nil, &CloneError{Prop: st.propName(i)}
		}
		dst.props[i] = propEntry{p: np, name: st.props[i].name}
	}
	dst.queued = append([]bool(nil), st.queued...)
	dst.queue = append([]int(nil), st.queue[st.qhead:]...)
	dst.failed = st.failed
	return dst, nil
}
