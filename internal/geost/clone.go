package geost

import (
	"repro/internal/csp"
	"repro/internal/grid"
)

// Store-clone support for the geost kernel (csp.Clonable), required by
// the parallel search entry points: every worker gets an independent
// kernel over the cloned store's variables.
//
// Aliasing audit — what the original and a clone may share:
//
//   - ShapeGeom (Points, Valid bitmap, Hist): immutable after
//     AddObject; every propagator only reads them. Shared.
//   - Object.rows, the shapes' per-row column masks: built once by
//     AddObject from the immutable Points and only read by the
//     non-overlap test afterwards. Shared.
//   - heightBound.capPrefix: immutable capacity table. Shared.
//   - fabric.Histogram is an array type (value semantics), so
//     MinDemand's running minimum never writes into shape state.
//   - Kernel.scratch and Kernel.comp: MUTABLE — nonOverlap paints the
//     fixed object's footprint into scratch during propagation, and
//     compulsoryRegion paints candidates into scratch and accumulates
//     into comp. Each clone gets fresh bitmaps; sharing them across
//     workers would corrupt concurrent filtering.
//   - Kernel.kill, the removal buffer pruneOthers collects each
//     object's hit masks in before one Store.RemoveMasks: MUTABLE,
//     rewritten on every prune. Each clone starts with none and grows
//     its own.
//   - The store's trailing free list (csp.Store.free): MUTABLE, and
//     never shared — Store.Clone starts every clone with an empty
//     list, so one worker's trail never writes into a domain that
//     another worker's Pop discarded.
//
// Kernel and Object reference each other, so both clone through the
// CloneCtx memo table, registering the new value before descending into
// the cycle.

// cloneKernel returns the clone-side kernel for k, creating it (and its
// objects) on first use within this clone operation.
func cloneKernel(ctx *csp.CloneCtx, k *Kernel) *Kernel {
	if v, ok := ctx.MemoGet(k); ok {
		return v.(*Kernel)
	}
	nk := &Kernel{
		st:      ctx.Store(),
		w:       k.w,
		h:       k.h,
		divW:    k.divW,
		divH:    k.divH,
		scratch: grid.NewBitmap(k.w, k.h),
		comp:    grid.NewBitmap(k.w, k.h),
	}
	ctx.MemoPut(k, nk)
	nk.objects = make([]*Object, len(k.objects))
	for i, o := range k.objects {
		nk.objects[i] = cloneObject(ctx, o)
	}
	return nk
}

// cloneObject returns the clone-side object for o.
func cloneObject(ctx *csp.CloneCtx, o *Object) *Object {
	if v, ok := ctx.MemoGet(o); ok {
		return v.(*Object)
	}
	no := &Object{
		Name:   o.Name,
		Shapes: o.Shapes, // immutable geometry, shared
		Place:  ctx.Var(o.Place),
		Top:    ctx.Var(o.Top),
		id:     o.id,

		rows:      o.rows, // immutable row masks, shared
		rowWords:  o.rowWords,
		rowStride: o.rowStride,
	}
	ctx.MemoPut(o, no)
	no.k = cloneKernel(ctx, o.k)
	return no
}

// CloneFor implements csp.Clonable.
func (p *topLink) CloneFor(ctx *csp.CloneCtx) csp.Propagator {
	return &topLink{o: cloneObject(ctx, p.o)}
}

// CloneFor implements csp.Clonable.
func (p *nonOverlap) CloneFor(ctx *csp.CloneCtx) csp.Propagator {
	return &nonOverlap{o: cloneObject(ctx, p.o)}
}

// CloneFor implements csp.Clonable.
func (p *heightBound) CloneFor(ctx *csp.CloneCtx) csp.Propagator {
	//solverlint:allow clonecomplete capPrefix is the immutable capacity table (see aliasing audit above); Propagate only reads it
	return &heightBound{k: cloneKernel(ctx, p.k), height: ctx.Var(p.height), capPrefix: p.capPrefix}
}

// CloneFor implements csp.Clonable.
func (p *compulsory) CloneFor(ctx *csp.CloneCtx) csp.Propagator {
	return &compulsory{o: cloneObject(ctx, p.o)}
}
