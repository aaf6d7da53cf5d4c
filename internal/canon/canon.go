// Package canon canonicalizes placement requests. A placement request —
// a fabric, an optional region window, a set of modules (each a set of
// design-alternative shapes) and request-level solver options — is
// semantically unchanged by reordering the modules or reordering the
// shapes within a module: the paper's formulation is over *sets*
// (M = {S_1 … S_n}), and the serving layer solves the canonical
// instance so equal sets produce equal placements. This package
// computes that canonical form and a collision-resistant digest of it,
// which is the cache key of the placement service: digest equality is
// (up to hash collision) canonical equality, so a cache keyed by the
// digest can never serve a placement for a different instance.
//
// The encoding behind the digest is injective: every field is
// length-prefixed (uvarint framing), so no two distinct canonical
// requests share an encoding. Option fields are all included — timeout,
// stall budget and worker count change what an anytime solver returns,
// so they distinguish cache entries.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/workload"
)

// Request is a transport-independent placement request: the instance a
// placement service is asked to solve. Fabric names a device (the
// fabric catalog's vocabulary, though canon treats it as an opaque
// identifier), Region optionally windows it (the zero Rect means the
// full device), Modules are the units to place and Options tune the
// solver.
type Request struct {
	Fabric  string
	Region  grid.Rect
	Modules []*module.Module
	Options core.RequestOptions
}

// Digest is a SHA-256 fingerprint of a canonical request.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Order maps a canonical request back to the request it was computed
// from: canonical module c is the request's module Modules[c], and
// canonical shape k of that module is the request module's shape
// Shapes[c][k]. Two requests with one digest share their canonical
// form, so a result indexed canonically answers either of them in its
// own order through its Order.
type Order struct {
	Modules []int
	Shapes  [][]int
}

// order validates the request and sorts it into canonical order.
func (r *Request) order() (Order, error) {
	if r.Fabric == "" {
		return Order{}, fmt.Errorf("canon: empty fabric name")
	}
	if len(r.Modules) == 0 {
		return Order{}, fmt.Errorf("canon: no modules in request")
	}
	if err := r.Options.Validate(); err != nil {
		return Order{}, fmt.Errorf("canon: %w", err)
	}
	seen := make(map[string]bool, len(r.Modules))
	for i, m := range r.Modules {
		if m == nil {
			return Order{}, fmt.Errorf("canon: nil module at index %d", i)
		}
		if seen[m.Name()] {
			return Order{}, fmt.Errorf("canon: duplicate module name %q", m.Name())
		}
		seen[m.Name()] = true
	}
	o := Order{Modules: sortedIndexes(r.Modules, (*module.Module).Name)}
	o.Shapes = make([][]int, len(o.Modules))
	for c, i := range o.Modules {
		o.Shapes[c] = sortedIndexes(r.Modules[i].Shapes(), (*module.Shape).Key)
	}
	return o, nil
}

// sortedIndexes returns the indexes of xs in ascending key order.
// Keys are unique: module names are checked, and a module drops
// duplicate shapes.
func sortedIndexes[T any](xs []T, key func(T) string) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return strings.Compare(key(xs[a]), key(xs[b])) })
	return idx
}

// sortedUniqueInts returns a sorted copy of xs with duplicates removed
// (nil in, nil out).
func sortedUniqueInts(xs []int) []int {
	if xs == nil {
		return nil
	}
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// Digest canonicalizes the request and returns the SHA-256 of its
// canonical encoding.
func (r *Request) Digest() (Digest, error) {
	d, _, err := r.Key()
	return d, err
}

// Key canonicalizes the request once and returns its digest and the
// Order that leads from the canonical form back to the request.
func (r *Request) Key() (Digest, Order, error) {
	o, err := r.order()
	if err != nil {
		return Digest{}, Order{}, err
	}
	n := 256 // the frame's fixed part and options, mostly
	for _, m := range r.Modules {
		n += len(m.Name()) + 2*binary.MaxVarintLen64
		for _, s := range m.Shapes() {
			n += len(s.Key()) + binary.MaxVarintLen64
		}
	}
	return sha256.Sum256(r.appendEncoding(make([]byte, 0, n), o)), o, nil
}

// encVersion tags the encoding layout; bump it whenever the frame
// structure below changes so old digests cannot alias new ones.
// Version 2 added RequestOptions.Presolve to the options tail.
const encVersion = 2

// appendEncoding writes the canonical frame of r, visiting its modules
// and shapes in the canonical order o. Every variable-length field is
// length-prefixed, making the overall encoding injective.
func (r *Request) appendEncoding(b []byte, o Order) []byte {
	b = append(b, encVersion)
	b = appendString(b, r.Fabric)
	b = appendRect(b, r.Region)
	b = binary.AppendUvarint(b, uint64(len(o.Modules)))
	for c, i := range o.Modules {
		m := r.Modules[i]
		b = appendString(b, m.Name())
		b = binary.AppendUvarint(b, uint64(len(o.Shapes[c])))
		for _, j := range o.Shapes[c] {
			b = appendString(b, m.Shape(j).Key())
		}
	}
	opts := r.Options
	opts.BusRows = sortedUniqueInts(opts.BusRows)
	return appendOptions(b, opts)
}

// appendOptions writes the solver options, the tail of both frames.
func appendOptions(b []byte, o core.RequestOptions) []byte {
	b = binary.AppendVarint(b, int64(o.Timeout))
	b = append(b, byte(o.Strategy), byte(o.ValueOrder), boolByte(o.FirstSolutionOnly))
	b = binary.AppendVarint(b, o.StallNodes)
	b = binary.AppendUvarint(b, uint64(len(o.BusRows)))
	for _, r := range o.BusRows {
		b = binary.AppendVarint(b, int64(r))
	}
	b = binary.AppendVarint(b, int64(o.Workers))
	b = append(b, boolByte(o.StrongPropagation), byte(o.Presolve))
	return b
}

// Spec is a placement request whose modules are the seeded workload
// generator's batch (workload.Generate with Generate and Seed) instead
// of an explicit list. A spec fixes its modules and their order, so
// its Digest can key a finished answer before the batch is expanded.
type Spec struct {
	Fabric   string
	Region   grid.Rect
	Generate workload.Config
	Seed     int64
	Options  core.RequestOptions
}

// specTag opens the spec frame. Canonical frames open with encVersion,
// so no spec digest aliases a canonical one.
const specTag = 'g'

// Digest returns the SHA-256 of the spec's frame: the fabric, region,
// generator config after Defaults, seed, workload.GeneratorVersion and
// the options with bus rows sorted and deduplicated, as in a request's
// canonical encoding. Equal digests
// mean equal batches on equal canonical instances.
func (s *Spec) Digest() Digest {
	g := s.Generate.Defaults()
	b := make([]byte, 0, 128)
	b = append(b, specTag, encVersion)
	b = binary.AppendUvarint(b, workload.GeneratorVersion)
	b = appendString(b, s.Fabric)
	b = appendRect(b, s.Region)
	for _, v := range []int{g.NumModules, g.CLBMin, g.CLBMax, g.BRAMMin, g.BRAMMax, g.DSPMax, g.Alternatives} {
		b = binary.AppendVarint(b, int64(v))
	}
	b = append(b, boolByte(g.NoBRAM), boolByte(g.NoRotation))
	b = binary.AppendVarint(b, s.Seed)
	o := s.Options
	o.BusRows = sortedUniqueInts(o.BusRows)
	return sha256.Sum256(appendOptions(b, o))
}

func appendRect(b []byte, r grid.Rect) []byte {
	b = binary.AppendVarint(b, int64(r.MinX))
	b = binary.AppendVarint(b, int64(r.MinY))
	b = binary.AppendVarint(b, int64(r.MaxX))
	return binary.AppendVarint(b, int64(r.MaxY))
}

// appendString writes a uvarint length prefix followed by the bytes.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
