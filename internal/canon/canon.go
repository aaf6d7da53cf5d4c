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
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
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

// shapeKeys holds every shape key of a request, rendered once into one
// buffer by module.Shape.AppendKey: shape j of request module i has key
// buf[end[k]:end[k+1]] with k = first[i]+j.
type shapeKeys struct {
	buf        []byte
	end, first []int
}

func (ks *shapeKeys) key(i, j int) []byte {
	k := ks.first[i] + j
	return ks.buf[ks.end[k]:ks.end[k+1]]
}

// order validates the request, renders its shape keys and sorts it into
// canonical order.
func (r *Request) order() (Order, *shapeKeys, error) {
	if r.Fabric == "" {
		return Order{}, nil, fmt.Errorf("canon: empty fabric name")
	}
	if len(r.Modules) == 0 {
		return Order{}, nil, fmt.Errorf("canon: no modules in request")
	}
	if err := r.Options.Validate(); err != nil {
		return Order{}, nil, fmt.Errorf("canon: %w", err)
	}
	seen := make(map[string]bool, len(r.Modules))
	ks := &shapeKeys{first: make([]int, len(r.Modules))}
	shapes, tiles := 0, 0
	for i, m := range r.Modules {
		if m == nil {
			return Order{}, nil, fmt.Errorf("canon: nil module at index %d", i)
		}
		if seen[m.Name()] {
			return Order{}, nil, fmt.Errorf("canon: duplicate module name %q", m.Name())
		}
		seen[m.Name()] = true
		ks.first[i] = shapes
		shapes += m.NumShapes()
		for _, s := range m.Shapes() {
			tiles += s.Size()
		}
	}
	// A tile's key takes at most 8 bytes while its coordinates stay
	// below 100; a longer one grows the buffer.
	ks.buf, ks.end = make([]byte, 0, 8*tiles), make([]int, 1, shapes+1)
	for _, m := range r.Modules {
		for _, s := range m.Shapes() {
			ks.buf = s.AppendKey(ks.buf)
			ks.end = append(ks.end, len(ks.buf))
		}
	}
	// The shape orders share one array, module by module.
	m := len(r.Modules)
	idx := make([]int, m+shapes)
	o := Order{Modules: sortIndexes(idx[:m:m], func(a, b int) int {
		return strings.Compare(r.Modules[a].Name(), r.Modules[b].Name())
	})}
	o.Shapes = make([][]int, m)
	idx = idx[m:]
	for c, i := range o.Modules {
		n := r.Modules[i].NumShapes()
		o.Shapes[c] = sortIndexes(idx[:n:n], func(a, b int) int {
			return bytes.Compare(ks.key(i, a), ks.key(i, b))
		})
		idx = idx[n:]
	}
	return o, ks, nil
}

// sortIndexes fills idx with 0..len(idx)-1 sorted by cmp and returns
// it. Keys are unique: module names are checked, and a module drops
// duplicate shapes.
func sortIndexes(idx []int, cmp func(a, b int) int) []int {
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, cmp)
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
	o, ks, err := r.order()
	if err != nil {
		return Digest{}, Order{}, err
	}
	h := sha256.New()
	r.writeEncoding(h, o, ks)
	var d Digest
	copy(d[:], h.Sum(nil))
	return d, o, nil
}

// encVersion tags the encoding layout; bump it whenever the frame
// structure below changes so old digests cannot alias new ones.
// Version 2 added RequestOptions.Presolve to the options tail.
const encVersion = 2

// flushAt is the size at which writeEncoding hands its buffer to the
// writer.
const flushAt = 4096

// writeEncoding writes the canonical frame of r to w, visiting its
// modules and shapes in the canonical order o with the keys ks. Every
// variable-length field is length-prefixed, making the overall encoding
// injective. The frame streams through a buffer of about flushAt bytes,
// so a large request's frame is never held whole. w is a hash or a
// bytes.Buffer, whose Write never fails.
func (r *Request) writeEncoding(w io.Writer, o Order, ks *shapeKeys) {
	b := make([]byte, 0, flushAt+256)
	b = append(b, encVersion)
	b = appendString(b, r.Fabric)
	b = appendRect(b, r.Region)
	b = binary.AppendUvarint(b, uint64(len(o.Modules)))
	for c, i := range o.Modules {
		b = appendString(b, r.Modules[i].Name())
		b = binary.AppendUvarint(b, uint64(len(o.Shapes[c])))
		for _, j := range o.Shapes[c] {
			key := ks.key(i, j)
			b = binary.AppendUvarint(b, uint64(len(key)))
			if len(b)+len(key) > flushAt {
				w.Write(b)
				b = b[:0]
			}
			b = append(b, key...)
		}
	}
	opts := r.Options
	opts.BusRows = sortedUniqueInts(opts.BusRows)
	w.Write(appendOptions(b, opts))
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
