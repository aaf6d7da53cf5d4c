// Package csp is a small finite-domain constraint-programming kernel:
// integer variables with bitset domains, propagators run to fixpoint over
// a watch-based queue, chronological backtracking with trailing, and
// depth-first search with branch-and-bound minimisation.
//
// It is the solving substrate under the geost geometric kernel and the
// module placer, playing the role the SICStus/choco-hosted solver of
// Beldiceanu et al. plays in the paper. It ships only the propagators
// the placement model posts (LessEq/LessEqOffset, MaxOf, FuncProp);
// geost adds its own through the Propagator interface. The engine is
// tested independently of placement on classic models (n-queens,
// Langford pairs, magic series, Golomb rulers) built from a test-only
// not-equal propagator and FuncProps.
package csp

import (
	"fmt"
	"math/bits"
	"strings"
)

// Domain is a finite set of integers in a fixed universe established at
// construction. It is a dense bitset with cached size and bounds; all
// mutating operations report whether they changed the set, which drives
// propagation scheduling.
//
// Domains are value types owned by the Store once attached to a
// variable; constraint code must mutate them only through Store methods
// so trailing and watcher wake-ups happen.
type Domain struct {
	base  int // value of bit 0; multiple of 64 offsets are not required
	words []uint64
	size  int
	min   int
	max   int
}

// NewDomainRange returns the domain {lo..hi} (inclusive). It panics if
// hi < lo: an empty universe is a caller bug, while an empty *domain*
// arises only from pruning.
func NewDomainRange(lo, hi int) *Domain {
	if hi < lo {
		panic(fmt.Sprintf("csp: empty domain range [%d,%d]", lo, hi))
	}
	n := hi - lo + 1
	d := &Domain{base: lo, words: make([]uint64, (n+63)/64), size: n, min: lo, max: hi}
	for i := 0; i < n; i++ {
		d.words[i>>6] |= 1 << uint(i&63)
	}
	return d
}

// NewDomainValues returns the domain holding exactly the given values
// (duplicates ignored). It panics on an empty list.
func NewDomainValues(vals ...int) *Domain {
	if len(vals) == 0 {
		panic("csp: empty domain value list")
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	d := &Domain{base: lo, words: make([]uint64, (hi-lo+64)/64)}
	for _, v := range vals {
		i := v - lo
		w, b := i>>6, uint(i&63)
		if d.words[w]&(1<<b) == 0 {
			d.words[w] |= 1 << b
			d.size++
		}
	}
	d.min, d.max = lo, hi
	return d
}

// Clone returns an independent copy.
func (d *Domain) Clone() *Domain {
	w := make([]uint64, len(d.words))
	copy(w, d.words)
	return &Domain{base: d.base, words: w, size: d.size, min: d.min, max: d.max}
}

// Size returns the number of values.
func (d *Domain) Size() int { return d.size }

// Empty reports whether the domain has no values.
func (d *Domain) Empty() bool { return d.size == 0 }

// Singleton returns the sole value and true when exactly one value
// remains.
func (d *Domain) Singleton() (int, bool) {
	if d.size == 1 {
		return d.min, true
	}
	return 0, false
}

// Min returns the smallest value. It panics on an empty domain.
func (d *Domain) Min() int {
	if d.size == 0 {
		panic("csp: Min of empty domain")
	}
	return d.min
}

// Max returns the largest value. It panics on an empty domain.
func (d *Domain) Max() int {
	if d.size == 0 {
		panic("csp: Max of empty domain")
	}
	return d.max
}

// Contains reports whether v is in the domain.
func (d *Domain) Contains(v int) bool {
	i := v - d.base
	if i < 0 || i >= len(d.words)*64 {
		return false
	}
	return d.words[i>>6]&(1<<uint(i&63)) != 0
}

// window is the word range that holds a domain's values in some
// [lo, hi], with masks that clear the bits outside [lo, hi] in its
// first and last words.
type window struct {
	wi, wj      int
	first, last uint64
}

// window returns the window of [lo, hi] narrowed to the cached bounds;
// ok is false when no value can lie in it. Every scan starts here, so an
// assigned variable costs one word whatever its universe.
func (d *Domain) window(lo, hi int) (win window, ok bool) {
	if d.size == 0 {
		return window{}, false
	}
	lo, hi = max(lo, d.min), min(hi, d.max)
	if hi < lo {
		return window{}, false
	}
	i, j := lo-d.base, hi-d.base
	return window{i >> 6, j >> 6, ^uint64(0) << uint(i&63), ^uint64(0) >> uint(63-j&63)}, true
}

// word returns word w of the domain masked to the window.
func (d *Domain) word(win window, w int) uint64 {
	x := d.words[w]
	if w == win.wi {
		x &= win.first
	}
	if w == win.wj {
		x &= win.last
	}
	return x
}

// recomputeBounds refreshes the cached min and max after a removal.
// Removals only shrink the set, so the old bounds still bracket it.
func (d *Domain) recomputeBounds() {
	if d.size == 0 {
		return
	}
	d.min, d.max, _ = d.RangeBounds(d.min, d.max)
}

// RemoveBelow deletes every value < v, reporting change.
func (d *Domain) RemoveBelow(v int) bool {
	if d.size == 0 || v <= d.min {
		return false
	}
	changed := false
	i := v - d.base
	if i >= len(d.words)*64 {
		i = len(d.words) * 64
	}
	fullWords := i >> 6
	for w := 0; w < fullWords; w++ {
		if d.words[w] != 0 {
			d.size -= bits.OnesCount64(d.words[w])
			d.words[w] = 0
			changed = true
		}
	}
	if fullWords < len(d.words) && i&63 != 0 {
		mask := uint64(1)<<uint(i&63) - 1
		if kill := d.words[fullWords] & mask; kill != 0 {
			d.size -= bits.OnesCount64(kill)
			d.words[fullWords] &^= mask
			changed = true
		}
	}
	if changed && d.size > 0 {
		d.recomputeBounds()
	}
	return changed
}

// RemoveAbove deletes every value > v, reporting change.
func (d *Domain) RemoveAbove(v int) bool {
	if d.size == 0 || v >= d.max {
		return false
	}
	changed := false
	i := v - d.base + 1 // first bit index to kill
	if i < 0 {
		i = 0 // v below the universe: kill everything
	}
	startWord := i >> 6
	if startWord < len(d.words) && i&63 != 0 {
		mask := ^(uint64(1)<<uint(i&63) - 1)
		if kill := d.words[startWord] & mask; kill != 0 {
			d.size -= bits.OnesCount64(kill)
			d.words[startWord] &^= mask
			changed = true
		}
		startWord++
	}
	for w := startWord; w < len(d.words); w++ {
		if d.words[w] != 0 {
			d.size -= bits.OnesCount64(d.words[w])
			d.words[w] = 0
			changed = true
		}
	}
	if changed && d.size > 0 {
		d.recomputeBounds()
	}
	return changed
}

// KeepOnly reduces the domain to {v} if present; otherwise it empties
// the domain. Reports change.
func (d *Domain) KeepOnly(v int) bool {
	if !d.Contains(v) {
		if d.size == 0 {
			return false
		}
		for i := range d.words {
			d.words[i] = 0
		}
		d.size = 0
		return true
	}
	if d.size == 1 {
		return false
	}
	for i := range d.words {
		d.words[i] = 0
	}
	i := v - d.base
	d.words[i>>6] = 1 << uint(i&63)
	d.size = 1
	d.min, d.max = v, v
	return true
}

// FilterIn retains the values outside [lo, hi] and those inside it for
// which keep returns true, reporting change. keep sees only the values
// in [lo, hi].
func (d *Domain) FilterIn(lo, hi int, keep func(int) bool) bool {
	win, ok := d.window(lo, hi)
	if !ok {
		return false
	}
	changed := false
	for w := win.wi; w <= win.wj; w++ {
		word := d.word(win, w)
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if !keep(d.base + w*64 + b) {
				d.words[w] &^= 1 << uint(b)
				d.size--
				changed = true
			}
		}
	}
	if changed && d.size > 0 {
		d.recomputeBounds()
	}
	return changed
}

// AnyInRange reports whether the domain holds any value in [lo, hi]
// (inclusive). It scans whole words, so testing a block of encoded
// values is far cheaper than iterating them.
func (d *Domain) AnyInRange(lo, hi int) (found bool) {
	d.ForEachIn(lo, hi, func(int) bool { found = true; return false })
	return found
}

// RangeBounds returns the smallest and the largest value of the domain
// in [lo, hi] (inclusive); ok is false when there is none. Like
// AnyInRange it scans whole words.
func (d *Domain) RangeBounds(lo, hi int) (first, last int, ok bool) {
	d.ForEachIn(lo, hi, func(v int) bool { first, ok = v, true; return false })
	d.ForEachDescIn(lo, hi, func(v int) bool { last = v; return false })
	return first, last, ok
}

// ForEach calls fn on every value in ascending order until fn returns
// false.
func (d *Domain) ForEach(fn func(int) bool) { d.ForEachIn(d.min, d.max, fn) }

// ForEachIn calls fn on every value in [lo, hi] in ascending order
// until fn returns false.
func (d *Domain) ForEachIn(lo, hi int, fn func(int) bool) {
	win, ok := d.window(lo, hi)
	if !ok {
		return
	}
	for w := win.wi; w <= win.wj; w++ {
		word := d.word(win, w)
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if !fn(d.base + w*64 + b) {
				return
			}
		}
	}
}

// ForEachDescIn calls fn on every value in [lo, hi] in descending order
// until fn returns false.
func (d *Domain) ForEachDescIn(lo, hi int, fn func(int) bool) {
	win, ok := d.window(lo, hi)
	if !ok {
		return
	}
	for w := win.wj; w >= win.wi; w-- {
		word := d.word(win, w)
		for word != 0 {
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << uint(b)
			if !fn(d.base + w*64 + b) {
				return
			}
		}
	}
}

// Values returns all values in ascending order.
func (d *Domain) Values() []int {
	out := make([]int, 0, d.size)
	d.ForEach(func(v int) bool { out = append(out, v); return true })
	return out
}

// String renders small domains as "{1,3,5}" and large ones as
// "{lo..hi|n}".
func (d *Domain) String() string {
	if d.size == 0 {
		return "{}"
	}
	if d.size > 12 {
		return fmt.Sprintf("{%d..%d|%d}", d.min, d.max, d.size)
	}
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	d.ForEach(func(v int) bool {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "%d", v)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
