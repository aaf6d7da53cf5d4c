// Package csp is a small finite-domain constraint-programming kernel:
// integer variables with bitset domains, propagators run to fixpoint over
// a watch-based queue, chronological backtracking with trailing, and
// depth-first search with branch-and-bound minimisation.
//
// It is the solving substrate under the geost geometric kernel and the
// module placer, playing the role the SICStus/choco-hosted solver of
// Beldiceanu et al. plays in the paper. The kernel is deliberately
// general — classic finite-domain constraints, pluggable search — so it
// is usable (and tested) independently of placement.
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

func (d *Domain) recomputeBounds() {
	if d.size == 0 {
		return
	}
	for w, word := range d.words {
		if word != 0 {
			d.min = d.base + w*64 + bits.TrailingZeros64(word)
			break
		}
	}
	for w := len(d.words) - 1; w >= 0; w-- {
		if d.words[w] != 0 {
			d.max = d.base + w*64 + 63 - bits.LeadingZeros64(d.words[w])
			break
		}
	}
}

// Remove deletes v, reporting whether the domain changed.
func (d *Domain) Remove(v int) bool {
	i := v - d.base
	if i < 0 || i >= len(d.words)*64 {
		return false
	}
	w, b := i>>6, uint(i&63)
	if d.words[w]&(1<<b) == 0 {
		return false
	}
	d.words[w] &^= 1 << b
	d.size--
	if d.size > 0 && (v == d.min || v == d.max) {
		d.recomputeBounds()
	}
	return true
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

// Filter retains only values for which keep returns true, reporting
// change.
func (d *Domain) Filter(keep func(int) bool) bool {
	changed := false
	for w := range d.words {
		word := d.words[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			v := d.base + w*64 + b
			if !keep(v) {
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
func (d *Domain) AnyInRange(lo, hi int) bool {
	if d.size == 0 || hi < lo {
		return false
	}
	i := lo - d.base
	j := hi - d.base
	if j < 0 || i >= len(d.words)*64 {
		return false
	}
	if i < 0 {
		i = 0
	}
	if j >= len(d.words)*64 {
		j = len(d.words)*64 - 1
	}
	wi, wj := i>>6, j>>6
	if wi == wj {
		mask := (^uint64(0) << uint(i&63)) & (^uint64(0) >> uint(63-j&63))
		return d.words[wi]&mask != 0
	}
	if d.words[wi]&(^uint64(0)<<uint(i&63)) != 0 {
		return true
	}
	for w := wi + 1; w < wj; w++ {
		if d.words[w] != 0 {
			return true
		}
	}
	return d.words[wj]&(^uint64(0)>>uint(63-j&63)) != 0
}

// ForEach calls fn on every value in ascending order until fn returns
// false.
func (d *Domain) ForEach(fn func(int) bool) {
	for w := range d.words {
		word := d.words[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
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

// Equal reports whether d and o contain the same values.
func (d *Domain) Equal(o *Domain) bool {
	if d.size != o.size {
		return false
	}
	eq := true
	d.ForEach(func(v int) bool {
		if !o.Contains(v) {
			eq = false
			return false
		}
		return true
	})
	return eq
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
