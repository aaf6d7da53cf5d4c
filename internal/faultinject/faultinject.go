// Package faultinject is the deterministic fault-injection layer
// behind the serving stack's chaos testing: a seeded rule engine that
// decides, per instrumented site, whether a request experiences an
// injected error, an added latency, a missed deadline, or a partial
// result. The decision stream is driven by one seeded PRNG, so a given
// (seed, rule set, call sequence) replays identically — which is what
// lets the chaos harness (cmd/loadgen) and the failure-path tests
// assert exact behaviour instead of sampling flakiness.
//
// The package follows the internal/obs zero-cost-when-disabled
// contract: every method is nil-safe, and Check on a nil *Injector
// returns the zero Decision without locking, allocating, or reading
// the clock. Serving code therefore calls Check unconditionally; a
// daemon without -faults pays one nil check per site.
//
// Rule syntax (cmd/placed -faults, Parse):
//
//	rule     = site ":" mode ":" rate [":" delay]
//	rules    = rule { (";" | ",") rule }
//	site     = "cache" | "singleflight" | "queue" | "solver" |
//	           "session" | "defrag"
//	mode     = "error" | "latency" | "timeout" | "partial"
//	rate     = probability in (0, 1]
//	delay    = Go duration, required for mode "latency"
//
// Example: "solver:timeout:1;cache:latency:0.25:10ms" makes every
// exact solve miss its deadline and adds 10ms to a quarter of cache
// lookups.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand" //solverlint:allow nondeterminism fault decisions are seeded and replayable by construction; the seed is the determinism contract
	"strconv"
	"strings"
	"sync"
	"time"
)

// Site names an instrumented point in the serving stack.
type Site uint8

// Instrumented sites, in request-path order.
const (
	// SiteCache is the cache lookup: an injected error models an
	// unavailable cache backend (the service degrades to a forced miss,
	// bypassing the front table of answered bodies as well). It is
	// checked once per /v1/place request whose body was read, before
	// its first lookup, so a malformed body draws it too.
	SiteCache Site = iota
	// SiteSingleflight is the duplicate-request collapse point: an
	// injected error models a broken dedup layer (each request solves
	// solo).
	SiteSingleflight
	// SiteQueue is admission through the bounded solver gate: an injected
	// error models a full queue (shed), an injected timeout a request
	// that expired while queued.
	SiteQueue
	// SiteSolver is the exact solve itself: an injected timeout models
	// a deadline miss, an injected partial a stalled search with no
	// placement, an injected error a solver crash.
	SiteSolver
	// SiteSession is session-state access on the online serving path
	// (create/place/release/stats): an injected error models a lost or
	// corrupted session backend (→ 503), an injected timeout a session
	// lock that could not be taken in time (→ 504).
	SiteSession
	// SiteDefrag is the session defragmentation solve: an injected error
	// models a failed compaction (→ 503), an injected timeout a
	// compaction that exceeded its budget (→ 504).
	SiteDefrag

	numSites
)

// String names the site as it appears in rule specs and stats.
func (s Site) String() string {
	switch s {
	case SiteCache:
		return "cache"
	case SiteSingleflight:
		return "singleflight"
	case SiteQueue:
		return "queue"
	case SiteSolver:
		return "solver"
	case SiteSession:
		return "session"
	case SiteDefrag:
		return "defrag"
	}
	return "unknown"
}

// ParseSite is the inverse of Site.String.
func ParseSite(s string) (Site, error) {
	for site := Site(0); site < numSites; site++ {
		if site.String() == s {
			return site, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown site %q (want cache, singleflight, queue, solver, session or defrag)", s)
}

// Mode selects what a matching rule injects.
type Mode uint8

// Injection modes.
const (
	// ModeError injects ErrInjected at the site.
	ModeError Mode = iota
	// ModeLatency adds the rule's Delay to the site.
	ModeLatency
	// ModeTimeout makes the site behave as if its deadline passed.
	ModeTimeout
	// ModePartial (solver only) yields a stalled, placement-free
	// result instead of running the solve.
	ModePartial
)

// String names the mode as it appears in rule specs and stats.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModeTimeout:
		return "timeout"
	case ModePartial:
		return "partial"
	}
	return "unknown"
}

// ParseMode is the inverse of Mode.String.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeError, ModeLatency, ModeTimeout, ModePartial} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown mode %q (want error, latency, timeout or partial)", s)
}

// ErrInjected is the sentinel every ModeError injection surfaces;
// callers distinguish injected faults from organic ones with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule arms one site with one failure mode at a given probability.
type Rule struct {
	Site Site
	Mode Mode
	// Rate is the per-check injection probability in (0, 1].
	Rate float64
	// Delay is the added latency for ModeLatency (and may accompany
	// any mode as extra delay when set).
	Delay time.Duration
}

// Validate reports the first inconsistency in the rule.
func (r Rule) Validate() error {
	if r.Site >= numSites {
		return fmt.Errorf("faultinject: invalid site %d", r.Site)
	}
	if r.Mode > ModePartial {
		return fmt.Errorf("faultinject: invalid mode %d", r.Mode)
	}
	if r.Rate <= 0 || r.Rate > 1 {
		return fmt.Errorf("faultinject: rate %v outside (0, 1]", r.Rate)
	}
	if r.Mode == ModeLatency && r.Delay <= 0 {
		return fmt.Errorf("faultinject: latency rule on %s needs a positive delay", r.Site)
	}
	if r.Mode == ModePartial && r.Site != SiteSolver {
		return fmt.Errorf("faultinject: partial results only make sense on the solver site, not %s", r.Site)
	}
	return nil
}

// String renders the rule in spec syntax.
func (r Rule) String() string {
	s := fmt.Sprintf("%s:%s:%s", r.Site, r.Mode, strconv.FormatFloat(r.Rate, 'g', -1, 64))
	if r.Delay > 0 {
		s += ":" + r.Delay.String()
	}
	return s
}

// Decision is what one Check resolved to. The zero Decision means "no
// fault": the caller proceeds normally. Delay is returned, not slept,
// so the injector itself never blocks and tests can assert decisions
// without waiting.
type Decision struct {
	// Delay is extra latency the caller should impose before acting.
	Delay time.Duration
	// Err is ErrInjected when an error was injected.
	Err error
	// Timeout reports an injected deadline miss.
	Timeout bool
	// Partial reports an injected partial (stalled, empty) result.
	Partial bool
}

// Injector evaluates the armed rules against a seeded PRNG. Safe for
// concurrent use; all methods are nil-safe, and a nil *Injector is the
// documented "injection disabled" state.
type Injector struct {
	mu sync.Mutex
	//solverlint:allow nondeterminism explicitly seeded PRNG; chaos runs replay exactly from (seed, rules, call order)
	rng   *rand.Rand
	rules [numSites][]Rule
	hits  map[string]int64 // "site:mode" -> injections
	spec  string
}

// New builds an injector over the given rules, drawing injection
// decisions from a PRNG seeded with seed.
func New(seed int64, rules ...Rule) (*Injector, error) {
	if len(rules) == 0 {
		return nil, errors.New("faultinject: no rules")
	}
	inj := &Injector{
		//solverlint:allow nondeterminism the PRNG is explicitly seeded; replaying (seed, rules, call order) replays the decisions
		rng:  rand.New(rand.NewSource(seed)),
		hits: make(map[string]int64),
	}
	specs := make([]string, len(rules))
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		inj.rules[r.Site] = append(inj.rules[r.Site], r)
		specs[i] = r.String()
	}
	inj.spec = strings.Join(specs, ";")
	return inj, nil
}

// Parse builds an injector from a rule spec (see the package comment
// for the syntax). An empty spec returns (nil, nil): injection
// disabled.
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, raw := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		r, err := parseRule(raw)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return New(seed, rules...)
}

func parseRule(raw string) (Rule, error) {
	parts := strings.Split(raw, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return Rule{}, fmt.Errorf("faultinject: rule %q: want site:mode:rate[:delay]", raw)
	}
	site, err := ParseSite(parts[0])
	if err != nil {
		return Rule{}, fmt.Errorf("faultinject: rule %q: %w", raw, err)
	}
	mode, err := ParseMode(parts[1])
	if err != nil {
		return Rule{}, fmt.Errorf("faultinject: rule %q: %w", raw, err)
	}
	rate, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return Rule{}, fmt.Errorf("faultinject: rule %q: bad rate %q", raw, parts[2])
	}
	r := Rule{Site: site, Mode: mode, Rate: rate}
	if len(parts) == 4 {
		d, err := time.ParseDuration(parts[3])
		if err != nil {
			return Rule{}, fmt.Errorf("faultinject: rule %q: bad delay %q", raw, parts[3])
		}
		r.Delay = d
	}
	if err := r.Validate(); err != nil {
		return Rule{}, fmt.Errorf("faultinject: rule %q: %w", raw, err)
	}
	return r, nil
}

// Check evaluates site's rules and returns the composed decision.
// Latency rules accumulate into Delay; the first matching
// error/timeout/partial rule wins and stops evaluation. On a nil
// injector Check is a single branch: no locks, no allocations.
func (i *Injector) Check(site Site) Decision {
	if i == nil {
		return Decision{}
	}
	var d Decision
	i.mu.Lock()
	for _, r := range i.rules[site] {
		// Rate 1 must always fire, so compare with <= against a draw in
		// [0, 1); Float64 never returns 1.
		//solverlint:allow nondeterminism the draw comes from the injector's seeded PRNG, so decisions replay
		if i.rng.Float64() >= r.Rate {
			continue
		}
		i.hits[r.Site.String()+":"+r.Mode.String()]++
		switch r.Mode {
		case ModeLatency:
			d.Delay += r.Delay
			continue
		case ModeError:
			d.Err = ErrInjected
		case ModeTimeout:
			d.Timeout = true
		case ModePartial:
			d.Partial = true
		}
		d.Delay += r.Delay
		break
	}
	i.mu.Unlock()
	return d
}

// Stats snapshots the injection counts as "site:mode" -> fires. Nil
// (or untouched) injectors return an empty map.
func (i *Injector) Stats() map[string]int64 {
	out := map[string]int64{}
	if i == nil {
		return out
	}
	i.mu.Lock()
	for k, v := range i.hits { //solverlint:allow nondeterminism snapshot copy of telemetry counts; consumers sort keys for display
		out[k] = v
	}
	i.mu.Unlock()
	return out
}

// String renders the armed rules in spec syntax ("" when nil), so a
// daemon can echo its effective fault configuration.
func (i *Injector) String() string {
	if i == nil {
		return ""
	}
	return i.spec
}
