package faultinject

import (
	"errors"
	"maps"
	"strings"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	inj, err := Parse("solver:timeout:1;cache:latency:0.25:10ms,queue:error:0.5", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := "solver:timeout:1;cache:latency:0.25:10ms;queue:error:0.5"
	if got := inj.String(); got != want {
		t.Fatalf("spec round trip = %q, want %q", got, want)
	}
}

func TestParseEmptyDisables(t *testing.T) {
	for _, spec := range []string{"", "   "} {
		inj, err := Parse(spec, 1)
		if err != nil || inj != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, inj, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct {
		name, spec, wantSub string
	}{
		{"bad-site", "disk:error:1", "unknown site"},
		{"bad-mode", "solver:explode:1", "unknown mode"},
		{"bad-rate", "solver:error:lots", "bad rate"},
		{"zero-rate", "solver:error:0", "outside (0, 1]"},
		{"over-rate", "solver:error:1.5", "outside (0, 1]"},
		{"bad-delay", "cache:latency:1:fast", "bad delay"},
		{"latency-no-delay", "cache:latency:1", "positive delay"},
		{"partial-wrong-site", "cache:partial:1", "solver site"},
		{"too-few-fields", "solver:error", "site:mode:rate"},
		{"too-many-fields", "solver:error:1:1ms:x", "site:mode:rate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.spec, 1); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Parse(%q) error = %v, want substring %q", tc.spec, err, tc.wantSub)
			}
		})
	}
}

func TestCheckRateOneAlwaysFires(t *testing.T) {
	inj, err := Parse("solver:timeout:1", 7)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 100; n++ {
		d := inj.Check(SiteSolver)
		if !d.Timeout {
			t.Fatalf("check %d: rate-1 timeout rule did not fire: %+v", n, d)
		}
	}
	if got := inj.Stats()["solver:timeout"]; got != 100 {
		t.Fatalf("solver:timeout hits = %d, want 100", got)
	}
	// Unarmed sites never fire.
	if d := inj.Check(SiteCache); d != (Decision{}) {
		t.Fatalf("unarmed site injected %+v", d)
	}
}

func TestCheckDeterministicReplay(t *testing.T) {
	run := func() []bool {
		inj, err := Parse("queue:error:0.5", 42)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for n := range out {
			out[n] = inj.Check(SiteQueue).Err != nil
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("check %d diverged between identical seeded runs", n)
		}
		if a[n] {
			fired++
		}
	}
	// A 0.5 rate over 200 draws fires roughly half the time; the exact
	// count is pinned by the seed, the bounds only guard the parser
	// against rate misinterpretation (percent vs fraction).
	if fired < 60 || fired > 140 {
		t.Fatalf("rate 0.5 fired %d/200 times", fired)
	}
}

func TestCheckComposesLatencyWithError(t *testing.T) {
	inj, err := New(1,
		Rule{Site: SiteCache, Mode: ModeLatency, Rate: 1, Delay: 3 * time.Millisecond},
		Rule{Site: SiteCache, Mode: ModeError, Rate: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	d := inj.Check(SiteCache)
	if d.Delay != 3*time.Millisecond {
		t.Fatalf("delay = %v, want 3ms", d.Delay)
	}
	if !errors.Is(d.Err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", d.Err)
	}
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var inj *Injector
	if d := inj.Check(SiteSolver); d != (Decision{}) {
		t.Fatalf("nil injector injected %+v", d)
	}
	if s := inj.Stats(); len(s) != 0 {
		t.Fatalf("nil injector stats = %v", s)
	}
	if inj.String() != "" {
		t.Fatalf("nil injector renders %q", inj.String())
	}
}

// TestDisabledCheckAllocs pins the zero-cost-when-disabled contract in
// the obs style: the per-request fault checks of a daemon running
// without -faults must not allocate.
func TestDisabledCheckAllocs(t *testing.T) {
	var inj *Injector
	allocs := testing.AllocsPerRun(200, func() {
		inj.Check(SiteCache)
		inj.Check(SiteSingleflight)
		inj.Check(SiteQueue)
		inj.Check(SiteSolver)
	})
	if allocs != 0 {
		t.Fatalf("disabled fault checks allocate %.1f times per request, want 0", allocs)
	}
}

// BenchmarkCheckDisabled is the disabled-path cost: one nil check per
// site, no locks, no PRNG draw.
func BenchmarkCheckDisabled(b *testing.B) {
	var inj *Injector
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		inj.Check(SiteSolver)
	}
}

func TestStatsCountPerRule(t *testing.T) {
	inj, err := Parse("solver:timeout:1;cache:error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	inj.Check(SiteSolver)
	inj.Check(SiteCache)
	inj.Check(SiteCache)
	want := map[string]int64{"cache:error": 2, "solver:timeout": 1}
	if got := inj.Stats(); !maps.Equal(got, want) {
		t.Fatalf("stats = %v, want %v", got, want)
	}
}

func TestSiteModeParseInverse(t *testing.T) {
	for _, s := range []Site{SiteCache, SiteSingleflight, SiteQueue, SiteSolver} {
		got, err := ParseSite(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseSite(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, m := range []Mode{ModeError, ModeLatency, ModeTimeout, ModePartial} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if Site(200).String() != "unknown" || Mode(200).String() != "unknown" {
		t.Fatal("out-of-range Site/Mode must render unknown")
	}
}
