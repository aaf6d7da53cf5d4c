package fabric

import "testing"

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %v", k, got)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus name")
	}
	if Kind(99).String() == "" {
		t.Error("invalid kind has empty String")
	}
}

func TestKindPlaceable(t *testing.T) {
	want := map[Kind]bool{
		CLB: true, BRAM: true, DSP: true,
		IOB: false, Clock: false, Static: false,
	}
	for k, w := range want {
		if got := k.Placeable(); got != w {
			t.Errorf("%v.Placeable = %v, want %v", k, got, w)
		}
	}
}

func TestKindRuneDistinct(t *testing.T) {
	seen := map[byte]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		r := k.Rune()
		if prev, dup := seen[r]; dup {
			t.Errorf("kinds %v and %v share rune %q", prev, k, r)
		}
		seen[r] = k
	}
	if Kind(99).Rune() != '?' {
		t.Error("invalid kind rune should be '?'")
	}
}

func TestKindValid(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if !k.Valid() {
			t.Errorf("%v not valid", k)
		}
	}
	if Kind(numKinds).Valid() {
		t.Error("numKinds must be invalid")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Add(CLB)
	h.Add(CLB)
	h.Add(BRAM)
	h.Add(Static)
	h.Add(Kind(200)) // ignored
	if h.Total() != 4 {
		t.Fatalf("Total = %d, want 4", h.Total())
	}
	if h.Placeable() != 3 {
		t.Fatalf("Placeable = %d, want 3", h.Placeable())
	}
	if h[CLB] != 2 || h[BRAM] != 1 || h[Static] != 1 {
		t.Fatalf("counts wrong: %v", h)
	}
	if h.String() == "" || h.String() == "empty" {
		t.Fatalf("String = %q", h.String())
	}
	var empty Histogram
	if empty.String() != "empty" {
		t.Errorf("empty histogram String = %q", empty.String())
	}
}
