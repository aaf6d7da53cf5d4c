package netlist

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/module"
)

func sample() *Netlist {
	return &Netlist{
		Name: "adder",
		Cells: []Cell{
			{"l0", LUT}, {"l1", LUT}, {"l2", LUT},
			{"f0", FF}, {"f1", FF},
			{"m0", BRAMCell},
		},
		Nets: []Net{
			{"n0", []string{"l0", "f0"}},
			{"n1", []string{"l1", "l2", "f1"}},
			{"n2", []string{"m0", "l0"}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	mk := func(mut func(*Netlist)) *Netlist {
		n := sample()
		mut(n)
		return n
	}
	cases := map[string]*Netlist{
		"empty name":   mk(func(n *Netlist) { n.Name = "" }),
		"no cells":     mk(func(n *Netlist) { n.Cells = nil }),
		"unnamed cell": mk(func(n *Netlist) { n.Cells[0].Name = "" }),
		"dup cell":     mk(func(n *Netlist) { n.Cells[1].Name = "l0" }),
		"bad kind":     mk(func(n *Netlist) { n.Cells[0].Kind = CellKind(99) }),
		"unnamed net":  mk(func(n *Netlist) { n.Nets[0].Name = "" }),
		"dup net":      mk(func(n *Netlist) { n.Nets[1].Name = "n0" }),
		"one-pin net":  mk(func(n *Netlist) { n.Nets[0].Pins = n.Nets[0].Pins[:1] }),
		"dangling pin": mk(func(n *Netlist) { n.Nets[0].Pins = []string{"l0", "ghost"} }),
	}
	for name, n := range cases {
		if n.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCountsAndFanout(t *testing.T) {
	n := sample()
	if n.Count(LUT) != 3 || n.Count(FF) != 2 || n.Count(BRAMCell) != 1 || n.Count(DSPCell) != 0 {
		t.Fatal("counts wrong")
	}
	if got := n.AvgFanout(); got < 2.3 || got > 2.4 { // (2+3+2)/3
		t.Fatalf("AvgFanout = %v", got)
	}
	empty := &Netlist{Name: "e", Cells: []Cell{{"c", LUT}}}
	if empty.AvgFanout() != 0 {
		t.Fatal("netless fanout not 0")
	}
}

func TestPack(t *testing.T) {
	n := sample()
	d, err := Pack(n, PackingTarget{LUTsPerCLB: 2, FFsPerCLB: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 3 LUT / 2 per CLB = 2; 2 FF / 4 per CLB = 1; max = 2. 1 BRAM.
	want := module.Demand{CLB: 2, BRAM: 1}
	if d != want {
		t.Fatalf("Pack = %+v, want %+v", d, want)
	}
	if _, err := Pack(n, PackingTarget{}); err == nil {
		t.Fatal("invalid target accepted")
	}
	bad := sample()
	bad.Cells = nil
	if _, err := Pack(bad, DefaultPackingTarget()); err == nil {
		t.Fatal("invalid netlist accepted")
	}
}

func TestPackFFBound(t *testing.T) {
	n := &Netlist{Name: "ffheavy", Cells: []Cell{
		{"f0", FF}, {"f1", FF}, {"f2", FF}, {"f3", FF}, {"f4", FF}, {"l0", LUT},
	}}
	d, err := Pack(n, PackingTarget{LUTsPerCLB: 8, FFsPerCLB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.CLB != 3 { // 5 FF / 2 per CLB = 3 > 1 LUT-CLB
		t.Fatalf("CLB = %d, want 3", d.CLB)
	}
}

func TestToModule(t *testing.T) {
	m, err := ToModule(sample(), DefaultPackingTarget(), module.AlternativeOptions{Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "adder" || m.NumShapes() < 1 {
		t.Fatalf("module: %v", m)
	}
	h := m.Shape(0).Histogram()
	if h.Placeable() != 2 { // 1 CLB + 1 BRAM
		t.Fatalf("packed tiles = %d (%v)", h.Placeable(), h)
	}
}

func TestGenerateValidAndDeterministic(t *testing.T) {
	cfg := GenConfig{LUTs: 50, FFs: 40, BRAMs: 2, DSPs: 1}
	a, err := Generate("g", cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Count(LUT) != 50 || a.Count(BRAMCell) != 2 {
		t.Fatal("cell mix wrong")
	}
	if len(a.Nets) == 0 {
		t.Fatal("no nets generated")
	}
	b, err := Generate("g", cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("generation not deterministic")
	}
}

func TestGenerateDefaultsAndErrors(t *testing.T) {
	n, err := Generate("d", GenConfig{}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if n.Count(LUT) != 160 || n.Count(FF) != 120 {
		t.Fatal("defaults wrong")
	}
	if _, err := Generate("tiny", GenConfig{LUTs: 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("1-cell netlist accepted")
	}
}

func TestCellKindStrings(t *testing.T) {
	for k, want := range map[CellKind]string{LUT: "LUT", FF: "FF", BRAMCell: "BRAM", DSPCell: "DSP"} {
		if got := k.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if !strings.Contains(CellKind(9).String(), "CellKind") {
		t.Fatal("invalid kind String")
	}
}
