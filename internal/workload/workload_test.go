package workload

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/grid"
)

func TestDefaultsMatchPaper(t *testing.T) {
	c := Config{}.Defaults()
	if c.NumModules != 30 || c.CLBMin != 20 || c.CLBMax != 100 ||
		c.BRAMMin != 0 || c.BRAMMax != 4 || c.Alternatives != 4 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{NumModules: -1, CLBMax: 10, Alternatives: 1},
		{NumModules: 1, CLBMin: 5, CLBMax: 2, Alternatives: 1},
		{NumModules: 1, CLBMax: 10, BRAMMin: 3, BRAMMax: 1, Alternatives: 1},
		{NumModules: 1, CLBMax: 10, Alternatives: -2},
		{NumModules: 1, CLBMax: 10, DSPMax: -1, Alternatives: 1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestGenerateRespectsRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mods, err := Generate(Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 30 {
		t.Fatalf("len = %d", len(mods))
	}
	for _, m := range mods {
		h := m.Shape(0).Histogram()
		if h[fabric.CLB] < 20 || h[fabric.CLB] > 100 {
			t.Errorf("%s CLB = %d outside [20,100]", m.Name(), h[fabric.CLB])
		}
		if h[fabric.BRAM] > 4 {
			t.Errorf("%s BRAM = %d > 4", m.Name(), h[fabric.BRAM])
		}
		if m.NumShapes() > 4 || m.NumShapes() < 1 {
			t.Errorf("%s has %d shapes", m.Name(), m.NumShapes())
		}
		// All alternatives of a module consume the same resources.
		for _, s := range m.Shapes() {
			if s.Histogram() != h {
				t.Errorf("%s alternatives differ in resources", m.Name())
			}
		}
	}
}

func TestGenerateFourAlternativesTypical(t *testing.T) {
	// The paper's workload: 30 modules yield 120 shapes. Allow a small
	// shortfall for symmetric modules whose rotation collapses.
	rng := rand.New(rand.NewSource(2))
	mods := MustGenerate(Config{}, rng)
	total := 0
	for _, m := range mods {
		total += m.NumShapes()
	}
	if total < 110 || total > 120 {
		t.Fatalf("total shapes = %d, want ≈120", total)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Config{}, rand.New(rand.NewSource(5)))
	b := MustGenerate(Config{}, rand.New(rand.NewSource(5)))
	for i := range a {
		if a[i].Shape(0).Key() != b[i].Shape(0).Key() {
			t.Fatalf("module %d differs across same-seed runs", i)
		}
	}
	c := MustGenerate(Config{}, rand.New(rand.NewSource(6)))
	same := true
	for i := range a {
		if a[i].Shape(0).Key() != c[i].Shape(0).Key() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical batch")
	}
}

func TestFirstShapesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mods := MustGenerate(Config{}, rng)
	single := FirstShapesOnly(mods)
	for i := range single {
		if single[i].NumShapes() != 1 {
			t.Fatalf("module %d kept %d shapes", i, single[i].NumShapes())
		}
		if !single[i].Shape(0).Equal(mods[i].Shape(0)) {
			t.Fatalf("module %d primary shape changed", i)
		}
		if mods[i].NumShapes() == 1 {
			continue
		}
	}
	// Originals untouched.
	for i := range mods {
		if mods[i].NumShapes() == 1 {
			continue
		}
		if mods[i].NumShapes() < 2 {
			t.Fatal("original batch mutated")
		}
	}
}

func TestGenerateWithDSP(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mods := MustGenerate(Config{NumModules: 20, DSPMax: 3}, rng)
	anyDSP := false
	for _, m := range mods {
		if m.Shape(0).Histogram()[fabric.DSP] > 0 {
			anyDSP = true
		}
	}
	if !anyDSP {
		t.Fatal("DSPMax=3 produced no DSP demand in 20 modules")
	}
}

func TestGenerateNoRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	mods := MustGenerate(Config{NumModules: 5, NoRotation: true}, rng)
	for _, m := range mods {
		for i, s := range m.Shapes() {
			for j, o := range m.Shapes() {
				if i < j && s.Transform(grid.Rot180).Equal(o) {
					t.Fatalf("%s shapes %d/%d are rotations", m.Name(), i, j)
				}
			}
		}
	}
}
