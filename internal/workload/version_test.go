package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// pinnedGenerator is the digest of Generate's output over pinSpecs
// under the version it was taken at. A generator change that moves the
// digest must bump GeneratorVersion and re-pin both fields together:
// spec-keyed caches rely on the version to tell the old batches from
// the new.
var pinnedGenerator = struct {
	version int
	digest  string
}{1, "c78f73a9b5719993687edd0d53af51cb348ffc487c44bb2e9a6ee18fea98b5b9"}

// pinSpecs cover the paper default, a DSP-bearing batch, no BRAM, no
// rotation and single-alternative modules.
var pinSpecs = []struct {
	cfg  Config
	seed int64
}{
	{Config{}, 1},
	{Config{}, 7},
	{Config{NumModules: 10, CLBMin: 40, CLBMax: 200, DSPMax: 4}, 3},
	{Config{NumModules: 6, CLBMin: 4, CLBMax: 6, NoBRAM: true, Alternatives: 2}, 2},
	{Config{NumModules: 5, NoRotation: true}, 11},
	{Config{NumModules: 5, Alternatives: 1}, 5},
}

func generatorDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, sp := range pinSpecs {
		mods, err := Generate(sp.cfg, rand.New(rand.NewSource(sp.seed)))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte{'{'})
		for _, m := range mods {
			h.Write([]byte(m.Name() + ":"))
			for _, s := range m.Shapes() {
				h.Write([]byte(s.Key() + "|"))
			}
		}
		h.Write([]byte{'}'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGeneratorVersionPinned(t *testing.T) {
	got := generatorDigest(t)
	if GeneratorVersion != pinnedGenerator.version || got != pinnedGenerator.digest {
		t.Fatalf("generator output digest %s at GeneratorVersion %d; pinned %s at version %d.\n"+
			"If Generate's output changed on purpose, bump GeneratorVersion and re-pin both.",
			got, GeneratorVersion, pinnedGenerator.digest, pinnedGenerator.version)
	}
}
