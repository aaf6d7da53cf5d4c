package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/workload"
)

// The encoding/json decode the request pass replaced, kept as the
// reference FuzzDecodeRequest holds the pass to.

func refUnmarshal(body []byte, v any) error {
	dec := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxRequestBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func refModule(ms *ModuleSpec) (*module.Module, error) {
	shapes := make([]*module.Shape, len(ms.Shapes))
	for i, ss := range ms.Shapes {
		tiles := make([]module.Tile, len(ss.Tiles))
		for j, ts := range ss.Tiles {
			kind, err := fabric.ParseKind(ts.Kind)
			if err != nil {
				return nil, fmt.Errorf("module %q shape %d: %w", ms.Name, i, err)
			}
			tiles[j] = module.Tile{At: grid.Pt(ts.X, ts.Y), Kind: kind}
		}
		s, err := module.NewShape(tiles)
		if err != nil {
			return nil, fmt.Errorf("module %q shape %d: %w", ms.Name, i, err)
		}
		shapes[i] = s
	}
	return module.NewModule(ms.Name, shapes...)
}

// sameModule requires the pass's module build to agree with the
// reference's on accept or reject and on the module built.
func sameModule(t testing.TB, ref *ModuleSpec, got *wireModule) {
	t.Helper()
	want, wantErr := refModule(ref)
	have, haveErr := got.build()
	if (wantErr == nil) != (haveErr == nil) {
		t.Fatalf("module build: reference err %v, pass err %v", wantErr, haveErr)
	}
	if wantErr == nil && !reflect.DeepEqual(want, have) {
		t.Fatalf("module %q: pass built a different module", ref.Name)
	}
}

// checkDecode decodes body as a place request and as both session
// bodies, with the pass and with the reference, and fails unless the
// two agree on accept or reject and on every value decoded.
func checkDecode(t testing.TB, body []byte) {
	t.Helper()
	cfg := Config{}.withDefaults()

	var ref PlaceRequest
	refErr := refUnmarshal(body, &ref)
	d := &decoded{}
	err := parse(bytes.NewReader(body), -1, d)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("place body: reference err %v, pass err %v", refErr, err)
	}
	if err == nil {
		if len(ref.Modules) != len(d.mods) {
			t.Fatalf("pass decoded %d modules, reference %d", len(d.mods), len(ref.Modules))
		}
		for i := range ref.Modules {
			sameModule(t, &ref.Modules[i], &d.mods[i])
		}
		wire := ref
		wire.Modules = nil
		if !reflect.DeepEqual(wire, d.wire) {
			t.Fatalf("pass decoded %+v, reference %+v", d.wire, wire)
		}
		refD := &decoded{wire: ref}
		wantErr := refD.validate(len(ref.Modules) > 0, cfg)
		gotErr := d.validate(len(d.mods) > 0, cfg)
		if (wantErr == nil) != (gotErr == nil) || !reflect.DeepEqual(refD.req, d.req) {
			t.Fatalf("validate: reference (%v, %v), pass (%v, %v)", refD.req, wantErr, d.req, gotErr)
		}
		want := refD.req
		// A generate batch expands the same in both, the spec being
		// equal; an explicit list must expand to the same request.
		if wantErr == nil && ref.Generate == nil {
			want.Modules = make([]*module.Module, len(ref.Modules))
			var refErr error
			for i := range ref.Modules {
				if want.Modules[i], refErr = refModule(&ref.Modules[i]); refErr != nil {
					break
				}
			}
			creq, err := d.expand()
			if (refErr == nil) != (err == nil) {
				t.Fatalf("expand: reference err %v, pass err %v", refErr, err)
			}
			if err == nil && !reflect.DeepEqual(&want, creq) {
				t.Fatal("expand: the pass built a different request")
			}
		}
	}

	var refCreate, create SessionCreateRequest
	refErr = refUnmarshal(body, &refCreate)
	err = parse(bytes.NewReader(body), -1, &create)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("session create body: reference err %v, pass err %v", refErr, err)
	}
	if err == nil && !reflect.DeepEqual(refCreate, create) {
		t.Fatalf("session create: pass %+v, reference %+v", create, refCreate)
	}

	var refPlace SessionPlaceRequest
	var place sessionPlaceWire
	refErr = refUnmarshal(body, &refPlace)
	err = parse(bytes.NewReader(body), -1, &place)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("session place body: reference err %v, pass err %v", refErr, err)
	}
	if err == nil {
		if refPlace.Task != place.task || (refPlace.Module == nil) != (place.module == nil) {
			t.Fatalf("session place: pass task %d module %v, reference %+v", place.task, place.module, refPlace)
		}
		if place.module != nil {
			sameModule(t, refPlace.Module, place.module)
		}
	}
}

// decodeSeeds are the bodies FuzzDecodeRequest starts from: the smoke
// requests, the benchmark bodies, both session bodies and one case per
// rule of the decoder contract (DESIGN.md §9).
func decodeSeeds(t testing.TB) [][]byte {
	files, err := filepath.Glob("../../cmd/placed/testdata/smoke-request*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("smoke requests: %v (%d files)", err, len(files))
	}
	var seeds [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	mod := workload.MustGenerate(workload.Config{NumModules: 1}, rand.New(rand.NewSource(3)))[0]
	ms := ModuleSpecFor(mod)
	spec, err := json.Marshal(SessionPlaceRequest{Task: 7, Module: &ms})
	if err != nil {
		t.Fatal(err)
	}
	const fab = `"fabric":"virtex4-like-72x60"`
	const tile = `{"x":1,"y":2,"kind":"CLB"}`
	for _, s := range []string{
		benchRequest,
		benchExplicitRequest(t),
		string(spec),
		`{` + fab + `,"region":{"x":2,"y":1,"w":30,"h":20},"manager":"mer-best-fit","useAlternatives":true,"replan":{"stallNodes":50,"busRows":[3,1]}}`,
		// Keys fold: exact match first, then bytes.EqualFold (K is
		// KELVIN SIGN, ſ is LATIN SMALL LETTER LONG S).
		`{"FABRIC":"virtex4-like-72x60","Generate":{"ſeed":2,"NUMMODULES":3},"options":{"timeoutMS":900}}`,
		`{` + fab + `,"modules":[{"NAME":"a","shapes":[{"tiles":[{"X":1,"y":0,"\u212aind":"DSP"}]}]}]}`,
		`{"TASK":3,"Module":{"name":"b","Shapes":[{"Tiles":[` + tile + `]}]}}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[{"x":1,"y":0,"` + "\u212a" + `ind":"DSP"}]}]}]}`,
		// Repeated keys: objects merge, arrays merge element-wise into
		// what the earlier array left, scalars replace.
		`{"fabric":"x",` + fab + `,"region":{"x":1,"w":5},"region":{"y":2,"h":5},"modules":[{"name":"a","shapes":[{"tiles":[` + tile + `,{"x":2,"y":2,"kind":"BRAM"}]}]},{"name":"b","shapes":[{"tiles":[` + tile + `]}]}],"modules":[{"shapes":[{"tiles":[{"kind":"DSP"}]},{}]}],"modules":[{},{}]}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[` + tile + `,{"x":3,"y":3,"kind":"CLB"}],"tiles":[{"x":5}],"tiles":[{"kind":"BRAM"},{}]}]}]}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[` + tile + `,` + tile + `,` + tile + `],"tiles":[` + tile + `],"tiles":[` + tile + `,` + tile + `],"tiles":[{"x":7},{"y":7},{}]}]}]}`,
		`{` + fab + `,"options":{"busRows":[1,2,3]},"options":{"busRows":[4]},"options":{"busRows":[5,null,null]},"generate":{"seed":1}}`,
		// null: a no-op on scalars and structs, nil for pointers and
		// slices.
		`{` + fab + `,"region":{"x":1,"y":1,"w":9,"h":9},"region":null,"generate":{"seed":4,"seed":null,"noBram":true,"noBram":null},"options":null,"modules":null}`,
		`{"task":3,"task":null,"module":{"name":"m","shapes":[{"tiles":[` + tile + `]}]},"module":null}`,
		`{"task":3,"module":{"name":"m"},"module":{"shapes":[{"tiles":[` + tile + `]}]}}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[` + tile + `]},null]},null],"options":{"busRows":null}}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[` + tile + `]}]}],"modules":null,"generate":{"seed":1},"options":{"busRows":[2]},"options":{"busRows":null}}`,
		`{` + fab + `,"generate":{"seed":1},"options":{"busRows":[]}}`,
		`{` + fab + `,"replan":{"busRows":[]}}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[{"x":1,"y":1}]}]}]}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[null]}]}]}`,
		// Integers: a fraction, an exponent or an overflow rejects.
		`{` + fab + `,"generate":{"seed":-0,"numModules":2},"options":{"timeoutMs":9223372036854775807}}`,
		`{` + fab + `,"generate":{"seed":9223372036854775808}}`,
		`{` + fab + `,"generate":{"seed":1.0}}`,
		`{` + fab + `,"generate":{"seed":1e2}}`,
		`{` + fab + `,"generate":{"seed":01}}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[{"x":-0,"y":-3,"kind":"CLB"},{"x":01,"y":0,"kind":"CLB"}]}]}]}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[{"x":1,"y":2e0,"kind":"CLB"}]}]}]}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[{"x":1234567890123456789,"y":0,"kind":"CLB"}]}]}]}`,
		// Strings: every escape, surrogate pairs, lone surrogates,
		// invalid UTF-8 and a control character.
		`{` + fab + `,"modules":[{"name":"aé😀𐀀\"\\\/\b\f\n\r\t","shapes":[{"tiles":[{"x":0,"y":0,"kind":"CLB"}]}]}]}`,
		`{` + fab + `,"modules":[{"name":"\ud800\ud800x\udc00\ud83d","shapes":[{"tiles":[` + tile + `]}]}]}`,
		`{` + fab + `,"modules":[{"name":"\ud83d\ude00\u00e9\u0041","shapes":[{"tiles":[` + tile + `]}]}]}`,
		`{` + fab + `,"manager":"\ud83dA\uD83D\uDE00\udc00"}`,
		"{" + fab + `,"modules":[{"name":"bad` + "\xff\xe2\x82" + `utf8","shapes":[{"tiles":[` + tile + `]}]}]}`,
		"{" + fab + `,"modules":[{"name":"ctl` + "\x01" + `","shapes":[{"tiles":[` + tile + `]}]}]}`,
		`{` + fab + `,"modules":[{"name":"esc\q","shapes":[{"tiles":[` + tile + `]}]}]}`,
		// Body extent: bytes after the first value are ignored; a
		// truncated value rejects.
		`  {` + fab + `,"generate":{"seed":3}} trailing {[ bytes`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[{"x":1,"y"`,
		``,
		`null`,
		// Unknown keys and kinds, type mismatches.
		`{` + fab + `,"generate":{"seed":1},"extra":1}`,
		`{` + fab + `,"modules":[{"name":"a","shapes":[{"tiles":[{"x":1,"y":2,"kind":"IOB"},{"x":1,"y":3,"kind":"XYZ"}]}]}]}`,
		`{` + fab + `,"generate":{"seed":"1"},"region":[1]}`,
		`{"fabric":true,"task":-4,"useAlternatives":1}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestDecodeFieldsMatchTags pins each decoder's keys to the json tags
// of the wire type it stands for, in field order.
func TestDecodeFieldsMatchTags(t *testing.T) {
	for _, c := range []struct {
		names []string
		wire  any
	}{
		{placeFields, PlaceRequest{}}, {rectFields, RectSpec{}}, {moduleFields, ModuleSpec{}},
		{shapeFields, ShapeSpec{}}, {tileFields, TileSpec{}}, {generateFields, GenerateSpec{}},
		{optionFields, OptionsSpec{}}, {createFields, SessionCreateRequest{}}, {sessionFields, SessionPlaceRequest{}},
	} {
		typ := reflect.TypeOf(c.wire)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !slices.Equal(tags, c.names) {
			t.Errorf("%s: decoder keys %q, json tags %q", typ.Name(), c.names, tags)
		}
	}
}

func TestDecodeSeeds(t *testing.T) {
	for _, body := range decodeSeeds(t) {
		checkDecode(t, body)
	}
}

// TestDecodeBodyLimit: a value cut off by maxRequestBytes rejects, and
// one that ends inside the limit is read whatever follows it.
func TestDecodeBodyLimit(t *testing.T) {
	const head = `{"fabric":"virtex4-like-72x60","generate":{"seed":1}`
	pad := strings.Repeat(" ", maxRequestBytes)
	for _, body := range []string{head + pad + "}", head + "}" + pad + "]"} {
		checkDecode(t, []byte(body))
	}
	if _, err := DecodeRequest(strings.NewReader(head+pad+"}"), Config{}); err == nil {
		t.Fatal("a body cut off by the size limit decoded")
	}
}

// FuzzDecodeRequest holds the hand-written request pass to the
// encoding/json decoder it replaced: on every body, as a place request
// and as both session bodies, the two must agree on accept or reject
// and, on accept, on the values decoded and the expanded
// canon.Request.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range decodeSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// TestDecodeRepeatedListsLinear: a key repeated after one long list
// decodes into that list's first elements in place, as encoding/json
// does, so a body of many repeats costs memory in proportion to its
// length rather than to the long list times the repeats.
func TestDecodeRepeatedListsLinear(t *testing.T) {
	const n = 5000
	long := "[" + strings.Repeat("{},", n-1) + "{}]"
	for _, c := range []struct{ name, head, key, tail string }{
		{"tiles", `{"modules":[{"shapes":[{"tiles":`, `,"tiles":[{}]`, `}]}]}`},
		{"shapes", `{"modules":[{"shapes":`, `,"shapes":[{}]`, `}]}`},
	} {
		body := []byte(c.head + long + strings.Repeat(c.key, n) + c.tail)
		checkDecode(t, []byte(c.head+long+strings.Repeat(c.key, 3)+c.tail))
		parse(bytes.NewReader(body), -1, &decoded{}) // warm the reader pool
		// The least of three decodes, so that what other goroutines of
		// the test binary allocate meanwhile cannot fail it.
		got := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := parse(bytes.NewReader(body), -1, &decoded{}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(16 * len(body)); got > limit {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes, want at most %d", c.name, len(body), got, limit)
		}
	}
}

// TestDecodedShapesOutlivePooledReader: shapes own the tile lists the
// decoder makes, so nothing a pass returns may alias the reader it
// returns to the pool. It decodes body A, then other bodies through the
// same pool on two goroutines, compact and spaced out (the general
// path), while it reads A's shapes, and checks that A's tiles and
// digest are unchanged.
func TestDecodedShapesOutlivePooledReader(t *testing.T) {
	body := func(seed int64, spaced bool) []byte {
		mods := workload.MustGenerate(workload.Config{NumModules: 8}, rand.New(rand.NewSource(seed)))
		req := PlaceRequest{Fabric: "virtex4-like-72x60"}
		for _, m := range mods {
			req.Modules = append(req.Modules, ModuleSpecFor(m))
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if spaced {
			b = bytes.ReplaceAll(b, []byte(`":`), []byte(`" : `))
		}
		return b
	}
	a, err := DecodeRequest(bytes.NewReader(body(1, false)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var tiles [][]module.Tile
	for _, m := range a.Modules {
		for _, s := range m.Shapes() {
			tiles = append(tiles, slices.Clone(s.Tiles()))
		}
	}
	digest, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		i := 0
		for _, m := range a.Modules {
			for _, s := range m.Shapes() {
				if !slices.Equal(s.Tiles(), tiles[i]) {
					t.Fatalf("module %s: a shape's tiles changed after later decodes", m.Name())
				}
				i++
			}
		}
		if d, err := a.Digest(); err != nil || d != digest {
			t.Fatalf("digest %s (err %v) after later decodes, was %s", d, err, digest)
		}
	}
	done := make(chan error, 2)
	for g := int64(0); g < 2; g++ {
		go func() {
			for seed := 2 + 3*g; seed < 5+3*g; seed++ {
				if _, err := DecodeRequest(bytes.NewReader(body(seed, seed%2 == 0)), Config{}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	check()
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	check()
}
