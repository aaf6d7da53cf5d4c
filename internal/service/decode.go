package service

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

// Every request body is read by one recursive-descent pass over its
// bytes. The pass accepts exactly the bodies encoding/json's Decoder
// with DisallowUnknownFields accepts and fills the same values
// (DESIGN.md §9 lists the rules; FuzzDecodeRequest pins them against
// encoding/json), but it writes tiles straight into module tiles and
// makes no string per tile.

// wireModule is a decoded ModuleSpec; build turns it into a module.
type wireModule struct {
	name   string
	shapes []wireShape
}

// wireShape is a decoded ShapeSpec. A tile whose kind is missing or
// names no fabric.Kind carries unknownKind.
type wireShape struct{ tiles []module.Tile }

const unknownKind = ^fabric.Kind(0)

// sessionPlaceWire is a decoded SessionPlaceRequest.
type sessionPlaceWire struct {
	task   int64
	module *wireModule
}

// The keys of each decoded struct, in the order its decoder lists the
// fields; they match the wire types' json tags.
var (
	placeFields    = []string{"fabric", "region", "modules", "generate", "options"}
	rectFields     = []string{"x", "y", "w", "h"}
	moduleFields   = []string{"name", "shapes"}
	shapeFields    = []string{"tiles"}
	tileFields     = []string{"x", "y", "kind"}
	generateFields = []string{"seed", "numModules", "clbMin", "clbMax", "bramMin", "bramMax", "noBram", "dspMax", "alternatives", "noRotation"}
	optionFields   = []string{"timeoutMs", "stallNodes", "strategy", "valueOrder", "firstSolutionOnly", "workers", "busRows", "strongPropagation", "presolve"}
	createFields   = []string{"fabric", "region", "manager", "useAlternatives", "replan"}
	sessionFields  = []string{"task", "module"}
)

// reader is one pass over a request body.
type reader struct {
	b      []byte
	i      int
	shapes pool[wireShape]
	tiles  pool[module.Tile]
}

// readers keeps a pass's body buffer and tile scratch for the next
// pass; nothing a pass returns aliases them.
var readers = sync.Pool{New: func() any { return new(reader) }}

// parse reads body, at most maxRequestBytes of it, and decodes its
// first JSON value into dst; bytes after that value are ignored. size
// is the body's length when known (an http.Request's ContentLength),
// -1 otherwise.
func parse(body io.Reader, size int64, dst any) error {
	if l, ok := body.(interface{ Len() int }); ok && size < 0 {
		size = int64(l.Len())
	}
	r := readers.Get().(*reader)
	defer func() {
		r.b, r.i = r.b[:0], 0
		readers.Put(r)
	}()
	// The buffer is sized from the declared length up to 1 MiB, which
	// holds any Table-I-sized batch; a longer body grows it as it
	// arrives, so a Content-Length that lies costs no more than that.
	buf := bytes.NewBuffer(r.b)
	if size > 0 {
		buf.Grow(int(min(size, 1<<20)) + bytes.MinRead)
	}
	_, readErr := buf.ReadFrom(io.LimitReader(body, maxRequestBytes))
	r.b = buf.Bytes()
	err := r.value(dst)
	if err != nil && readErr != nil {
		err = readErr // the value was cut short by a failed read
	}
	if err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	return nil
}

// value decodes the next JSON value into what p points to.
func (r *reader) value(p any) error {
	switch p := p.(type) {
	case *decoded:
		w := &p.wire
		return r.fields(placeFields, &w.Fabric, &w.Region, &p.mods, &w.Generate, &w.Options)
	case *SessionCreateRequest:
		return r.fields(createFields, &p.Fabric, &p.Region, &p.Manager, &p.UseAlternatives, &p.Replan)
	case *sessionPlaceWire:
		return r.fields(sessionFields, &p.task, &p.module)
	case **RectSpec:
		return ptr(r, p)
	case *RectSpec:
		return r.fields(rectFields, &p.X, &p.Y, &p.W, &p.H)
	case **GenerateSpec:
		return ptr(r, p)
	case *GenerateSpec:
		return r.fields(generateFields, &p.Seed, &p.NumModules, &p.CLBMin, &p.CLBMax,
			&p.BRAMMin, &p.BRAMMax, &p.NoBRAM, &p.DSPMax, &p.Alternatives, &p.NoRotation)
	case *OptionsSpec:
		return r.fields(optionFields, &p.TimeoutMs, &p.StallNodes, &p.Strategy, &p.ValueOrder,
			&p.FirstSolutionOnly, &p.Workers, &p.BusRows, &p.StrongPropagation, &p.Presolve)
	case **wireModule:
		return ptr(r, p)
	case *[]wireModule:
		return arrayInto(r, p, wireModule{})
	case *wireModule:
		return r.fields(moduleFields, &p.name, &p.shapes)
	case *[]wireShape:
		return r.shapes.array(r, p, wireShape{})
	case *wireShape:
		return r.fields(shapeFields, &p.tiles)
	case *[]module.Tile:
		if r.peek() == '[' && cap(*p) == 0 && r.compactTiles(p) {
			return nil
		}
		return r.tiles.array(r, p, module.Tile{Kind: unknownKind})
	case *module.Tile:
		return r.fields(tileFields, &p.At.X, &p.At.Y, &p.Kind)
	case *[]int:
		return arrayInto(r, p, 0)
	case *int:
		return integer(r, p)
	case *int64:
		return integer(r, p)
	case *bool:
		switch r.peek() {
		case 'n':
			return r.literal("null")
		case 't':
			*p = true
			return r.literal("true")
		case 'f':
			*p = false
			return r.literal("false")
		}
		return r.fail("boolean")
	}
	// A string: null leaves it as it is.
	if null, err := r.null(); null || err != nil {
		return err
	}
	if r.peek() != '"' {
		return r.fail("string")
	}
	s, err := r.str()
	switch p := p.(type) {
	case *string:
		*p = string(s)
	case *fabric.Kind:
		var ok bool
		if *p, ok = fabric.LookupKind(s); !ok {
			*p = unknownKind
		}
	}
	return err
}

// fields decodes a JSON object into a struct whose field under key
// names[k] is ptrs[k]. A key matches a name exactly or else under
// bytes.EqualFold, as encoding/json matches them (the names of one
// struct differ under folding); any other key rejects. A repeated key
// decodes into the same field again, and null leaves the struct as it
// is.
func (r *reader) fields(names []string, ptrs ...any) error {
	if null, err := r.null(); null || err != nil {
		return err
	}
	if err := r.token('{', "object"); err != nil {
		return err
	}
	if r.peek() == '}' {
		r.i++
		return nil
	}
	for {
		if r.peek() != '"' {
			return r.fail("object key")
		}
		key, err := r.str()
		if err != nil {
			return err
		}
		k := slices.IndexFunc(names, func(n string) bool {
			return string(key) == n || bytes.EqualFold(key, []byte(n))
		})
		if k < 0 {
			return fmt.Errorf("unknown field %q", key)
		}
		if err := r.token(':', "':'"); err != nil {
			return err
		}
		if err := r.value(ptrs[k]); err != nil {
			return err
		}
		if r.peek() == '}' {
			r.i++
			return nil
		}
		if err := r.token(',', "',' or '}'"); err != nil {
			return err
		}
	}
}

// ptr decodes into the struct *p points to, allocating it when *p is
// nil, so a repeated key merges into the earlier value; null sets *p
// to nil.
func ptr[T any](r *reader, p **T) error {
	null, err := r.null()
	if null || err != nil {
		*p = nil
		return err
	}
	if *p == nil {
		*p = new(T)
	}
	return r.value(*p)
}

// array decodes a JSON array into s as encoding/json decodes into a
// slice: element i decodes into s[i] while i < len(s), into the
// retained s[i] while i < hw (for a plain slice, cap(s)), and into a
// copy of fresh past that. It returns the list and its new hw; null
// gives nil and [] a non-nil empty list.
func array[T any](r *reader, s []T, hw int, fresh T) ([]T, int, error) {
	if null, err := r.null(); null || err != nil {
		return nil, 0, err
	}
	if err := r.token('[', "array"); err != nil {
		return nil, 0, err
	}
	if r.peek() == ']' {
		r.i++
		return []T{}, 0, nil
	}
	for n := 0; ; n++ {
		if n == len(s) {
			if n < hw {
				s = s[:n+1]
			} else {
				s, hw = append(s, fresh), n+1
			}
		}
		if err := r.value(&s[n]); err != nil {
			return nil, 0, err
		}
		if r.peek() == ']' {
			r.i++
			return s[:n+1], hw, nil
		}
		if err := r.token(',', "',' or ']'"); err != nil {
			return nil, 0, err
		}
	}
}

// arrayInto decodes a JSON array into the slice p points to, in place
// as encoding/json does. The list keeps no capacity past the elements
// decoded into, so its capacity is the hw of the next decode.
func arrayInto[T any](r *reader, p *[]T, fresh T) error {
	s, hw, err := array(r, *p, cap(*p), fresh)
	if err == nil {
		*p = s[:len(s):hw]
	}
	return err
}

// pool decodes the fresh lists (ones that hold nothing yet) of one
// element type through a scratch list reused from list to list, which
// lists of the type allow by never nesting, and keeps an exact-size
// copy of each: one allocation per list instead of one per doubling. A
// list that holds elements already decodes in place, as arrayInto.
type pool[T any] struct{ scratch []T }

func (pl *pool[T]) array(r *reader, p *[]T, fresh T) error {
	if cap(*p) > 0 {
		return arrayInto(r, p, fresh)
	}
	s, _, err := array(r, pl.scratch[:0], 0, fresh)
	if err != nil || len(s) == 0 {
		*p = s
		return err
	}
	*p = pl.keep(s)
	return nil
}

// keep returns an exact-size copy of the finished list s and keeps s's
// array as the scratch.
func (pl *pool[T]) keep(s []T) []T {
	pl.scratch = s[:0]
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// integer decodes a JSON number into an integer field: a value
// outside T rejects, and null leaves the field as it is. A fraction or
// an exponent rejects as the byte that follows the digits.
func integer[T int | int64](r *reader, p *T) error {
	if null, err := r.null(); null || err != nil {
		return err
	}
	v, end := number(r.b, r.i)
	if end == 0 || int64(T(v)) != v {
		return r.fail("integer")
	}
	*p, r.i = T(v), end
	return nil
}

// number reads the integer at b[i:], an optional minus sign and digits
// without a leading zero, and returns it with the index after it; that
// index is 0 when there is none or it overflows int64.
func number(b []byte, i int) (int64, int) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := i
	var v int64
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	switch {
	case i == digits || b[digits] == '0' && i > digits+1:
		return 0, 0
	case i-digits > 18: // v may have overflowed
		var err error
		if v, err = strconv.ParseInt(string(b[start:i]), 10, 64); err != nil {
			return 0, 0
		}
	case digits > start:
		v = -v
	}
	return v, i
}

// str reads a JSON string. The result aliases the body unless the
// string holds an escape or a non-ASCII byte; then it is unquoted as
// encoding/json unquotes: surrogate pairs joined, and invalid UTF-8
// and lone surrogates replaced by U+FFFD.
func (r *reader) str() ([]byte, error) {
	r.i++ // the opening quote, which the caller has seen
	start := r.i
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return r.b[start : r.i-1], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return r.unquote(append([]byte(nil), r.b[start:r.i]...))
		}
	}
	return nil, r.fail("'\"'")
}

func (r *reader) unquote(out []byte) ([]byte, error) {
	for r.i < len(r.b) {
		c := r.b[r.i]
		switch {
		case c == '"':
			r.i++
			return out, nil
		case c < ' ':
			return nil, r.fail("string character")
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			r.i++
		case c >= utf8.RuneSelf:
			rr, n := utf8.DecodeRune(r.b[r.i:])
			out = utf8.AppendRune(out, rr)
			r.i += n
		case r.u4(r.i) >= 0:
			rr := r.u4(r.i)
			r.i += 6
			if utf16.IsSurrogate(rr) {
				if rr = utf16.DecodeRune(rr, r.u4(r.i)); rr != utf8.RuneError {
					r.i += 6
				}
			}
			out = utf8.AppendRune(out, rr)
		default:
			e := -1
			if r.i+1 < len(r.b) {
				e = strings.IndexByte(`"\/bfnrt`, r.b[r.i+1])
			}
			if e < 0 {
				return nil, r.fail("escape")
			}
			out = append(out, "\"\\/\b\f\n\r\t"[e])
			r.i += 2
		}
	}
	return nil, r.fail("'\"'")
}

// u4 decodes the \uXXXX escape at b[at:]; -1 when there is none.
func (r *reader) u4(at int) rune {
	if len(r.b)-at < 6 || r.b[at] != '\\' || r.b[at+1] != 'u' {
		return -1
	}
	v, err := strconv.ParseUint(string(r.b[at+2:at+6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (r *reader) peek() byte {
	for ; r.i < len(r.b); r.i++ {
		if c := r.b[r.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// token consumes the byte c after any whitespace.
func (r *reader) token(c byte, want string) error {
	if r.peek() != c {
		return r.fail(want)
	}
	r.i++
	return nil
}

// null consumes a null literal if one comes next.
func (r *reader) null() (bool, error) {
	if r.peek() != 'n' {
		return false, nil
	}
	return true, r.literal("null")
}

func (r *reader) literal(lit string) error {
	if len(r.b)-r.i < len(lit) || string(r.b[r.i:r.i+len(lit)]) != lit {
		return r.fail(lit)
	}
	r.i += len(lit)
	return nil
}

// compactTile decodes the tile at the start of b if it is spelled as
// encoding/json writes a TileSpec, {"x":X,"y":Y,"kind":"K"} with a
// known kind, and returns it with its length; 0 when it is spelled
// otherwise.
func compactTile(b []byte) (module.Tile, int) {
	if len(b) < 5 || string(b[:5]) != `{"x":` {
		return module.Tile{}, 0
	}
	x, i := number(b, 5)
	if i == 0 || len(b) < i+5 || string(b[i:i+5]) != `,"y":` {
		return module.Tile{}, 0
	}
	y, i := number(b, i+5)
	if i == 0 || len(b) < i+9 || string(b[i:i+9]) != `,"kind":"` {
		return module.Tile{}, 0
	}
	i += 9
	n := i
	for n < len(b) && b[n] != '"' {
		n++
	}
	k, known := fabric.LookupKind(b[i:n])
	if !known || n+1 >= len(b) || b[n+1] != '}' || int64(int(x)) != x || int64(int(y)) != y {
		return module.Tile{}, 0
	}
	return module.Tile{At: grid.Pt(int(x), int(y)), Kind: k}, n + 2
}

// compactTiles decodes a fresh tile list whose every tile compactTile
// reads, reporting whether it was one; otherwise it leaves r where it
// was, for the general path.
func (r *reader) compactTiles(p *[]module.Tile) bool {
	b := r.b[r.i:]
	if len(b) < 2 || b[0] != '[' || b[1] == ']' {
		return false
	}
	s := r.tiles.scratch[:0]
	for i := 1; ; i++ {
		t, n := compactTile(b[i:])
		if n == 0 || i+n >= len(b) {
			return false
		}
		s = append(s, t)
		i += n
		if b[i] == ']' {
			r.i += i + 1
			*p = r.tiles.keep(s)
			return true
		}
		if b[i] != ',' {
			return false
		}
	}
}

func (r *reader) fail(want string) error {
	if r.i >= len(r.b) {
		return fmt.Errorf("body ends at byte %d, want %s", len(r.b), want)
	}
	return fmt.Errorf("offset %d: want %s, found %q", r.i, want, r.b[r.i])
}

// build makes the module a decoded ModuleSpec describes: the one place
// where wire tiles become shapes.
func (m *wireModule) build() (*module.Module, error) {
	shapes := make([]*module.Shape, len(m.shapes))
	for i, sh := range m.shapes {
		for _, t := range sh.tiles {
			if !t.Kind.Valid() {
				return nil, fmt.Errorf("module %q shape %d: tile %v: unknown resource kind", m.name, i, t.At)
			}
		}
		s, err := module.NewShape(sh.tiles)
		if err != nil {
			return nil, fmt.Errorf("module %q shape %d: %w", m.name, i, err)
		}
		shapes[i] = s
	}
	return module.NewModule(m.name, shapes...)
}
