package module

import (
	"fmt"
	"strings"

	"repro/internal/fabric"
)

// Module is the paper's M = {S_1 … S_n}: a named set of functionally
// equivalent shapes (design alternatives). The placer may realise the
// module with any one of its shapes; at most one shape is instantiated
// at a time and the choice is fixed before run time (the paper rules out
// switching alternatives across preemption because module state could
// not be restored into a different layout).
type Module struct {
	name   string
	shapes []*Shape
}

// NewModule builds a module from at least one shape, dropping duplicate
// layouts (shapes with identical normalised tiles).
func NewModule(name string, shapes ...*Shape) (*Module, error) {
	if name == "" {
		return nil, fmt.Errorf("module: empty module name")
	}
	m := &Module{name: name, shapes: make([]*Shape, 0, len(shapes))}
	for _, s := range shapes {
		if s == nil {
			return nil, fmt.Errorf("module %s: nil shape", name)
		}
		m.addShape(s)
	}
	if len(m.shapes) == 0 {
		return nil, fmt.Errorf("module %s: at least one shape required", name)
	}
	return m, nil
}

func (m *Module) addShape(s *Shape) {
	for _, have := range m.shapes {
		if have.Equal(s) {
			return
		}
	}
	m.shapes = append(m.shapes, s)
}

// Name returns the module name.
func (m *Module) Name() string { return m.name }

// Shapes returns the design alternatives. Callers must not mutate the
// returned slice.
func (m *Module) Shapes() []*Shape { return m.shapes }

// NumShapes returns the number of design alternatives.
func (m *Module) NumShapes() int { return len(m.shapes) }

// Shape returns the i-th design alternative.
func (m *Module) Shape(i int) *Shape { return m.shapes[i] }

// WithShapes returns a new module with the same name restricted to the
// given shape indices. It is how experiments derive the
// "no design alternatives" variant (WithShapes(0)) from a full module.
func (m *Module) WithShapes(indices ...int) (*Module, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("module %s: WithShapes needs at least one index", m.name)
	}
	shapes := make([]*Shape, 0, len(indices))
	for _, i := range indices {
		if i < 0 || i >= len(m.shapes) {
			return nil, fmt.Errorf("module %s: shape index %d out of range [0,%d)", m.name, i, len(m.shapes))
		}
		shapes = append(shapes, m.shapes[i])
	}
	return NewModule(m.name, shapes...)
}

// FirstShapeOnly returns the module reduced to its first (primary)
// layout, panicking only if the module is malformed.
func (m *Module) FirstShapeOnly() *Module {
	out, err := m.WithShapes(0)
	if err != nil {
		panic(err)
	}
	return out
}

// Envelope returns, per resource kind, the minimum and maximum tile
// demand across the module's alternatives. Alternatives are not required
// to consume identical resources (Section III.A), so the envelope is the
// honest capacity statement for admission checks.
func (m *Module) Envelope() (lo, hi fabric.Histogram) {
	lo = m.shapes[0].Histogram()
	hi = lo
	for _, s := range m.shapes[1:] {
		h := s.Histogram()
		for k := range h {
			if h[k] < lo[k] {
				lo[k] = h[k]
			}
			if h[k] > hi[k] {
				hi[k] = h[k]
			}
		}
	}
	return lo, hi
}

// MinSize returns the smallest tile count over the alternatives.
func (m *Module) MinSize() int {
	n := m.shapes[0].Size()
	for _, s := range m.shapes[1:] {
		if s.Size() < n {
			n = s.Size()
		}
	}
	return n
}

// String summarises the module: name, alternative count and envelope.
func (m *Module) String() string {
	lo, hi := m.Envelope()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s[%d shapes", m.name, len(m.shapes))
	if lo == hi {
		fmt.Fprintf(&sb, ", %s", lo)
	} else {
		fmt.Fprintf(&sb, ", %s .. %s", lo, hi)
	}
	sb.WriteByte(']')
	return sb.String()
}
