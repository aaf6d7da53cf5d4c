package grid

import (
	"testing"
	"testing/quick"
)

func allTransforms() []Transform {
	ts := make([]Transform, 0, int(numTransforms))
	for t := Identity; t < numTransforms; t++ {
		ts = append(ts, t)
	}
	return ts
}

func TestTransformApplyKnown(t *testing.T) {
	p := Pt(2, 1)
	cases := map[Transform]Point{
		Identity:      {2, 1},
		Rot90:         {-1, 2},
		Rot180:        {-2, -1},
		Rot270:        {1, -2},
		MirrorX:       {-2, 1},
		MirrorXRot90:  {1, 2},
		MirrorXRot180: {2, -1},
		MirrorXRot270: {-1, -2},
	}
	for tr, want := range cases {
		if got := tr.Apply(p); got != want {
			t.Errorf("%v.Apply(%v) = %v, want %v", tr, p, got, want)
		}
	}
}

func TestTransformRot180Involution(t *testing.T) {
	f := func(x, y int16) bool {
		p := Pt(int(x), int(y))
		return Rot180.Apply(Rot180.Apply(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransformStringValid(t *testing.T) {
	for _, tr := range allTransforms() {
		if tr.String() == "invalid-transform" {
			t.Errorf("transform %d has no name", tr)
		}
	}
	if Transform(250).String() != "invalid-transform" {
		t.Error("out-of-range transform should report invalid")
	}
}
