package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func box(x0, y0, z0, x1, y1, z1 float64) Box {
	return Box{Lo: Point{x0, y0, z0}, Hi: Point{x1, y1, z1}}
}

func TestNewBoxNormalizes(t *testing.T) {
	b := NewBox(Point{5, 1, 9}, Point{2, 4, 3})
	want := box(2, 1, 3, 5, 4, 9)
	if b != want {
		t.Fatalf("NewBox = %v, want %v", b, want)
	}
	if !b.Valid() {
		t.Fatalf("normalized box should be valid")
	}
}

func TestBoxAround(t *testing.T) {
	b := BoxAround(Point{10, 10, 10}, Point{1, 2, 3})
	if b != box(9, 8, 7, 11, 12, 13) {
		t.Fatalf("BoxAround = %v", b)
	}
}

func TestVolumeAndSide(t *testing.T) {
	b := box(0, 0, 0, 2, 3, 4)
	if got := b.Volume(); got != 24 {
		t.Fatalf("Volume = %v, want 24", got)
	}
	if b.Side(0) != 2 || b.Side(1) != 3 || b.Side(2) != 4 {
		t.Fatalf("Side mismatch: %v %v %v", b.Side(0), b.Side(1), b.Side(2))
	}
	degenerate := box(1, 1, 1, 1, 2, 3)
	if degenerate.Volume() != 0 {
		t.Fatalf("degenerate box should have zero volume")
	}
}

func TestCenter(t *testing.T) {
	b := box(0, 2, 4, 2, 4, 8)
	if b.Center() != (Point{1, 3, 6}) {
		t.Fatalf("Center = %v", b.Center())
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b  Box
		want  bool
		descr string
	}{
		{box(0, 0, 0, 1, 1, 1), box(0.5, 0.5, 0.5, 2, 2, 2), true, "overlap"},
		{box(0, 0, 0, 1, 1, 1), box(1, 0, 0, 2, 1, 1), true, "face touch"},
		{box(0, 0, 0, 1, 1, 1), box(1, 1, 1, 2, 2, 2), true, "corner touch"},
		{box(0, 0, 0, 1, 1, 1), box(1.1, 0, 0, 2, 1, 1), false, "disjoint x"},
		{box(0, 0, 0, 1, 1, 1), box(0, 0, 2, 1, 1, 3), false, "disjoint z"},
		{box(0, 0, 0, 3, 3, 3), box(1, 1, 1, 2, 2, 2), true, "containment"},
	}
	for _, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("%s: Intersects = %v, want %v", c.descr, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("%s (swapped): Intersects = %v, want %v", c.descr, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	outer := box(0, 0, 0, 10, 10, 10)
	if !outer.Contains(box(1, 1, 1, 9, 9, 9)) {
		t.Errorf("expected containment")
	}
	if !outer.Contains(outer) {
		t.Errorf("box should contain itself")
	}
	if outer.Contains(box(1, 1, 1, 11, 9, 9)) {
		t.Errorf("protruding box should not be contained")
	}
}

func TestIntersection(t *testing.T) {
	a := box(0, 0, 0, 2, 2, 2)
	b := box(1, 1, 1, 3, 3, 3)
	got, ok := a.Intersection(b)
	if !ok || got != box(1, 1, 1, 2, 2, 2) {
		t.Fatalf("Intersection = %v ok=%v", got, ok)
	}
	if _, ok := a.Intersection(box(5, 5, 5, 6, 6, 6)); ok {
		t.Fatalf("disjoint boxes must not intersect")
	}
	// Touching boxes intersect with a degenerate overlap box.
	touch, ok := a.Intersection(box(2, 0, 0, 3, 2, 2))
	if !ok || touch.Volume() != 0 {
		t.Fatalf("touching boxes: got %v ok=%v", touch, ok)
	}
}

func TestUnionAndEmptyBox(t *testing.T) {
	a := box(0, 0, 0, 1, 1, 1)
	b := box(2, -1, 0.5, 3, 0.5, 4)
	u := a.Union(b)
	if u != box(0, -1, 0, 3, 1, 4) {
		t.Fatalf("Union = %v", u)
	}
	if e := EmptyBox().Union(a); e != a {
		t.Fatalf("EmptyBox union identity broken: %v", e)
	}
}

func TestExpand(t *testing.T) {
	b := box(0, 0, 0, 1, 1, 1).Expand(0.5)
	if b != box(-0.5, -0.5, -0.5, 1.5, 1.5, 1.5) {
		t.Fatalf("Expand = %v", b)
	}
	// The distance reduction grows a copy by d/2 per side and leaves its
	// input alone.
	elems := []Element{{ID: 7, Box: box(0, 0, 0, 1, 1, 1)}}
	grown := ExpandedForDistance(elems, 1)
	if grown[0] != (Element{ID: 7, Box: b}) || elems[0].Box != box(0, 0, 0, 1, 1, 1) {
		t.Fatalf("ExpandedForDistance = %v, input now %v", grown, elems)
	}
}

func TestDist(t *testing.T) {
	a := box(0, 0, 0, 1, 1, 1)
	if d := a.DistSq(box(0.5, 0.5, 0.5, 2, 2, 2)); d != 0 {
		t.Fatalf("intersecting boxes should have distance 0, got %v", d)
	}
	if d := a.DistSq(box(1, 0, 0, 2, 1, 1)); d != 0 {
		t.Fatalf("touching boxes should have distance 0, got %v", d)
	}
	if d := a.DistSq(box(4, 0, 0, 5, 1, 1)); d != 9 {
		t.Fatalf("axis gap distance squared = %v, want 9", d)
	}
	if d := a.DistSq(box(2, 2, 2, 3, 3, 3)); d != 3 {
		t.Fatalf("corner gap distance squared = %v, want 3", d)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2, 3}
	q := Point{4, 6, 8}
	if p.Add(q) != (Point{5, 8, 11}) {
		t.Fatalf("Add = %v", p.Add(q))
	}
	if q.Sub(p) != (Point{3, 4, 5}) {
		t.Fatalf("Sub = %v", q.Sub(p))
	}
	if p.Scale(2) != (Point{2, 4, 6}) {
		t.Fatalf("Scale = %v", p.Scale(2))
	}
}

func TestMBBOf(t *testing.T) {
	elems := []Element{
		{ID: 1, Box: box(0, 0, 0, 1, 1, 1)},
		{ID: 2, Box: box(-1, 2, 0.5, 0, 3, 2)},
	}
	if got := MBBOf(elems); got != box(-1, 0, 0, 1, 3, 2) {
		t.Fatalf("MBBOf = %v", got)
	}
	if got := MBBOf(nil); got != EmptyBox() {
		t.Fatalf("MBBOf(nil) should be EmptyBox, got %v", got)
	}
}

// randomBox produces a valid random box inside [-100,100]^3 for property tests.
func randomBox(r *rand.Rand) Box {
	var a, b Point
	for d := 0; d < Dims; d++ {
		a[d] = r.Float64()*200 - 100
		b[d] = a[d] + r.Float64()*50
	}
	return Box{Lo: a, Hi: b}
}

func TestPropIntersectionSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomBox(r), randomBox(r)
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropIntersectionConsistentWithDistance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomBox(r), randomBox(r)
		if a.Intersects(b) {
			return a.DistSq(b) == 0
		}
		return a.DistSq(b) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropIntersectionBoxContained(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomBox(r), randomBox(r)
		inter, ok := a.Intersection(b)
		if !ok {
			return !a.Intersects(b)
		}
		return a.Contains(inter) && b.Contains(inter)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionContainsBoth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomBox(r), randomBox(r)
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropCenterInsideBox(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randomBox(r)
		c := b.Center()
		return b.Contains(Box{Lo: c, Hi: c})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
