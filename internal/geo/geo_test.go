package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{name: "add", got: Pt(1, 2).Add(Pt(3, 4)), want: Pt(4, 6)},
		{name: "sub", got: Pt(1, 2).Sub(Pt(3, 4)), want: Pt(-2, -2)},
		{name: "scale", got: Pt(1, 2).Scale(2), want: Pt(2, 4)},
		{name: "scale zero", got: Pt(1, 2).Scale(0), want: Pt(0, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Pt(1, 1).Dist(Pt(1, 1)); d != 0 {
		t.Errorf("Dist to self = %v, want 0", d)
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsInf(ax, 0) || math.IsNaN(ay) || math.IsInf(ay, 0) ||
			math.IsNaN(bx) || math.IsInf(bx, 0) || math.IsNaN(by) || math.IsInf(by, 0) {
			return true
		}
		// Keep magnitudes small enough that squaring stays finite.
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		d := a.Dist(b)
		return math.Abs(d*d-a.Dist2(b)) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnit(t *testing.T) {
	u := Pt(3, 4).Unit()
	if math.Abs(u.Norm()-1) > 1e-12 {
		t.Errorf("Unit norm = %v, want 1", u.Norm())
	}
	if z := (Point{}).Unit(); z != (Point{}) {
		t.Errorf("Unit of zero = %v, want zero", z)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Pt(10, 0), Pt(0, 10))
	if r.Min != Pt(0, 0) || r.Max != Pt(10, 10) {
		t.Errorf("NewRect = %+v", r)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(0, 0), true},
		{Pt(10, 10), true},
		{Pt(-0.1, 5), false},
		{Pt(5, 10.1), false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(10, 10))
	tests := []struct {
		name string
		b    Rect
		want bool
	}{
		{"overlapping", NewRect(Pt(5, 5), Pt(15, 15)), true},
		{"touching edge", NewRect(Pt(10, 0), Pt(20, 10)), true},
		{"disjoint", NewRect(Pt(11, 11), Pt(20, 20)), false},
		{"contained", NewRect(Pt(2, 2), Pt(3, 3)), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Intersects(tt.b); got != tt.want {
				t.Errorf("Intersects = %v, want %v", got, tt.want)
			}
			if got := tt.b.Intersects(a); got != tt.want {
				t.Errorf("Intersects (reversed) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRectGeometry(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(4, 2))
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Errorf("W/H/Area = %v/%v/%v", r.Width(), r.Height(), r.Area())
	}
	if c := r.Center(); c != Pt(2, 1) {
		t.Errorf("Center = %v", c)
	}
	e := r.Expand(1)
	if e.Min != Pt(-1, -1) || e.Max != Pt(5, 3) {
		t.Errorf("Expand = %+v", e)
	}
}

func TestRectClamp(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	tests := []struct {
		p, want Point
	}{
		{Pt(5, 5), Pt(5, 5)},
		{Pt(-5, 5), Pt(0, 5)},
		{Pt(15, 20), Pt(10, 10)},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.p); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}
