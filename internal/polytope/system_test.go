package polytope

import (
	"math"
	"math/rand"
	"testing"
)

func squareSystem(lo, hi float64) *System {
	s := NewSystem(2)
	s.AddBounds(0, lo, hi)
	s.AddBounds(1, lo, hi)
	return s
}

func TestSystemFeasible(t *testing.T) {
	s := squareSystem(0, 10)
	if !s.Feasible([]float64{5, 5}, 1e-9) {
		t.Error("interior point infeasible")
	}
	if !s.Feasible([]float64{0, 10}, 1e-9) {
		t.Error("boundary point infeasible")
	}
	if s.Feasible([]float64{-1, 5}, 1e-9) {
		t.Error("exterior point feasible")
	}
	if s.Feasible([]float64{5}, 1e-9) {
		t.Error("wrong-dimension point feasible")
	}
}

func TestSystemViolations(t *testing.T) {
	s := squareSystem(0, 10)
	v := s.Violations([]float64{-2, 11}, 1e-9)
	if len(v) != 2 {
		t.Errorf("violations = %v", v)
	}
	if len(s.Violations([]float64{5, 5}, 1e-9)) != 0 {
		t.Error("interior point has violations")
	}
}

func TestAddDiffGE(t *testing.T) {
	s := NewSystem(2)
	s.AddDiffGE(1, 0, 3) // x1 - x0 >= 3
	if !s.Feasible([]float64{0, 3}, 1e-9) || s.Feasible([]float64{0, 2.9}, 1e-9) {
		t.Error("AddDiffGE semantics wrong")
	}
}

func TestAddLEOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s := NewSystem(2)
	s.AddLE(map[int]float64{5: 1}, 0)
}

func TestNames(t *testing.T) {
	s := NewSystem(2)
	s.Names[0] = "x11l"
	if s.Name(0) != "x11l" || s.Name(1) != "x1" {
		t.Error("names wrong")
	}
}

func TestChebyshevSquare(t *testing.T) {
	s := squareSystem(0, 10)
	c, r, err := s.Chebyshev()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r, 5, 1e-6) {
		t.Errorf("radius = %v, want 5", r)
	}
	if !approx(c[0], 5, 1e-6) || !approx(c[1], 5, 1e-6) {
		t.Errorf("center = %v, want (5,5)", c)
	}
}

func TestChebyshevNegativeRegion(t *testing.T) {
	// Square entirely in negative coordinates: [-10,-2] x [-8,-4].
	s := NewSystem(2)
	s.AddBounds(0, -10, -2)
	s.AddBounds(1, -8, -4)
	c, r, err := s.Chebyshev()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r, 2, 1e-6) {
		t.Errorf("radius = %v, want 2", r)
	}
	if c[0] > -2 || c[0] < -10 || !approx(c[1], -6, 1e-6) {
		t.Errorf("center = %v", c)
	}
}

func TestChebyshevTriangle(t *testing.T) {
	// Triangle x>=0, y>=0, x+y<=2: inradius = (a+b-c)/2 = (2+2-2√2)/2.
	s := NewSystem(2)
	s.AddGE(map[int]float64{0: 1}, 0)
	s.AddGE(map[int]float64{1: 1}, 0)
	s.AddLE(map[int]float64{0: 1, 1: 1}, 2)
	_, r, err := s.Chebyshev()
	if err != nil {
		t.Fatal(err)
	}
	want := (4 - 2*math.Sqrt2) / 2
	if !approx(r, want, 1e-6) {
		t.Errorf("radius = %v, want %v", r, want)
	}
}

func TestChebyshevInfeasible(t *testing.T) {
	s := NewSystem(1)
	s.AddGE(map[int]float64{0: 1}, 5)
	s.AddLE(map[int]float64{0: 1}, 3)
	if _, _, err := s.Chebyshev(); err == nil {
		t.Error("expected error for empty polytope")
	}
}

func TestChebyshevEmptySystem(t *testing.T) {
	s := NewSystem(1)
	if _, _, err := s.Chebyshev(); err == nil {
		t.Error("expected error for unconstrained system")
	}
}

func TestSamplerUniformOnSquare(t *testing.T) {
	s := squareSystem(0, 1)
	rng := rand.New(rand.NewSource(12345))
	sampler, err := NewSampler(s, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	samples := sampler.Sample(n, 200)
	if len(samples) != n {
		t.Fatalf("got %d samples", len(samples))
	}
	// All feasible.
	for _, x := range samples {
		if !s.Feasible(x, 1e-9) {
			t.Fatalf("infeasible sample %v", x)
		}
	}
	// Mean near centre, quadrant occupancy roughly uniform.
	var mx, my float64
	quad := [4]int{}
	for _, x := range samples {
		mx += x[0]
		my += x[1]
		qi := 0
		if x[0] > 0.5 {
			qi |= 1
		}
		if x[1] > 0.5 {
			qi |= 2
		}
		quad[qi]++
	}
	mx /= n
	my /= n
	if math.Abs(mx-0.5) > 0.05 || math.Abs(my-0.5) > 0.05 {
		t.Errorf("mean = (%v,%v), want near (0.5,0.5)", mx, my)
	}
	for i, q := range quad {
		frac := float64(q) / n
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("quadrant %d fraction %v far from 0.25", i, frac)
		}
	}
}

func TestSamplerSimplexRegion(t *testing.T) {
	// x,y >= 0, x + y <= 1: mean of a uniform draw is (1/3, 1/3).
	s := NewSystem(2)
	s.AddGE(map[int]float64{0: 1}, 0)
	s.AddGE(map[int]float64{1: 1}, 0)
	s.AddLE(map[int]float64{0: 1, 1: 1}, 1)
	rng := rand.New(rand.NewSource(99))
	sampler, err := NewSampler(s, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	var mx, my float64
	for _, x := range sampler.Sample(n, 300) {
		mx += x[0]
		my += x[1]
	}
	mx /= n
	my /= n
	if math.Abs(mx-1.0/3) > 0.04 || math.Abs(my-1.0/3) > 0.04 {
		t.Errorf("mean = (%v,%v), want near (1/3,1/3)", mx, my)
	}
}

func TestSamplerHighDim(t *testing.T) {
	// 18-variable box, matching the paper's "constraints for 18 variables".
	const dim = 18
	s := NewSystem(dim)
	for i := 0; i < dim; i++ {
		s.AddBounds(i, 0, 1)
	}
	rng := rand.New(rand.NewSource(7))
	sampler, err := NewSampler(s, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range sampler.Sample(50, 500) {
		if !s.Feasible(x, 1e-9) {
			t.Fatal("infeasible high-dim sample")
		}
	}
}

func TestSamplerNoInterior(t *testing.T) {
	// Degenerate polytope: a single point (x = 3 via two inequalities).
	s := NewSystem(1)
	s.AddGE(map[int]float64{0: 1}, 3)
	s.AddLE(map[int]float64{0: 1}, 3)
	if _, err := NewSampler(s, rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected error for zero-volume polytope")
	}
}

func TestSamplerDeterministicWithSeed(t *testing.T) {
	s := squareSystem(0, 1)
	mk := func() []float64 {
		sampler, err := NewSampler(s, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		return sampler.Next()
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestSamplerThinClamp(t *testing.T) {
	s := squareSystem(0, 1)
	sampler, err := NewSampler(s, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sampler.Thin = 0 // must clamp to 1, not hang or return the same point
	x1 := sampler.Next()
	x2 := sampler.Next()
	if x1[0] == x2[0] && x1[1] == x2[1] {
		t.Error("chain did not move with Thin=0")
	}
}
