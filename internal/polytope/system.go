package polytope

import (
	"fmt"
	"math"
	"math/rand"
)

// System is a set of linear inequality constraints a·x <= b over Dim
// variables. Variables are unrestricted in sign; bounds are expressed as
// ordinary constraints.
type System struct {
	Dim int
	A   [][]float64
	B   []float64
}

// NewSystem returns an empty constraint system over dim variables.
func NewSystem(dim int) *System {
	return &System{Dim: dim}
}

// AddLE adds the constraint coef·x <= b. coef maps variable index to
// coefficient; missing indices are zero.
func (s *System) AddLE(coef map[int]float64, b float64) {
	row := make([]float64, s.Dim)
	for i, v := range coef {
		if i < 0 || i >= s.Dim {
			panic(fmt.Sprintf("polytope: variable index %d out of range", i))
		}
		row[i] = v
	}
	s.A = append(s.A, row)
	s.B = append(s.B, b)
}

// AddGE adds coef·x >= b (stored as -coef·x <= -b).
func (s *System) AddGE(coef map[int]float64, b float64) {
	neg := make(map[int]float64, len(coef))
	for i, v := range coef {
		neg[i] = -v
	}
	s.AddLE(neg, -b)
}

// AddDiffGE adds x_i - x_j >= c (e.g. "box i starts at least c after box j
// ends").
func (s *System) AddDiffGE(i, j int, c float64) {
	s.AddGE(map[int]float64{i: 1, j: -1}, c)
}

// Feasible reports whether x satisfies every constraint within tol.
func (s *System) Feasible(x []float64, tol float64) bool {
	if len(x) != s.Dim {
		return false
	}
	for k := range s.A {
		dot := 0.0
		for i, a := range s.A[k] {
			dot += a * x[i]
		}
		if dot > s.B[k]+tol {
			return false
		}
	}
	return true
}

// Violations returns a human-readable list of the constraints x violates
// beyond tol, for diagnostics.
func (s *System) Violations(x []float64, tol float64) []string {
	var out []string
	for k := range s.A {
		dot := 0.0
		for i, a := range s.A[k] {
			dot += a * x[i]
		}
		if dot > s.B[k]+tol {
			out = append(out, fmt.Sprintf("constraint %d: %.4f > %.4f", k, dot, s.B[k]))
		}
	}
	return out
}

// Chebyshev computes the Chebyshev centre of the polytope: the centre of the
// largest inscribed ball, together with its radius. A positive radius
// certifies a strictly interior starting point for hit-and-run sampling.
// Because the simplex solver requires nonnegative variables, each free
// variable is split into a difference of nonnegative parts.
func (s *System) Chebyshev() (center []float64, radius float64, err error) {
	m := len(s.A)
	if m == 0 {
		return nil, 0, fmt.Errorf("polytope: empty system has no Chebyshev centre")
	}
	// LP variables: x+ (Dim), x- (Dim), r (1). Maximise r subject to
	// a·(x+ - x-) + ||a|| r <= b and r >= 0 (implicit).
	n := 2*s.Dim + 1
	c := make([]float64, n)
	c[n-1] = 1
	a := make([][]float64, m)
	b := make([]float64, m)
	for k := range s.A {
		row := make([]float64, n)
		norm := 0.0
		for i, v := range s.A[k] {
			row[i] = v
			row[s.Dim+i] = -v
			norm += v * v
		}
		row[n-1] = math.Sqrt(norm)
		a[k] = row
		b[k] = s.B[k]
	}
	x, val, err := SolveLP(c, a, b)
	if err != nil {
		return nil, 0, err
	}
	center = make([]float64, s.Dim)
	for i := 0; i < s.Dim; i++ {
		center[i] = x[i] - x[s.Dim+i]
	}
	if val < -lpEps {
		return nil, 0, ErrInfeasible
	}
	return center, val, nil
}

// Sampler draws approximately uniform samples from the polytope using the
// hit-and-run Markov chain, started at a strictly interior point.
type Sampler struct {
	sys *System
	x   []float64
	rng *rand.Rand
	// Thin controls how many chain steps separate returned samples
	// (default 10). Higher values decorrelate samples at linear cost.
	Thin int
}

// NewSampler prepares a hit-and-run sampler. It computes the Chebyshev
// centre as the starting point and fails if the polytope is empty or has no
// interior (radius not strictly positive).
func NewSampler(sys *System, rng *rand.Rand) (*Sampler, error) {
	center, r, err := sys.Chebyshev()
	if err != nil {
		return nil, err
	}
	if r <= lpEps {
		return nil, fmt.Errorf("polytope: no interior (Chebyshev radius %g)", r)
	}
	return &Sampler{sys: sys, x: center, rng: rng, Thin: 10}, nil
}

// Next advances the chain and returns a fresh sample (a copy).
func (s *Sampler) Next() []float64 {
	thin := s.Thin
	if thin < 1 {
		thin = 1
	}
	for t := 0; t < thin; t++ {
		s.step()
	}
	out := make([]float64, len(s.x))
	copy(out, s.x)
	return out
}

// step performs one hit-and-run move: pick a uniform random direction, find
// the feasible chord through the current point along it, and jump to a
// uniform point on the chord.
func (s *Sampler) step() {
	dim := s.sys.Dim
	dir := make([]float64, dim)
	norm := 0.0
	for i := range dir {
		dir[i] = s.rng.NormFloat64()
		norm += dir[i] * dir[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return
	}
	for i := range dir {
		dir[i] /= norm
	}
	tMin, tMax := math.Inf(-1), math.Inf(1)
	for k := range s.sys.A {
		ad, ax := 0.0, 0.0
		for i, a := range s.sys.A[k] {
			ad += a * dir[i]
			ax += a * s.x[i]
		}
		slack := s.sys.B[k] - ax
		switch {
		case ad > lpEps:
			if t := slack / ad; t < tMax {
				tMax = t
			}
		case ad < -lpEps:
			if t := slack / ad; t > tMin {
				tMin = t
			}
		default:
			// Direction parallel to this face; if already violated
			// (numerically), stay put.
			if slack < -lpEps {
				return
			}
		}
	}
	if math.IsInf(tMin, -1) || math.IsInf(tMax, 1) || tMax <= tMin {
		return // unbounded direction or degenerate chord: skip the move
	}
	t := tMin + (tMax-tMin)*s.rng.Float64()
	for i := range s.x {
		s.x[i] += t * dir[i]
	}
}
