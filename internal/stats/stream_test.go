package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestStreamMatchesBatch(t *testing.T) {
	r := rng.New(1)
	var xs []float64
	var s Stream
	for i := 0; i < 1000; i++ {
		x := r.Float64()*100 - 20
		xs = append(xs, x)
		s.Add(x)
	}
	if s.N() != len(xs) {
		t.Fatalf("N = %d, want %d", s.N(), len(xs))
	}
	if got, want := s.Mean(), Mean(xs); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if got, want := s.Max(), Max(xs); got != want {
		t.Fatalf("Max = %v, want %v", got, want)
	}
	mn := xs[0]
	var sq float64
	for _, x := range xs {
		if x < mn {
			mn = x
		}
		d := x - s.Mean()
		sq += d * d
	}
	if got := s.Min(); got != mn {
		t.Fatalf("Min = %v, want %v", got, mn)
	}
	if got, want := s.Var(), sq/float64(len(xs)); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Var = %v, want %v", got, want)
	}
	if got := s.Stddev(); math.Abs(got-math.Sqrt(s.Var())) > 1e-12 {
		t.Fatalf("Stddev inconsistent with Var: %v", got)
	}
}

func TestStreamDegenerate(t *testing.T) {
	var s Stream
	if s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty stream should report zeros")
	}
	s.Add(7)
	if s.Mean() != 7 || s.Var() != 0 || s.Min() != 7 || s.Max() != 7 {
		t.Fatalf("single-sample stream wrong: %+v", s)
	}
}

func TestPSquareExactBelowFive(t *testing.T) {
	p := NewPSquare(0.5)
	if p.Value() != 0 {
		t.Fatal("empty estimator should report 0")
	}
	for _, x := range []float64{9, 1, 5} {
		p.Add(x)
	}
	if got := p.Value(); got != 5 {
		t.Fatalf("median of {9,1,5} = %v, want 5", got)
	}
}

func TestPSquareApproximatesQuantiles(t *testing.T) {
	for _, q := range []float64{0.1, 0.5, 0.9} {
		r := rng.New(42)
		p := NewPSquare(q)
		var xs []float64
		for i := 0; i < 5000; i++ {
			x := r.Float64()
			xs = append(xs, x)
			p.Add(x)
		}
		exact := quantile(xs, q)
		if math.Abs(p.Value()-exact) > 0.02 {
			t.Fatalf("q=%v: estimate %v vs exact %v", q, p.Value(), exact)
		}
	}
}

func TestPSquareDeterministic(t *testing.T) {
	run := func() float64 {
		r := rng.New(7)
		p := NewPSquare(0.9)
		for i := 0; i < 777; i++ {
			p.Add(r.Float64() * 50)
		}
		return p.Value()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same input order gave %v and %v", a, b)
	}
}

func TestPSquareExtremes(t *testing.T) {
	// q=0 and q=1 should track min and max closely on sorted-ish input.
	lo, hi := NewPSquare(0), NewPSquare(1)
	r := rng.New(3)
	mn, mx := math.Inf(1), math.Inf(-1)
	for i := 0; i < 2000; i++ {
		x := r.Float64()*10 - 5
		lo.Add(x)
		hi.Add(x)
		mn = math.Min(mn, x)
		mx = math.Max(mx, x)
	}
	if lo.Value() != mn {
		t.Fatalf("q=0 estimate %v, min %v", lo.Value(), mn)
	}
	if hi.Value() != mx {
		t.Fatalf("q=1 estimate %v, max %v", hi.Value(), mx)
	}
}
