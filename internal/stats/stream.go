package stats

import (
	"math"
	"sort"
)

// Stream accumulates count, mean, variance (Welford's algorithm), minimum and
// maximum of a sequence of observations in O(1) space. It is the building
// block the harness Aggregator folds per-trial metrics with: numerically
// stable for long runs and cheap enough to keep one per metric per cell.
//
// The zero value is ready to use.
type Stream struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the stream.
func (s *Stream) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Stream) N() int { return s.n }

// Mean returns the running arithmetic mean (0 before any observation).
func (s *Stream) Mean() float64 { return s.mean }

// Var returns the population variance (0 with fewer than two observations).
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Stddev returns the population standard deviation.
func (s *Stream) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 before any observation).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 before any observation).
func (s *Stream) Max() float64 { return s.max }

// PSquare estimates a single quantile of a stream in O(1) space with the P²
// algorithm (Jain & Chlamtac, CACM 1985). Until five observations have
// arrived it falls back to the exact nearest-rank quantile of the buffered
// prefix, so small trial counts — the common case for per-cell aggregation —
// are exact. The estimate is deterministic in the observation order.
//
// Construct with NewPSquare.
type PSquare struct {
	q    float64
	n    int
	h    [5]float64 // marker heights
	pos  [5]float64 // marker positions (1-based)
	want [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increments
}

// NewPSquare returns a streaming estimator for the q-quantile, q in [0, 1].
func NewPSquare(q float64) *PSquare {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	p := &PSquare{q: q}
	p.inc = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Add folds one observation into the estimator.
func (p *PSquare) Add(x float64) {
	if p.n < 5 {
		p.h[p.n] = x
		p.n++
		if p.n == 5 {
			sort.Float64s(p.h[:])
			for i := range p.pos {
				p.pos[i] = float64(i + 1)
			}
			p.want = [5]float64{1, 1 + 2*p.q, 1 + 4*p.q, 3 + 2*p.q, 5}
		}
		return
	}
	// Find the cell k containing x, extending the extremes if needed.
	var k int
	switch {
	case x < p.h[0]:
		p.h[0] = x
		k = 0
	case x >= p.h[4]:
		p.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.want {
		p.want[i] += p.inc[i]
	}
	p.n++
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			hn := p.parabolic(i, s)
			if !(p.h[i-1] < hn && hn < p.h[i+1]) {
				hn = p.linear(i, s)
			}
			p.h[i] = hn
			p.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for marker i
// moved by d ∈ {−1, +1}.
func (p *PSquare) parabolic(i int, d float64) float64 {
	return p.h[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.h[i+1]-p.h[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.h[i]-p.h[i-1])/(p.pos[i]-p.pos[i-1]))
}

// linear is the fallback height prediction when the parabola overshoots.
func (p *PSquare) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.h[i] + d*(p.h[j]-p.h[i])/(p.pos[j]-p.pos[i])
}

// N returns the number of observations.
func (p *PSquare) N() int { return p.n }

// Value returns the current quantile estimate (0 before any observation).
func (p *PSquare) Value() float64 {
	if p.n == 0 {
		return 0
	}
	if p.n < 5 {
		buf := append([]float64(nil), p.h[:p.n]...)
		return quantile(buf, p.q)
	}
	// h[0] and h[4] track the running extremes exactly; the interior
	// estimate h[2] is meaningless at q = 0 or 1.
	if p.q == 0 {
		return p.h[0]
	}
	if p.q == 1 {
		return p.h[4]
	}
	return p.h[2]
}
