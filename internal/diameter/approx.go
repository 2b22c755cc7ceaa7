package diameter

import (
	"math"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Result carries a diameter approximation and the work behind it.
type Result struct {
	// Estimate is D′, the returned approximation.
	Estimate int32
	// BFSRuns counts the breadth-first searches performed.
	BFSRuns int
	// SampleSize is |S| (Theorem 5.4 only).
	SampleSize int
	// RSize is |R| (Theorem 5.4 only).
	RSize int
	// Leader is the BFS-tree root used for the sweeps.
	Leader int32
}

// TwoApprox is Theorem 5.3: elect a leader v₀, BFS from it, and Find Maximum
// over the labels. The estimate D′ = ecc(v₀) satisfies
// diam/2 <= D′ <= diam. maxD bounds the search radius (use n).
func TwoApprox(st *core.Stack, lead Leader, maxD int) Result {
	dist := st.BFS([]int32{lead.ID}, maxD)
	tr := NewTree(dist)
	ecc, _, okFound := FindMax(st.Base, tr, int64(maxD), func(v int32) int64 {
		if dist[v] < 0 {
			return KeyInf
		}
		return int64(dist[v])
	}, nil)
	if !okFound {
		ecc = 0
	}
	return Result{Estimate: int32(ecc), BFSRuns: 1, Leader: lead.ID}
}

// ThreeHalvesApprox is Theorem 5.4, after [19, 38]: sample S with
// probability log(n)/√n, BFS from every s ∈ S, let v* maximize the distance
// to S, BFS from v*, take R = the √n vertices closest to v*, BFS from each,
// and return the largest BFS label seen. The estimate satisfies
// ⌊2·diam/3⌋ <= D′ <= diam. It uses O~(√n) Find Minimum / Find Maximum
// calls and BFS runs, for n^(1/2+o(1)) energy per vertex.
func ThreeHalvesApprox(st *core.Stack, lead Leader, maxD int, seed uint64) Result {
	base := st.Base
	n := base.N()
	res := Result{Leader: lead.ID}

	// Backbone BFS tree for all sweeps.
	distL := st.BFS([]int32{lead.ID}, maxD)
	res.BFSRuns++
	tr := NewTree(distL)
	best := int64(0)
	track := func(dist []int32) {
		ecc, _, found := FindMax(base, tr, int64(maxD), func(v int32) int64 {
			if dist[v] < 0 {
				return KeyInf
			}
			return int64(dist[v])
		}, nil)
		if found && ecc > best {
			best = ecc
		}
	}
	track(distL)

	// Sample S: private coins with p = ln(n)/√n.
	p := math.Log(float64(n)+1) / math.Sqrt(float64(n))
	inS := make([]bool, n)
	for v := 0; v < n; v++ {
		inS[v] = rng.New(rng.Derive(seed, uint64(v), 0x5a111)).Bernoulli(p)
	}
	// Enumerate S by repeated Find Minimum over IDs, then BFS from each
	// member; every vertex tracks its distance to the nearest member.
	done := make([]bool, n)
	minToS := make([]int32, n)
	for v := range minToS {
		minToS[v] = int32(maxD + 1)
	}
	for st.Hooks.Err() == nil {
		id, _, found := FindMin(base, tr, int64(n), func(v int32) int64 {
			if inS[v] && !done[v] {
				return int64(v)
			}
			return KeyInf
		}, nil)
		if !found {
			break
		}
		s := int32(id)
		done[s] = true
		res.SampleSize++
		dist := st.BFS([]int32{s}, maxD)
		res.BFSRuns++
		track(dist)
		for v := 0; v < n; v++ {
			if dist[v] >= 0 && dist[v] < minToS[v] {
				minToS[v] = dist[v]
			}
		}
	}

	// v* maximizes the distance to S (ties by vertex ID).
	_, m, found := FindMax(base, tr, int64(maxD+2)*int64(n), func(v int32) int64 {
		return int64(minToS[v])*int64(n) + int64(v)
	}, func(v int32) radio.Msg {
		return radio.Msg{A: uint64(v)}
	})
	if !found {
		res.Estimate = int32(best)
		return res
	}
	vStar := int32(m.A)
	distStar := st.BFS([]int32{vStar}, maxD)
	res.BFSRuns++
	track(distStar)

	// R: the √n vertices closest to v*, by repeated Find Minimum on
	// (distance, ID).
	rSize := int(math.Ceil(math.Sqrt(float64(n))))
	for v := range done {
		done[v] = false
	}
	for picked := 0; picked < rSize && st.Hooks.Err() == nil; picked++ {
		_, m, found := FindMin(base, tr, int64(maxD+2)*int64(n), func(v int32) int64 {
			if done[v] || distStar[v] < 0 {
				return KeyInf
			}
			return int64(distStar[v])*int64(n) + int64(v)
		}, func(v int32) radio.Msg {
			return radio.Msg{A: uint64(v)}
		})
		if !found {
			break
		}
		r := int32(m.A)
		done[r] = true
		res.RSize++
		dist := st.BFS([]int32{r}, maxD)
		res.BFSRuns++
		track(dist)
	}
	res.Estimate = int32(best)
	return res
}
