package vnet

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/radio"
	"repro/internal/rng"
)

// TestPropertyDowncastPartialParticipation fuzzes the participating cluster
// set: exactly the members of participating clusters (with a message) must
// receive, and no one else.
func TestPropertyDowncastPartialParticipation(t *testing.T) {
	check := func(seed uint64, mask uint16) bool {
		r := rng.New(seed)
		g := graph.ConnectedGNP(80, 0.05, r)
		base := lbnet.NewUnitNet(g, 0, seed)
		cl := cluster.Build(base, cluster.DefaultConfig(80, 4), seed)
		vn := New(base, cl)
		nc := vn.N()
		part := make([]bool, nc)
		has := make([]bool, nc)
		msgs := make([]radio.Msg, nc)
		for c := 0; c < nc; c++ {
			part[c] = mask&(1<<(c%16)) != 0
			has[c] = part[c]
			msgs[c] = radio.Msg{A: uint64(c) + 1}
		}
		memberGot := make([]radio.Msg, 80)
		memberOk := make([]bool, 80)
		vn.Downcast(clusters(part), has, msgs, memberGot, memberOk)
		for u := 0; u < 80; u++ {
			c := cl.ClusterOf[u]
			if part[c] {
				if !memberOk[u] || memberGot[u].A != uint64(c)+1 {
					return false
				}
			} else if memberOk[u] {
				return false
			}
		}
		return vn.CastFailures() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUpcastSelectsAMember fuzzes which members hold messages: a
// participating cluster's center must receive one of its own members'
// messages iff at least one member holds one.
func TestPropertyUpcastSelectsAMember(t *testing.T) {
	check := func(seed uint64, holders uint32) bool {
		r := rng.New(seed)
		g := graph.ConnectedGNP(60, 0.06, r)
		base := lbnet.NewUnitNet(g, 0, seed)
		cl := cluster.Build(base, cluster.DefaultConfig(60, 4), seed)
		vn := New(base, cl)
		nc := vn.N()
		part := make([]bool, nc)
		for c := range part {
			part[c] = true
		}
		memberHas := make([]bool, 60)
		memberMsg := make([]radio.Msg, 60)
		hasAny := make([]bool, nc)
		for u := 0; u < 60; u++ {
			if holders&(1<<(u%32)) != 0 {
				memberHas[u] = true
				memberMsg[u] = radio.Msg{A: uint64(u) + 1}
				hasAny[cl.ClusterOf[u]] = true
			}
		}
		clusterGot := make([]radio.Msg, nc)
		clusterOk := make([]bool, nc)
		vn.Upcast(clusters(part), memberHas, memberMsg, clusterGot, clusterOk)
		for c := 0; c < nc; c++ {
			if clusterOk[c] != hasAny[c] {
				return false
			}
			if clusterOk[c] {
				src := int32(clusterGot[c].A - 1)
				if cl.ClusterOf[src] != int32(c) || !memberHas[src] {
					return false
				}
			}
		}
		return vn.CastFailures() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyVirtualLBAdjacency fuzzes sender/receiver cluster splits: a
// receiving cluster hears iff it is G*-adjacent to some sending cluster.
func TestPropertyVirtualLBAdjacency(t *testing.T) {
	check := func(seed uint64, mask uint16) bool {
		r := rng.New(seed)
		g := graph.ConnectedGNP(70, 0.05, r)
		base := lbnet.NewUnitNet(g, 0, seed)
		cl := cluster.Build(base, cluster.DefaultConfig(70, 4), seed)
		vn := New(base, cl)
		nc := vn.N()
		if nc < 2 {
			return true
		}
		cg := vn.Graph()
		var senders []radio.TX
		var receivers []int32
		sending := make([]bool, nc)
		for c := int32(0); c < int32(nc); c++ {
			if mask&(1<<(int(c)%16)) != 0 {
				senders = append(senders, radio.TX{ID: c, Msg: radio.Msg{A: uint64(c) + 1}})
				sending[c] = true
			} else {
				receivers = append(receivers, c)
			}
		}
		if len(senders) == 0 || len(receivers) == 0 {
			return true
		}
		got := make([]radio.Msg, len(receivers))
		ok := make([]bool, len(receivers))
		vn.LocalBroadcast(senders, receivers, got, ok)
		for i, c := range receivers {
			adj := false
			for _, nb := range cg.Neighbors(c) {
				if sending[nb] {
					adj = true
					break
				}
			}
			if adj != ok[i] {
				return false
			}
			if ok[i] && !sending[int32(got[i].A-1)] {
				return false // payload must come from a sending cluster
			}
		}
		return vn.CastFailures() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
