// Sensornet is the paper's opening scenario (§1): tiny sensors scattered
// over a National Park organize themselves with a BFS labeling; when a
// forest fire is detected, the alarm is disseminated with a duty-cycled
// polling schedule — node i wakes at times jP+i — trading latency for
// battery life.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/graph"
	"repro/internal/labelcast"
	"repro/internal/lbnet"
)

func main() {
	// Sensors dropped from a plane: a random geometric (unit-disk) network.
	g, err := repro.NewGraph("geometric", 400, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("national park: %d sensors, %d radio links, max degree %d\n", g.N(), g.M(), g.MaxDegree())

	// Phase 1: self-organization — BFS labeling from the ranger station.
	nw := repro.NewNetwork(g, 7)
	labels := run(nw, "recursive", repro.Request{MaxDist: g.N()}).Labels
	if bad := run(nw, "verify", repro.Request{Labels: labels, MaxDist: g.N()}).Values["violations"]; bad != 0 {
		log.Fatalf("labeling invalid at %.0f sensors", bad)
	}
	setup := nw.Report()
	depth := int32(0)
	for _, l := range labels {
		if l > depth {
			depth = l
		}
	}
	fmt.Printf("setup: BFS labeling to depth %d; max energy %d LB units/sensor\n\n", depth, setup.MaxLBEnergy)

	// Phase 2: steady state — sweep the polling period P.
	fmt.Println("fire alarm dissemination vs polling period P:")
	fmt.Printf("%8s %12s %16s %22s\n", "P", "latency", "max energy", "idle listens/1000 slots")
	for _, period := range []int{1, 2, 4, 8, 16, 32} {
		net := lbnet.NewUnitNet(g, 0, 99)
		res := labelcast.Broadcast(net, labels, period, int64(g.N())*int64(period+2)*4)
		if !res.DeliveredAll {
			log.Fatalf("P=%d: alarm failed to reach %d sensors", period, g.N()-res.Delivered)
		}
		fmt.Printf("%8d %12d %16d %22d\n",
			period, res.MaxLatency, lbnet.MaxLBEnergy(net), labelcast.SteadyStateListens(1000, period))
	}
	fmt.Println("\nhigher P: the alarm arrives later, but sensors wake 1/P as often.")

	// Phase 3: a fire breaks out at the sensor farthest from the station.
	// The alarm climbs the BFS gradient to the station, which disseminates
	// it to the whole park — the complete round trip of §1.
	fire := int32(0)
	for v := int32(0); int(v) < g.N(); v++ {
		if labels[v] > labels[fire] {
			fire = v
		}
	}
	alarm := run(nw, "alarm", repro.Request{Labels: labels, Origin: fire, Period: 8})
	if alarm.Values["completed"] != 1 {
		log.Fatal("alarm round trip failed")
	}
	fmt.Printf("\nfire at sensor %d (%d hops out): alarm up to the station and back out\n", fire, labels[fire])
	fmt.Printf("to every sensor in %d slots at polling period 8.\n", int64(alarm.Values["latency"]))

	// Phase 4: sanity — the labeling really is the hop distance.
	ref := graph.BFS(g, 0)
	for v := range ref {
		if labels[v] != ref[v] {
			log.Fatalf("sensor %d labeled %d but is %d hops away", v, labels[v], ref[v])
		}
	}
	fmt.Println("labels match true hop distances for all sensors.")
}

// run resolves a registered algorithm by name and runs it on nw.
func run(nw *repro.Network, name string, req repro.Request) *repro.Result {
	alg, err := repro.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	res, err := alg.Run(context.Background(), nw, req)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
