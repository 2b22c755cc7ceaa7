// Diameterapprox contrasts the paper's §5 diameter results: exact diameter
// needs Ω(n) energy (Theorem 5.1), a 2-approximation is nearly free on top
// of BFS (Theorem 5.3), and √n-ish energy buys a nearly-3/2 approximation
// (Theorem 5.4).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/graph"
)

func main() {
	fmt.Printf("%-12s %5s %6s %8s %10s %8s %10s\n",
		"family", "n", "diam", "2-approx", "energy", "3/2-apx", "energy")
	for _, family := range []string{"path", "cycle", "grid", "lollipop"} {
		g, err := repro.NewGraph(family, 80, 11)
		if err != nil {
			log.Fatal(err)
		}
		diam := graph.Diameter(g)

		d2, e2 := estimate("diam2", g)
		d32, e32 := estimate("diam32", g)

		fmt.Printf("%-12s %5d %6d %8d %10d %8d %10d\n", family, g.N(), diam, d2, e2, d32, e32)
		if d2 < diam/2 || d2 > diam {
			log.Fatalf("%s: 2-approx out of band", family)
		}
		if d32 < diam*2/3 || d32 > diam {
			log.Fatalf("%s: 3/2-approx out of band", family)
		}
	}
	fmt.Println("\nboth estimates always fall inside their proven bands:")
	fmt.Println("  2-approx  in [diam/2, diam]        (Theorem 5.3)")
	fmt.Println("  3/2-approx in [2·diam/3, diam]      (Theorem 5.4)")
	fmt.Println("and by Theorem 5.1, doing better than 2-ε on general graphs costs Ω(n).")
}

// estimate runs the named registered diameter approximation on a fresh
// network over g and returns its estimate and max LB energy per device.
func estimate(name string, g *repro.Graph) (int32, int64) {
	alg, err := repro.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	res, err := alg.Run(context.Background(), repro.NewNetwork(g, 11), repro.Request{})
	if err != nil {
		log.Fatal(err)
	}
	return res.Estimate, res.Cost.MaxLBEnergy
}
