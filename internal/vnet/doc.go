// Package vnet simulates the cluster graph G* = cluster(G, β) as a radio
// network in its own right, implementing the paper's §3. Virtual vertices
// are clusters; the communication primitives are:
//
//   - Downcast (Lemma 3.1): cluster centers disseminate a message to all
//     members, layer by layer, using the shared-subset collision-avoidance
//     schedule — stage i, step j has the layer-(i-1) members of clusters
//     with j ∈ S_C send to the layer-i members of those clusters.
//   - Upcast (Lemma 3.1): the reverse — the center learns one message held
//     by some member.
//   - LocalBroadcast (Lemma 3.2): one Local-Broadcast on G*, implemented as
//     Downcast + one parent-level Local-Broadcast + Upcast, plus a final
//     result Downcast so that every member learns what its cluster received
//     (a constant-factor deviation recorded in DESIGN.md that keeps the
//     replicated per-cluster state of Invariant 4.1 consistent).
//
// A VNet implements lbnet.Net, so clustering and Recursive-BFS run on it
// unchanged — including building a further VNet on top of it, which is the
// recursion of §4. Every operation has a fixed duration in parent LB units,
// determined only by the clustering parameters, so non-participating
// clusters sleep through it at zero energy.
//
// Cost: every cast and virtual Local-Broadcast takes its participating
// clusters as an ascending list and touches only their members — nothing is
// cleared or copied for a cluster that sleeps. On a parent that is a
// *lbnet.UnitNet a listener with no sending neighbour is charged, not
// resolved: each stage marks its senders, each waiting receiver keeps the
// stage senders among its own neighbours (one with none is charged |S_C|
// at once), and the kept receivers are resolved step by step, from the
// receiver's side, in the order one parent Local-Broadcast per step would
// list them: the first neighbouring sender whose cluster uses the step is
// the minimum-ID sender lbnet.UnitNet.Deliver would pick, and the receiver
// draws its failure coin with lbnet.UnitNet.Lost. Every member is charged
// once per stage (lbnet.UnitNet.Charge). Any other parent — a PhysNet, or
// a lower VNet — gets one LocalBroadcast per step with a participant, the
// steps ordered once per cast from a slot bitset. Both paths leave
// identical outputs, meters, clocks and failure draws. Measured on a
// 2-vCPU Xeon with go1.24.0, GOMAXPROCS 1: a depth-2 Stack.BFS on
// Path(1024) with radius 64, β⁻¹ 4, w 8, α 4 takes 3.3–3.4 s, against
// 26–31 s before casts and Recursive-BFS stages worked only on their
// participants, with the same labels, energy and clock.
//
// Allocation contract: per-call buffers live in VNet scratch — on the
// per-slot path one sender buffer and one receiver buffer hold a stage's
// lists and, merged in place past them, one step's; on a unit-cost parent
// the stage's listeners, their sending neighbours and a step heap — so
// Downcast, Upcast, and LocalBroadcast run at 0 allocs/op once warm on
// either path (pinned by AllocsPerRun tests). Cast randomness derives from
// the seed the VNet was built with, preserving the trial-level determinism
// contract.
package vnet
