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
// Cost: a cast builds its slot schedule once, clamped to the deepest
// relevant stage, and each stage builds every participating cluster's
// sender block and waiting-receiver list once. On a parent that is a
// *lbnet.UnitNet a listener with no sending neighbour is charged, not
// resolved: each stage first drops the receivers with no stage sender next
// to them and the senders with no waiting receiver next to them, then
// resolves only the steps holding both (lbnet.UnitNet.Deliver), and every
// member is charged once per stage (lbnet.UnitNet.Charge). Any other parent
// — a PhysNet, or a lower VNet — gets one LocalBroadcast per step with a
// participant. Both paths leave identical outputs, meters and clocks.
//
// Allocation contract: per-call buffers live in VNet scratch — one sender
// buffer and one receiver buffer hold a stage's lists and, merged in place
// past them, one step's — so Downcast, Upcast, and LocalBroadcast run at 0
// allocs/op once warm on either path (pinned by AllocsPerRun tests). Cast
// randomness derives from the seed the VNet was built with, preserving the
// trial-level determinism contract.
package vnet
