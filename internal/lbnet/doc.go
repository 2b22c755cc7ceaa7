// Package lbnet defines the abstraction at the heart of the paper's §3: a
// (possibly virtual) radio network on which algorithms are composed
// exclusively of collective Local-Broadcast calls. The clustering algorithm,
// the Up-cast/Down-cast primitives, Recursive-BFS and the diameter
// algorithms are all written once against the Net interface and run
// unchanged on:
//
//   - PhysNet — a physical RN[O(log n)] network, where each Local-Broadcast
//     executes the Decay protocol on the radio engine (Lemma 2.4), or
//   - UnitNet — the paper's own unit of measurement (§4.3: "We use a call to
//     Local-Broadcast as a unit of measurement of both time and energy"),
//     where one Local-Broadcast costs one time unit and one energy unit per
//     participant, with the Lemma 2.4 delivery guarantee taken as given, or
//   - vnet.VNet — a cluster graph simulated on top of either (Lemma 3.2).
//
// Calls carry sparse participant lists, so the cost of a Local-Broadcast is
// proportional to the number of participants — sleeping vertices are free,
// in the simulator exactly as in the model. On a UnitNet a listener with no
// sending neighbour hears nothing and draws no randomness, so it changes
// nothing but its meter: schedules that run many slots (the stages of
// Recursive-BFS, the depth-0 wavefront BFS, cluster growth) hand
// UnitNet.Deliver only the listeners that can hear and the senders next to
// them, vnet cast stages resolve each such listener from its own adjacency
// and draw its coin with UnitNet.Lost, and all of them settle everyone's
// meters with UnitNet.Charge and the clock with SkipLB, byte-identical to
// one LocalBroadcast per slot.
//
// Control flow above this interface is data-independent: the sequence and
// duration of collective calls depends only on globally known parameters,
// never on received data, so sleeping vertices stay synchronized for free.
//
// Allocation contract: steady-state Local-Broadcasts on either
// implementation allocate nothing once warm (PhysNet draws its buffers from
// decay.Scratch); AllocsPerRun regression tests pin this, which is what
// keeps large sweeps activity-bound rather than GC-bound.
package lbnet
