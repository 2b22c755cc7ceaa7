package diameter

// Leader is the outcome of a leader election.
type Leader struct {
	// ID is the elected vertex.
	ID int32
	// Agreed reports whether every vertex ended with the same belief — the
	// w.h.p. event the election relies on.
	Agreed bool
}

// Designated returns the zero-cost "leader election" in which device 0 is
// the leader by convention (e.g. devices flashed with distinct roles).
// Theorems 5.3/5.4 take LeaderElection from The Energy Complexity of
// Broadcast (arXiv:1710.01800) as a black box; `diam2` and `diam32` use
// this substitute instead and charge no energy for the election, a
// deviation recorded in DESIGN.md.
func Designated() Leader { return Leader{ID: 0, Agreed: true} }
