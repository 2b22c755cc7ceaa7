package dist

import "testing"

func TestTablePartition(t *testing.T) {
	tbl := newTable(10, 4)
	if len(tbl.leases) != 3 {
		t.Fatalf("10 slots at size 4: %d leases, want 3", len(tbl.leases))
	}
	bounds := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	for i, l := range tbl.leases {
		if l.id != i || l.start != bounds[i][0] || l.end != bounds[i][1] {
			t.Errorf("lease %d: [%d, %d), want %v", l.id, l.start, l.end, bounds[i])
		}
	}
	for s := 0; s < 10; s++ {
		want := s / 4
		if tbl.leaseOf(s).id != want {
			t.Errorf("leaseOf(%d) = %d, want %d", s, tbl.leaseOf(s).id, want)
		}
	}
	if defaultLeaseSize(100, 4) != 6 { // ~4 leases per worker
		t.Errorf("defaultLeaseSize(100, 4) = %d, want 6", defaultLeaseSize(100, 4))
	}
	if defaultLeaseSize(3, 8) != 1 {
		t.Errorf("defaultLeaseSize(3, 8) = %d, want 1", defaultLeaseSize(3, 8))
	}
}

func TestTableAckAndSkip(t *testing.T) {
	tbl := newTable(6, 3)
	if !tbl.ack(2) || tbl.ack(2) {
		t.Fatal("first ack must succeed, duplicate must not")
	}
	l := tbl.leases[0]
	if rem := tbl.remaining(l); rem != 2 {
		t.Errorf("remaining = %d, want 2", rem)
	}
	if skip := tbl.skipList(l); len(skip) != 1 || skip[0] != 2 {
		t.Errorf("skipList = %v, want [2]", skip)
	}
	tbl.ack(0)
	tbl.ack(1)
	tbl.ack(3)
	tbl.ack(4)
	if tbl.allDone() {
		t.Fatal("allDone with slot 5 unacked")
	}
	tbl.ack(5)
	if !tbl.allDone() {
		t.Fatal("allDone after every ack")
	}
}

func TestLeaseRetryAccounting(t *testing.T) {
	tbl := newTable(4, 4)
	l := tbl.leases[0]

	// A grant that ends with no new acks counts against the budget.
	tbl.grant(l)
	tbl.release(l)
	if l.retries != 1 {
		t.Fatalf("no-progress release: retries = %d, want 1", l.retries)
	}
	// A grant that acked something resets the counter.
	tbl.grant(l)
	tbl.ack(0)
	tbl.release(l)
	if l.retries != 0 {
		t.Fatalf("progressing release: retries = %d, want 0", l.retries)
	}
	if l.held {
		t.Fatal("lease still held after its release")
	}
}

// TestPendingLeaseHasOneHolder pins the one-holder rule: pending offers the
// lowest lease nobody holds, never a held one, and offers a released lease
// again while it has unacked slots.
func TestPendingLeaseHasOneHolder(t *testing.T) {
	tbl := newTable(9, 3) // leases 0,1,2
	if p := tbl.pending(); p == nil || p.id != 0 {
		t.Fatalf("pending = %v, want lease 0", p)
	}
	tbl.grant(tbl.leases[0])
	if p := tbl.pending(); p == nil || p.id != 1 {
		t.Fatalf("pending with lease 0 held = %v, want lease 1", p)
	}
	tbl.grant(tbl.leases[1])
	tbl.grant(tbl.leases[2])
	if p := tbl.pending(); p != nil {
		t.Fatalf("pending = lease %d with everything held", p.id)
	}

	// Lease 0 completes and lease 2 falls behind: an idle worker is offered
	// nothing, because every incomplete lease already has its one holder.
	tbl.ack(0)
	tbl.ack(1)
	tbl.ack(2)
	tbl.leases[0].done = true
	tbl.release(tbl.leases[0])
	tbl.ack(3)
	if p := tbl.pending(); p != nil {
		t.Fatalf("pending = lease %d, a held lease offered to a second worker", p.id)
	}

	// Lease 1's holder dies with slots 4 and 5 unacked: the released lease
	// is offered again, to exactly one new holder.
	tbl.release(tbl.leases[1])
	if p := tbl.pending(); p == nil || p.id != 1 {
		t.Fatalf("pending after release = %v, want lease 1", p)
	}
	tbl.grant(tbl.leases[1])
	if p := tbl.pending(); p != nil {
		t.Fatalf("pending = lease %d after lease 1 was re-granted", p.id)
	}

	// A released lease whose slots were all acked is not offered again.
	tbl.ack(4)
	tbl.ack(5)
	tbl.release(tbl.leases[1])
	if p := tbl.pending(); p != nil {
		t.Fatalf("pending = lease %d, a fully acked lease", p.id)
	}
}
