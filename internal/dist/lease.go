package dist

// The coordinator's lease table: a uniform partition of the sweep's global
// slot space [0, total) into contiguous ranges, plus the acked-slot
// checkpoint that makes re-leasing loss-free. Completed slots are recorded
// the moment their result frame arrives, so a revoked lease re-issues only
// its remainder. A lease has at most one holder at a time, and a slot
// reported twice resolves by first-writer-wins on the slot index —
// re-executing a slot reproduces the identical Result, so the winner is
// irrelevant to the bytes.

// leaseState tracks one lease through its grant/revoke/complete lifecycle.
type leaseState struct {
	id         int
	start, end int // global slots [start, end)
	// held is set while a worker holds the lease.
	held bool
	// retries counts consecutive grants that ended without acking a single
	// new slot; it resets whenever a revocation finds fresh progress. A
	// lease whose retries exceed the budget is executed in-process.
	retries int
	// remainingAtGrant snapshots the unacked count at the latest grant, the
	// reference point for the progress test above.
	remainingAtGrant int
	done             bool
}

// table is the lease table plus the acked-slot checkpoint.
type table struct {
	leases []*leaseState
	size   int // slots per lease (last lease may be shorter)
	acked  []bool
	ackedN int
}

// defaultLeaseSize targets roughly four leases per worker: fine enough that
// load balances by completion and a revocation re-issues little, coarse
// enough that each worker pays only a handful of grant round trips.
func defaultLeaseSize(total, workers int) int {
	if workers < 1 {
		workers = 1
	}
	size := total / (workers * 4)
	if size < 1 {
		size = 1
	}
	return size
}

// newTable partitions [0, total) into ⌈total/size⌉ contiguous leases.
func newTable(total, size int) *table {
	if size < 1 {
		size = 1
	}
	t := &table{size: size, acked: make([]bool, total)}
	for start := 0; start < total; start += size {
		end := start + size
		if end > total {
			end = total
		}
		t.leases = append(t.leases, &leaseState{id: len(t.leases), start: start, end: end})
	}
	return t
}

// total returns the slot count.
func (t *table) total() int { return len(t.acked) }

// allDone reports whether every slot is acked.
func (t *table) allDone() bool { return t.ackedN == len(t.acked) }

// ack checkpoints a completed slot; it returns false when the slot was
// already acked (a duplicate to drop).
func (t *table) ack(slot int) bool {
	if t.acked[slot] {
		return false
	}
	t.acked[slot] = true
	t.ackedN++
	return true
}

// leaseOf maps a slot to its owning lease.
func (t *table) leaseOf(slot int) *leaseState {
	return t.leases[slot/t.size]
}

// remaining counts the lease's unacked slots.
func (t *table) remaining(l *leaseState) int {
	n := 0
	for s := l.start; s < l.end; s++ {
		if !t.acked[s] {
			n++
		}
	}
	return n
}

// skipList lists the lease's already-acked slots, for the grant frame.
func (t *table) skipList(l *leaseState) []int {
	var skip []int
	for s := l.start; s < l.end; s++ {
		if t.acked[s] {
			skip = append(skip, s)
		}
	}
	return skip
}

// grant records that a worker now holds the lease.
func (t *table) grant(l *leaseState) {
	l.held = true
	l.remainingAtGrant = t.remaining(l)
}

// release records that the lease's grant ended (completion, exit, or
// revocation) and updates the retry counter: a grant that made no progress
// counts against the budget, one that did resets it.
func (t *table) release(l *leaseState) {
	l.held = false
	if l.done {
		return
	}
	if rem := t.remaining(l); rem >= l.remainingAtGrant {
		l.retries++
	} else {
		l.retries = 0
	}
}

// pending returns the lowest-id lease that is incomplete and held by
// nobody, or nil.
func (t *table) pending() *leaseState {
	for _, l := range t.leases {
		if !l.done && !l.held && t.remaining(l) > 0 {
			return l
		}
	}
	return nil
}
