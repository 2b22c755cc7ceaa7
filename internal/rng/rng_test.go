package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		s := Derive(7, i)
		if seen[s] {
			t.Fatalf("Derive collision at tag %d", i)
		}
		seen[s] = true
	}
	if Derive(7, 1, 2) == Derive(7, 2, 1) {
		t.Fatal("Derive should be order-sensitive in its tags")
	}
	if Derive(7, 1) == Derive(8, 1) {
		t.Fatal("Derive should depend on the base seed")
	}
}

// TestExtendAppendsOneTag pins the identity Derive(s, t1, ..., tk, t) ==
// Extend(Derive(s, t1, ..., tk), t) that lets a caller derive a shared tag
// prefix once.
func TestExtendAppendsOneTag(t *testing.T) {
	check := func(seed, a, b, c uint64) bool {
		return Derive(seed, a) == Extend(Derive(seed), a) &&
			Derive(seed, a, b) == Extend(Derive(seed, a), b) &&
			Derive(seed, a, b, c) == Extend(Extend(Derive(seed, a), b), c)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	var x uint64
	for i := 0; i < 10; i++ {
		x |= r.Uint64()
	}
	if x == 0 {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const trials = 200000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(10) value %d drawn %d times out of 100000; grossly non-uniform", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(13)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate %v", rate)
	}
}

func TestExpMean(t *testing.T) {
	for _, beta := range []float64{0.125, 0.5, 1, 4} {
		r := New(17)
		const trials = 200000
		var sum float64
		for i := 0; i < trials; i++ {
			sum += r.Exp(beta)
		}
		mean := sum / trials
		want := 1 / beta
		if math.Abs(mean-want) > 0.05*want {
			t.Fatalf("Exp(%v) mean = %v, want ~%v", beta, mean, want)
		}
	}
}

func TestExpNonNegative(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		if v := r.Exp(2); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exp produced invalid variate %v", v)
		}
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) should panic")
		}
	}()
	New(1).Exp(0)
}

// TestExpMemoryless spot-checks the memoryless property used by Lemma 2.1:
// P(X > a+b | X > a) should approximate P(X > b).
func TestExpMemoryless(t *testing.T) {
	r := New(23)
	const beta, a, b = 1.0, 0.7, 1.1
	var exceedA, exceedAB, exceedB, total float64
	const trials = 400000
	for i := 0; i < trials; i++ {
		x := r.Exp(beta)
		total++
		if x > a {
			exceedA++
			if x > a+b {
				exceedAB++
			}
		}
		if x > b {
			exceedB++
		}
	}
	cond := exceedAB / exceedA
	uncond := exceedB / total
	if math.Abs(cond-uncond) > 0.02 {
		t.Fatalf("memoryless violated: P(X>a+b|X>a)=%v vs P(X>b)=%v", cond, uncond)
	}
}

func TestGeometricSlotDistribution(t *testing.T) {
	r := New(29)
	const max = 10
	const trials = 200000
	counts := make([]int, max+1)
	for i := 0; i < trials; i++ {
		s := r.GeometricSlot(max)
		if s < 1 || s > max {
			t.Fatalf("slot %d out of [1,%d]", s, max)
		}
		counts[s]++
	}
	// P(t) = 2^-t for t < max; require the Decay property P(X_u = t) >= 2^-t
	// to hold empirically within tolerance.
	for tt := 1; tt < max; tt++ {
		want := math.Pow(2, -float64(tt))
		got := float64(counts[tt]) / trials
		if got < want*0.9-0.002 {
			t.Fatalf("P(slot=%d) = %v, want >= ~%v", tt, got, want)
		}
	}
}

func TestGeometricSlotEdge(t *testing.T) {
	r := New(31)
	for i := 0; i < 100; i++ {
		if s := r.GeometricSlot(1); s != 1 {
			t.Fatalf("GeometricSlot(1) = %d", s)
		}
		if s := r.GeometricSlot(0); s != 1 {
			t.Fatalf("GeometricSlot(0) = %d", s)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := New(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(37)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("Shuffle changed element multiset: sum %d -> %d", sum, got)
	}
}

func TestRankNonNegative(t *testing.T) {
	r := New(41)
	for i := 0; i < 1000; i++ {
		if r.Rank() < 0 {
			t.Fatal("Rank returned negative value")
		}
	}
}

func TestReseedResets(t *testing.T) {
	r := New(100)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(100)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("Reseed did not reset stream at %d", i)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(0.25)
	}
	_ = sink
}
