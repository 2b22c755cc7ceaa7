package stats

import (
	"strings"
	"testing"
)

func TestMeanMaxQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Max(xs) != 4 {
		t.Fatalf("max = %v", Max(xs))
	}
	if quantile(xs, 0) != 1 || quantile(xs, 1) != 4 {
		t.Fatal("quantile extremes wrong")
	}
	if Mean(nil) != 0 || Max(nil) != 0 || quantile(nil, 0.5) != 0 {
		t.Fatal("empty-input defaults wrong")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "n", "energy")
	tb.AddRowf(64, 123.456)
	tb.AddRowf("1024", 9)
	var b strings.Builder
	tb.Render(&b)
	out := b.String()
	if !strings.Contains(out, "## demo") || !strings.Contains(out, "| n ") {
		t.Fatalf("render missing pieces:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	width := len(lines[1])
	for _, l := range lines[1:] {
		if len(l) != width {
			t.Fatalf("unaligned table:\n%s", out)
		}
	}
}
