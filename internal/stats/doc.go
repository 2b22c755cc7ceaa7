// Package stats provides the statistics and presentation toolkit the
// experiment harness aggregates and renders with: summary statistics,
// streaming accumulators (Stream for moments and extrema, PSquare for
// quantiles without retaining observations), and the aligned text table
// `radiobfs run` prints per scenario (harness.WriteTable).
//
// Everything here is deterministic formatting and arithmetic: rendering a
// table or folding a stream is a pure function of its inputs, with no
// locale, time, or map-iteration dependence — the last link in the chain
// that makes experiment output and persisted artifacts byte-reproducible.
// The streaming accumulators exist so aggregation over large sweeps runs in
// O(1) memory per (cell, metric) regardless of trial count.
package stats
