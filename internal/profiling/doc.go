// Package profiling wires the standard -cpuprofile/-memprofile flags into
// cmd/experiments, so performance work on the simulation hot path stays
// profile-driven: run an experiment with the flags and feed the output to
// `go tool pprof`. Benchmarks and tests profile through `go test
// -cpuprofile` instead.
//
// Start returns a stop function that flushes the CPU profile and captures
// the heap profile after a GC, and is safe to call when neither flag was
// given. Profiling never touches the simulation's randomness or output:
// stdout bytes are identical with and without it.
package profiling
