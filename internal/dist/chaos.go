package dist

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/rng"
)

// ChaosExitCode is the exit status of a chaos-killed worker, distinct from
// ordinary failures so logs attribute the crash correctly.
const ChaosExitCode = 3

// chaosTag salts the chaos seed's Derive stream so chaos draws never
// collide with trial seeds derived from the same root.
const chaosTag = 0xc4a05

// ChaosSpec is the deterministic fault-injection schedule for worker
// processes, parsed from
// `-chaos seed=S,killafter=K,stall=P,disconnect=D,delay=MS,corrupt=P,coordkill=K`.
// The zero value injects nothing.
//
// Each worker incarnation i draws its fault plan from (Seed, i) alone — not
// from timing, pids, or scheduling — so a chaos run's failure pattern is
// reproducible and every incarnation's fate is known up front: with
// probability StallPct percent it stalls (stops heartbeating and hangs),
// otherwise, when KillAfter > 0, it crashes with ChaosExitCode, otherwise,
// when Disconnect > 0, it severs its transport (remote workers drop the
// socket and redial; pipe workers exit, which looks identical to the
// coordinator), otherwise, with probability CorruptPct percent, it corrupts
// one result frame in flight and then severs its transport — exercising the
// codec's CRC32 check from a real worker process. Every terminal fault
// fires after the incarnation completes
// a seeded number of trials in [1, max(1, span)]. Faulting only after at
// least one completed trial keeps chaos sweeps live: every incarnation
// makes progress, so the coordinator's checkpointing converges no matter
// how hostile the schedule. Independently, DelayMS > 0 injects a seeded
// per-trial result latency in [0, DelayMS] milliseconds — a slow link, not
// a failure: heartbeats keep flowing, so the coordinator must not revoke
// the worker's lease, and the bytes never change.
type ChaosSpec struct {
	Seed       uint64 `json:"seed,omitempty"`
	KillAfter  int    `json:"killAfter,omitempty"`
	StallPct   int    `json:"stallPct,omitempty"`
	Disconnect int    `json:"disconnect,omitempty"`
	DelayMS    int    `json:"delayMS,omitempty"`
	// CorruptPct is the percent chance an incarnation corrupts one result
	// frame in flight (then severs its transport), exercising the CRC32
	// frame check end to end.
	CorruptPct int `json:"corruptPct,omitempty"`
	// CoordKill is coordinator-side chaos: SIGKILL the coordinator process
	// itself after this many trials have been checkpointed to the run
	// journal. It requires -checkpoint and is ignored by workers.
	CoordKill int `json:"coordKill,omitempty"`
}

// Enabled reports whether the spec injects any fault (worker- or
// coordinator-side).
func (c ChaosSpec) Enabled() bool {
	return c.KillAfter > 0 || c.StallPct > 0 || c.Disconnect > 0 || c.DelayMS > 0 || c.CorruptPct > 0 || c.CoordKill > 0
}

// String renders the spec in the flag syntax ParseChaos accepts.
func (c ChaosSpec) String() string {
	if !c.Enabled() {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	if c.KillAfter > 0 {
		parts = append(parts, fmt.Sprintf("killafter=%d", c.KillAfter))
	}
	if c.StallPct > 0 {
		parts = append(parts, fmt.Sprintf("stall=%d", c.StallPct))
	}
	if c.Disconnect > 0 {
		parts = append(parts, fmt.Sprintf("disconnect=%d", c.Disconnect))
	}
	if c.DelayMS > 0 {
		parts = append(parts, fmt.Sprintf("delay=%d", c.DelayMS))
	}
	if c.CorruptPct > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%d", c.CorruptPct))
	}
	if c.CoordKill > 0 {
		parts = append(parts, fmt.Sprintf("coordkill=%d", c.CoordKill))
	}
	return strings.Join(parts, ",")
}

// ParseChaos parses a `seed=S,killafter=K,stall=P,disconnect=D,delay=MS`
// flag value. All keys are optional; an empty string disables chaos
// entirely.
func ParseChaos(s string) (ChaosSpec, error) {
	var c ChaosSpec
	if strings.TrimSpace(s) == "" {
		return c, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return c, fmt.Errorf("dist: chaos term %q is not key=value (known keys: seed, killafter, stall, disconnect, delay, corrupt, coordkill)", part)
		}
		switch key {
		case "seed":
			u, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("dist: chaos seed %q: %w", val, err)
			}
			c.Seed = u
		case "killafter":
			k, err := strconv.Atoi(val)
			if err != nil || k < 0 {
				return c, fmt.Errorf("dist: chaos killafter %q must be a non-negative integer", val)
			}
			c.KillAfter = k
		case "stall":
			p, err := strconv.Atoi(val)
			if err != nil || p < 0 || p > 100 {
				return c, fmt.Errorf("dist: chaos stall %q must be a percentage in [0, 100]", val)
			}
			c.StallPct = p
		case "disconnect":
			d, err := strconv.Atoi(val)
			if err != nil || d < 0 {
				return c, fmt.Errorf("dist: chaos disconnect %q must be a non-negative integer", val)
			}
			c.Disconnect = d
		case "delay":
			ms, err := strconv.Atoi(val)
			if err != nil || ms < 0 {
				return c, fmt.Errorf("dist: chaos delay %q must be a non-negative millisecond count", val)
			}
			c.DelayMS = ms
		case "corrupt":
			p, err := strconv.Atoi(val)
			if err != nil || p < 0 || p > 100 {
				return c, fmt.Errorf("dist: chaos corrupt %q must be a percentage in [0, 100]", val)
			}
			c.CorruptPct = p
		case "coordkill":
			k, err := strconv.Atoi(val)
			if err != nil || k < 0 {
				return c, fmt.Errorf("dist: chaos coordkill %q must be a non-negative integer", val)
			}
			c.CoordKill = k
		default:
			return c, fmt.Errorf("dist: unknown chaos key %q (known: seed, killafter, stall, disconnect, delay, corrupt, coordkill)", key)
		}
	}
	return c, nil
}

// FaultKind is what a worker incarnation does at its fault boundary.
type FaultKind int

const (
	// FaultNone lets the incarnation run to completion.
	FaultNone FaultKind = iota
	// FaultKill exits the process with ChaosExitCode.
	FaultKill
	// FaultStall stops heartbeats and hangs until killed, the injected
	// straggler the coordinator must detect by heartbeat loss.
	FaultStall
	// FaultDisconnect severs the worker's transport: a remote worker
	// closes its socket and redials as a fresh incarnation; a pipe worker
	// exits (to the coordinator, an identical signal).
	FaultDisconnect
	// FaultCorrupt flips bytes in one result frame after the CRC was
	// computed — the coordinator's reader sees a typed checksum failure —
	// then severs the transport like FaultDisconnect (there is no way to
	// resynchronize a stream past a lying body).
	FaultCorrupt
)

// Fault is one incarnation's planned failure: Kind fires once the
// incarnation has completed After trials (across all its leases). Delay,
// independently, is the incarnation's injected per-result link latency.
type Fault struct {
	Kind  FaultKind
	After int
	Delay time.Duration
}

// Plan derives the fault for worker incarnation number inc. It is a pure
// function of (c, inc). The terminal fault kinds are prioritized stall >
// kill > disconnect > corrupt, and the draws for the original kinds come
// first (corrupt's draw is appended last), so a chaos seed from before
// disconnect/delay/corrupt existed still produces the identical plan.
func (c ChaosSpec) Plan(inc int) Fault {
	if !c.Enabled() {
		return Fault{}
	}
	r := rng.New(rng.Derive(c.Seed, chaosTag, uint64(inc)))
	span := c.KillAfter
	if span < 1 {
		span = 1
	}
	after := 1 + r.Intn(span)
	var f Fault
	if c.StallPct > 0 && r.Intn(100) < c.StallPct {
		f = Fault{Kind: FaultStall, After: after}
	} else if c.KillAfter > 0 {
		f = Fault{Kind: FaultKill, After: after}
	} else if c.Disconnect > 0 {
		f = Fault{Kind: FaultDisconnect, After: 1 + r.Intn(c.Disconnect)}
	}
	if c.DelayMS > 0 {
		f.Delay = time.Duration(r.Intn(c.DelayMS+1)) * time.Millisecond
	}
	if c.CorruptPct > 0 && f.Kind == FaultNone && r.Intn(100) < c.CorruptPct {
		f.Kind = FaultCorrupt
		f.After = after
	}
	return f
}
