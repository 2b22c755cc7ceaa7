// Package dist executes a compiled scenario spec across multiple worker
// processes under a lease-based coordinator, producing output byte-identical
// to the single-process `radiobfs run` path — including under injected
// worker crashes, stalls, disconnects and re-executed work.
//
// # Why leases, and why the bytes cannot change
//
// Every trial of a sweep derives its seed from its own coordinates (see
// harness.TrialFor), never from scheduling, so a trial's Result is a pure
// function of its global slot in the canonical trial order
// (harness.Runner.ExpandAll). Distribution is therefore "only" a
// coordination problem: partition the slot space [0, T) into leases —
// contiguous slot ranges — hand them to workers, and merge the streamed
// results back into the position-indexed layout Runner.Run would have
// produced. Re-executing a slot (after a crash) reproduces the identical
// Result, so the coordinator keeps the first result per slot and the merged
// artifacts stay byte-identical to an unfaulted in-process run.
//
// # Lease lifecycle and failure model
//
// A lease is granted to a worker together with the set of slots in its
// range that are already completed (the skip list). Workers stream one
// result frame per trial the moment it settles, so a worker crash mid-lease
// loses no completed trials: the coordinator has already checkpointed every
// acked slot. Liveness is heartbeat-based — workers emit heartbeat frames on
// a timer, and results double as heartbeats; a worker silent past the
// heartbeat timeout is killed and its lease is revoked. A revoked or
// orphaned lease is narrowed to its remaining slots and re-queued; grants
// that end without acking a single new slot count against the lease's retry
// budget, and a lease that exhausts the budget is executed in-process by the
// coordinator itself, which also happens wholesale when no worker process
// can be spawned at all (graceful degradation, with a warning). Worker
// respawns back off exponentially with a cap, resetting on progress.
//
// Granting is pull-based with one rule: an idle worker is granted the
// lowest pending lease, and a lease has at most one holder. Load balances by
// completion, and every slot granted in a fault-free run executes exactly
// once. A slot reported twice anyway is dropped by first-writer-wins on the
// slot index.
//
// # Protocol and transports
//
// Coordinator and workers speak length-prefixed JSON frames (see proto.go):
// hello → ready, then lease → result* → leaseDone, interleaved with
// heartbeats, until shutdown. The carrier is a Transport: the default
// fork/exec pipe transport spawns `radiobfs work` children over
// stdin/stdout, and the TCP transport (Listen / RemoteWorker) accepts
// remote workers started by hand with `radiobfs work -connect host:port
// -token T`. The frame codec, lease protocol, checkpointing, and the
// degradation ladder are identical on both; only the trust boundary and the
// failure semantics of "kill" change (a socket can be closed, but a remote
// process cannot be respawned — its slot refills when a worker redials).
//
// # Worker authentication and version negotiation
//
// Pipe workers are fork/exec'd from the coordinator's own binary, so
// identity and compatibility hold by construction. A TCP worker could be
// anyone running anything, so before the hello crosses the wire the
// connection passes a challenge/auth handshake (handshake.go): the
// coordinator issues a fresh random nonce, the worker returns
// HMAC-SHA256(token, nonce) plus its frame-protocol version and
// spec.CodeVersion, and the coordinator verifies replay (stale nonce), MAC,
// and exact version equality in that order. Each failure is a typed reject
// frame (RejectedError) naming what to fix; the per-result seed-echo check
// remains the runtime backstop against binaries that lie. A successful
// handshake logs the negotiated versions.
//
// # Deterministic fault injection
//
// ChaosSpec ("seed=S,killafter=K,stall=P,disconnect=D,delay=MS") makes
// worker incarnations crash (os.Exit), stall (stop heartbeating and hang),
// or disconnect (drop the transport; remote workers redial as fresh
// incarnations) after a seeded number of completed trials, and injects a
// seeded per-trial result latency. The fault schedule is a pure function of
// (chaos seed, worker incarnation number), so every failure path — crash
// re-lease, heartbeat-timeout revocation, reconnect, backoff, a slow link
// that must not be revoked — is exercised deterministically in tests and
// CI, with the merged artifacts byte-diffed against an unfaulted
// single-process run.
package dist
