// Package serve is the simulation-as-a-service layer: a long-lived HTTP/JSON
// server (`radiobfs serve`) that accepts declarative experiment specs
// (internal/spec) from many concurrent clients, schedules them on a shared
// pooled runner with admission control, streams per-job progress over
// Server-Sent Events, and persists artifacts in a content-addressed result
// cache.
//
// The design leans entirely on the determinism contract built up by the
// lower layers: a spec's artifacts are a pure function of (canonical spec,
// root seed, code version) — byte-identical at any worker count or
// scheduling — so a completed result is cacheable forever
// under that key. Identical submissions are cache hits served without
// recomputation; concurrent identical submissions coalesce onto one running
// job (single-flight); and the artifact files a client fetches are the same
// bytes `radiobfs run` would have written locally, which CI enforces with a
// byte-level diff.
//
// The four moving parts:
//
//   - Store (store.go): a content-addressed artifact directory keyed by
//     hex SHA-256 of (code version, canonical spec hash, effective root
//     seed, quick flag). Commits are staged and renamed into place, so a
//     key is either absent or complete.
//   - Log (events.go): a per-job, ring-buffered, fan-out event log. SSE
//     handlers replay retained events after the client's Last-Event-ID and
//     then follow live appends; progress events are sourced from
//     internal/progress observers and the harness's per-trial hook.
//   - Job journal (journal.go): an internal/journal record log in the
//     store root that makes accepted work durable. Every admission is
//     journaled (and fsynced) before the 202 response; state transitions
//     append as they happen; a restarted server replays the journal and
//     requeues — under their original IDs — the jobs a crashed process
//     accepted but never finished, answering already-committed keys from
//     the cache. /v1/stats reports the recovery counters.
//   - Server (server.go): admission control (bounded queue, per-client
//     in-flight caps, 429 + Retry-After on overload), a fixed pool of job
//     executors over the shared harness runner, per-job cancellation wired
//     through context, and the thin HTTP handler layer (kept separable so
//     a gRPC front end can reuse the same Server methods).
//
// The handler layer speaks plain net/http and JSON; see DESIGN.md's
// "Serving layer" section for the event schema and the byte-identity
// argument, and README.md for a curl + SSE quickstart.
package serve
