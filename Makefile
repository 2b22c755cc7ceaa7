# Development targets for the radio-network BFS reproduction.

.PHONY: build test experiments scale-suite chaos-check remote-check resume-check serve-check fmt vet

build:
	go build ./...

test:
	go build ./... && go test ./...

fmt:
	gofmt -l .

vet:
	go vet ./...

# experiments regenerates every paper table (E0 registry, E1–E14 claims):
# each is the aggregate.md of one spec's run under results/<spec>/.
experiments:
	go run ./cmd/radiobfs run -out results scenarios/e*.json

# scale-suite executes the million-vertex scenario grid end to end and
# persists its artifacts (see scenarios/scale_suite.json; minutes of wall
# time, scales with cores).
scale-suite:
	go run ./cmd/radiobfs run -out results scenarios/scale_suite.json

# chaos-check is the local mirror of the CI chaos job: run the quick scale
# suite across 3 worker processes under deterministic fault injection
# (seeded crashes, then 100% stalls) and byte-diff every artifact against a
# single-process run. Wedged workers cost a heartbeat timeout each, so the
# stall pass takes a few seconds.
chaos-check:
	go build -o /tmp/radiobfs_chaos ./cmd/radiobfs
	rm -rf /tmp/chaos_base /tmp/chaos_kill /tmp/chaos_stall
	/tmp/radiobfs_chaos run -quick -out /tmp/chaos_base -workers 1 scenarios/scale_suite.json > /dev/null
	/tmp/radiobfs_chaos run -quick -out /tmp/chaos_kill -workers 3 -chaos "seed=1,killafter=1" scenarios/scale_suite.json > /dev/null
	/tmp/radiobfs_chaos run -quick -out /tmp/chaos_stall -workers 3 -chaos "seed=1,killafter=1,stall=100" scenarios/scale_suite.json > /dev/null
	diff -r /tmp/chaos_base /tmp/chaos_kill
	diff -r /tmp/chaos_base /tmp/chaos_stall
	@echo "chaos-check: artifacts byte-identical under kills and stalls"

# remote-check is the local mirror of the CI remote-chaos smoke: run the
# quick scale suite with the coordinator listening on loopback, three TCP
# workers (`radiobfs work -connect`) serving it under seeded
# disconnect+delay chaos, a wrong-token worker that must be rejected
# without affecting the run, and every byte diffed against a
# single-process run.
remote-check:
	bash scripts/remote_smoke.sh

# resume-check is the local mirror of the CI resume smoke: run the quick
# scale suite with -checkpoint under coordkill chaos (the coordinator
# SIGKILLs itself after each checkpointed trial), restart until the crash
# loop converges, and byte-diff stdout and every artifact against a
# single-process run.
resume-check:
	bash scripts/resume_smoke.sh

# serve-check is the local mirror of the CI serve smoke: start `radiobfs
# serve` on an ephemeral port, submit the smoke spec twice (the second
# must be a cache hit with the execution counter untouched), and byte-diff
# the fetched artifacts against a direct `radiobfs run` of the same
# binary.
serve-check:
	bash scripts/serve_smoke.sh
