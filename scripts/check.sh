#!/bin/sh
# Tier-1 checks: everything must pass before a change lands.
# The race-detector pass covers the packages with real concurrency
# (parallel collection, the supervised pipeline, chain checkpointing)
# and the fault-injection layer feeding them.
set -ex

go build ./...
go vet ./...
# staticcheck when available (CI installs it; locally it is optional).
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
fi
go test ./...
go test -race ./internal/collect ./internal/faults
go test -race ./internal/supervise ./internal/core
go test -race ./internal/eval ./internal/mlearn/ensemble
# The fleet race pass includes the high-stream-count churn workout
# (TestFleetDensityChurn: concurrent add/remove + paginated stats
# readers) and the zero-alloc gates on the SPSC ring and demux path.
go test -race ./internal/fleet
# Ingest plane: framing, admission/quota/eviction, drain and client
# tests under the race detector (connections, streams and shards all
# share state), plus a short fuzz pass over the frame decoder — torn,
# bit-flipped and oversized frames must never panic or over-read.
go test -race ./internal/ingest
go test -fuzz=FuzzFrameDecode -fuzztime=10s -run '^$' ./internal/ingest
go test -run TestChaos -short ./internal/experiments
# Ingest chaos drill: real loopback TCP clients under seeded wire
# faults, client crashes, a quota storm and a mid-run drain/restart;
# gap-free timelines and bit-identical post-recovery verdicts gated
# under the race detector. Even streams send batches of one, odd
# streams one multi-record batch per segment; TestIngestChaosBatched
# keeps full stream count so the crash role is batched too.
go test -race -run TestIngestChaos -short ./internal/experiments
# Compiled-equivalence gate: every compiled kernel must produce
# bit-identical verdicts to its interpreted model (unit equivalence in
# compiled, chain/checkpoint/replicator equivalence in core), under the
# race detector so shared-Program scoring is exercised concurrently.
go test -race ./internal/mlearn/compiled ./internal/core
# Throughput-engine smoke: the Inference benches must report
# 0 allocs/op on the chain and batcher paths (gated hard by the
# ZeroAlloc tests; this prints the numbers for the log).
go test -bench=BenchmarkInference -benchmem -benchtime=10x -run @ .
# Fleet-engine smoke: the scaling sweep at reduced corpus and stream
# counts — exercises the sharded engine (compiled shard batchers, the
# default), the per-pipeline baseline, the lossless-verdict assertion
# and the stream-density sweep (compiled vs quantized MLP chain) end to
# end. The fleet equivalence test above already pins
# compiled-vs-interpreted fleet verdicts bit for bit.
go run ./cmd/hmd-bench -exp fleet -apps 2 -intervals 8 \
  -fleetstreams 8,32 -fleetintervals 50 -fleetdensity 16,64 \
  -fleetout /tmp/check-fleet.json
# Ingest smoke: the chaos drill + overload sweep through the real
# hmd-bench entry point at reduced scale (loopback TCP throughout).
go run ./cmd/hmd-bench -exp ingest -apps 2 -intervals 8 \
  -ingeststreams 4 -ingestsamples 60 \
  -ingestout /tmp/check-ingest.json
# Compiled-backend smoke: the CompiledVsInterpreted benches print the
# per-family numbers for the log (equivalence itself is gated by the
# race-mode tests above).
go test -bench=BenchmarkCompiledVsInterpreted -benchmem -benchtime=10x -run @ .
# Quantized-tier gates. The compiled package's race pass above already
# covers the quantized kernels' unit tests and concurrent shared-
# QuantProgram scoring (TestQuantConcurrentEvaluators); here the
# statistical-equivalence gate runs at full test scale — pooled
# verdict parity >= 99.9% across the quantizable zoo plus accuracy/AUC
# deltas (clean and under faults) inside the robustness sweep's own
# seed-to-seed noise band — and the quantized benches print the
# three-tier numbers for the log.
go test -race -run 'TestQuantEquivalence|TestPerfOnly' ./internal/experiments
go test -bench='BenchmarkBatcherBatchSize/.*/quantized' -benchmem -benchtime=10x -run @ .
# Cluster plane: ring determinism, redirect-to-owner, drain handoff and
# lease-expiry failover under the race detector (coordinator, agents
# and ingest connections all share state across goroutines).
go test -race ./internal/cluster
# Cluster chaos drill (3 in-process nodes through a scripted kill, a
# coordinator partition and a rolling upgrade; verdict timelines gated
# bit-identical to a single-node reference) plus the 3-process cluster
# bench smoke, both in short mode under -race.
go test -race -run 'TestClusterChaos|TestClusterBenchSmoke' -short ./internal/experiments
# Paced 10 ms benchmark (its own module under bench/, so the root
# ./... never builds it): vet, plus the short smoke that runs all four
# workloads for half a second each and gates every checked stream's
# verdicts bit for bit against a sequential reference replay.
(cd bench && go vet ./... && go test -short ./...)
