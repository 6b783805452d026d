#!/bin/sh
# ci.sh — the repo's gate, in the order a failure is cheapest to catch:
# vet, formatting (gofmt must list no file), build, the whole suite
# under the race detector, the whole suite again in shuffled order, the
# exact allocation bounds without the race detector, then one pass over
# every benchmark so none of them rot.
# Every `go test` carries an explicit -timeout: a lock-protocol bug
# shows up as a hang, and the watchdog turns that into a failure with
# goroutine dumps instead of a stuck CI job.
set -eux

go vet ./...
test -z "$(gofmt -l .)"
go build ./...
go test -race -timeout 300s ./...
# Shuffled order: state leaking between tests (shared rigs, package
# globals, leftover files) shows up as an order dependence long before
# it shows up as a flake.
go test -shuffle=on -timeout 300s ./...
# The lease protocol re-enters the client's data path (cache fills and
# flushes run inside cached operations and revocations); ten repeats
# under the race detector shake out interleavings one pass misses.
go test -race -count 10 -timeout 300s -run '^Test(Cache|Revoke)' ./internal/pvfs
# TCP receives reuse buffers (the per-conn read buffer, the pooled
# reply and chunk buffers) and read sinks scatter them into memory as
# they arrive: ten raced repeats of the framing, streaming and scatter
# tests catch a frame or chunk read after its buffer was refilled.
go test -race -count 10 -timeout 300s -run '^Test(TCP|Stream|ReadScatter)' ./internal/transport ./internal/pvfs
# Two-phase rounds reuse each File's region lists, messages and reply
# buffer across rounds and operations: ten raced repeats of the
# collective tests catch a buffer refilled while a rank still reads it.
go test -race -count 10 -timeout 300s -run '^Test(AllMethods|Collective|TwoPhase|Noncontig)' ./internal/mpiio
# The race detector instruments allocations, so the hot-path and
# alloc-free bounds are only exact without it.
go test -count 1 -timeout 120s -run Alloc ./...
go test -timeout 300s -run XXX -bench . -benchtime 1x ./...
