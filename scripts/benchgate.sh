#!/bin/sh
# benchgate.sh — the solver benchmark-regression gate, as run by the CI
# "benchgate" job (and `make benchgate` locally). Re-solves the pinned
# scenario set (the 20 instances of the repository benchmark's
# table1-cold corpus, Table-I with the presolve pipeline off, one
# first-solution Table-I dive, Fig. 3, Fig. 5, and 15 Table-I modules
# under compulsory-part pruning) and fails if search nodes, backtracks, heap
# allocations (within 2%), the reached height/optimality, or — with a
# deliberately loose bound, since wall time is machine-dependent — ns
# per solve regress against the committed baseline in BENCH_solver.json.
#
# After an *intended* change to solver effort, re-baseline with:
#
#	go test -run TestBenchGate -benchgate-update .
#
# and commit the new BENCH_solver.json alongside the change.
set -eu

cd "$(dirname "$0")/.."
exec go test -run TestBenchGate -benchgate -timeout 20m -v .
