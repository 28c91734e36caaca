#!/usr/bin/env bash
# Tier-1 gate: build, vet, full test suite, then the same suite under the
# race detector (the parallel experiment engine makes -race meaningful —
# see internal/experiment/grid.go and TestParallelRace), plus short live
# fuzzing of the journal decoder and the spatial index, and a statement
# coverage gate over the packages whose tests are load-bearing.
#
# Every go test carries an explicit -timeout: a stuck grid cell or a hung
# deadline test must fail the gate with a goroutine dump, not wedge CI at
# the default 10-minute-per-package limit times the package count.
#
# Usage: scripts/ci.sh [-update-coverage]
#
#   -update-coverage  remeasure the gated packages and rewrite
#                     scripts/coverage_baseline.txt (floor = measured - 1.0,
#                     absorbing scheduling-dependent branches) instead of
#                     failing on a drop. Commit the result with the tests
#                     that moved it.
set -euo pipefail
cd "$(dirname "$0")/.."

update_coverage=0
for arg in "$@"; do
  case "$arg" in
    -update-coverage) update_coverage=1 ;;
    *) echo "usage: scripts/ci.sh [-update-coverage]" >&2; exit 2 ;;
  esac
done

go build ./...
go vet ./...
go vet ./internal/metrics
go test -timeout 10m ./...
go test -race -timeout 20m ./...
# The fault engine feeds the sim tick loop from grid workers; exercise that
# seam under the race detector explicitly even when the suites above shard.
go test -race -timeout 5m ./internal/faults
# The metrics registry is written concurrently by every grid worker and its
# snapshot determinism contract is load-bearing for manifests; race it.
go test -race -timeout 5m ./internal/metrics
# Fast determinism smoke of the observability seams (progress stream,
# manifest rendering, cross-worker metric merges) even in short mode.
go test -short -timeout 5m -run 'Progress|Manifest|Metrics' ./internal/experiment ./internal/metrics
# The spatial-index hot path must be byte-identical to the brute-force scan
# under every topology/model/fault mix, including across goroutines; run the
# differential property tests under the race detector explicitly so a shard
# of the suites above can never silently skip them.
go test -race -timeout 10m -run 'TestGridScanEquivalence|TestGridParallelRunsAgree' ./internal/sim
# Fault-injected runs share that indexed driver because drops are decided
# after decoding; race the short-mode differential against the drop-first
# reference scan (the full scenario matrix runs un-raced above).
go test -race -short -timeout 10m -run 'TestDecodeFirstDropEquivalence' ./internal/sim
# The incremental interference field and the quiescence wheel carry the same
# exactness bar: raced short-mode runs of the differential suite (a subset
# named to cover both the broad and the lazy field mode; the full
# scenario×epoch matrix runs un-raced in the whole-suite pass above), the
# skip-transparency metamorphic suite, the cross-goroutine wheel purity
# property, and the shared-registry lazy-registration regression.
go test -race -short -timeout 10m -run 'TestIncrementalFieldEquivalence|TestFieldAppendPath|TestQuiescenceSkipTransparent|TestQuiescenceDeterministicAcrossWorkers|TestRadiusFallbackSharedRegistry' ./internal/sim
# The checkpoint store is written by every grid worker of a resumable sweep;
# race the crash/resume differential harness explicitly (short mode: one
# abort point per experiment, still all 16 experiments × both worker counts).
go test -race -short -timeout 10m -run 'TestResumeByteIdentical|TestCheckpointParallelWriters' ./internal/experiment
# The trace layer's locked observer serializes concurrent grid workers into
# one writer; race the whole package (includes the query/scan differential
# suite TestQueryScanEquivalence) plus the suite-level differential tests
# (all experiments, Workers 1 and 8): dual-format equivalence and indexed
# query vs full-scan-filter equivalence.
go test -race -timeout 10m ./internal/trace
go test -race -timeout 10m -run 'TestTraceDualFormatAllExperiments|TestQueryScanEquivalenceAllExperiments' ./internal/experiment
# The jobs daemon multiplexes journal writes, checkpoint access and event
# fan-out across pool workers and HTTP handlers; race the whole package
# explicitly (includes the submission-flood and SIGKILL/restart tests).
go test -race -timeout 10m ./internal/jobs
# The state-bounding machinery added by the retention PR: journal compaction
# under concurrent writers, single-flight cell dedup across concurrent jobs,
# per-client quotas with weighted-fair scheduling, and the GC sweep — all
# are lock-ordering-sensitive, so race their suites explicitly even when
# the whole-package runs above shard.
go test -race -timeout 10m -run 'TestCompact|TestRewriteCrashStages|TestConcurrentPutsDuringCompact|TestSingleFlight' ./internal/checkpoint
go test -race -timeout 10m -run 'TestSingleFlightDedupAcrossConcurrentRuns' ./internal/experiment
go test -race -timeout 10m -run 'TestGC|TestClient|TestWeightedFair|TestQuotaFlood|TestRetryAfterClamp|TestTraceSubmitUnwritable|TestCancelRemovesTrace' ./internal/jobs
# The GC crash matrix SIGKILLs a real daemon at every compaction stage and
# the retention soak bounds the state dir across a kill; both re-exec the
# test binary, so run them without -race (the victim is raced above).
go test -timeout 10m -run 'TestGCKillAtEveryStage|TestRetentionBoundsStateDir' ./internal/jobs
# End-to-end daemon smoke: build the real udwnd binary, submit a job over
# HTTP, stream its events to DONE, run two retained batches through POST /gc
# asserting the state dir stops growing, then SIGTERM and require a clean
# drain.
UDWND_SMOKE=1 go test -timeout 5m -run '^TestDaemonBinarySmoke$' ./internal/jobs

# Native fuzz targets, 10 seconds each: the journal frame decoder against
# arbitrary bytes, and the grid index against its brute-force oracle. The
# committed corpora under testdata/fuzz replay as plain tests in the suites
# above; here they seed short live fuzzing so CI keeps probing new inputs.
go test -timeout 5m -run '^$' -fuzz '^FuzzCheckpointDecode$' -fuzztime 10s ./internal/checkpoint
go test -timeout 5m -run '^$' -fuzz '^FuzzGridWithin$' -fuzztime 10s ./internal/geom
# The binary trace decoder fronts files from killed runs and foreign
# builds; fuzz it against arbitrary bytes (never panic, bounded allocation,
# accepted decodes must round-trip).
go test -timeout 5m -run '^$' -fuzz '^FuzzTraceDecode$' -fuzztime 10s ./internal/trace
# The index-frame decoder and the query planner sit behind the same hostile
# inputs; fuzz arbitrary payloads spliced as CRC-valid index frames (never
# panic, bounded allocation, a forged index can suppress frames but never
# fabricate or corrupt query results).
go test -timeout 5m -run '^$' -fuzz '^FuzzIndexDecode$' -fuzztime 10s ./internal/trace
# The incremental field engine against its brute recompute oracle: random
# move/kill/revive/tx-toggle/retune/power programs must keep the two fields
# bit-identical at every receiver every slot.
go test -timeout 5m -run '^$' -fuzz '^FuzzFieldDelta$' -fuzztime 10s ./internal/sim

# Coverage gate: statement coverage of the gated packages must not drop
# below the committed floors. Measured in -short mode so the numbers are
# fast and scheduling-stable; regenerate with scripts/ci.sh -update-coverage.
baseline=scripts/coverage_baseline.txt
covdir=$(mktemp -d)
trap 'rm -rf "$covdir"' EXIT
declare -A measured
for pkg in internal/experiment internal/checkpoint internal/sim internal/trace internal/jobs; do
  out=$(go test -short -timeout 10m -coverprofile="$covdir/$(basename "$pkg").cov" "./$pkg")
  pct=$(echo "$out" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*' | tail -1)
  if [ -z "$pct" ]; then
    echo "coverage gate: could not parse coverage for $pkg" >&2
    echo "$out" >&2
    exit 1
  fi
  measured[$pkg]=$pct
  echo "coverage: $pkg $pct%"
done

if [ "$update_coverage" = 1 ]; then
  {
    echo "# Statement-coverage floors (percent) for scripts/ci.sh."
    echo "# Regenerate with: scripts/ci.sh -update-coverage"
    echo "# Floor = measured - 1.0 to absorb scheduling-dependent branches."
    for pkg in internal/experiment internal/checkpoint internal/sim internal/trace internal/jobs; do
      awk -v p="$pkg" -v m="${measured[$pkg]}" 'BEGIN{printf "%s %.1f\n", p, m-1.0}'
    done
  } > "$baseline"
  echo "coverage gate: wrote $baseline"
  cat "$baseline"
else
  if [ ! -f "$baseline" ]; then
    echo "coverage gate: $baseline missing; run scripts/ci.sh -update-coverage" >&2
    exit 1
  fi
  fail=0
  while read -r pkg floor; do
    case "$pkg" in \#*|"") continue ;; esac
    got=${measured[$pkg]:-}
    if [ -z "$got" ]; then
      echo "coverage gate: $pkg in baseline but not measured" >&2
      fail=1
      continue
    fi
    if ! awk -v g="$got" -v f="$floor" 'BEGIN{exit !(g+0 >= f+0)}'; then
      echo "coverage gate: $pkg coverage $got% fell below floor $floor%" >&2
      fail=1
    fi
  done < "$baseline"
  [ "$fail" = 0 ] || exit 1
  echo "coverage gate: ok"
fi
