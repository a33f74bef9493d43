#!/usr/bin/env bash
# Tier-1 verification: the canonical build + full test suite, then the
# fault-injection/corruption suites again under ASan+UBSan so the
# error paths are proven free of undefined behavior, not just of
# wrong answers, the concurrency, goal-cache and arena suites
# again under TSan so concurrent serve() callers, the shared goal
# cache and the live-update readers are proven free of data races,
# and the bit-sliced equivalence suite again under ASan so the
# word-indexed plane arithmetic (edge-masked partial ranges in
# particular) is proven in-bounds, and finally the kernel-dispatch
# suites under ASan
# so every FS1 kernel the host supports (scalar64/avx2/avx512) and
# both FS2 dispatch targets (interpreter and compiled routines) run
# sanitized.  On success it prints the net src/ line count.
#
# Usage: scripts/tier1.sh [build-dir] [asan-build-dir] [tsan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
ASAN_BUILD="${2:-build-asan}"
TSAN_BUILD="${3:-build-tsan}"

echo "== tier-1: default build + full ctest =="
# Allocation counting is on in the default build so the arena suite's
# steady-state-allocations assertion actually runs (it skips itself
# when the interpose is compiled out, e.g. under the sanitizers).
cmake -B "$BUILD" -S . -DCLARE_COUNT_ALLOCS=ON
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j

echo "== tier-1: ASan+UBSan build + faults-labeled tests =="
cmake -B "$ASAN_BUILD" -S . -DCLARE_SANITIZE=address
cmake --build "$ASAN_BUILD" -j
ctest --test-dir "$ASAN_BUILD" -L faults --output-on-failure -j

echo "== tier-1: ASan+UBSan build + wal-labeled tests =="
# The WAL/live-update suite fuzzes torn tails and byte-granular crash
# kill points through commit and checkpoint; running it sanitized
# proves the recovery walks (CRC checks, truncation, replay) stay
# in-bounds on every mangled input, not just correct.
ctest --test-dir "$ASAN_BUILD" -L wal --output-on-failure -j

echo "== tier-1: ASan+UBSan build + sliced-equivalence tests =="
ctest --test-dir "$ASAN_BUILD" -L sliced --output-on-failure -j

echo "== tier-1: ASan+UBSan build + shard-labeled tests =="
# The data-sharding suite runs a slice-backed 3x2 cluster with a
# poisoned replica and concurrent sub-batch fan-out through the
# router; running it sanitized proves the scatter/gather paths and
# slice load/save walks are in-bounds, not just bit-identical.
ctest --test-dir "$ASAN_BUILD" -L shard --output-on-failure -j

echo "== tier-1: ASan+UBSan build + kernel-dispatch tests =="
# The kernels-labeled suites internally sweep every FS1 kernel the
# host supports (skipping the rest) and both FS2 dispatch targets, so
# one labeled run covers the whole registry.
ctest --test-dir "$ASAN_BUILD" -L kernels --output-on-failure -j

echo "== tier-1: ASan+UBSan build + arena-labeled tests =="
# The zero-copy serving suite replays goals through rewound bump
# arenas and ships cached response blobs verbatim; running it
# sanitized proves every access into reset-and-reused blocks (and
# every patched-blob send) is in-bounds.
ctest --test-dir "$ASAN_BUILD" -L arena --output-on-failure -j

echo "== tier-1: TSan build + tsan-, arena- and wal-labeled tests =="
# Concurrent serve() callers on one server are the server's only
# concurrency: test_concurrency (label tsan) races them against a
# streaming LiveStore writer and kb::clausesFor readers, some pinned
# to the very head version each commit appends onto in place in the
# shared clause/index storage, test_cache (tsan) shares the goal cache
# across them, and the arena suites reset connection arenas while
# invalidations drop that cache's entries (the blob shared_ptr handles
# cross threads).  The wal suite runs the live commit path itself
# (in-place appends, storage regrowth, delta chains) sanitized too.
# TSan proves the interleavings race-free.
cmake -B "$TSAN_BUILD" -S . -DCLARE_SANITIZE=thread
cmake --build "$TSAN_BUILD" -j
ctest --test-dir "$TSAN_BUILD" -L 'tsan|arena|wal' --output-on-failure -j

echo "== tier-1: loopback cluster smoke (replicated + sharded) =="
# Boots a 3-replica clare_server cluster (one backend fault-poisoned)
# behind clare_router and diffs every routed response against an
# in-process serve() on the same store — answers and modeled ticks
# must be bit-identical through the wire.  Then shards the store
# itself: 3 slices x 2 replicas behind a catalog-routed router, with
# the single and batched paths diffed against the unsharded store and
# per-backend footprint reported.
scripts/net_smoke.sh "$BUILD"

echo "== tier-1: crash-recovery smoke (kill -9 mid-ingest) =="
# Hard-kills a live-updating clare_server mid-WAL-stream and verifies
# the reopened store replays exactly the committed prefix.
scripts/crash_smoke.sh "$BUILD"

# Net src/ size (.cc + .hh lines): the per-change line-count metric.
src_lines=$(find src \( -name '*.cc' -o -name '*.hh' \) -print0 |
            xargs -0 cat | wc -l)
echo "src/ lines (.cc + .hh): $src_lines"
echo "tier-1 OK"
