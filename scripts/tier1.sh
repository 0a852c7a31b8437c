#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): the standard build + full ctest run,
# then the store/cache suite again under ThreadSanitizer. The transform
# cache's single-flight path is exercised from concurrent callers
# (TransformCache.SingleFlightComputesOnceUnderConcurrency, and concurrent
# applies through `serve` in tests_net), so a plain pass alone is weak
# evidence — TSan turns latent races in the blob store / cache / metrics
# registry into failures. tests_store also carries the fault-schedule walk
# and the PSP degraded-mode suite, so the injected-fault retry/quarantine
# paths get TSan coverage too.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

# The kernel equivalence suite again on the forced-scalar tier: ctest above
# already ran it on the native tier, so this pins the scalar/SIMD bit-exact
# contract (and the PUPPIES_SIMD override path) on every machine.
PUPPIES_SIMD=scalar ./build/tests/tests_kernels

# The encode differential suite again on the forced-scalar tier: byte
# identity of the fast encoder against the reference bit-at-a-time encoder
# must hold on every tier, and ctest above only covered the native one.
PUPPIES_SIMD=scalar ./build/tests/tests_encode

# The band-engine differential suite on the forced-scalar tier too: band
# engine vs test reference byte identity is claimed per SIMD tier.
PUPPIES_SIMD=scalar ./build/tests/tests_chunked

# The decode differential suite on the forced-scalar tier: the band
# engine's inverse half and the fused dequantize+IDCT kernel claim bit
# identity with the test reference decode per SIMD tier, and ctest only ran
# the native one.
PUPPIES_SIMD=scalar ./build/tests/tests_decode

# The foundation suite on the forced-scalar tier: its digest tests check the
# known answers on the active SHA-256 path, and forcing the scalar tier must
# select the portable compression (ctest above ran the SHA-NI one wherever
# CPUID reports it). The differential walk runs both paths either way.
PUPPIES_SIMD=scalar ./build/tests/tests_foundation

# The fuzz suite once more under a capped address space, so a parser that
# reserves what an untrusted length field declares fails here instead of
# passing on untouched overcommitted pages. The cap applies to the test
# process only (subshell). Four lanes keep its thread stacks the same on
# every host, and MALLOC_ARENA_MAX=1 stops each lane's glibc arena from
# reserving 64 MB of address space. The suite needs about 80 MB at four
# lanes; the cap leaves 16 MB of headroom.
( ulimit -v 98304; PUPPIES_THREADS=4 MALLOC_ARENA_MAX=1 ./build/tests/tests_fuzz )

# Loopback serving smoke: a real `puppies serve` process (ephemeral port,
# discovered through --port-file), the zipfian load harness against it over
# 8 connections with byte-identity checked per download, then SIGINT and a
# clean graceful drain. This is the one place the CLI server, the client,
# and the bench harness meet as separate processes.
SMOKE_DIR=$(mktemp -d)
./build/tools/puppies serve --port 0 --port-file "$SMOKE_DIR/port" \
  >"$SMOKE_DIR/serve.log" 2>"$SMOKE_DIR/serve.err" & SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SMOKE_DIR/port" ] && break; sleep 0.1; done
[ -s "$SMOKE_DIR/port" ] || { echo "serve never wrote its port file"; exit 1; }
REPO_ROOT=$(pwd)
( cd "$SMOKE_DIR" && "$REPO_ROOT/build/bench/bench_load" \
    --connect "127.0.0.1:$(cat port)" --connections 8 --seconds 1 )
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
grep -q "drained" "$SMOKE_DIR/serve.log" \
  || { echo "serve did not drain cleanly"; exit 1; }
rm -rf "$SMOKE_DIR"

# Kill-one-backend chaos smoke: serve over a 3-shard replicated store with
# one shard failing every read (injected via PUPPIES_FAULTS), then the load
# harness with a fully raw corpus — untransformed downloads bypass the
# transform cache, so every request exercises replica failover in the blob
# store. bench_load's exit code asserts zero byte mismatches; the serve
# metrics dump must record at least one read-repair.
CHAOS_DIR=$(mktemp -d)
PUPPIES_FAULTS="store.shard.0.get.fail=always" \
  ./build/tools/puppies serve --port 0 --port-file "$CHAOS_DIR/port" \
    --backend replicated --dir "$CHAOS_DIR/data" --shards 3 \
    --replicas 3 --quorum 2 \
    >"$CHAOS_DIR/serve.log" 2>"$CHAOS_DIR/serve.err" & CHAOS_PID=$!
for _ in $(seq 1 100); do [ -s "$CHAOS_DIR/port" ] && break; sleep 0.1; done
[ -s "$CHAOS_DIR/port" ] || { echo "chaos serve never wrote its port file"; exit 1; }
( cd "$CHAOS_DIR" && "$REPO_ROOT/build/bench/bench_load" \
    --connect "127.0.0.1:$(cat port)" --connections 4 --seconds 1 \
    --raw 1.0 --retries 3 )
kill -INT "$CHAOS_PID"
wait "$CHAOS_PID"
grep -Eq '"store\.repl\.read_repair": [1-9]' "$CHAOS_DIR/serve.err" \
  || { echo "chaos smoke recorded no read-repair"; exit 1; }
rm -rf "$CHAOS_DIR"

# Replicated-store failure-lifecycle bench: put/get under failover, scrub
# repair of real on-disk bit-rot, refcounted GC. Its exit code asserts byte
# identity, post-scrub convergence, at least one read-repair, and a
# non-empty GC reclaim.
BENCH_STORE_DIR=$(mktemp -d)
( cd "$BENCH_STORE_DIR" && "$REPO_ROOT/build/bench/bench_store" \
    --blobs 24 --blob-kb 32 --gets 400 )
rm -rf "$BENCH_STORE_DIR"

# Codec identity gate: the codec bench decodes a restart stream on one lane
# (the serial decoder) and on every lane (segment-parallel); the emitted
# BENCH_codec.json must report the two coefficient-identical.
BENCH_DIR=$(mktemp -d)
( cd "$BENCH_DIR" && "$REPO_ROOT/build/bench/codec_throughput" \
    --benchmark_filter='^$' )
grep -q '"decode_byte_identical": true' "$BENCH_DIR/BENCH_codec.json" \
  || { echo "BENCH_codec.json: parallel decode diverged from serial decode"; exit 1; }
rm -rf "$BENCH_DIR"

# The end-to-end benchmark builds on its own (perfbench/CMakeLists.txt) from
# the library sources, and its in-process replay calls library entry points
# directly. Build it and run its self-test, so a library change that stops
# it compiling or running shows here rather than in a benchmark run.
cmake -S perfbench -B build-perfbench
cmake --build build-perfbench -j"$(nproc)" --target puppies e2e_load
./build-perfbench/e2e_load --self-test

# tests_chunked rides under TSan alongside the store suite: the parallel
# restart-segment writers and the band engine's concurrent bands are
# shared-state concurrency, so races there must surface as failures, not
# as one-in-a-thousand flaky byte mismatches. tests_net joins them: the
# event loop, dispatcher queue, per-entry PSP locking, and the completion
# hand-off are the newest shared-state code in the repo, and the suite
# hammers them from eight client threads on purpose. tests_decode joins
# too: the segment-parallel entropy decoder's per-segment readers and the
# fallback flag are shared-state code on the same pool. tests_core joins
# too: the lossless block gather (transform::apply_lossless) and the ROI
# block walk behind recover_lossless (each ROI block reached in place in the
# download) run on the pool, and the suite drives them over every lossless
# chain of up to 4 steps. tests_foundation joins too: ImageBuffer fills and
# copies every plane and coefficient image on the pool, concurrent server
# requests reach them, and its ImageBuffer suite copies planes from two
# threads beside a third holding a parallel region.
cmake -B build-tsan -S . -DPUPPIES_SANITIZE=thread
cmake --build build-tsan -j"$(nproc)" --target tests_foundation tests_store tests_chunked tests_net tests_decode tests_core
./build-tsan/tests/tests_foundation
./build-tsan/tests/tests_store
./build-tsan/tests/tests_chunked
./build-tsan/tests/tests_net
./build-tsan/tests/tests_decode
./build-tsan/tests/tests_core

# Mutation fuzzing of the JPEG parser under the memory sanitizers: ten
# thousand seeded mutants per run must produce clean ParseErrors, never a
# heap error (ASan) or undefined behaviour (UBSan). Mutants that survive
# parsing are additionally re-encoded with optimized Huffman tables, so the
# histogram/table-build path sees hostile coefficient distributions under
# the sanitizers too. The plain build above already ran the suite once;
# these runs are what the crash-free claim actually rests on. tests_fuzz
# also feeds hostile public parameters (ROI rects, mutated records) to the
# three receivers. tests_core joins the UBSan run: the ROI block walk maps
# protected-space blocks into transformed downloads, and that index
# arithmetic is exactly what UBSan checks. halt_on_error turns a UBSan
# report into a failing exit status instead of a line of output.
# tests_core joins the ASan run too: the windowed pixel recovery and the
# window kernels index planes through Plane::at, which has no bounds check,
# so an off-by-one in the window arithmetic is a silent out-of-bounds write
# in a plain build.
cmake -B build-asan -S . -DPUPPIES_SANITIZE=address
cmake --build build-asan -j"$(nproc)" --target tests_fuzz tests_core
./build-asan/tests/tests_fuzz
./build-asan/tests/tests_core

cmake -B build-ubsan -S . -DPUPPIES_SANITIZE=undefined
cmake --build build-ubsan -j"$(nproc)" --target tests_fuzz tests_core
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/tests_fuzz
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/tests_core

echo "tier-1: OK (full suite + scalar-tier tests_kernels/tests_encode/tests_chunked/tests_decode/tests_foundation + tests_fuzz under a 96 MB address-space cap + loopback serve/bench_load smoke + kill-one-backend chaos smoke + bench_store + codec decode identity gate + perfbench build and self-test + tests_foundation/tests_store/tests_chunked/tests_net/tests_decode/tests_core under TSan + tests_fuzz under ASan/UBSan + tests_core under ASan/UBSan)"
