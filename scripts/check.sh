#!/usr/bin/env bash
# Tier-1 verification line: configure, build, and run the full test suite.
# The suite includes fuzz_smoke, a 60-second soundness-fuzzing campaign
# (examples/charon_fuzz) that fails on any oracle violation; under
# --sanitize the same campaign runs with ASan + UBSan instrumentation AND
# with CHARON_KERNEL_THRESHOLD=1, which forces every linalg kernel onto the
# thread pool so the threaded paths are exercised under the sanitizers even
# on fuzz-scale networks.
# After the suite, one bench smoke runs the w64 micro cases (two domain
# cases and two scalar-vs-batched PGD cases: 8 restarts, and the verifier's
# 2-restart population, pgd_w64_r2, which the validator requires) and
# validates the charon-bench/1 document it writes (each line parsed when
# python3 is available, structural grep otherwise). The PGD cases double as
# a live engine-equivalence check at B = 8 and B = 2 (the bench aborts if
# the engines' searches differ); the sanitize leg runs them with
# CHARON_KERNEL_THRESHOLD=1, driving the batched search through the
# threaded kernels under ASan + UBSan.
# A trace/checkpoint smoke exports the ACAS-like suite, verifies a
# property with --trace (validating the charon-trace/1 JSONL schema,
# requiring that no node path repeats and, on the serial plain leg, that
# the paths arrive in ascending DFS order), and exercises the Timeout ->
# --checkpoint -> --resume path; the sanitize leg runs it with --parallel
# and forced-threaded kernels.
# A hostile-input leg then feeds the string-backed parsers a count far
# larger than the file: charon_check (a certificate's dim and nodes) and
# charon_cli (a property's dim, a network's dense layer size, and
# --resume with a checkpoint's open) must exit 2 with their parse/load
# diagnostic, and charon_serve --cache-file (a cache record's region) must
# truncate the record and exit 0. charon_cli must also refuse, with exit 2,
# a residual conv whose values fit but whose lowering would not (the
# loader's shape check), and charon_serve must refuse a --workers count
# that is negative, not a number, or above 256 with its usage text and
# exit 2. Two networks no query can use come last: one with a single
# output (the objective has no competing class) and one with no layers.
# charon_cli must refuse the first with its shape diagnostic and the
# second with its load diagnostic, and charon_serve must report a bad
# request line for each (exit 2). Then every format a tool reads gets one
# non-finite value, which the shared number grammar refuses: a .net weight,
# a .prop bound, a checkpoint priority and a certificate margin must exit 2
# with their load/parse diagnostic; a --policy file must fall back to the
# default policy with a warning (exit 0); and a cache record with a nan
# region bound must be truncated (exit 0). Last, charon_cli must refuse
# --fgsm, --delta 0, --delta abc and --budget abc with its usage text
# (exit 2), and charon_serve, given one valid request line and lines with
# "delta":0, "budget":-1 and a nan bound, must answer the valid line, write
# an error response for each other line (naming the key for delta and
# budget), and exit 2. A signal fails the leg.
# A certificate smoke then decides an exported ACAS property with --cert,
# requires charon_check to accept the emitted certificate, and requires it
# to reject a tampered copy; the sanitize leg runs it forced-threaded.
# A persistent-cache smoke follows: a --certify --cache-file server decides
# a hard ACAS batch, a relaunched server re-answers it under a different
# delta, and the second summary must show the answers came from
# disk-loaded certificates.
# A dispatch-matrix leg re-runs the kernel, zonotope-layout, and batched
# execution suites under every CHARON_SIMD level the host supports
# (scalar always; avx2 when /proc/cpuinfo advertises it), so the suites'
# bit-identity oracles are exercised against each backend explicitly
# rather than only the auto-selected one. The sanitize leg
# pins CHARON_SIMD=scalar for the matrix (keeping the instrumented run
# deterministic and cheap) and adds a single CHARON_SIMD=avx2 kernel_tests
# smoke so the vector backend still sees ASan + UBSan coverage.
# An ONNX smoke then generates the deterministic mixed fixture (conv +
# batch-norm + avg-pool + sigmoid residual), imports it, and decides the
# same property from the .net, straight from the .onnx, and through
# charon_serve — all three must verify it; the sanitize leg runs the
# importer and the smooth transformers instrumented with forced-threaded
# kernels.
# The plain leg ends with the end-to-end benchmark's self-tests
# (perfbench/tests/test_perfbench.py), which build perfbench against the
# library's public API on first use.
# Before any of that, scripts/check_test_registration.sh asserts every
# tests/*/*Tests.cpp file is registered in the ctest suite.
# Usage: scripts/check.sh [--sanitize]
#   --sanitize   build with -DCHARON_SANITIZE=ON (ASan + UBSan, asserts on)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
SANITIZE=0
if [[ "${1:-}" == "--sanitize" ]]; then
  BUILD_DIR=build-sanitize
  CMAKE_ARGS+=(-DCHARON_SANITIZE=ON)
  SANITIZE=1
fi

# Every tests/*/*Tests.cpp must be wired into ctest before anything builds.
scripts/check_test_registration.sh

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j
if [[ "$SANITIZE" == 1 ]]; then
  (cd "$BUILD_DIR" && CHARON_KERNEL_THRESHOLD=1 ctest --output-on-failure -j)
else
  (cd "$BUILD_DIR" && ctest --output-on-failure -j)
fi

# Dispatch-matrix leg: the SIMD-sensitive suites must pass at every level
# the host can run, not just the auto-selected one. kernel_tests carries
# the cross-level bit-identity oracles, zonotope_layout_tests the
# abstract-transformer layout invariants, and batch_exec_tests the
# batched-vs-scalar execution equivalence.
SIMD_SUITES=(kernel_tests zonotope_layout_tests batch_exec_tests)
SIMD_LEVELS=(scalar)
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  SIMD_LEVELS+=(avx2)
fi
if [[ "$SANITIZE" == 1 ]]; then
  # Keep the instrumented matrix cheap and deterministic: pin scalar (with
  # forced-threaded kernels, as above), then one avx2 kernel_tests smoke so
  # the vector backend runs under ASan + UBSan at least once.
  for SUITE in "${SIMD_SUITES[@]}"; do
    env CHARON_SIMD=scalar CHARON_KERNEL_THRESHOLD=1 \
      "$BUILD_DIR/tests/$SUITE"
  done
  if [[ " ${SIMD_LEVELS[*]} " == *" avx2 "* ]]; then
    env CHARON_SIMD=avx2 CHARON_KERNEL_THRESHOLD=1 \
      "$BUILD_DIR/tests/kernel_tests"
  fi
  echo "dispatch matrix: scalar suites + avx2 smoke OK (sanitize)"
else
  for LEVEL in "${SIMD_LEVELS[@]}"; do
    for SUITE in "${SIMD_SUITES[@]}"; do
      env CHARON_SIMD="$LEVEL" "$BUILD_DIR/tests/$SUITE"
    done
  done
  echo "dispatch matrix: ${SIMD_LEVELS[*]} OK"
fi

# Bench smoke: the w64 micro cases (two domain cases and two PGD cases)
# must run and write a valid charon-bench/1 document. The PGD cases double
# as a live engine-equivalence check: the bench aborts if the scalar and
# batched engines' searches differ, at 8 restarts and at the verifier's 2
# (pgd_w64_r2, which must be present). On the sanitize leg the forced
# kernel threshold pushes the batched search onto the thread pool under
# ASan + UBSan.
SMOKE_JSON="$BUILD_DIR/bench-smoke.json"
BENCH_ENV=()
if [[ "$SANITIZE" == 1 ]]; then
  BENCH_ENV+=(CHARON_KERNEL_THRESHOLD=1)
fi
env "${BENCH_ENV[@]}" "$BUILD_DIR/bench/bench_micro_domains" \
  --filter=w64 --repeats=1 --out="$SMOKE_JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_JSON" <<'EOF'
import json, math, re, sys
lines = open(sys.argv[1]).read().splitlines()
header = json.loads(lines[0])
assert header["schema"] == "charon-bench/1", header
assert header["simd"] in ("scalar", "avx2"), header
assert header["host_cores"] >= 1, header
name_rule = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
def numbers(value):
    if isinstance(value, list):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [value]
    return []
cases = [json.loads(line) for line in lines[1:]]
names = [case["name"] for case in cases]
assert len(set(names)) == len(names), names
for case in cases:
    assert name_rule.match(case["name"]), case["name"]
    for field, value in case.items():
        assert name_rule.match(field), field
        assert all(math.isfinite(x) for x in numbers(value)), (field, value)
kinds = [case["kind"] for case in cases]
assert "domain" in kinds and "pgd" in kinds, kinds
assert "pgd_w64_r2" in names, names
print(f"bench smoke: {len(cases)} cases OK")
EOF
else
  grep -q '^{"schema": "charon-bench/1", ' "$SMOKE_JSON"
  grep -q '"name": "pgd_w64_multistart"' "$SMOKE_JSON"
  grep -q '"name": "pgd_w64_r2"' "$SMOKE_JSON"
  echo "bench smoke: JSON OK (grep)"
fi

# Trace/checkpoint smoke: export a small ACAS-like suite, run a traced
# verification, validate the charon-trace/1 JSONL schema, then force a
# Timeout with a tiny budget, save its checkpoint, and resume it to
# completion. On the sanitize leg this whole path runs under ASan + UBSan
# with CHARON_KERNEL_THRESHOLD=1 (threaded kernels) and --parallel.
TRACE_DIR="$BUILD_DIR/trace-smoke"
rm -rf "$TRACE_DIR"
TRACE_ENV=()
TRACE_FLAGS=()
TRACE_DRIVER=serial
if [[ "$SANITIZE" == 1 ]]; then
  TRACE_ENV+=(CHARON_KERNEL_THRESHOLD=1)
  TRACE_FLAGS+=(--parallel)
  TRACE_DRIVER=parallel
fi
# The export trains the seed-321 suite into its own cache dir (the
# networks/ cache may hold a differently-seeded ACAS net from the bench
# harness). The trace covers one second of acas-0, which refines for
# longer than that, so the order checks see thousands of events.
# charon_cli exits 1 on Timeout; the trace is valid either way.
"$BUILD_DIR/examples/acas_export" "$TRACE_DIR" --count 2 \
  --cache "$TRACE_DIR" >/dev/null
set +e
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-0.prop" \
  --budget 1 --trace "$TRACE_DIR/trace.jsonl" "${TRACE_FLAGS[@]}"
TRACE_RC=$?
set -e
if [[ "$TRACE_RC" != 0 && "$TRACE_RC" != 1 ]]; then
  echo "trace smoke: charon_cli failed (rc=$TRACE_RC)" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TRACE_DIR/trace.jsonl" "$TRACE_DRIVER" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty trace"
outcomes = {"falsified", "verified", "split", "aborted"}
for line in lines:
    event = json.loads(line)
    for field in ("path", "depth", "diameter", "pgd_objective", "outcome",
                  "seconds"):
        assert field in event, field
    assert event["outcome"] in outcomes, event["outcome"]
    assert event["depth"] >= 0 and event["diameter"] > 0
paths = [e["path"] for e in map(json.loads, lines)]
assert "-" in paths, "root never expanded"
assert len(set(paths)) == len(paths), "a node path repeats"
if sys.argv[2] == "serial":
    # A serial run takes the DFS-least open node at every step: the root
    # first, a path before its extensions, 0 before 1. That is string order
    # on the bit strings, with the root as the empty string.
    bits = ["" if p == "-" else p for p in paths]
    for a, b in zip(bits, bits[1:]):
        assert a < b, f"path {b or '-'} follows {a or '-'} out of DFS order"
print(f"trace smoke: {len(lines)} JSONL events OK ({sys.argv[2]})")
EOF
else
  grep -q '"path":"-"' "$TRACE_DIR/trace.jsonl"
  grep -q '"outcome":' "$TRACE_DIR/trace.jsonl"
  echo "trace smoke: JSONL OK (grep)"
fi

# Interrupt acas-0 (refinement-heavy under the seed-321 suite) with a
# 20 ms budget, then resume the saved checkpoint.
# charon_cli exits 1 on Timeout, so tolerate both codes
# at every hop; the checkpoint file must exist after the interrupt and the
# resumed run must accept it.
set +e
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-0.prop" \
  --budget 0.02 --checkpoint "$TRACE_DIR/cp.txt" "${TRACE_FLAGS[@]}"
INTERRUPT_RC=$?
set -e
if [[ "$INTERRUPT_RC" == 1 ]]; then
  test -s "$TRACE_DIR/cp.txt"
  grep -q '^charon-checkpoint 1$' "$TRACE_DIR/cp.txt"
  set +e
  env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
    "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-0.prop" \
    --budget 2 --resume "$TRACE_DIR/cp.txt" \
    --checkpoint "$TRACE_DIR/cp.txt" "${TRACE_FLAGS[@]}"
  RESUME_RC=$?
  set -e
  if [[ "$RESUME_RC" != 0 && "$RESUME_RC" != 1 ]]; then
    echo "resume smoke: charon_cli failed (rc=$RESUME_RC)" >&2
    exit 1
  fi
  echo "checkpoint smoke: interrupt + resume OK"
else
  echo "checkpoint smoke: property decided within 20ms, resume not exercised"
fi

# Hostile-input smoke: each file is well formed except for one count far
# beyond the bytes that follow it, which the parser must refuse before it
# sizes an allocation. The sanitize leg reuses TRACE_ENV, so the parsers
# run under ASan + UBSan.
HOSTILE_DIR="$BUILD_DIR/hostile-smoke"
rm -rf "$HOSTILE_DIR"
mkdir -p "$HOSTILE_DIR"
# A one-node certificate with dim $1 and a node count of $2.
hostile_cert() {
  printf '%s\n' "charon-cert 1" "verdict verified" \
    "network 1 property 2 config 3" "delta 1e-06" "dim $1 class 0" \
    "nodes $2" "node - verified zonotope 1 0.5" "lower 0" "upper 1" "end"
}
hostile_cert 100000000000000 1 > "$HOSTILE_DIR/dim.cert"
hostile_cert 1 100000000000000 > "$HOSTILE_DIR/nodes.cert"
printf '%s\n' "charon-checkpoint 1" "order lifo" \
  "network 1 property 2 config 3" "stats 0 0 0 0 0 0 0 0 0" "dim 1" \
  "open 100000000000000" "node - 0" "lower 0" "upper 1" "warm 0" "end" \
  > "$HOSTILE_DIR/open.cp"
printf '%s\n' "charon-cache 1" "entry 1 2 3 0" "region 100000000000000" \
  "lower 0" > "$HOSTILE_DIR/region.db"
printf '%s\n' "charon-property 1" "name p" "target 0" "dim 100000000000000" \
  "lower 0" > "$HOSTILE_DIR/huge.prop"
printf '%s\n' "charon-network 1 1" "dense 100000000000 100000000000" \
  > "$HOSTILE_DIR/huge.net"
# Every count fits the bytes, but validating the residual body would build
# a 9e6 x 9e6 conv lowering: the loader's shape check must refuse it.
printf '%s\n' "charon-network 1 1" "residual 1" "conv 1 3000 3000 1 1 1 1 0" \
  "0.5" "0.1" > "$HOSTILE_DIR/resconv.net"
# Runs a command that must exit with $1 and, when $2 is non-empty, print
# $2 on stderr.
expect_exit() {
  local WANT="$1" DIAG="$2"
  shift 2
  set +e
  env "${TRACE_ENV[@]}" "$@" >/dev/null 2> "$HOSTILE_DIR/stderr"
  local RC=$?
  set -e
  if [[ "$RC" != "$WANT" ]] || \
     { [[ -n "$DIAG" ]] && ! grep -q "$DIAG" "$HOSTILE_DIR/stderr"; }; then
    echo "hostile smoke: '$*' exited $RC (want $WANT${DIAG:+, '$DIAG'})" >&2
    cat "$HOSTILE_DIR/stderr" >&2
    exit 1
  fi
}
for COUNT in dim nodes; do
  expect_exit 2 "cannot parse certificate" "$BUILD_DIR/examples/charon_check" \
    "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-1.prop" "$HOSTILE_DIR/$COUNT.cert"
done
expect_exit 2 "cannot load checkpoint" "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-1.prop" \
  --resume "$HOSTILE_DIR/open.cp"
expect_exit 2 "cannot load property" "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$HOSTILE_DIR/huge.prop"
for NET in huge resconv; do
  expect_exit 2 "cannot load network" "$BUILD_DIR/examples/charon_cli" \
    "$HOSTILE_DIR/$NET.net" "$TRACE_DIR/acas-1.prop"
done
expect_exit 0 "" "$BUILD_DIR/examples/charon_serve" /dev/null \
  --cache-file "$HOSTILE_DIR/region.db" --workers 1
if [[ "$(cat "$HOSTILE_DIR/region.db")" != "charon-cache 1" ]]; then
  echo "hostile smoke: the oversized cache record was not truncated" >&2
  exit 1
fi
# A worker count the service must not try to start.
for WORKERS in -1 abc 257; do
  expect_exit 2 "usage:" "$BUILD_DIR/examples/charon_serve" /dev/null \
    --workers "$WORKERS"
done
# A network with one output, a property over its two inputs, and a
# network with no layers.
printf '%s\n' "charon-network 1 1" "dense 2 1" "0.5 -0.25" "0.1" \
  > "$HOSTILE_DIR/one-output.net"
printf '%s\n' "charon-property 1" "name p" "target 0" "dim 2" "lower 0 0" \
  "upper 1 1" > "$HOSTILE_DIR/two-inputs.prop"
printf '%s\n' "charon-network 1 0" > "$HOSTILE_DIR/no-layers.net"
expect_exit 2 "property does not match network shape" \
  "$BUILD_DIR/examples/charon_cli" "$HOSTILE_DIR/one-output.net" \
  "$HOSTILE_DIR/two-inputs.prop"
expect_exit 2 "cannot load network" "$BUILD_DIR/examples/charon_cli" \
  "$HOSTILE_DIR/no-layers.net" "$HOSTILE_DIR/two-inputs.prop"
for CASE in "one-output:query does not match network" \
            "no-layers:cannot load network"; do
  NET="${CASE%%:*}"
  printf '{"network":"%s","label":0,"lower":[0,0],"upper":[1,1]}\n' \
    "$HOSTILE_DIR/$NET.net" > "$HOSTILE_DIR/$NET.jsonl"
  expect_exit 2 "${CASE#*:}" "$BUILD_DIR/examples/charon_serve" \
    "$HOSTILE_DIR/$NET.jsonl" --workers 1
done
# One non-finite value in each format a tool reads.
printf '%s\n' "charon-network 1 1" "dense 2 2" "0.5 inf" "0 1" "0 0" \
  > "$HOSTILE_DIR/nonfinite.net"
printf '%s\n' "charon-property 1" "name p" "target 0" "dim 5" \
  "lower 0 0 0 0 0" "upper 1 1 1 1 nan" > "$HOSTILE_DIR/nonfinite.prop"
printf '%s\n' "charon-checkpoint 1" "order lifo" \
  "network 1 property 2 config 3" "stats 0 0 0 0 0 0 0 0 0" "dim 1" \
  "open 1" "node - inf" "lower 0" "upper 1" "warm 0" "end" \
  > "$HOSTILE_DIR/nonfinite.cp"
hostile_cert 1 1 | sed 's/zonotope 1 0.5/zonotope 1 inf/' \
  > "$HOSTILE_DIR/nonfinite.cert"
{ printf 'charon-policy 1 5 5\nnan'; printf ' 0.5%.0s' $(seq 24); echo; } \
  > "$HOSTILE_DIR/nonfinite.policy"
printf '%s\n' "charon-cache 1" "entry 1 2 3 0" "region 1" "lower 0" \
  "upper nan" "result verified 0" "cex 0" \
  "stats 0 0 0 0 0 0 0 0 0 0 0 0 0" "cert 0" "checkpoint 0" "end" \
  > "$HOSTILE_DIR/nonfinite.db"
# The identity on two inputs: class 0 wins wherever x0 > x1.
printf '%s\n' "charon-network 1 1" "dense 2 2" "1 0" "0 1" "0 0" \
  > "$HOSTILE_DIR/identity.net"
printf '%s\n' "charon-property 1" "name p" "target 0" "dim 2" \
  "lower 0.6 0" "upper 1 0.4" > "$HOSTILE_DIR/identity.prop"
expect_exit 2 "cannot load network" "$BUILD_DIR/examples/charon_cli" \
  "$HOSTILE_DIR/nonfinite.net" "$TRACE_DIR/acas-1.prop"
expect_exit 2 "cannot load property" "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$HOSTILE_DIR/nonfinite.prop"
expect_exit 2 "cannot load checkpoint" "$BUILD_DIR/examples/charon_cli" \
  "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-1.prop" \
  --resume "$HOSTILE_DIR/nonfinite.cp"
expect_exit 2 "cannot parse certificate" "$BUILD_DIR/examples/charon_check" \
  "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-1.prop" "$HOSTILE_DIR/nonfinite.cert"
expect_exit 0 "bad policy file" "$BUILD_DIR/examples/charon_cli" \
  "$HOSTILE_DIR/identity.net" "$HOSTILE_DIR/identity.prop" \
  --policy "$HOSTILE_DIR/nonfinite.policy"
expect_exit 0 "" "$BUILD_DIR/examples/charon_serve" /dev/null \
  --cache-file "$HOSTILE_DIR/nonfinite.db" --workers 1
if [[ "$(cat "$HOSTILE_DIR/nonfinite.db")" != "charon-cache 1" ]]; then
  echo "hostile smoke: the cache record with a nan bound was not truncated" >&2
  exit 1
fi
# CLI flags that cannot run: the deleted --fgsm, a delta of 0 (no
# termination guarantee) and a budget or delta that is not a number.
for FLAGS in "--fgsm" "--delta 0" "--delta abc" "--budget abc"; do
  expect_exit 2 "usage:" "$BUILD_DIR/examples/charon_cli" \
    "$HOSTILE_DIR/identity.net" "$HOSTILE_DIR/identity.prop" $FLAGS
done
# One runnable request line, then a delta and a budget that cannot run
# and a nan bound: the first is answered, each other line gets an error
# response (naming the key for delta and budget), and the batch exits 2.
IDENTITY_REQ="\"network\":\"$HOSTILE_DIR/identity.net\",\"label\":0"
IDENTITY_REQ+=",\"lower\":[0.6,0],\"upper\":[1,0.4]"
printf '%s\n' "{$IDENTITY_REQ}" "{$IDENTITY_REQ,\"delta\":0}" \
  "{$IDENTITY_REQ,\"budget\":-1}" "{${IDENTITY_REQ/0.6/nan}}" \
  > "$HOSTILE_DIR/unrunnable.jsonl"
set +e
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" \
  "$HOSTILE_DIR/unrunnable.jsonl" --workers 1 \
  > "$HOSTILE_DIR/unrunnable.out" 2> "$HOSTILE_DIR/stderr"
RC=$?
set -e
UNRUNNABLE_OUT="$HOSTILE_DIR/unrunnable.out"
if [[ "$RC" != 2 ]] ||
   [[ "$(grep -c '"outcome":"verified"' "$UNRUNNABLE_OUT")" != 1 ]] ||
   ! grep -qF 'line 2: \"delta\" must' "$UNRUNNABLE_OUT" ||
   ! grep -qF 'line 3: \"budget\" must' "$UNRUNNABLE_OUT" ||
   ! grep -qF 'line 4: expected a finite number' "$UNRUNNABLE_OUT"; then
  echo "hostile smoke: charon_serve on a zero delta, a negative budget" \
       "and a nan bound exited $RC (want 2, one verified line, three" \
       "errors)" >&2
  cat "$UNRUNNABLE_OUT" "$HOSTILE_DIR/stderr" >&2
  exit 1
fi
echo "hostile smoke: oversized counts and shapes refused, cache record" \
     "truncated, bad worker counts refused, one-output and zero-layer" \
     "networks refused, non-finite values refused in every format," \
     "unrunnable deltas and budgets refused"

# Certificate smoke: decide an exported ACAS property with --cert, check
# the certificate with the standalone charon_check (which re-runs the
# abstract analyses and counterexamples but no search), then corrupt the
# recorded network fingerprint and require rejection. The sanitize leg
# reuses TRACE_ENV/TRACE_FLAGS, so both the emitting run and the checker
# replay go through forced-threaded kernels under ASan + UBSan.
CERT_FILE=""
CERT_PROP=""
for PROP in 1 0; do
  set +e
  env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
    "$TRACE_DIR/acas.net" "$TRACE_DIR/acas-$PROP.prop" \
    --budget 30 --cert "$TRACE_DIR/acas-$PROP.cert" "${TRACE_FLAGS[@]}"
  CERT_RC=$?
  set -e
  if [[ "$CERT_RC" == 0 && -s "$TRACE_DIR/acas-$PROP.cert" ]]; then
    CERT_FILE="$TRACE_DIR/acas-$PROP.cert"
    CERT_PROP="$TRACE_DIR/acas-$PROP.prop"
    break
  fi
  if [[ "$CERT_RC" != 1 ]]; then
    echo "cert smoke: charon_cli failed (rc=$CERT_RC)" >&2
    exit 1
  fi
done
if [[ -z "$CERT_FILE" ]]; then
  echo "cert smoke: no exported property decided within budget" >&2
  exit 1
fi
grep -q '^charon-cert 1$' "$CERT_FILE"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_check" \
  "$TRACE_DIR/acas.net" "$CERT_PROP" "$CERT_FILE"
echo "cert smoke: genuine certificate accepted"
sed 's/^network [0-9]*/network 1/' "$CERT_FILE" \
  > "$TRACE_DIR/tampered.cert"
set +e
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_check" \
  "$TRACE_DIR/acas.net" "$CERT_PROP" "$TRACE_DIR/tampered.cert"
TAMPER_RC=$?
set -e
if [[ "$TAMPER_RC" == 0 ]]; then
  echo "cert smoke: tampered certificate was ACCEPTED" >&2
  exit 1
fi
echo "cert smoke: tampered certificate rejected (rc=$TAMPER_RC)"

# Persistent-cache smoke: a --certify server fills the on-disk cache, a
# restarted server re-answers the same queries under a different delta —
# exact lookups must miss, so the hits can only come from disk-loaded
# certificates re-checked against the new config. The suite is exported
# into its own cache dir with enough properties to include a
# refinement-heavy verified one (p2) and a falsified one (p3).
CACHE_DIR="$BUILD_DIR/cache-smoke"
rm -rf "$CACHE_DIR"
"$BUILD_DIR/examples/acas_export" "$CACHE_DIR" --count 6 \
  --cache "$CACHE_DIR" >/dev/null
CACHE_REQ="$CACHE_DIR/requests.jsonl"
: > "$CACHE_REQ"
for PROP in 2 3; do
  awk -v net="$CACHE_DIR/acas.net" '
    /^name /  {name=$2}
    /^target /{label=$2}
    /^lower / {lo=""; for(i=2;i<=NF;i++) lo=lo (i>2?",":"") $i}
    /^upper / {up=""; for(i=2;i<=NF;i++) up=up (i>2?",":"") $i}
    END {printf "{\"network\":\"%s\",\"name\":\"%s\",\"label\":%s,\
\"lower\":[%s],\"upper\":[%s],\"budget\":30}\n", net, name, label, lo, up}
  ' "$CACHE_DIR/acas-$PROP.prop" >> "$CACHE_REQ"
done
CACHE_DB="$CACHE_DIR/serve-cache.db"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" "$CACHE_REQ" \
  --certify --cache-file "$CACHE_DB" --workers 1 --quiet >/dev/null
sed 's/"budget":30/"budget":30,"delta":1e-7/' "$CACHE_REQ" \
  > "$CACHE_DIR/requests-redelta.jsonl"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" \
  "$CACHE_DIR/requests-redelta.jsonl" \
  --certify --cache-file "$CACHE_DB" --workers 1 \
  >/dev/null 2> "$CACHE_DIR/cache-restart.err"
CERTIFIED=$(sed -n 's/.*, \([0-9][0-9]*\) certified).*/\1/p' \
  "$CACHE_DIR/cache-restart.err")
LOADED=$(sed -n 's/.* \([0-9][0-9]*\) loaded from disk.*/\1/p' \
  "$CACHE_DIR/cache-restart.err")
if [[ -z "$CERTIFIED" || "$CERTIFIED" == 0 || -z "$LOADED" \
      || "$LOADED" == 0 ]]; then
  echo "cache restart smoke: no certified hits from the reloaded cache" >&2
  cat "$CACHE_DIR/cache-restart.err" >&2
  exit 1
fi
echo "cache restart smoke: $CERTIFIED certified hit(s) from $LOADED" \
     "disk-loaded entries"

# ONNX smoke: generate the deterministic mixed fixture, import it, and
# decide the same robust property three ways — from the imported .net, from
# the .onnx directly (exercising registry ingestion in charon_cli), and
# through charon_serve. All three must verify it. The sanitize leg reuses
# TRACE_ENV/TRACE_FLAGS, so the wire parser, the lowering, and the smooth
# relaxation transformers all run under ASan + UBSan with forced-threaded
# kernels.
ONNX_DIR="$BUILD_DIR/onnx-smoke"
rm -rf "$ONNX_DIR"
mkdir -p "$ONNX_DIR"
"$BUILD_DIR/examples/onnx_fixture_gen" mixed "$ONNX_DIR/mixed.onnx" \
  >/dev/null
"$BUILD_DIR/examples/charon_cli" --import-onnx "$ONNX_DIR/mixed.onnx" \
  "$ONNX_DIR/mixed.net" > "$ONNX_DIR/import.out"
grep -q 'fingerprint' "$ONNX_DIR/import.out"
# A small box around the constant-0.1 input, targeting the class the
# fixture assigns there (class 1) — robust, so every leg must verify it.
{
  echo "charon-property 1"
  echo "name onnx-smoke"
  echo "target 1"
  echo "dim 72"
  printf 'lower'; for _ in $(seq 72); do printf ' 0.09'; done; echo
  printf 'upper'; for _ in $(seq 72); do printf ' 0.11'; done; echo
} > "$ONNX_DIR/mixed.prop"
set +e
NET_OUT=$(env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
  "$ONNX_DIR/mixed.net" "$ONNX_DIR/mixed.prop" --budget 60 \
  "${TRACE_FLAGS[@]}")
NET_RC=$?
ONNX_OUT=$(env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_cli" \
  "$ONNX_DIR/mixed.onnx" "$ONNX_DIR/mixed.prop" --budget 60 \
  "${TRACE_FLAGS[@]}")
ONNX_RC=$?
set -e
for RC in "$NET_RC" "$ONNX_RC"; do
  if [[ "$RC" != 0 && "$RC" != 1 ]]; then
    echo "onnx smoke: charon_cli failed (rc=$RC)" >&2
    exit 1
  fi
done
NET_VERDICT=$(printf '%s\n' "$NET_OUT" \
  | sed -n 's/^[^:]*: \([a-z]*\) in .*/\1/p' | head -n1)
ONNX_VERDICT=$(printf '%s\n' "$ONNX_OUT" \
  | sed -n 's/^[^:]*: \([a-z]*\) in .*/\1/p' | head -n1)
if [[ "$NET_VERDICT" != "verified" || "$ONNX_VERDICT" != "verified" ]]; then
  echo "onnx smoke: verdict mismatch (net='$NET_VERDICT'," \
       "onnx='$ONNX_VERDICT', expected 'verified')" >&2
  exit 1
fi
awk -v net="$ONNX_DIR/mixed.onnx" '
  /^name /  {name=$2}
  /^target /{label=$2}
  /^lower / {lo=""; for(i=2;i<=NF;i++) lo=lo (i>2?",":"") $i}
  /^upper / {up=""; for(i=2;i<=NF;i++) up=up (i>2?",":"") $i}
  END {printf "{\"network\":\"%s\",\"name\":\"%s\",\"label\":%s,\
\"lower\":[%s],\"upper\":[%s],\"budget\":60}\n", net, name, label, lo, up}
' "$ONNX_DIR/mixed.prop" > "$ONNX_DIR/requests.jsonl"
env "${TRACE_ENV[@]}" "$BUILD_DIR/examples/charon_serve" \
  "$ONNX_DIR/requests.jsonl" --no-cache --workers 1 --quiet \
  > "$ONNX_DIR/serve.out"
grep -q '"outcome":"verified"' "$ONNX_DIR/serve.out"
echo "onnx smoke: import + verify OK through charon_cli and charon_serve"

# perfbench self-tests (plain leg): the end-to-end benchmark compiles
# against the library's public API (pgdMinimize, the policy calls, every
# Layer virtual), so a change that breaks it fails here rather than only
# when the benchmark runs.
if [[ "$SANITIZE" == 0 ]]; then
  python3 perfbench/tests/test_perfbench.py
  echo "perfbench self-tests: OK"
fi
