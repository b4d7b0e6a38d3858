#!/usr/bin/env bash
# Correctness analysis driver (docs/ANALYSIS.md): builds and tests the tree
# under the full analysis matrix and prints a per-leg summary table. Exits
# nonzero if any leg fails.
#
# Legs:
#   analyze       build tools/analyze and run msd_analyze over src/ (human
#                 report plus --json, which must parse); any unsuppressed
#                 finding fails the leg. The run also asserts hot-path BFS
#                 coverage of the planned forward (--require-reachable
#                 CompiledPlan::Execute / InferenceSession::RunPlanned), of
#                 the fused MLP-block GEMM its fp32 plans run
#                 (MlpPrepacked, and its fc1 into fc2's packed panels,
#                 Fc1IntoPanels), of the axis-MLP permutes (PermuteInto),
#                 of the int8 kernel entry points
#                 (QGemmPrepacked / QuantizeActivationsPerRow), and of the
#                 multi-tenant serving
#                 core (SocketServer::Run, the epoll loop root, and
#                 ModelRegistry::Swap via the HandleLineAsync -> RELOAD
#                 chain), so a lost call edge from a serving root cannot
#                 silently shrink what "0 findings" vouches for.
#   release       default configuration (MSD_NATIVE_ARCH=ON, checks OFF);
#                 one full ctest run — including analyze_check,
#                 gradcheck_sweep, the per-model int8 tenants
#                 (docs/PERFORMANCE.md) that registry_test serves, and
#                 msd_serve_selftest, which validates the telemetry
#                 exporter's JSONL output — then a quickstart run whose
#                 training losses are captured, then one timed run of
#                 tensor_test's disabled exhaustive GELU sweep (all 2^32
#                 float patterns through Gelu, GeluGrad and the fused GEMM
#                 epilogue with and without its GELU' output, bit-compared
#                 with the scalar libm formulas;
#                 tier-1 ctest runs only its 2^24-pattern sibling), which
#                 also fails when /proc/cpuinfo lists avx512f and avx512dq
#                 but the build reports 1 GELU lane (a release tree that
#                 lost -march=native compares the scalar loop with itself).
#   debug-checks  MSD_DEBUG_CHECKS=ON; full ctest, and the quickstart losses
#                 must be bit-identical to the release leg — the invariant
#                 layer must observe, never perturb. The compared lines
#                 include quickstart's digest: every epoch loss at %.9g and
#                 a hash of its forecast's bytes.
#   asan-ubsan    AddressSanitizer + UndefinedBehaviorSanitizer (abort on
#                 first finding); full ctest, then quickstart, whose lines
#                 and digest must match the release leg's. The sanitizer
#                 legs build MSD_NATIVE_ARCH=OFF (-march=x86-64-v3, the
#                 library's AVX2+FMA floor), so they run the same GEMM,
#                 transpose and weight-gradient kernels as release; only
#                 the GELU runs its scalar libm form instead of 16 lanes,
#                 and that is bit-identical. A matching digest therefore
#                 also shows that the leg ran release's arithmetic.
#   tsan          ThreadSanitizer over the full suite with MSD_THREADS=4, so
#                 every parallel kernel (src/runtime dispatch), the
#                 profiler's per-thread merge, the trainer path, and the
#                 serving stack (serve_test's concurrent micro-batcher
#                 clients, registry_test's concurrent Get/Swap hammer,
#                 netio_test's multi-connection epoll loop and its
#                 two-tenant in-band RELOAD, exporter_test's trace-ring
#                 writer/reader races, msd_serve_selftest) run on a real
#                 multi-threaded pool under the race detector; then
#                 quickstart at MSD_THREADS=4, whose lines and digest must
#                 match the release leg's (x86-64-v3, as asan-ubsan).
#   perfbench     python3 perfbench/test_perfbench.py: builds the benchmark
#                 (BENCHMARK.json) from this checkout, which compiles
#                 against the serve/ APIs, and runs its short-mode checks
#                 on every workload. Skipped with a note when python3 is
#                 absent.
#
# debug-checks, asan-ubsan and tsan compare with the release leg's lines in
# build-check/release/, from this run or an earlier one; when there are
# none, they pass with "digest not compared" in their detail.
#
# Usage: tools/check.sh [--tidy] [--jobs N] [--leg NAME]...
#   --tidy     also run clang-tidy (src/common + src/tensor); skipped with a
#              note when clang-tidy is not installed.
#   --leg      run only the named leg(s); default is all six.
#   --jobs N   parallel build/test jobs (default: nproc).
#
# No leg measures performance: the benchmark (BENCHMARK.json) compares a
# change with its parent on the same machine, and docs/PERFORMANCE.md says
# how kernel microbenches are compared.
#
# Build trees live in build-check/<leg> (the perfbench leg's in
# .bench_build/) so they never disturb ./build.
set -u -o pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
RUN_TIDY=0
LEGS=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --tidy) RUN_TIDY=1 ;;
    --jobs) JOBS="$2"; shift ;;
    --leg) LEGS+=("$2"); shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done
[[ ${#LEGS[@]} -eq 0 ]] && LEGS=(analyze release debug-checks asan-ubsan tsan perfbench)

CHECK_DIR="${ROOT}/build-check"
mkdir -p "${CHECK_DIR}"

declare -A STATUS    # leg -> PASS / FAIL / SKIP
declare -A DETAIL    # leg -> one-line explanation
FAILED=0

note() { printf '\n==== %s ====\n' "$*"; }

fail_leg() {  # leg detail
  STATUS[$1]="FAIL"
  DETAIL[$1]="$2"
  FAILED=1
}

# A reused build tree whose cached MSD_SANITIZE disagrees with the leg's
# request would silently build the WRONG matrix cell (cmake does not reapply
# a -D that matches neither the cache nor the command line when the cache
# already has a value). Detect the mismatch and wipe the cache, failing fast
# if the wipe itself fails rather than proceeding against stale flags.
ensure_fresh_cache() {  # builddir cmake-args...
  local builddir="$1"; shift
  local cache="${builddir}/CMakeCache.txt"
  [[ -f "${cache}" ]] || return 0
  local want="" arg
  for arg in "$@"; do
    case "${arg}" in
      -DMSD_SANITIZE=*) want="${arg#-DMSD_SANITIZE=}" ;;
    esac
  done
  local have
  have="$(sed -n 's/^MSD_SANITIZE:[A-Za-z]*=//p' "${cache}")"
  [[ "${have}" == "${want}" ]] && return 0
  echo "stale MSD_SANITIZE cache in ${builddir} ('${have}' != '${want}'):" \
       "reconfiguring with a fresh cache" >&2
  if ! rm -rf "${cache}" "${builddir}/CMakeFiles"; then
    echo "failed to remove the stale cache in ${builddir}; aborting the" \
         "leg rather than building against wrong sanitizer flags" >&2
    return 1
  fi
}

configure_and_build() {  # builddir target... -- cmake-args...
  local builddir="$1"; shift
  local targets=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do targets+=("$1"); shift; done
  [[ $# -gt 0 ]] && shift  # drop --
  ensure_fresh_cache "${builddir}" "$@" || return 1
  cmake -B "${builddir}" -S "${ROOT}" "$@" || return 1
  if [[ ${#targets[@]} -gt 0 ]]; then
    local t
    for t in "${targets[@]}"; do
      cmake --build "${builddir}" -j "${JOBS}" --target "${t}" || return 1
    done
  else
    cmake --build "${builddir}" -j "${JOBS}" || return 1
  fi
}

# Training numerics only (strip wall-clock columns): the bit-identity
# contract is about numerics, not timing. The epoch lines go to stderr, so
# both streams are captured; the digest line carries every epoch loss at
# %.9g and an FNV-1a hash of the forecast's bytes, so one ulp anywhere in
# the losses or the forecast changes it.
# The unfiltered output goes to quickstart.log beside it, so a sanitizer
# report that fails the run is not lost to the filter.
quickstart_losses() {  # builddir outfile
  "$1/examples/quickstart" 2>&1 | tee "$1/quickstart.log" |
    grep -E 'epoch +[0-9]+/|Test MSE|component S|residual:|^digest ' |
    sed -E 's/ [0-9.]+s$//' > "$2"
}

# Every leg computes release's bits: a passing leg's quickstart lines must
# equal the release leg's, digest included.
compare_with_release() {  # leg
  local leg="$1"
  local rel="${CHECK_DIR}/release/quickstart_losses.txt"
  local got="${CHECK_DIR}/${leg}/quickstart_losses.txt"
  [[ "${STATUS[${leg}]:-}" == "PASS" ]] || return 0
  if [[ ! -f "${rel}" ]]; then
    DETAIL[${leg}]="${DETAIL[${leg}]}; release leg not run, digest not compared"
  elif diff -u "${rel}" "${got}"; then
    DETAIL[${leg}]="${DETAIL[${leg}]}; quickstart digest bit-identical to release"
  else
    fail_leg "${leg}" "quickstart losses or digest differ from release leg"
  fi
}

run_release_like_leg() {  # leg-name extra-cmake-flag...
  local leg="$1"; shift
  local builddir="${CHECK_DIR}/${leg}"
  note "leg ${leg}: configure + build"
  if ! configure_and_build "${builddir}" -- "$@"; then
    fail_leg "${leg}" "build failed"; return
  fi
  note "leg ${leg}: ctest"
  if ! (cd "${builddir}" && ctest --output-on-failure -j "${JOBS}"); then
    fail_leg "${leg}" "ctest failures"; return
  fi
  note "leg ${leg}: quickstart"
  if ! quickstart_losses "${builddir}" "${builddir}/quickstart_losses.txt"; then
    fail_leg "${leg}" "quickstart run failed"; return
  fi
  STATUS[${leg}]="PASS"
  DETAIL[${leg}]="full ctest clean"
}

for leg in "${LEGS[@]}"; do
  case "${leg}" in
    analyze)
      builddir="${CHECK_DIR}/analyze"
      note "leg analyze: build msd_analyze"
      if ! configure_and_build "${builddir}" msd_analyze --; then
        fail_leg analyze "build failed"; continue
      fi
      # The human report lands on stderr (visible above); the machine report
      # is captured and must parse. Exit 1 means unsuppressed findings,
      # exit 2 a configuration error (e.g. a suppression without a
      # justification) — both fail the leg.
      # --require-reachable turns silent hot-path coverage loss into a
      # failure: the planned forward, the fused MLP GEMM its fp32 plans
      # dispatch and the permutes around it must stay visible to the BFS
      # from the PredictBatch root or a clean report proves nothing about
      # them.
      note "leg analyze: msd_analyze over src/"
      json="${builddir}/analyze_report.json"
      if ! "${builddir}/tools/msd_analyze" --json \
          --require-reachable "InferenceSession::RunPlanned" \
          --require-reachable "CompiledPlan::Execute" \
          --require-reachable "MlpPrepacked" \
          --require-reachable "Fc1IntoPanels" \
          --require-reachable "PermuteInto" \
          --require-reachable "QGemmPrepacked" \
          --require-reachable "QuantizeActivationsPerRow" \
          --require-reachable "SocketServer::Run" \
          --require-reachable "ModelRegistry::Swap" \
          "${ROOT}" > "${json}"; then
        fail_leg analyze "unsuppressed findings (report above)"; continue
      fi
      if command -v python3 >/dev/null 2>&1; then
        if ! python3 -m json.tool "${json}" > /dev/null; then
          fail_leg analyze "--json output is not valid JSON"; continue
        fi
        STATUS[analyze]="PASS"
        DETAIL[analyze]="0 unsuppressed findings; JSON report validated"
      else
        STATUS[analyze]="PASS"
        DETAIL[analyze]="0 unsuppressed findings (python3 absent; JSON unvalidated)"
      fi
      ;;
    release)
      run_release_like_leg release
      if [[ "${STATUS[release]}" == "PASS" ]]; then
        # Exhaustive exact-GELU sweep (tensor/gelu.h): every float bit
        # pattern, so a vector-port rounding slip cannot hide between the
        # 2^24 patterns the ctest sibling samples.
        # The sweep prints the lane count the build vectorizes GELU at; on
        # an AVX-512F/DQ machine a native build must not report the scalar 1.
        note "leg release: exhaustive GELU bit-identity sweep"
        sweep_start=${SECONDS}
        sweep_log="${CHECK_DIR}/release/gelu_sweep.log"
        if "${CHECK_DIR}/release/tests/tensor_test" \
            --gtest_also_run_disabled_tests \
            --gtest_filter='*GeluKernelsExhaustive*' | tee "${sweep_log}"; then
          sweep_s=$((SECONDS - sweep_start))
          lanes="$(sed -n 's/^gelu lanes: \([0-9]*\)$/\1/p' "${sweep_log}")"
          if grep -qw avx512f /proc/cpuinfo && grep -qw avx512dq /proc/cpuinfo &&
              [[ "${lanes}" != "16" ]]; then
            fail_leg release "CPU has avx512f but the GELU sweep ran ${lanes:-no} lanes, not 16"
          else
            DETAIL[release]="${DETAIL[release]}; GELU 2^32 sweep clean at ${lanes} lanes (${sweep_s} s)"
          fi
        else
          fail_leg release "exhaustive GELU sweep found mismatches"
        fi
      fi
      ;;
    debug-checks)
      # Zero-interference: checks may observe training, never change it.
      run_release_like_leg debug-checks -DMSD_DEBUG_CHECKS=ON
      compare_with_release debug-checks
      ;;
    asan-ubsan)
      # x86-64-v3 (MSD_NATIVE_ARCH=OFF): the release kernels on any
      # AVX2+FMA machine, so the digest must match release's.
      run_release_like_leg asan-ubsan \
        -DMSD_SANITIZE=address,undefined -DMSD_NATIVE_ARCH=OFF
      compare_with_release asan-ubsan
      ;;
    tsan)
      builddir="${CHECK_DIR}/tsan"
      note "leg tsan: configure + build"
      if ! configure_and_build "${builddir}" -- \
          -DMSD_SANITIZE=thread -DMSD_NATIVE_ARCH=OFF; then
        fail_leg tsan "build failed"; continue
      fi
      note "leg tsan: full ctest at MSD_THREADS=4"
      # MSD_THREADS=4 forces the pool path (not the serial fallback) in every
      # parallel kernel while the race detector watches.
      if ! (cd "${builddir}" &&
          MSD_THREADS=4 ctest --output-on-failure -j "${JOBS}"); then
        fail_leg tsan "ctest failures under ThreadSanitizer (MSD_THREADS=4)"
        continue
      fi
      note "leg tsan: quickstart at MSD_THREADS=4"
      if ! MSD_THREADS=4 quickstart_losses "${builddir}" \
          "${builddir}/quickstart_losses.txt"; then
        fail_leg tsan "quickstart failed under ThreadSanitizer (MSD_THREADS=4)"
        continue
      fi
      STATUS[tsan]="PASS"
      DETAIL[tsan]="full ctest and quickstart clean at MSD_THREADS=4"
      compare_with_release tsan
      ;;
    perfbench)
      # The benchmark builds its own Release tree under .bench_build/ from
      # this checkout; its tests rebuild it, so serve/ API drift fails here
      # rather than in a later benchmark run.
      if command -v python3 >/dev/null 2>&1; then
        note "leg perfbench: python3 perfbench/test_perfbench.py"
        if (cd "${ROOT}" && python3 perfbench/test_perfbench.py); then
          STATUS[perfbench]="PASS"
          DETAIL[perfbench]="benchmark builds; short-mode checks pass"
        else
          fail_leg perfbench "perfbench/test_perfbench.py failed"
        fi
      else
        STATUS[perfbench]="SKIP"
        DETAIL[perfbench]="python3 not installed"
      fi
      ;;
    *)
      echo "unknown leg: ${leg}" >&2; exit 2
      ;;
  esac
done

if [[ ${RUN_TIDY} -eq 1 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    note "clang-tidy (src/common, src/tensor)"
    tidydir="${CHECK_DIR}/tidy"
    if configure_and_build "${tidydir}" msd_analyze -- \
          -DCMAKE_EXPORT_COMPILE_COMMANDS=ON &&
        find "${ROOT}/src/common" "${ROOT}/src/tensor" \
            -name '*.cc' -o -name '*.h' |
          xargs clang-tidy -p "${tidydir}" --warnings-as-errors='*'; then
      STATUS[tidy]="PASS"; DETAIL[tidy]="no diagnostics"
    else
      fail_leg tidy "clang-tidy diagnostics"
    fi
  else
    STATUS[tidy]="SKIP"
    DETAIL[tidy]="clang-tidy not installed"
  fi
fi

printf '\n%-14s %-6s %s\n' "leg" "status" "detail"
printf '%s\n' "--------------------------------------------------------------"
for leg in "${LEGS[@]}" $( [[ ${RUN_TIDY} -eq 1 ]] && echo tidy ); do
  printf '%-14s %-6s %s\n' "${leg}" "${STATUS[${leg}]:-SKIP}" \
    "${DETAIL[${leg}]:-not run}"
done

exit "${FAILED}"
