#!/usr/bin/env bash
# Build-and-test matrix (docs/TESTING.md): a Release leg, the two
# sanitizer legs, and a coverage leg. Each configuration builds into its
# own build-<name> directory so legs never contaminate each other.
#
#   scripts/ci.sh             # full matrix
#   scripts/ci.sh release     # one leg: release | asan | tsan | coverage
#   CTEST_ARGS="-L conform" scripts/ci.sh asan   # restrict the ctest run
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
CTEST_ARGS=${CTEST_ARGS:-}

run_leg() {
    local name=$1
    shift
    local dir="build-${name}"
    echo "=== leg: ${name} (${dir}) ==="
    cmake -B "${dir}" -S . "$@"
    cmake --build "${dir}" -j "${JOBS}"
    # ${CTEST_ARGS} intentionally unquoted: it is a list of extra flags.
    # shellcheck disable=SC2086
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" ${CTEST_ARGS})
}

# Simulator throughput smoke (docs/PERFORMANCE.md): checks that every
# PE point runs and the BENCH_perf.json schema. Throughput is not
# asserted — CI wall-clock is noise.
perf_smoke() {
    local dir="build-release"
    echo "=== perf smoke (${dir}) ==="
    "${dir}/bench/pim_perf" --smoke --json="${dir}/BENCH_perf.json"
    "${dir}/bench/json_check" --schema=perf "${dir}/BENCH_perf.json"
}

# Clustered-topology gate (docs/ARCHITECTURE.md): a deeper clustered
# conformance fuzz than the ctest `cluster` label runs, plus the
# 128-PE clustered perf smoke with its JSON schema check. Exercises
# mask-derived cluster routes, hop accounting and the exactness
# invariants at a scale the unit tests keep short.
cluster_smoke() {
    local dir="build-release"
    echo "=== cluster smoke (${dir}) ==="
    "${dir}/bench/pim_conform" --fuzz --pes=8 --blocks=2 --sets=2 \
        --seed=11 --traces=40 --len=200 --cluster-size=2
    "${dir}/bench/pim_perf" --smoke --pes=128 --cluster-size=16 \
        --hop-cycles=2 --json="${dir}/BENCH_perf_clustered.json"
    "${dir}/bench/json_check" --schema=perf \
        --require=rows.0.inter_cluster_cycles \
        "${dir}/BENCH_perf_clustered.json"
}

# Protocol & replacement-policy zoo gate (docs/ARCHITECTURE.md
# "Protocol matrix"): a short differential fuzz and a clustered
# exploration of every non-default coherence protocol, the fig_zoo table byte-compared against its
# golden (pinning the PIM baseline column), and the --json document
# validated against the `zoo` schema.
zoo_smoke() {
    local dir="build-release"
    echo "=== zoo smoke (${dir}) ==="
    local proto
    for proto in msi mesi moesi dragon; do
        "${dir}/bench/pim_conform" --fuzz --protocol="${proto}" \
            --pes=3 --blocks=2 --sets=2 --seed=11 --traces=10 --len=100
        # Every edge of an exploration branches from a copied state, so
        # this runs the state copy under each protocol on the clustered
        # topology (one PE per cluster: every transaction crosses).
        "${dir}/bench/pim_conform" --protocol="${proto}" \
            --pes=3 --blocks=1 --depth=4 --cluster-size=1
    done
    "${dir}/bench/fig_zoo" --scale 1 --pes 2 \
        --json="${dir}/BENCH_fig_zoo.json" > "${dir}/fig_zoo.txt"
    diff -u tests/golden/fig_zoo.txt "${dir}/fig_zoo.txt"
    "${dir}/bench/json_check" --schema=zoo "${dir}/BENCH_fig_zoo.json"
}

# Short chaos soak campaign (docs/ROBUSTNESS.md): the smoke fault-plan
# x seed grid must end with zero escaped injections, and CAMPAIGN.json
# must satisfy the campaign schema.
soak_smoke() {
    local dir="build-release"
    echo "=== soak smoke (${dir}) ==="
    "${dir}/bench/pim_soak" --smoke --out="${dir}/soak"
    "${dir}/bench/json_check" --schema=campaign "${dir}/soak/CAMPAIGN.json"
}

# Perf regression ledger (docs/OBSERVABILITY.md): feed the perf smoke
# and a sweep smoke through pim_report against the repo-root
# BENCH_HISTORY.jsonl. The first CI run seeds the baseline; later runs
# gate against the previous record (exit 3 = regression, fails the leg).
# The run's attribution document is schema-checked alongside.
report_gate() {
    local dir="build-release"
    echo "=== report gate (${dir}) ==="
    "${dir}/bench/pim_sweep" --spec=smoke --jobs=2 --out="${dir}/sweep"
    "${dir}/bench/pim_stress" --seed=1 --steps=50000 --lock-pct=20 \
        --attribution-out="${dir}/ATTRIBUTION.json"
    "${dir}/bench/json_check" --schema=attribution "${dir}/ATTRIBUTION.json"
    "${dir}/bench/pim_report" \
        "${dir}/BENCH_perf.json" \
        "${dir}/sweep/SWEEP.json" \
        "${dir}/sweep/SWEEP.perf.json" \
        "${dir}/ATTRIBUTION.json" \
        --history=BENCH_HISTORY.jsonl --label=ci \
        --out="${dir}/TREND.md"
    "${dir}/bench/json_check" --schema=history BENCH_HISTORY.jsonl
}

coverage_report() {
    local dir="build-coverage"
    if command -v gcovr >/dev/null 2>&1; then
        gcovr --root . --filter src/ "${dir}" \
              --print-summary -o "${dir}/coverage.txt"
        echo "coverage report: ${dir}/coverage.txt"
    else
        echo "gcovr not found; raw .gcda files are under ${dir}/"
    fi
}

legs=("$@")
if [ ${#legs[@]} -eq 0 ]; then
    legs=(release asan tsan coverage)
fi

# Documentation link check runs before any build: stale references in
# README.md or docs/*.md fail CI immediately (scripts/check_docs.sh).
scripts/check_docs.sh

for leg in "${legs[@]}"; do
    case "${leg}" in
      release)
        run_leg release -DCMAKE_BUILD_TYPE=Release
        perf_smoke
        cluster_smoke
        zoo_smoke
        soak_smoke
        report_gate
        ;;
      asan)
        run_leg asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPIM_SANITIZE=ON
        ;;
      tsan)
        run_leg tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPIM_SANITIZE=thread
        # The ThreadPool and the sweep runner are the only threaded
        # code: re-run the `sweep` label explicitly so a CTEST_ARGS
        # restriction can never skip it on this leg.
        (cd build-tsan && ctest --output-on-failure -L sweep)
        ;;
      coverage)
        run_leg coverage -DCMAKE_BUILD_TYPE=Debug -DPIM_COVERAGE=ON
        coverage_report
        ;;
      *)
        echo "ci.sh: unknown leg '${leg}'" \
             "(expected release, asan, tsan or coverage)" >&2
        exit 2
        ;;
    esac
done
echo "=== all legs passed ==="
