#!/usr/bin/env bash
# Full pre-merge check: build, tests, lints, formatting, perf smoke.
# Usage: scripts/check.sh [--sanitize]
#
# The default lane is stable-only and hermetic: it runs the GATES table
# below top to bottom and stops at the first failure. `cargo test -q`
# covers the whole workspace (root `default-members`), the `ANALYSIS.md`
# staleness test included. Clippy's `-D warnings` holds the `clippy.toml`
# rules, and the canary row keeps each of them falsifiable; rustdoc's
# `-D warnings` keeps every intra-doc link resolving. The two perf
# rows are the repo's benchmark (`BENCHMARK.json`) in its quick mode:
# `run`, whose samples check themselves against the Sequential oracle and
# `haten2-baseline`, and `trace`, whose re-assembled sweeps (the one caller
# of the library kernels outside the drivers) must stay bit-identical to
# the drivers' own.
#
# `--sanitize` runs the dynamic-analysis lane instead: ThreadSanitizer over
# the concurrency tests (worker pool, arena, the column recycler's shared
# shelf, DAG scheduler and its per-level
# pool split, parallel-reduce failure, the durable DFS's block-parallel
# reload — concurrent and nested in a job — the eight pipelines end to end
# through the one submitter, the ALS drivers around them, and the N-way
# fronts on the same kernels),
# AddressSanitizer with LeakSanitizer over the code that fills and hands
# back raw columns (the in-place reload assembly, the arena's runs and
# cursors, the column recycler) and the merges end to end over IMHP's
# packed records, and
# Miri over the arena (the run cursor that hands its columns back, the
# chunked reduce collector, `GroupValues::peek_last` and the out-of-place
# bucket sort on both its paths included) and `fill.rs`, one of the
# crate's two unsafe sites: the in-place assembly of a reloaded dataset
# into the allocation its last spill left behind (its old records dropped
# once, the allocation kept or grown), and the scatter and gather that
# sort a bucket, their drop-counting tests on a fill that fails and on a
# move that panics part-way included. All three
# need nightly tooling; each step prints RAN or SKIPPED (with the missing
# component), and the lane ends with "N of M steps ran". It passes only
# when at least one step ran and every step that ran passed; a lane that
# ran no step checked nothing and exits 2.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--sanitize" ]]; then
    steps=0 ran=0 failed=0
    # step LABEL MISSING COMMAND...: run COMMAND unless MISSING names the
    # toolchain piece it lacks, and count it.
    step() {
        local label="$1" missing="$2"
        shift 2
        steps=$((steps + 1))
        if [[ -n "$missing" ]]; then
            echo "==> SKIPPED $label: $missing"
            return
        fi
        echo "==> RAN $label"
        ran=$((ran + 1))
        if ! "$@"; then
            echo "==> FAILED $label"
            failed=$((failed + 1))
        fi
    }
    nightly="" rust_src="" miri=""
    if ! command -v rustup >/dev/null 2>&1 || ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
        nightly="no nightly toolchain installed (rustup toolchain install nightly)"
    fi
    components="$(rustup component list --toolchain nightly 2>/dev/null || true)"
    grep -q 'rust-src.*(installed)' <<<"$components" ||
        rust_src="${nightly:-rust-src not installed (rustup +nightly component add rust-src)}"
    grep -q 'miri.*(installed)' <<<"$components" ||
        miri="${nightly:-miri not installed (rustup +nightly component add miri)}"
    host="$(rustc -vV | sed -n 's/^host: //p')"

    # TSan only instruments our code unless std is rebuilt; harness-internal
    # reports are filtered by the documented suppressions file. The
    # filters are test-name substrings: `level_split` is the per-level
    # pool split (full-pool task broadcasts nested in the scheduler
    # loop; `pool` picks up its pool-stress form), `parallel_reduce`
    # the `first_failed` atomic of the reduce phase, `reload` the
    # durable DFS decoding a spilled dataset's blocks on the shared
    # pool (thread counts 1 to 4, a reload that fails part-way, two
    # readers at once, nested in a job) into the spare allocation its
    # last spill left behind (reused once no reader holds it, a held
    # snapshot untouched, concurrent readers at 1 to 4 threads), and
    # `map_output` the map-output
    # buffer and the job that starts from one (its buckets sealed on
    # the pool at threads 1 to 4, under a fault plan too). A written
    # output's one reader (`TakeOnce`) is tested under `sched`.
    # `recycle` is the column recycler, whose shelf every pool thread
    # takes from and gives to: its unit tests and a long-lived
    # cluster's mixed job sequence (`tests/recycler.rs`, a DAG batch
    # included) at three threads.
    tsan() {
        RUSTFLAGS="-Zsanitizer=thread" \
        TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
        cargo +nightly test -Zbuild-std --target "$host" "$@"
    }
    step "TSan: pool/arena/recycle/map-output/sched/parallel-reduce/reload tests (suppressions: scripts/tsan.supp)" \
        "$rust_src" tsan -p haten2-mapreduce -- pool arena recycle sched level_split \
        parallel_reduce reload map_output
    # Every pipeline (and both merges over sharded and over written input,
    # and the per-column kernels over a producer's reduce partitions)
    # under both scheduler modes, with the bit-identity digests still
    # asserted; the ALS drivers around them (`golden_als`: every PARAFAC
    # variant, the N-way front and Tucker-DRI, two sweeps each under
    # the DAG scheduler, their digests asserted); and the same kernels
    # at three to five join sides on the bare cluster.
    step "TSan: the pipelines, the ALS drivers and the N-way kernels" "$rust_src" \
        tsan -p haten2-core --test golden_pipelines --test golden_als --test sharded_merge \
        --test nway_properties

    # ASan needs no rebuilt std: `--target` keeps build scripts and proc
    # macros uninstrumented, and LeakSanitizer runs with it. `fill::` is
    # the in-place reload assembly and bucket sort, `arena` the runs and
    # cursors that hand their columns back, `recycle` the column
    # recycler; the two core tests run the merges over sharded and over
    # written input, whose records IMHP packs.
    asan() {
        RUSTFLAGS="-Zsanitizer=address" ASAN_OPTIONS="detect_leaks=1" \
        cargo +nightly test --target "$host" "$@"
    }
    step "ASan+LSan: fill, arena and recycle tests" "$nightly" \
        asan -p haten2-mapreduce -- fill:: arena recycle
    step "ASan+LSan: the merges over sharded and written input, every pipeline" "$nightly" \
        asan -p haten2-core --test sharded_merge --test golden_pipelines

    step "Miri: arena, in-place reload assembly (into a reused Vec too) and bucket-sort move tests" \
        "$miri" cargo +nightly miri test -p haten2-mapreduce arena fill::

    echo "==> $ran of $steps steps ran, $failed failed"
    if ((failed > 0)); then
        echo "Sanitize lane FAILED."
        exit 1
    fi
    if ((ran == 0)); then
        echo "Sanitize lane checked nothing."
        exit 2
    fi
    echo "Sanitize lane passed."
    exit 0
fi

# The perf smoke writes here: the benchmark refuses to append to a default
# result file left under benchmark/out/ by a run at another git revision.
smoke_out="$(mktemp -d)"
trap 'rm -rf "$smoke_out"' EXIT

# label|command, run in order.
GATES=(
    "build|cargo build --release"
    "workspace tests|cargo test -q"
    "order-4 end to end (N-way PARAFAC + Tucker; tier-1 asserts it in tests/four_way_logs.rs)|cargo run --release --example four_way_logs"
    "clippy|cargo clippy --workspace --all-targets -- -D warnings"
    "rustfmt|cargo fmt --check"
    "rustdoc (warnings are errors: dead intra-doc links, links to private items)|env RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps --workspace"
    "clippy canary (each disallowed-* entry fires exactly once under each clippy.toml)|scripts/clippy_canary.sh"
    "analyze (paper tables, reject demo)|cargo run -q -p haten2-analyze --release -- --verify-paper-table --reject-demo"
    "benchmark tests (incl. BENCHMARK.json == code)|cargo test --offline --manifest-path benchmark/Cargo.toml -q"
    "perf smoke (four workloads, self-checked samples)|cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --quick --out $smoke_out/run.json"
    "traced pass smoke (re-assembled sweeps bit-identical to the drivers, shares sum to one)|cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- trace --quick --out $smoke_out/trace.json"
)
for gate in "${GATES[@]}"; do
    echo "==> ${gate%%|*}: ${gate#*|}"
    ${gate#*|}
done

echo "All checks passed."
