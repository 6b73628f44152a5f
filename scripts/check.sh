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
# through the one submitter, and the N-way fronts on the same kernels) and
# Miri over the arena (the run cursor that hands its columns back, the
# chunked reduce collector and `GroupValues::peek_last` included) and the
# in-place assembly of a reloaded
# dataset (`fill.rs`, one of the crate's two unsafe sites). Both
# need nightly tooling; each step is skipped with a notice when its
# toolchain component is absent, so the lane degrades gracefully on
# stable-only hosts.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--sanitize" ]]; then
    if ! command -v rustup >/dev/null 2>&1 || ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
        echo "==> sanitize lane SKIPPED: no nightly toolchain installed (rustup toolchain install nightly)"
        exit 0
    fi
    host="$(rustc -vV | sed -n 's/^host: //p')"
    if rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src.*(installed)'; then
        echo "==> TSan: pool/arena/recycle/map-output/sched/parallel-reduce/reload/pipeline tests (suppressions: scripts/tsan.supp)"
        # TSan only instruments our code unless std is rebuilt; harness-internal
        # reports are filtered by the documented suppressions file. The
        # filters are test-name substrings: `level_split` is the per-level
        # pool split (full-pool task broadcasts nested in the scheduler
        # loop; `pool` picks up its pool-stress form), `parallel_reduce`
        # the `first_failed` atomic of the reduce phase, `reload` the
        # durable DFS decoding a spilled dataset's blocks on the shared
        # pool (thread counts 1 to 4, a reload that fails part-way, two
        # readers at once, nested in a job), and `map_output` the map-output
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
        tsan -p haten2-mapreduce -- pool arena recycle sched level_split parallel_reduce \
            reload map_output
        # Every pipeline (and both merges over sharded and over written input,
        # and the per-column kernels over a producer's reduce partitions)
        # under both scheduler modes, with the bit-identity digests still
        # asserted; and the same kernels at three to five join sides on the
        # bare cluster.
        tsan -p haten2-core --test golden_pipelines --test sharded_merge --test nway_properties
    else
        echo "==> TSan SKIPPED: rust-src not installed (rustup +nightly component add rust-src)"
    fi
    if rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri.*(installed)'; then
        echo "==> Miri: arena and in-place reload assembly tests"
        cargo +nightly miri test -p haten2-mapreduce arena fill::
    else
        echo "==> Miri SKIPPED: component not installed (rustup +nightly component add miri)"
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
    "order-4 end to end (N-way PARAFAC + Tucker; tier-1 only compiles it)|cargo run --release --example four_way_logs"
    "clippy|cargo clippy --workspace --all-targets -- -D warnings"
    "rustfmt|cargo fmt --check"
    "rustdoc (warnings are errors: dead intra-doc links, links to private items)|env RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps --workspace"
    "chaos smoke (fault transparency)|cargo run -p haten2-chaos --release --bin haten2-chaos -- --seeds 2 --seed-base 7"
    "clippy canary (each disallowed-* entry fires exactly once under each clippy.toml)|scripts/clippy_canary.sh"
    "analyze (paper tables with the determinism scan inside, reject demo)|cargo run -q -p haten2-analyze --release -- --verify-paper-table --reject-demo"
    "benchmark tests (incl. BENCHMARK.json == code)|cargo test --offline --manifest-path benchmark/Cargo.toml -q"
    "perf smoke (four workloads, self-checked samples)|cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --quick --out $smoke_out/run.json"
    "traced pass smoke (re-assembled sweeps bit-identical to the drivers, shares sum to one)|cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- trace --quick --out $smoke_out/trace.json"
)
for gate in "${GATES[@]}"; do
    echo "==> ${gate%%|*}: ${gate#*|}"
    ${gate#*|}
done

echo "All checks passed."
