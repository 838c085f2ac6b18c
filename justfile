# Common development tasks. Run with `just <target>`.

# Format check, build, test, lint and rustdoc — the gate every change must pass.
verify: obs profile scale exchange sentinel reproduce
    cargo fmt --all --check
    cargo build --release
    cargo test -q --workspace
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The byte gate for artifacts regenerated in place: fail if `git status`
# shows any of PATHS changed (or new) against the commit. After an
# intentional change, `UPDATE_GOLDEN=1` accepts the regenerated files
# for commit instead.
_unchanged +PATHS:
    @if [ -n "${UPDATE_GOLDEN:-}" ]; then \
        echo "accepted the regenerated {{PATHS}}"; \
    elif [ -n "$(git status --porcelain -- {{PATHS}})" ]; then \
        git status --short -- {{PATHS}}; \
        git --no-pager diff --stat -- {{PATHS}}; \
        echo "{{PATHS}} differ from the committed files"; exit 1; \
    else \
        echo "{{PATHS}} reproduced byte-exact"; \
    fi

# Cascade-solver gate: the whole 512 → 8,192-node scale sweep (about
# 0.1 s), written in place to results/BENCH_scale.json. The binary
# asserts cold-vs-cascade bit-identity and that warm cascade solves
# outnumber cold ones; every field is simulated time or a count, so the
# file must reproduce byte for byte.
scale: && (_unchanged "results/BENCH_scale.json")
    cargo run --release -p bgq-bench --bin scale

# Observability smoke check: run fig5 with artifacts, then validate them
# (JSON parses, CSV sorted/deduplicated, nothing undelivered).
obs:
    cargo run --release -p bgq-bench --bin reproduce -- fig5 --threads 4 \
        --metrics-out results/obs/fig5.metrics.csv \
        --trace-out results/obs/fig5.trace.json
    cargo run --release -p bgq-bench --bin obs_report -- --check \
        results/obs/fig5.metrics.csv results/obs/fig5.trace.json

# Bottleneck-attribution gate: profile fig6's contended coupling, print
# the "why was this slow" report, validate the artifact's accounting,
# and diff it against the committed baseline. After an intentional
# engine/planner change, re-baseline with `UPDATE_GOLDEN=1 just profile`.
profile:
    cargo run --release -p bgq-bench --bin profile -- fig6 \
        --profile-out results/obs/profile_fig6.json
    cargo run --release -p bgq-bench --bin obs_report -- --check \
        results/obs/profile_fig6.json
    @if [ -n "${UPDATE_GOLDEN:-}" ]; then \
        cp results/obs/profile_fig6.json results/BENCH_profile_fig6.json; \
        echo "re-baselined results/BENCH_profile_fig6.json"; \
    else \
        cargo run --release -p bgq-bench --bin obs_report -- --check --diff \
            results/obs/profile_fig6.json results/BENCH_profile_fig6.json; \
    fi

# Sparse-exchange gate: run the full sweep in place (the binary
# validates the artifact and asserts the ≥1.5× multipath-vs-direct bar
# on the disjoint-heavy pattern at 4,096 nodes), then fail on any diff
# to the committed results/BENCH_exchange.json — the artifact is pure
# simulated time, so any diff means the planner or simulator moved.
# Accept an intentional change with `UPDATE_GOLDEN=1 just exchange`.
# About 5 s at the default two threads on a 2-vCPU host, 8 s on one
# thread (the 512-node slice is separately pinned as
# tests/golden/exchange.csv for the quick path).
exchange: && (_unchanged "results/BENCH_exchange.json")
    cargo run --release -p bgq-bench --bin exchange

# Run-ledger + regression sentinel: run the scenario sweep, validate the
# manifest artifact, cross-check it against the committed fig6 profile,
# and diff against the committed baseline — any REGRESSED verdict (with
# its profiler blame attribution) fails the gate. On an unchanged tree
# the manifest byte-matches the baseline. After an intentional model
# change, re-pin with `UPDATE_GOLDEN=1 just sentinel`. Inject a fake
# regression to see the attribution machinery work:
# `cargo run --release -p bgq-bench --bin sentinel -- --degrade-links 0.5 \
#      --out /tmp/degraded.json --no-history`
sentinel:
    @if [ -n "${UPDATE_GOLDEN:-}" ]; then \
        cargo run --release -p bgq-bench --bin sentinel -- --update-baseline; \
        echo "re-pinned results/ledger/baseline.json"; \
    else \
        cargo run --release -p bgq-bench --bin sentinel; \
    fi
    cargo run --release -p bgq-bench --bin obs_report -- --check \
        results/ledger/manifest.json
    cargo run --release -p bgq-bench --bin obs_report -- --check --cross \
        results/ledger/manifest.json results/BENCH_profile_fig6.json fig6
    cmp results/ledger/manifest.json results/ledger/baseline.json && \
        echo "results/ledger/baseline.json reproduced byte-exact"

# Scaling harness for the paper's workload (not part of `verify`): a
# random sparse exchange, four peers per node, planned direct and
# simulated unobserved from 512 nodes up to MAX nodes, printing simulate
# time (min of 3), the per-doubling ratio and the cold/warm solve counts.
exchange-scaling MAX="4096":
    cargo run --release --example exchange_scaling -- --max-nodes {{MAX}}

# Figure gate: regenerate every registry figure into results/ (about
# 20 s at two threads; fig10 to 65,536 cores is most of it), then fail
# on any difference from the committed figure files. After an
# intentional change, `UPDATE_GOLDEN=1 just reproduce` accepts the
# regenerated files for commit.
reproduce: && (_unchanged "results/*.txt" "results/*.csv")
    cargo run --release -p bgq-bench --bin reproduce -- --max-cores 65536 --threads 4 --timing

# Coverage via cargo-llvm-cov when installed; otherwise fall back to a
# plain verbose test run (this container has no coverage tooling baked in).
cover:
    @if cargo llvm-cov --version >/dev/null 2>&1; then \
        cargo llvm-cov --workspace --summary-only; \
    else \
        echo "cargo-llvm-cov not installed; running plain tests instead"; \
        cargo test --workspace -- --nocapture; \
    fi

# Regenerate the golden reference CSVs (and the pinned fig5 trace and
# profile) and every committed artifact under results/ after an
# intentional model change.
update-golden:
    UPDATE_GOLDEN=1 cargo test --release --test golden
    UPDATE_GOLDEN=1 cargo test --release --test observability
    UPDATE_GOLDEN=1 cargo test --release --test profile_golden
    UPDATE_GOLDEN=1 just profile
    UPDATE_GOLDEN=1 just reproduce
    UPDATE_GOLDEN=1 just scale
    UPDATE_GOLDEN=1 just exchange
    UPDATE_GOLDEN=1 just sentinel
