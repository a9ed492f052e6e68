# Developer entry points. `make verify` is the full pre-merge gate:
# tier-1 (release build + tests) plus the deterministic chaos suite,
# lints, formatting, and a smoke run of every criterion bench (one
# iteration each, no timing).

.PHONY: verify build test lint fmt bench bench-smoke chaos obs profile marts repl stress distjoin gfbench-check

verify: build test chaos obs profile marts repl stress distjoin gfbench-check lint fmt bench-smoke

build:
	cargo build --release

# Every test of every workspace crate (a bare `cargo test` runs only the
# root `gridfed` package).
test:
	cargo test -q --workspace

lint:
	cargo clippy --workspace --all-targets -- -D warnings

fmt:
	cargo fmt --check

bench:
	cargo bench -p gridfed-bench

# Run each bench body exactly once (criterion `--test` mode): catches
# benches that panic or no longer compile without paying measurement time.
bench-smoke:
	cargo bench -p gridfed-bench -- --test

# Deterministic fault-injection suite: the resilience integration tests
# and the 256-seed chaos property (fixed seeds — reproduces bit-for-bit).
chaos:
	cargo test -q --test failure_paths --test prop_chaos

# Observability suite: stitched-trace acceptance, the gridfed_monitor.*
# relational surface, and the EXPLAIN / EXPLAIN ANALYZE golden files
# (regenerate the goldens with UPDATE_GOLDEN=1).
obs:
	cargo test -q --test observability --test golden_explain

# Statement-profiling suite: fingerprint normalization/aggregation and the
# metrics-history/SLO unit tests in the obs crate, plus one untimed pass
# of the obs-overhead bench bodies (off / on / profiled query paths).
profile:
	cargo test -q -p gridfed-obs
	cargo bench -p gridfed-bench --bench obs_overhead -- --test

# Mart-refresh suite: incremental/versioned refresh through the full
# stack (delta ETL, atomic swap, RLS freshness, placement, cache
# invalidation) plus the snapshot-isolation concurrency hammering.
marts:
	cargo test -q --test mart_refresh --test concurrency

# WAL replication suite: the log-shipping integration tests (continuous
# replay, lag surfacing, bounded-staleness routing/failover) and the
# 128-seed replication chaos property (convergence after faults heal).
repl:
	cargo test -q --test replication --test prop_repl_chaos

# Distributed-join suite: the reduced-vs-full-scatter differential
# property (256 cases + 64 seeded-fault cases) and the scatter-cost
# bench (asserts >=5x bytes-moved reduction; numbers in
# BENCH_distjoin.json).
distjoin:
	cargo test -q --test distjoin_differential
	cargo run -q -p gridfed-bench --bin distjoin

# Concurrency stress: the multi-threaded hammer (worker pool + admission
# queue + refresh churn) at full speed under the release profile, where
# thin synchronization bugs actually race.
stress:
	cargo test -q --release --test concurrency

# End-to-end benchmark output checks: one second of each gfbench workload.
# Exits 1 on any failed check (Fig-6 row counts, distjoin equal to full
# scatter, analytic results equal to direct execution) at data sizes the
# unit suites do not reach. About 45 s plus the gfbench build.
gfbench-check:
	cargo run --release --offline --quiet --manifest-path gfbench/Cargo.toml -- --workload all --seed 1 --seconds 1 --trace 0
