//! gfbench — the gridfed end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path gfbench/Cargo.toml -- \
//!     --workload <federated_mix|analytic_scan|ingest_dashboard|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--selfcheck]
//! ```
//!
//! One client thread drives the grid in a closed loop through its public
//! entry points. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! repeats the workload untraced, then again on a fresh grid with spans
//! recorded around every layer call, and reports the per-layer metrics.
//! Every line before the last is a human-readable report; the last line is
//! one JSON object. The process exits non-zero when any output check
//! fails. See `gfbench/README.md` for the metric definitions.

mod drive;
mod speed;
mod trace;
mod workload;

use drive::{Counts, Outcome, Probe, MIN_READS};
use speed::{Speed, REFERENCE_KERNEL_US};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Workload, ALL_SHAPES};

/// Grids built per run to take the median build time.
const SETUP_BUILDS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? == 1,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// One named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    fn absorb(&mut self, out: &Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.failures.extend(out.failures.iter().cloned());
    }

    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    fn print(&self, workload: &str, trace: bool) {
        println!("gfbench workload={workload} trace={}", u8::from(trace));
        for note in &self.notes {
            println!("  {note}");
        }
        for m in &self.metrics {
            println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!(
            "  {:<44} {:>16.4} ratio  ({} failed of {} attempted)",
            "failed_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank quantile of unsorted samples; 0 when there are none.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run this thread, and every thread it spawns afterwards, on the one CPU
/// it is on now; returns that CPU. On a shared machine the hypervisor
/// schedules each virtual CPU on its own, so a reply that waits for a
/// branch thread woken on another CPU waits on that CPU's neighbours too.
/// On one CPU, thread hand-offs stay local and the figures repeat.
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: both calls take plain values; the mask outlives the call and
    // its size is passed with it.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array and its byte length is passed with it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Build the measured grid, run the pre-timing checks on it, and return
/// it with the plan whose expected row counts those checks filled in.
fn prepare(
    wl: Workload,
    seed: u64,
    seconds: u64,
    out: &mut Outcome,
) -> (gridfed_core::Grid, workload::Plan) {
    let grid = wl.build();
    let mut plan = workload::plan(wl, seed, seconds);
    let control = (wl == Workload::FederatedMix).then(|| {
        let g = wl.build();
        for das in &g.services {
            das.set_distjoin(false);
        }
        g
    });
    drive::prechecks(wl, &grid, &mut plan, control.as_ref(), out);
    (grid, plan)
}

/// Prepare a grid and run the workload's operations on it untraced.
fn run_untraced(
    wl: Workload,
    seed: u64,
    seconds: u64,
    budget_s: f64,
    speed: &mut Speed,
) -> (Outcome, gridfed_core::Grid) {
    let mut checks = Outcome::default();
    let (grid, plan) = prepare(wl, seed, seconds, &mut checks);
    let mut out = drive::drive(wl, &grid, &plan, budget_s, None, None, speed);
    out.attempted += checks.attempted;
    out.failed += checks.failed;
    out.failures.extend(checks.failures);
    (out, grid)
}

/// Read latencies of a run, µs: wall time, and scaled by the machine
/// speed around each read.
fn read_times(out: &Outcome, speed: &Speed) -> (Vec<f64>, Vec<f64>) {
    let wall = out.reads.iter().map(|r| r.us).collect();
    let scaled = out
        .reads
        .iter()
        .map(|r| r.us * speed.factor(r.at))
        .collect();
    (wall, scaled)
}

/// Closed-loop throughput of a run, operations per second: over wall
/// time, and over time scaled by the machine speed.
fn throughput(out: &Outcome, speed: &Speed) -> (f64, f64) {
    let wall: f64 = out.busy.iter().map(|b| b.1).sum();
    let scaled: f64 = out.busy.iter().map(|b| b.1 * speed.factor(b.0)).sum();
    (out.ops as f64 / wall, out.ops as f64 / scaled)
}

fn end_to_end(wl: Workload, args: &Args) -> Report {
    let mut report = Report::default();
    let mut speed = Speed::new();
    let mut builds = Vec::new();
    for _ in 0..SETUP_BUILDS {
        speed.calibrate();
        let at = speed.now();
        let t = Instant::now();
        let grid = wl.builder().build();
        builds.push((at, t.elapsed().as_secs_f64()));
        if let Err(e) = grid {
            report.fail(format!("GridBuilder::build: {e}"));
        }
    }
    speed.calibrate();
    let (mut out, grid) =
        run_untraced(wl, args.seed, args.seconds, args.seconds as f64, &mut speed);
    drive::probe_writes(&grid, wl.probe_writes(), None, &mut out, &mut speed);
    speed.calibrate();
    drive::final_checks(wl, &grid, &mut out);
    report.absorb(&out);

    let c = &out.counts;
    if out.reads.len() < MIN_READS {
        report.fail(format!(
            "the read quantiles rest on {} reads, fewer than {MIN_READS}",
            out.reads.len()
        ));
    }
    report.notes.push(format!(
        "closed loop, 1 client: {} ops in {:.3} s, {} timed reads behind the quantiles; {} writes; counts digest {}",
        out.ops,
        out.loop_s,
        out.reads.len(),
        out.writes.len(),
        c.digest()
    ));
    if wl == Workload::FederatedMix {
        let plan = workload::plan(wl, args.seed, args.seconds);
        let mut sent: Vec<usize> = plan.sent().collect();
        sent.sort_unstable();
        sent.dedup();
        report.notes.push(format!(
            "{} distinct statements sent, of a universe of {}",
            sent.len(),
            plan.reads.len()
        ));
    }
    let (wall_us, scaled_us) = read_times(&out, &speed);
    let (wall_qps, scaled_qps) = throughput(&out, &speed);
    let wall_writes: Vec<f64> = out.writes.iter().map(|w| w.1).collect();
    let scaled_writes: Vec<f64> = out.writes.iter().map(|w| w.1 * speed.factor(w.0)).collect();
    let wall_builds: Vec<f64> = builds.iter().map(|b| b.1).collect();
    let scaled_builds: Vec<f64> = builds.iter().map(|b| b.1 * speed.factor(b.0)).collect();
    report.notes.push(format!(
        "machine speed: calibration kernel median {:.0} us over the run (reference {REFERENCE_KERNEL_US:.0} us); the times below are scaled to the reference",
        speed.median_kernel_us()
    ));
    report.notes.push(format!(
        "unscaled wall: query p50 {:.1} us, p99 {:.1} us, {:.2} ops/s, write p50 {:.2} ms, p90 {:.2} ms, setup {:.4} s",
        quantile(&wall_us, 0.5),
        quantile(&wall_us, 0.99),
        wall_qps,
        quantile(&wall_writes, 0.5),
        quantile(&wall_writes, 0.9),
        quantile(&wall_builds, 0.5)
    ));
    report.put("query_p50_us", quantile(&scaled_us, 0.5), "us");
    report.put("query_p99_us", quantile(&scaled_us, 0.99), "us");
    report.put("throughput_qps", scaled_qps, "1/s");
    report.put("virtual_mean_ms", ratio(c.virtual_us, c.reads) / 1e3, "ms");
    report.put("write_p50_ms", quantile(&scaled_writes, 0.5), "ms");
    report.put("write_p90_ms", quantile(&scaled_writes, 0.9), "ms");
    report.put("setup_s", quantile(&scaled_builds, 0.5), "s");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    report
}

fn per_layer(wl: Workload, args: &Args) -> Report {
    let mut report = Report::default();
    let half = args.seconds as f64 / 2.0;

    // Untraced reference: the same operations, no spans, no extra calls.
    let mut plain_speed = Speed::new();
    let (plain, _) = run_untraced(wl, args.seed, args.seconds, half, &mut plain_speed);
    report.absorb(&plain);

    // Traced: a fresh grid sees the identical call sequence; the extra
    // layer calls go to a probe grid built the same way with the cache off.
    let mut checks = Outcome::default();
    let (grid, plan) = prepare(wl, args.seed, args.seconds, &mut checks);
    report.absorb(&checks);
    let probe_grid = wl.builder().build().expect("probe grid builds");
    let probe = Probe::new(&probe_grid, &plan.reads);
    let mut tracer = Tracer::new();
    let mut speed = Speed::new();
    let mut out = drive::drive(
        wl,
        &grid,
        &plan,
        half,
        Some(&mut tracer),
        Some(&probe),
        &mut speed,
    );
    drive::probe_writes(
        &grid,
        wl.probe_writes(),
        Some(&mut tracer),
        &mut out,
        &mut speed,
    );
    drive::final_checks(wl, &grid, &mut out);
    report.absorb(&out);
    if plain.counts != out.counts {
        report.fail(format!(
            "determinism: traced counts {:?} differ from untraced {:?}",
            out.counts, plain.counts
        ));
    }

    // Per-layer self times from the spans.
    let mut by_name: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for (s, self_us) in tracer.spans.iter().zip(tracer.self_times_us()) {
        by_name.entry((s.name, s.tag)).or_default().push(self_us);
        by_name.entry((s.name, "*")).or_default().push(self_us);
    }
    let p50 = |name: &str, tag: &str| by_name.get(&(name, tag)).map_or(0.0, |v| quantile(v, 0.5));

    let c: &Counts = &out.counts;
    let e = &out.extras;
    let exec = c.executed;
    report.put("sqlkit.parse.p50_us", p50("sqlkit.parse", "*"), "us");
    report.put("core.plan.p50_us", p50("core.explain", "*"), "us");
    report.put("core.overhead.p50_us", quantile(&e.overhead_us, 0.5), "us");
    report.put("clarens.call.p50_us", quantile(&e.rpc_us, 0.5), "us");
    report.put("sqlkit.exec.p50_us", p50("sqlkit.exec", "*"), "us");
    report.put(
        "sqlkit.rows_materialized_per_query",
        ratio(e.exec_rows_materialized, c.reads),
        "count",
    );
    report.put(
        "sqlkit.batches_per_query",
        ratio(e.exec_batches, c.reads),
        "count",
    );
    report.put(
        "core.subqueries_per_query",
        ratio(c.subqueries, exec),
        "count",
    );
    report.put(
        "core.remote_forwards_per_query",
        ratio(c.remote_forwards, exec),
        "count",
    );
    report.put("rls.lookups_per_query", ratio(c.rls_lookups, exec), "count");
    report.put("rls.lookup.p50_us", p50("rls.lookup_many", "*"), "us");
    report.put(
        "vendors.connections_per_query",
        ratio(c.connections, exec),
        "count",
    );
    report.put(
        "poolral.pooled_hit_ratio",
        ratio(c.pooled, c.pooled + c.connections),
        "ratio",
    );
    report.put(
        "core.rows_fetched_per_query",
        ratio(c.rows_fetched, exec),
        "count",
    );
    report.put(
        "core.bytes_fetched_per_query",
        ratio(c.bytes_fetched, exec),
        "bytes",
    );
    report.put(
        "core.useful_row_ratio",
        ratio(c.rows_returned, c.rows_fetched),
        "ratio",
    );
    report.put(
        "core.reductions_per_query",
        ratio(c.reductions, exec),
        "count",
    );
    report.put(
        "core.reductions_paid_ratio",
        ratio(c.paid_queries, c.reduced_queries),
        "ratio",
    );
    report.put(
        "resilience.retries_per_query",
        ratio(c.retries, exec),
        "count",
    );
    for (i, part) in [
        "plan",
        "rls",
        "connect",
        "execute",
        "integrate",
        "serialize",
    ]
    .iter()
    .enumerate()
    {
        report.put(
            format!("core.virtual.{part}_ms"),
            ratio(c.breakdown_us[i], exec) / 1e3,
            "ms",
        );
    }
    report.put(
        "core.cache.hit_ratio",
        ratio(c.cache_hits, c.reads),
        "ratio",
    );
    report.put("core.cache.hit.p50_us", p50("core.query", "hit"), "us");
    report.put("core.cache.miss.p50_us", p50("core.query", "miss"), "us");
    report.put("storage.insert.p50_us", p50("storage.insert", "*"), "us");
    report.put(
        "warehouse.etl.p50_ms",
        p50("warehouse.etl", "*") / 1e3,
        "ms",
    );
    report.put(
        "warehouse.repl.p50_ms",
        p50("warehouse.repl", "*") / 1e3,
        "ms",
    );
    report.put(
        "warehouse.repl.records_per_write",
        ratio(c.repl_records, c.writes),
        "count",
    );
    report.put(
        "warehouse.repl.views_refreshed_per_write",
        ratio(c.repl_views, c.writes),
        "count",
    );
    report.put(
        "warehouse.refresh.p50_ms",
        p50("warehouse.refresh", "*") / 1e3,
        "ms",
    );
    let shapes = wl.shapes();
    for shape in ALL_SHAPES {
        let samples: Vec<f64> = match shapes.iter().position(|s| *s == shape) {
            Some(idx) => plain
                .reads
                .iter()
                .filter(|r| r.shape == idx)
                .map(|r| r.us * plain_speed.factor(r.at))
                .collect(),
            None => Vec::new(),
        };
        report.put(
            format!("shape.{}.p50_us", shape.name()),
            quantile(&samples, 0.5),
            "us",
        );
    }
    let (plain_us, _) = read_times(&plain, &plain_speed);
    let traced_us: Vec<f64> = out.reads.iter().map(|r| r.us).collect();
    report.put(
        "trace.overhead.query_p50_us",
        quantile(&traced_us, 0.5) - quantile(&plain_us, 0.5),
        "us",
    );
    report.put("trace.request.self.p50_us", p50("request", "*"), "us");
    report.put("wall.query_p50_us", quantile(&plain_us, 0.5), "us");
    report.put(
        "wall.throughput_qps",
        throughput(&plain, &plain_speed).0,
        "1/s",
    );
    report.put(
        "machine.kernel.p50_us",
        plain_speed.median_kernel_us(),
        "us",
    );

    let path =
        PathBuf::from("gfbench/out").join(format!("spans-{}-seed{}.jsonl", wl.name(), args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => report.fail(format!("writing spans to {}: {e}", path.display())),
    }
    report.notes.push(format!(
        "traced pass: {} reads, {} writes; counts digest {} (untraced {})",
        c.reads,
        c.writes,
        c.digest(),
        plain.counts.digest()
    ));
    report
}

/// Determinism self-check: two runs with one seed give identical counts;
/// the next seed sends different SQL and passes the same checks.
fn selfcheck(wl: Workload, args: &Args) -> Report {
    let mut report = Report::default();
    let mut speed = Speed::new();
    let (a, _) = run_untraced(wl, args.seed, args.seconds, 0.0, &mut speed);
    let (b, _) = run_untraced(wl, args.seed, args.seconds, 0.0, &mut speed);
    let (other, _) = run_untraced(wl, args.seed + 1, args.seconds, 0.0, &mut speed);
    for out in [&a, &b, &other] {
        report.absorb(out);
    }
    if a.counts != b.counts {
        report.fail(format!("seed {}: counts differ between runs", args.seed));
    }
    let sql = |seed| {
        let p = workload::plan(wl, seed, args.seconds);
        p.sent().map(|r| p.reads[r].sql.clone()).collect::<Vec<_>>()
    };
    if sql(args.seed) == sql(args.seed + 1) {
        report.fail("seeds n and n+1 generated the same SQL".into());
    }
    report.notes.push(format!(
        "seed {}: digests {} / {}; seed {}: digest {}",
        args.seed,
        a.counts.digest(),
        b.counts.digest(),
        args.seed + 1,
        other.counts.digest()
    ));
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = if args.workload == "all" {
        vec![
            Workload::FederatedMix,
            Workload::AnalyticScan,
            Workload::IngestDashboard,
        ]
    } else {
        match Workload::parse(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("gfbench: unknown workload `{}`", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    match pin_to_current_cpu() {
        Some(cpu) => println!("gfbench: process pinned to CPU {cpu}"),
        None => println!("gfbench: could not pin the process to one CPU"),
    }
    // With several workloads the JSON line sums the checks of all of them
    // and carries no metrics: each workload's figures are in its report.
    let single = workloads.len() == 1;
    let mut last = Report::default();
    let mut all_ok = true;
    for wl in workloads {
        let report = if args.selfcheck {
            selfcheck(wl, &args)
        } else if args.trace {
            per_layer(wl, &args)
        } else {
            end_to_end(wl, &args)
        };
        report.print(wl.name(), args.trace);
        all_ok &= report.failed == 0;
        last.attempted += report.attempted;
        last.failed += report.failed;
        if single {
            last.metrics = report.metrics;
        }
    }
    println!("{}", last.json());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
