//! The closed loop: one client thread sends the next operation only after
//! the previous reply arrived, checks every reply, and (in a traced run)
//! records spans around each layer call.

use crate::speed::Speed;
use crate::trace::Tracer;
use crate::workload::{Check, Op, Plan, Read, Workload, EVENTS_PER_WRITE};
use gridfed_core::grid::{Grid, GridQuery};
use gridfed_sqlkit::exec::{execute_plan_metered, DatabaseProvider, ProviderCatalog};
use gridfed_sqlkit::parser::parse_select;
use gridfed_sqlkit::{build_plan, execute_select, optimize, SelectStmt};
use gridfed_storage::Value;
use std::time::Instant;

/// A p99 needs at least this many reads behind it: an untraced
/// time-bounded loop keeps going past its deadline until it has them, and
/// the report fails a run whose quantiles rest on fewer.
pub const MIN_READS: usize = 1_000;
/// Replication pumps one write may take before it counts as failed.
const MAX_PUMPS: usize = 64;

/// Deterministic counters over the counting reads (the first pass of a
/// cycling plan, the whole sequence otherwise) and the writes. Two runs
/// with one seed must produce equal `Counts`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub reads: u64,
    pub cache_hits: u64,
    /// Reads that executed (not served from the result cache); the work
    /// counters below sum over these only.
    pub executed: u64,
    pub subqueries: u64,
    pub remote_forwards: u64,
    pub rls_lookups: u64,
    pub connections: u64,
    pub pooled: u64,
    pub rows_fetched: u64,
    pub bytes_fetched: u64,
    pub rows_returned: u64,
    pub reductions: u64,
    pub reduced_queries: u64,
    pub paid_queries: u64,
    pub retries: u64,
    pub batches: u64,
    pub rows_materialized: u64,
    /// Σ client-perceived virtual response time (µs) over counting reads.
    pub virtual_us: u64,
    /// Σ virtual breakdown (µs): plan, rls, connect, execute, integrate,
    /// serialize — over executed reads.
    pub breakdown_us: [u64; 6],
    pub writes: u64,
    pub repl_records: u64,
    pub repl_views: u64,
}

impl Counts {
    fn add_read(&mut self, q: &GridQuery) {
        let s = &q.stats;
        self.reads += 1;
        self.virtual_us += q.response_time.as_micros();
        if s.cache_hit {
            self.cache_hits += 1;
            return;
        }
        self.executed += 1;
        self.subqueries += s.subqueries as u64;
        self.remote_forwards += s.remote_forwards as u64;
        self.rls_lookups += s.rls_lookups as u64;
        self.connections += s.connections_opened as u64;
        self.pooled += s.pooled_hits as u64;
        self.rows_fetched += s.rows_fetched as u64;
        self.bytes_fetched += s.bytes_fetched as u64;
        self.rows_returned += s.rows_returned as u64;
        self.reductions += s.reductions_shipped as u64;
        self.reduced_queries += u64::from(s.reductions_shipped > 0);
        self.paid_queries += u64::from(s.reductions_shipped > 0 && s.bytes_saved > 0);
        self.retries += s.retries as u64;
        self.batches += s.batches;
        self.rows_materialized += s.rows_materialized;
        let b = &s.breakdown;
        for (sum, c) in self.breakdown_us.iter_mut().zip([
            b.plan,
            b.rls,
            b.connect,
            b.execute,
            b.integrate,
            b.serialize,
        ]) {
            *sum += c.as_micros();
        }
    }

    /// FNV-1a over the counters: one line to compare across processes.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in format!("{self:?}").bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// Calls the traced run makes beside the measured query, on a second grid
/// built the same way (result cache off), so that they cannot change what
/// the measured grid sees.
pub struct Probe<'a> {
    grid: &'a Grid,
    /// Table names each read references (for the RLS lookup).
    tables: Vec<Vec<String>>,
    /// For single-database reads: the mart holding every table, and the
    /// parsed statement to execute directly on it.
    direct: Vec<Option<(usize, SelectStmt)>>,
}

impl<'a> Probe<'a> {
    pub fn new(grid: &'a Grid, reads: &[Read]) -> Probe<'a> {
        let mut tables = Vec::new();
        let mut direct = Vec::new();
        for read in reads {
            let stmt = parse_select(&read.sql).expect("generated SQL parses");
            let names: Vec<String> = stmt
                .table_refs()
                .iter()
                .map(|t| t.name.to_ascii_lowercase())
                .collect();
            direct.push(mart_holding(grid, &names).map(|m| (m, stmt)));
            tables.push(names);
        }
        Probe {
            grid,
            tables,
            direct,
        }
    }
}

/// The mart whose database holds every one of `tables`, if one does.
pub fn mart_holding(grid: &Grid, tables: &[String]) -> Option<usize> {
    grid.marts
        .iter()
        .position(|m| m.with_db(|db| tables.iter().all(|t| db.table(t).is_ok())))
}

/// Span-side results of a traced run that are not part of [`Counts`].
#[derive(Debug, Default)]
pub struct TraceExtras {
    /// Per read with a direct execution: core.query (probe) minus
    /// sqlkit.exec, in µs.
    pub overhead_us: Vec<f64>,
    /// Per read: query_rpc minus core.query on the probe grid, in µs.
    pub rpc_us: Vec<f64>,
    /// Executor batches and rows materialized over counting reads: direct
    /// executions of single-database reads plus the mediator's residual
    /// work reported in `QueryStats`.
    pub exec_batches: u64,
    pub exec_rows_materialized: u64,
}

/// One timed read.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index of the read's shape in [`Workload::shapes`].
    pub shape: usize,
    /// When the read was sent, seconds on the run's [`Speed`] clock.
    pub at: f64,
    /// Wall time of the call, µs.
    pub us: f64,
}

/// What one run of a plan produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every timed read that succeeded.
    pub reads: Vec<Sample>,
    /// Every write cycle that succeeded: when it began (seconds on the
    /// run's [`Speed`] clock) and its wall time (ms).
    pub writes: Vec<(f64, f64)>,
    /// Every operation of the timed loop: when it was sent and the seconds
    /// until its reply was checked. Throughput is operations over their sum.
    pub busy: Vec<(f64, f64)>,
    /// Operations the timed loop completed: reads, plus writes on ingest.
    pub ops: usize,
    pub loop_s: f64,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub counts: Counts,
    pub extras: TraceExtras,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Record one checked operation.
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }
}

/// Optional span recording for one request.
struct Rec<'t> {
    tracer: Option<&'t mut Tracer>,
    root: usize,
}

impl Rec<'_> {
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer.as_deref_mut() {
            Some(t) => t.child(self.root, name, f).0,
            None => f(),
        }
    }
}

/// Verify one reply against its read's check.
fn verify(read: &Read, q: &GridQuery, events: usize) -> Result<(), String> {
    let fail = |why: String| Err(format!("{} `{}`: {why}", read.shape.name(), read.sql));
    if q.stats.is_degraded() {
        return fail("degraded result".into());
    }
    let rows = q.result.len();
    let scalar = || {
        q.result
            .rows
            .first()
            .and_then(|r| r.values().first())
            .cloned()
    };
    match &read.check {
        Check::Rows(n) | Check::Expected(Some(n)) if rows != *n => {
            fail(format!("{rows} rows, expected {n}"))
        }
        Check::Expected(None) => fail("no expected row count".into()),
        Check::Table1 {
            servers,
            distributed,
            tables,
            rows: n,
        } => {
            let s = &q.stats;
            if (s.servers, s.distributed, s.tables, rows) != (*servers, *distributed, *tables, *n) {
                fail(format!(
                    "servers/distributed/tables/rows = {}/{}/{}/{rows}, paper row is {servers}/{distributed}/{tables} with {n} rows",
                    s.servers, s.distributed, s.tables
                ))
            } else {
                Ok(())
            }
        }
        Check::EventCount if scalar() != Some(Value::Int(events as i64)) => {
            fail(format!("{:?}, expected {events}", scalar()))
        }
        Check::MaxEventId if scalar() != Some(Value::Int(events as i64 - 1)) => {
            fail(format!("{:?}, expected {}", scalar(), events - 1))
        }
        Check::Answer if q.result.columns.is_empty() => fail("no columns".into()),
        _ => Ok(()),
    }
}

/// One write cycle: insert events at the first source, incremental ETL,
/// then every mart brought up to date (replication pumped until caught up,
/// or a mart refresh on a grid without replication). Returns the WAL
/// records shipped and the views they refreshed.
fn write_cycle(grid: &Grid, rec: &mut Rec) -> Result<(u64, u64), String> {
    rec.call("storage.insert", || grid.extend_sources(EVENTS_PER_WRITE))
        .map_err(|e| format!("extend_sources: {e}"))?;
    rec.call("warehouse.etl", || grid.run_incremental_etl())
        .map_err(|e| format!("run_incremental_etl: {e}"))?;
    if !grid.replication_enabled() {
        rec.call("warehouse.refresh", || grid.refresh_marts())
            .map_err(|e| format!("refresh_marts: {e}"))?;
        return Ok((0, 0));
    }
    rec.call("warehouse.repl", || {
        let (mut records, mut views) = (0, 0);
        for _ in 0..MAX_PUMPS {
            if grid.replication_caught_up() {
                return Ok((records, views));
            }
            for report in grid.pump_replication() {
                records += report.records as u64;
                views += report.refreshed.len() as u64;
            }
        }
        Err(format!("replication not caught up after {MAX_PUMPS} pumps"))
    })
}

/// A write cycle with its wall time (ms).
fn timed_write(grid: &Grid, rec: &mut Rec) -> (Result<(u64, u64), String>, f64) {
    let t0 = Instant::now();
    let res = write_cycle(grid, rec);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(t) = rec.tracer.as_deref_mut() {
        t.end(rec.root);
    }
    (res, ms)
}

/// Run one read, traced or not.
fn read_once(
    grid: &Grid,
    read: &Read,
    idx: usize,
    rec: &mut Rec,
    probe: Option<&Probe>,
    extras: &mut TraceExtras,
    counting: bool,
) -> (f64, Result<GridQuery, String>, Option<usize>) {
    let Some(probe) = probe else {
        let t = Instant::now();
        let res = grid.query(&read.sql);
        return (
            t.elapsed().as_secs_f64() * 1e6,
            res.map_err(|e| e.to_string()),
            None,
        );
    };
    let tracer = rec.tracer.as_deref_mut().expect("a probe implies a tracer");
    let root = rec.root;
    let sql = read.sql.as_str();
    let mut errors = Vec::new();
    let mut note = |r: Result<(), String>| {
        if let Err(e) = r {
            errors.push(e);
        }
    };
    note(
        tracer
            .child(root, "sqlkit.parse", || gridfed_sqlkit::parse(sql))
            .0
            .map(drop)
            .map_err(|e| e.to_string()),
    );
    note(
        tracer
            .child(root, "core.explain", || probe.grid.service(0).explain(sql))
            .0
            .map(drop)
            .map_err(|e| format!("explain: {e}")),
    );
    tracer.child(root, "rls.lookup_many", || {
        probe.grid.rls.lookup_many(&probe.tables[idx])
    });
    let (res, span) = tracer.child(root, "core.query", || grid.query(sql));
    let us = tracer.spans[span].dur_ns() as f64 / 1e3;
    // The probe calls run in an order that rotates per request, so none of
    // them always finds the caches warmed by another.
    let mut probe_us = 0.0;
    let mut rpc_us = 0.0;
    let mut exec_us = None;
    let mut order = [0, 1, 2];
    order.rotate_left(tracer.spans[root].request as usize % 3);
    for call in order {
        match call {
            0 => {
                let (q, span) = tracer.child(root, "core.query.probe", || probe.grid.query(sql));
                probe_us = tracer.spans[span].dur_ns() as f64 / 1e3;
                match q {
                    Ok(q) if counting => {
                        extras.exec_batches += q.stats.batches;
                        extras.exec_rows_materialized += q.stats.rows_materialized;
                    }
                    Ok(_) => {}
                    Err(e) => note(Err(format!("probe query: {e}"))),
                }
            }
            1 => {
                let (rpc, span) =
                    tracer.child(root, "clarens.query_rpc", || probe.grid.query_rpc(sql));
                rpc_us = tracer.spans[span].dur_ns() as f64 / 1e3;
                note(rpc.map(drop).map_err(|e| format!("query_rpc: {e}")));
            }
            _ => {
                let Some((mart, stmt)) = &probe.direct[idx] else {
                    continue;
                };
                let (exec, span) = tracer.child(root, "sqlkit.exec", || {
                    probe.grid.marts[*mart].with_db(|db| {
                        let provider = DatabaseProvider(db);
                        let plan = optimize(build_plan(stmt), &ProviderCatalog(&provider));
                        execute_plan_metered(&plan, &provider)
                    })
                });
                exec_us = Some(tracer.spans[span].dur_ns() as f64 / 1e3);
                match exec {
                    Ok((_, m)) if counting => {
                        extras.exec_batches += m.batches;
                        extras.exec_rows_materialized += m.rows_materialized;
                    }
                    Ok(_) => {}
                    Err(e) => note(Err(format!("direct exec: {e}"))),
                }
            }
        }
    }
    extras.rpc_us.push(rpc_us - probe_us);
    if let Some(exec_us) = exec_us {
        extras.overhead_us.push(probe_us - exec_us);
    }
    let res = match (res, errors.is_empty()) {
        (Ok(q), true) => Ok(q),
        (Ok(_), false) => Err(errors.join("; ")),
        (Err(e), _) => Err(e.to_string()),
    };
    (us, res, Some(span))
}

/// Run `plan` on `grid`: warm-up, then the closed loop through at least
/// one pass and, for cycling plans, on until `deadline_s` has passed. The
/// untraced loop also runs on until it has sent [`MIN_READS`] reads.
/// Between operations, `speed` times its kernel when one is due.
pub fn drive(
    workload: Workload,
    grid: &Grid,
    plan: &Plan,
    deadline_s: f64,
    mut tracer: Option<&mut Tracer>,
    probe: Option<&Probe>,
    speed: &mut Speed,
) -> Outcome {
    let min_reads = if tracer.is_some() { 0 } else { MIN_READS };
    let mut out = Outcome::default();
    let shapes = workload.shapes();
    let shape_idx = |read: &Read| {
        shapes
            .iter()
            .position(|s| *s == read.shape)
            .expect("read shape belongs to its workload")
    };
    for op in plan.sequence.iter().take(plan.warmup) {
        if let Op::Read(r) = op {
            let read = &plan.reads[*r];
            let res = grid.query(&read.sql).map_err(|e| e.to_string());
            out.check(res.and_then(|q| verify(read, &q, workload.seeded_events())));
        }
    }
    let mut events = workload.seeded_events();
    let pass = plan.sequence.len();
    // Reads sent by the timed loop, failed ones included.
    let mut timed_reads = 0;
    let start = Instant::now();
    let mut i = 0;
    loop {
        if i >= pass
            && (!plan.cycles
                || (start.elapsed().as_secs_f64() >= deadline_s && timed_reads >= min_reads))
        {
            break;
        }
        speed.calibrate_if_due();
        let at = speed.now();
        let counting = i < pass;
        let mut rec = Rec {
            root: 0,
            tracer: tracer.as_deref_mut(),
        };
        match &plan.sequence[i % pass] {
            Op::Read(r) => {
                let read = &plan.reads[*r];
                if let Some(t) = rec.tracer.as_deref_mut() {
                    rec.root = t.begin(i as u64, read.shape.name());
                }
                let (us, res, span) =
                    read_once(grid, read, *r, &mut rec, probe, &mut out.extras, counting);
                if let Some(t) = rec.tracer.as_deref_mut() {
                    t.end(rec.root);
                    if let (Some(span), Ok(q)) = (span, &res) {
                        t.spans[span].tag = match (q.stats.cache_hit, workload.cache_on()) {
                            (true, _) => "hit",
                            (false, true) => "miss",
                            (false, false) => "uncached",
                        };
                    }
                }
                let res = res.and_then(|q| verify(read, &q, events).map(|()| q));
                if let Ok(q) = &res {
                    out.reads.push(Sample {
                        shape: shape_idx(read),
                        at,
                        us,
                    });
                    if counting {
                        out.counts.add_read(q);
                    }
                }
                out.check(res.map(drop));
                timed_reads += 1;
            }
            Op::Write => {
                if let Some(t) = rec.tracer.as_deref_mut() {
                    rec.root = t.begin(i as u64, "write");
                }
                let (res, ms) = timed_write(grid, &mut rec);
                // The probe grid takes the same write, untimed and outside
                // the spans, so its calls see the data the measured grid has.
                let res = match probe {
                    Some(p) => res.and_then(|r| {
                        let mut untraced = Rec {
                            root: 0,
                            tracer: None,
                        };
                        write_cycle(p.grid, &mut untraced)
                            .map(|_| r)
                            .map_err(|e| format!("probe grid: {e}"))
                    }),
                    None => res,
                };
                if let Ok((records, views)) = &res {
                    events += EVENTS_PER_WRITE;
                    out.writes.push((at, ms));
                    out.counts.writes += 1;
                    out.counts.repl_records += records;
                    out.counts.repl_views += views;
                }
                out.check(res.map(drop));
            }
        }
        out.busy.push((at, speed.now() - at));
        i += 1;
    }
    out.ops = i;
    out.loop_s = start.elapsed().as_secs_f64();
    out
}

/// Write cycles after the timed reads of a read-only workload, so that
/// every workload reports write latency. They stay out of [`Counts`]: the
/// workload's own operations are the reads.
pub fn probe_writes(
    grid: &Grid,
    writes: usize,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
    speed: &mut Speed,
) {
    for w in 0..writes {
        speed.calibrate_if_due();
        let at = speed.now();
        let mut rec = Rec {
            root: 0,
            tracer: tracer.as_deref_mut(),
        };
        if let Some(t) = rec.tracer.as_deref_mut() {
            rec.root = t.begin((1 << 32) + w as u64, "write");
        }
        let (res, ms) = timed_write(grid, &mut rec);
        if res.is_ok() {
            out.writes.push((at, ms));
        }
        out.check(res.map(drop));
    }
}

/// After all writes: every replica caught up (on a replicated grid) and
/// `COUNT(*)` over `ntuple_events` equal to the seeded plus inserted events.
pub fn final_checks(workload: Workload, grid: &Grid, out: &mut Outcome) {
    if grid.replication_enabled() {
        out.check(if grid.replication_caught_up() {
            Ok(())
        } else {
            Err("replication not caught up at the end".into())
        });
    }
    let expected = workload.seeded_events() + EVENTS_PER_WRITE * out.writes.len();
    let res = grid
        .query("SELECT COUNT(*) FROM ntuple_events")
        .map_err(|e| e.to_string())
        .and_then(
            |q| match q.result.rows.first().and_then(|r| r.values().first()) {
                Some(Value::Int(n)) if *n as usize == expected => Ok(()),
                other => Err(format!("COUNT(*) = {other:?}, expected {expected}")),
            },
        );
    out.check(res);
}

/// Checks made before timing; they fill in expected row counts.
///
/// - `federated_mix`: a sample of the distjoin statements (and Fig-6
///   joins, which also ship reductions), the first the sequence sends,
///   must equal full scatter on `control`, a grid built with
///   `set_distjoin(false)`.
/// - `analytic_scan`: every single-database statement must equal direct
///   `execute_select` on the mart's database; join3 must return one row per
///   event passing its filter, counted directly on the mart.
pub fn prechecks(
    workload: Workload,
    grid: &Grid,
    plan: &mut Plan,
    control: Option<&Grid>,
    out: &mut Outcome,
) {
    match workload {
        Workload::FederatedMix => {
            let control = control.expect("federated_mix has a control grid");
            let mut per_shape = std::collections::BTreeMap::new();
            for read in plan.sent().map(|r| &plan.reads[r]) {
                let taken = per_shape.entry(read.shape.name()).or_insert(0);
                if !read.sql.contains("JOIN") || *taken >= 8 {
                    continue;
                }
                *taken += 1;
                let res = grid
                    .query(&read.sql)
                    .and_then(|a| control.query(&read.sql).map(|b| (a, b)))
                    .map_err(|e| e.to_string())
                    .and_then(|(a, b)| {
                        if sorted_rows(&a) == sorted_rows(&b) {
                            Ok(())
                        } else {
                            Err(format!("reduced != full scatter for `{}`", read.sql))
                        }
                    });
                out.check(res);
            }
        }
        Workload::AnalyticScan => {
            for read in &mut plan.reads {
                let res = analytic_expected(grid, read);
                if let Ok(n) = &res {
                    read.check = Check::Expected(Some(*n));
                }
                out.check(res.map(drop));
            }
        }
        Workload::IngestDashboard => {}
    }
}

fn sorted_rows(q: &GridQuery) -> Vec<String> {
    let mut rows: Vec<String> = q
        .result
        .rows
        .iter()
        .map(|r| format!("{:?}", r.values()))
        .collect();
    rows.sort();
    rows
}

/// Expected row count of one analytic read, checked against direct
/// execution on the mart.
fn analytic_expected(grid: &Grid, read: &Read) -> Result<usize, String> {
    let stmt = parse_select(&read.sql).map_err(|e| e.to_string())?;
    let names: Vec<String> = stmt
        .table_refs()
        .iter()
        .map(|t| t.name.to_ascii_lowercase())
        .collect();
    let direct = |stmt: &SelectStmt, tables: &[String]| {
        let mart = mart_holding(grid, tables).ok_or("no mart holds the tables")?;
        grid.marts[mart]
            .with_db(|db| execute_select(stmt, &DatabaseProvider(db)))
            .map_err(|e| e.to_string())
    };
    let got = grid.query(&read.sql).map_err(|e| e.to_string())?;
    if mart_holding(grid, &names).is_some() {
        let want = direct(&stmt, &names)?;
        if got.result != want {
            return Err(format!("query != direct execute_select for `{}`", read.sql));
        }
        return Ok(want.len());
    }
    // join3: every event has one run_summary and one detector_summary row.
    let filter = read
        .sql
        .rsplit("WHERE")
        .next()
        .unwrap_or_default()
        .replace("e.", "");
    let count_sql = format!("SELECT COUNT(*) FROM ntuple_events WHERE {filter}");
    let count = parse_select(&count_sql).map_err(|e| e.to_string())?;
    let want = direct(&count, &["ntuple_events".to_string()])?;
    match want.rows.first().and_then(|r| r.values().first()) {
        Some(Value::Int(n)) if *n as usize == got.result.len() => Ok(got.result.len()),
        other => Err(format!(
            "join3 returned {} rows, direct count {other:?}",
            got.result.len()
        )),
    }
}
