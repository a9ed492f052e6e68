//! The three workloads: grid configuration, seeded statement generation and
//! the expected-output check attached to each read.
//!
//! Data sets are fixed (the paper grid's seed-2005 events, the analytic
//! grid's seed-31 events); the benchmark seed only chooses the SQL the
//! program is sent, so a seed never changes what a correct answer is.

use gridfed_core::grid::{Grid, GridBuilder, ReplicationConfig};
use gridfed_vendors::VendorKind;

/// Events each ingest write appends to the first source.
pub const EVENTS_PER_WRITE: usize = 20;
/// Ingest operations per second of `--seconds`: the operation count is
/// fixed by the command line, never by how fast the machine runs.
pub const INGEST_OPS_PER_SECOND: usize = 1000;
/// Fewest ingest operations a run makes, whatever `--seconds` says: enough
/// reads that a p99 rests on well over the 1,000 reads it needs.
pub const INGEST_MIN_OPS: usize = 4000;
/// One ingest operation in this many is a write (a 1% write share).
pub const INGEST_WRITE_EVERY: usize = 100;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FederatedMix,
    AnalyticScan,
    IngestDashboard,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "federated_mix" => Some(Workload::FederatedMix),
            "analytic_scan" => Some(Workload::AnalyticScan),
            "ingest_dashboard" => Some(Workload::IngestDashboard),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FederatedMix => "federated_mix",
            Workload::AnalyticScan => "analytic_scan",
            Workload::IngestDashboard => "ingest_dashboard",
        }
    }

    /// The builder for this workload's grid (data is seed-independent).
    pub fn builder(self) -> GridBuilder {
        match self {
            Workload::FederatedMix => paper_builder(),
            Workload::AnalyticScan => GridBuilder::new()
                .with_seed(31)
                .single_server()
                .source("tier1.cern", VendorKind::Oracle, 10_000)
                .source("tier2.caltech", VendorKind::MySql, 10_000),
            Workload::IngestDashboard => {
                paper_builder().with_replication(ReplicationConfig::default())
            }
        }
    }

    /// Events in the grid right after `build`.
    pub fn seeded_events(self) -> usize {
        match self {
            Workload::AnalyticScan => 20_000,
            _ => 2_600,
        }
    }

    /// Write cycles a read-only workload runs after its timed reads, so
    /// every workload reports the write metrics: enough that a p90 rests
    /// on several writes, fewer where one cycle refreshes a 20,000-event
    /// warehouse.
    pub fn probe_writes(self) -> usize {
        match self {
            Workload::FederatedMix => 60,
            Workload::AnalyticScan => 30,
            Workload::IngestDashboard => 0,
        }
    }

    /// Whether the mediators' result cache is on while this workload runs.
    pub fn cache_on(self) -> bool {
        self == Workload::IngestDashboard
    }

    /// Build the measured grid and apply the workload's mediator settings.
    pub fn build(self) -> Grid {
        let grid = self.builder().build().expect("workload grid builds");
        for das in &grid.services {
            das.set_cache_enabled(self.cache_on());
        }
        grid
    }

    /// Request shapes this workload sends, in report order.
    pub fn shapes(self) -> &'static [Shape] {
        match self {
            Workload::FederatedMix => &[
                Shape::T1Local,
                Shape::T1Dist2,
                Shape::T1Dist3,
                Shape::Fig6Join,
                Shape::DistjoinSel2,
                Shape::DistjoinSel4,
            ],
            Workload::AnalyticScan => {
                &[Shape::FilterScan, Shape::Join3, Shape::GroupBy, Shape::TopK]
            }
            Workload::IngestDashboard => &[Shape::DashSingle, Shape::DashJoin],
        }
    }
}

/// The paper grid: two mediators, four vendor marts, 2×1,300 events.
fn paper_builder() -> GridBuilder {
    GridBuilder::new()
        .with_seed(2005)
        .source("tier1.cern", VendorKind::Oracle, 1300)
        .source("tier2.caltech", VendorKind::MySql, 1300)
}

/// A request shape; `shape.<name>.p50_us` is reported for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    T1Local,
    T1Dist2,
    T1Dist3,
    Fig6Join,
    DistjoinSel2,
    DistjoinSel4,
    FilterScan,
    Join3,
    GroupBy,
    TopK,
    DashSingle,
    DashJoin,
}

/// Every shape of every workload, in report order.
pub const ALL_SHAPES: [Shape; 12] = [
    Shape::T1Local,
    Shape::T1Dist2,
    Shape::T1Dist3,
    Shape::Fig6Join,
    Shape::DistjoinSel2,
    Shape::DistjoinSel4,
    Shape::FilterScan,
    Shape::Join3,
    Shape::GroupBy,
    Shape::TopK,
    Shape::DashSingle,
    Shape::DashJoin,
];

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::T1Local => "t1_local",
            Shape::T1Dist2 => "t1_dist2",
            Shape::T1Dist3 => "t1_dist3",
            Shape::Fig6Join => "fig6_join",
            Shape::DistjoinSel2 => "distjoin_sel2",
            Shape::DistjoinSel4 => "distjoin_sel4",
            Shape::FilterScan => "filter_scan",
            Shape::Join3 => "join3",
            Shape::GroupBy => "group_by",
            Shape::TopK => "topk",
            Shape::DashSingle => "dash_single",
            Shape::DashJoin => "dash_join",
        }
    }
}

/// What a correct answer to a read looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// Exactly this many rows.
    Rows(usize),
    /// A Table-1 row: the paper's server count, distribution flag and table
    /// count, plus the row count.
    Table1 {
        servers: usize,
        distributed: bool,
        tables: usize,
        rows: usize,
    },
    /// The row count the pre-timing direct execution produced (filled in
    /// by the analytic pre-check).
    Expected(Option<usize>),
    /// `COUNT(*)` over `ntuple_events`: must equal the seeded plus the
    /// inserted events at the time of the read.
    EventCount,
    /// `MAX(e_id)`: must equal the newest event id.
    MaxEventId,
    /// Any successful, complete answer.
    Answer,
}

/// One read request.
#[derive(Debug, Clone)]
pub struct Read {
    pub shape: Shape,
    pub sql: String,
    pub check: Check,
}

/// One closed-loop operation.
#[derive(Debug, Clone)]
pub enum Op {
    Read(usize),
    Write,
}

/// A workload's generated requests: the distinct reads, and the order the
/// closed loop sends them in. Read-only workloads cycle over `sequence`
/// until the time is up (counts come from its first full pass); the ingest
/// sequence is run exactly once.
#[derive(Debug, Clone)]
pub struct Plan {
    pub reads: Vec<Read>,
    pub sequence: Vec<Op>,
    pub warmup: usize,
    pub cycles: bool,
}

impl Plan {
    /// Indices into `reads` of the reads one pass sends, in order.
    pub fn sent(&self) -> impl Iterator<Item = usize> + '_ {
        self.sequence.iter().filter_map(|op| match op {
            Op::Read(r) => Some(*r),
            Op::Write => None,
        })
    }
}

/// SplitMix64: a small, fixed generator so a seed means the same SQL on
/// every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// `i`-th of `n` equal strata of `[lo, hi)`, one uniform draw inside it:
    /// the draws cover the range evenly, so per-seed means barely move.
    pub fn stratum(&mut self, i: usize, n: usize, lo: usize, hi: usize) -> usize {
        let width = (hi - lo) as f64 / n as f64;
        let a = lo + (i as f64 * width) as usize;
        let b = (lo + ((i + 1) as f64 * width) as usize).max(a + 1);
        self.range(a, b)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i + 1);
            items.swap(i, j);
        }
    }
}

const T1_DIST2: &str = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id";
const T1_DIST3: &str = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
     FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id \
     JOIN run_conditions c ON s.run_id = c.run_id \
     JOIN detector_summary d ON c.detector = d.detector";
const DETECTORS: [&str; 4] = ["ecal", "hcal", "tracker", "muon"];

/// Reads per pass of the federated mix, drawn uniformly with replacement
/// from [`federated_universe`].
pub const MIX_PASS: usize = 3000;

/// Events per run in the paper grid (26 runs over 2,600 events).
const EVENTS_PER_RUN: usize = 100;

/// Every statement the federated mix can send, each once: Table-1 rows
/// 1–3 with `e_id < n` for n in [10, 110), Fig-6 joins with n in
/// [21, 2551], and both distjoin selective shapes over every run range one
/// or two runs wide — 2,929 distinct statements.
pub fn federated_universe() -> Vec<Read> {
    let mut reads = Vec::new();
    for shape in [Shape::T1Local, Shape::T1Dist2, Shape::T1Dist3] {
        for n in 10..110 {
            let (sql, servers, distributed, tables) = match shape {
                Shape::T1Local => (
                    format!("SELECT e_id, energy FROM ntuple_events WHERE e_id < {n}"),
                    1,
                    false,
                    1,
                ),
                Shape::T1Dist2 => (format!("{T1_DIST2} WHERE e.e_id < {n}"), 1, true, 2),
                _ => (format!("{T1_DIST3} WHERE e.e_id < {n}"), 2, true, 4),
            };
            reads.push(Read {
                shape,
                sql,
                check: Check::Table1 {
                    servers,
                    distributed,
                    tables,
                    rows: n,
                },
            });
        }
    }
    for n in 21..=2551 {
        reads.push(Read {
            shape: Shape::Fig6Join,
            sql: format!(
                "SELECT e.e_id, e.energy, s.avg_value FROM ntuple_events e \
                 JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {n}"
            ),
            check: Check::Rows(n),
        });
    }
    // The distjoin selective shapes: the filter lands on the small
    // run_summary side, so a reduction ships its keys.
    for (shape, base) in [
        (Shape::DistjoinSel2, T1_DIST2),
        (Shape::DistjoinSel4, T1_DIST3),
    ] {
        for width in 1..=2 {
            for lo in 0..26 - width {
                reads.push(Read {
                    shape,
                    sql: format!(
                        "{base} WHERE s.run_id >= {lo} AND s.run_id < {} ORDER BY e.e_id",
                        lo + width
                    ),
                    check: Check::Rows(width * EVENTS_PER_RUN),
                });
            }
        }
    }
    reads
}

/// Per-pass requests of each analytic shape.
const ANALYTIC_PER_SHAPE: usize = 50;

fn analytic_scan(rng: &mut Rng) -> Vec<Read> {
    let n = ANALYTIC_PER_SHAPE;
    let mut reads = Vec::new();
    // Every parameter is drawn from its own stratum (a fixed permutation
    // of `i` for the second one), so per-seed means barely move.
    let other = |i: usize| (i * 17 + 5) % n;
    for i in 0..n {
        let lo = rng.stratum(i, n, 1000, 3000) as f64 / 100.0;
        let hi = lo + rng.stratum(other(i), n, 4000, 8000) as f64 / 100.0;
        reads.push(Read {
            shape: Shape::FilterScan,
            sql: format!(
                "SELECT e_id, energy FROM ntuple_events WHERE energy > {lo:.2} \
                 AND energy < {hi:.2} AND run_id >= {} AND detector <> '{}'",
                rng.stratum(i, n, 0, 50),
                DETECTORS[i % 4]
            ),
            check: Check::Expected(None),
        });
    }
    for i in 0..n {
        reads.push(Read {
            shape: Shape::Join3,
            sql: format!(
                "SELECT e.e_id, s.n_meas, d.mean_value FROM ntuple_events e \
                 JOIN run_summary s ON e.run_id = s.run_id \
                 JOIN detector_summary d ON e.detector = d.detector \
                 WHERE e.energy > {}.{:02}",
                rng.stratum(i, n, 40, 100),
                rng.range(0, 100)
            ),
            check: Check::Expected(None),
        });
    }
    for i in 0..n {
        reads.push(Read {
            shape: Shape::GroupBy,
            sql: format!(
                "SELECT run_id, COUNT(*) AS n, AVG(energy) AS avg_e FROM ntuple_events \
                 WHERE energy > {:.2} GROUP BY run_id HAVING COUNT(*) > {} ORDER BY run_id",
                rng.stratum(other(i), n, 0, 2000) as f64 / 100.0,
                rng.stratum(i, n, 1, 60)
            ),
            check: Check::Expected(None),
        });
    }
    for i in 0..n {
        reads.push(Read {
            shape: Shape::TopK,
            sql: format!(
                "SELECT e_id, energy FROM ntuple_events WHERE run_id >= {} \
                 ORDER BY energy DESC, e_id LIMIT {}",
                rng.stratum(i, n, 0, 100),
                rng.stratum(other(i), n, 50, 151)
            ),
            check: Check::Expected(None),
        });
    }
    reads
}

/// The 16 dashboard statements: eight templates, two seeded variants each.
/// Sixteen entries fit the mediator's 256-entry result cache.
fn ingest_dashboard(rng: &mut Rng) -> Vec<Read> {
    let mut reads = Vec::new();
    for variant in 0..2 {
        // Narrow ranges: a seed changes the SQL but barely the size of the
        // results a cache hit copies, so the read figures measure the
        // grid, not the seed.
        let k = 6 + 8 * variant + rng.range(0, 3);
        let n = 25 + 40 * variant + rng.range(0, 8);
        let limit = 8 + 10 * variant + rng.range(0, 3);
        let run = 5 + 13 * variant + rng.range(0, 3);
        let single = [
            // COUNT(*) (with a variant-specific spelling) and MAX(e_id)
            // watch freshness: they must move with every write.
            (
                if variant == 0 {
                    "SELECT COUNT(*) FROM ntuple_events".to_string()
                } else {
                    "SELECT COUNT(*) AS n_events FROM ntuple_events".to_string()
                },
                Check::EventCount,
            ),
            (
                if variant == 0 {
                    "SELECT MAX(e_id) FROM ntuple_events".to_string()
                } else {
                    "SELECT MAX(e_id) AS newest FROM ntuple_events".to_string()
                },
                Check::MaxEventId,
            ),
            (
                format!("SELECT e_id, energy FROM ntuple_events ORDER BY e_id DESC LIMIT {limit}"),
                Check::Rows(limit),
            ),
            (
                format!(
                    "SELECT run_id, COUNT(*) AS n, AVG(energy) AS avg_e FROM ntuple_events \
                     WHERE run_id <= {run} GROUP BY run_id ORDER BY run_id"
                ),
                Check::Rows(run + 1),
            ),
            (
                format!(
                    "SELECT run_id, n_meas, avg_value FROM run_summary \
                     WHERE run_id < {k} ORDER BY run_id"
                ),
                Check::Rows(k),
            ),
            (
                format!(
                    "SELECT detector, n_meas, mean_value FROM detector_summary \
                     WHERE n_meas > {} ORDER BY detector",
                    variant * rng.range(1, 10)
                ),
                Check::Answer,
            ),
        ];
        for (sql, check) in single {
            reads.push(Read {
                shape: Shape::DashSingle,
                sql,
                check,
            });
        }
        reads.push(Read {
            shape: Shape::DashJoin,
            sql: format!("{T1_DIST2} WHERE e.e_id < {n}"),
            check: Check::Rows(n),
        });
        reads.push(Read {
            shape: Shape::DashJoin,
            sql: format!("{T1_DIST3} WHERE e.e_id < {n}"),
            check: Check::Rows(n),
        });
    }
    reads
}

/// Generate a workload's plan for `seed` and a `--seconds` budget.
pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let mut rng = Rng::new(seed);
    let reads = match workload {
        Workload::FederatedMix => federated_universe(),
        Workload::AnalyticScan => analytic_scan(&mut rng),
        Workload::IngestDashboard => ingest_dashboard(&mut rng),
    };
    match workload {
        Workload::IngestDashboard => {
            let ops = (INGEST_OPS_PER_SECOND * seconds as usize).max(INGEST_MIN_OPS);
            let sequence = (0..ops)
                .map(|i| {
                    if i % INGEST_WRITE_EVERY == INGEST_WRITE_EVERY - 1 {
                        Op::Write
                    } else {
                        Op::Read(rng.range(0, reads.len()))
                    }
                })
                .collect();
            Plan {
                reads,
                sequence,
                warmup: 0,
                cycles: false,
            }
        }
        Workload::FederatedMix => {
            // Every statement of the universe is equally likely.
            let sequence = (0..MIX_PASS)
                .map(|_| Op::Read(rng.range(0, reads.len())))
                .collect();
            Plan {
                reads,
                sequence,
                warmup: 200,
                cycles: true,
            }
        }
        Workload::AnalyticScan => {
            let mut sequence: Vec<Op> = (0..reads.len()).map(Op::Read).collect();
            rng.shuffle(&mut sequence);
            Plan {
                reads,
                sequence,
                warmup: 20,
                cycles: true,
            }
        }
    }
}
