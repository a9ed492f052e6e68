//! Partial-result integration: the mediator-side join.
//!
//! After the sub-queries return, "the data retrieved through each of the
//! sub-queries is finally merged into a single 2-D vector, and returned to
//! the client" (§4.6). Each sub-query's result arrives as a columnar
//! [`Partial`]: owned, typed column chunks with their null bitmaps, gathered
//! by the backend straight out of its tables. Integration moves those chunks
//! into tables (no copy, no row) and runs the *residual* logical plan over
//! them in place with the `sqlkit` plan executor — cross-database joins,
//! residual predicates, aggregation, ordering, and limits all fall out of
//! the same engine that powers the backends. The residual plan's scans are
//! blanked (no filters, no projection) because the backends already applied
//! the pushed-down work; what remains is exactly the mediator's share. Rows
//! are built once, at the residual plan's output for the client.
//!
//! Rows turn into columns in only two places, both decoding input from a
//! peer mediator: `service::wire_to_partial` (a remote branch's result) and
//! `obswire::wire_to_monitor_partials`. Both type every column before
//! building it and reject a ragged row or a mixed-type column with a typed
//! error.

use crate::decompose;
use crate::error::CoreError;
use crate::Result;
use gridfed_sqlkit::ast::{ColumnRef, ScalarFunc};
use gridfed_sqlkit::bloom::BloomFilter;
use gridfed_sqlkit::exec::{execute_plan_metered, ProviderCatalog, TableProvider};
use gridfed_sqlkit::plan::LogicalPlan;
use gridfed_sqlkit::{ColumnarResult, Expr, ResultSet, SqlError};
use gridfed_storage::{normalize_ident, Row, Schema, StorageError, Table, Value};
use std::time::{Duration, Instant};

/// One fetched partial result: the table name it answers for, plus its
/// typed columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial {
    /// Table name as spelled in the client query.
    pub table: String,
    /// The partial's columns, as the backend (or peer) handed them over.
    pub data: ColumnarResult,
}

impl Partial {
    /// Exact wire size of the partial as the Clarens codec encodes it
    /// (`result_to_wire(..).encode().len()`): the outer two-element list,
    /// the column-name list, and one list per row. Keeping this identical
    /// to the transfer encoding means `bytes_fetched` and `bytes_saved`
    /// measure the same quantity.
    pub fn wire_size(&self) -> usize {
        let columns: usize = self.data.columns().iter().map(|c| 5 + c.len()).sum();
        let rows = 5 * self.data.len() + self.data.values_wire_size();
        5 + (5 + columns) + (5 + rows)
    }
}

/// Distinct, non-NULL, sorted join keys of `column` in a fetched partial —
/// the key set a semi-join reduction ships to the big side's source.
/// `None` when the partial has no such column (the caller then falls back
/// to full scatter for that reduction).
pub fn reduction_keys(partial: &Partial, column: &str) -> Option<Vec<Value>> {
    let want = normalize_ident(column);
    let idx = partial
        .data
        .columns()
        .iter()
        .position(|c| normalize_ident(c) == want)?;
    let chunk = &partial.data.chunks()[idx];
    let mut keys: Vec<Value> = (0..partial.data.len())
        .filter(|&p| !chunk.is_null(p))
        .map(|p| chunk.value_at(p))
        .collect();
    keys.sort_by(|a, b| a.index_cmp(b));
    keys.dedup_by(|a, b| a.sql_cmp(b) == Some(std::cmp::Ordering::Equal));
    Some(keys)
}

/// Whether a key round-trips exactly through a rendered SQL literal: only
/// such keys may ship as an IN-list (bloom filters carry their keys as
/// hashed bits, so they have no such constraint).
fn literal_exact(v: &Value) -> bool {
    match v {
        Value::Int(_) | Value::Text(_) | Value::Bool(_) => true,
        Value::Float(x) => x.is_finite(),
        Value::Null | Value::Bytes(_) => false,
    }
}

/// The membership predicate a reduction injects into the big side's
/// sub-query: a sorted `IN`-list when the key set is small and every key
/// renders exactly, a fixed-seed [`BloomFilter`] probe otherwise. An empty
/// key set becomes `col IN (NULL)` — NULL for every row, so the backend
/// returns zero rows (an inner join against an empty side is empty).
pub fn reduction_predicate(column: &str, keys: &[Value]) -> Expr {
    let col = Expr::Column(ColumnRef {
        qualifier: None,
        column: column.to_string(),
    });
    if keys.is_empty() {
        return Expr::InList {
            expr: Box::new(col),
            list: vec![Expr::Literal(Value::Null)],
            negated: false,
        };
    }
    if keys.len() <= decompose::IN_LIST_MAX_KEYS && keys.iter().all(literal_exact) {
        return Expr::InList {
            expr: Box::new(col),
            list: keys.iter().map(|k| Expr::Literal(k.clone())).collect(),
            negated: false,
        };
    }
    let mut filter = BloomFilter::with_capacity(keys.len());
    for k in keys {
        filter.insert(k);
    }
    Expr::Func {
        func: ScalarFunc::BloomHas,
        args: vec![col, Expr::Literal(Value::Text(filter.to_hex()))],
    }
}

/// Wall-clock split of one integration run: how long the residual plan's
/// expressions took to compile (one-shot column binding, literal folding)
/// versus everything else — wrapping the partials' columns as tables plus
/// evaluation over them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrateMetrics {
    /// Time inside `sqlkit::compile` lowering expressions to positions.
    pub compile: Duration,
    /// Remaining integration time (wrapping the partials as tables, which
    /// moves their chunks, plus compiled evaluation over them in place).
    pub eval: Duration,
    /// 1024-row batch windows the vectorized residual executor processed.
    pub batches: u64,
    /// Rows scanned out of the partials.
    pub rows_scanned: u64,
    /// Rows surviving residual predicate evaluation.
    pub rows_selected: u64,
    /// Rows materialized from columnar form at the output boundary.
    pub rows_materialized: u64,
    /// Widest worker pool any parallel operator used (0 = sequential).
    pub workers: u64,
    /// Parallel work items (morsels, partitions, gather columns, groups)
    /// dispatched to the worker pool.
    pub morsels: u64,
}

impl IntegrateMetrics {
    /// The split and counters of one residual execution that started at
    /// `start`.
    fn of(start: Instant, exec: &gridfed_sqlkit::ExecMetrics) -> IntegrateMetrics {
        IntegrateMetrics {
            compile: exec.compile,
            eval: start.elapsed().saturating_sub(exec.compile),
            batches: exec.batches,
            rows_scanned: exec.rows_scanned,
            rows_selected: exec.rows_selected,
            rows_materialized: exec.rows_materialized,
            workers: exec.workers,
            morsels: exec.morsels,
        }
    }
}

/// The residual plan's tables: each partial's chunks moved into a
/// [`Table`] under its normalized name, scanned in place through
/// [`TableProvider::table_columnar`].
struct PartialTables(Vec<Table>);

impl PartialTables {
    fn new(partials: Vec<Partial>) -> Result<PartialTables> {
        let mut tables: Vec<Table> = Vec::with_capacity(partials.len());
        for p in partials {
            let name = normalize_ident(&p.table);
            if tables.iter().any(|t| t.name() == name) {
                return Err(StorageError::TableExists(p.table).into());
            }
            let rows = p.data.len();
            let (columns, chunks) = p.data.into_parts();
            tables.push(Table::from_chunks(name, columns, chunks, rows)?);
        }
        Ok(PartialTables(tables))
    }

    fn get(&self, name: &str) -> gridfed_sqlkit::Result<&Table> {
        let key = normalize_ident(name);
        self.0
            .iter()
            .find(|t| t.name() == key)
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }
}

impl TableProvider for PartialTables {
    fn table_schema(&self, name: &str) -> gridfed_sqlkit::Result<Schema> {
        Ok(self.get(name)?.schema().clone())
    }

    fn table_rows(&self, name: &str) -> gridfed_sqlkit::Result<Vec<Row>> {
        Ok(self.get(name)?.rows())
    }

    fn table_row_count(&self, name: &str) -> Option<u64> {
        self.get(name).ok().map(|t| t.len() as u64)
    }

    fn table_columnar(&self, name: &str) -> Option<&Table> {
        self.get(name).ok()
    }
}

/// Integrate partials by executing the residual `plan` over them.
pub fn integrate(plan: &LogicalPlan, partials: Vec<Partial>) -> Result<ResultSet> {
    integrate_metered(plan, partials).map(|(rs, _)| rs)
}

/// [`integrate`], additionally reporting the compile/eval wall-clock split
/// so the service can surface it in `QueryStats`.
pub fn integrate_metered(
    plan: &LogicalPlan,
    partials: Vec<Partial>,
) -> Result<(ResultSet, IntegrateMetrics)> {
    let start = Instant::now();
    let tables = PartialTables::new(partials)?;
    let (rs, exec) = execute_plan_metered(plan, &tables).map_err(CoreError::from)?;
    Ok((rs, IntegrateMetrics::of(start, &exec)))
}

/// One residual-plan node's actuals from an analyzed integration, in a
/// form the statement-profile store can aggregate across executions: the
/// label is derived from the plan *shape* (operator name + depth-first
/// position), so re-executions of the same fingerprint attribute time to
/// the same node keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeActual {
    /// `"<kind>#<dfs index>"`, e.g. `hash_join#0`, `scan#2`.
    pub node: String,
    /// Inclusive wall time (children included), microseconds.
    pub us: u64,
    /// Output rows across all loops; 0 for fused-away nodes.
    pub rows: u64,
}

/// Flatten a [`PlanProfile`] into shape-stable [`NodeActual`]s by walking
/// the plan depth-first. Unvisited nodes are skipped; fused nodes report
/// zero time (their cost lives in the parent, and the annotation says so).
fn flatten_profile(
    plan: &LogicalPlan,
    profile: &gridfed_sqlkit::analyze::PlanProfile,
    index: &mut usize,
    out: &mut Vec<NodeActual>,
) {
    let here = *index;
    *index += 1;
    if let Some(node) = profile.get(plan) {
        out.push(NodeActual {
            node: format!("{}#{here}", plan.kind_name()),
            us: if node.fused {
                0
            } else {
                (node.nanos / 1_000) as u64
            },
            rows: node.rows,
        });
    }
    for child in plan.children() {
        flatten_profile(child, profile, index, out);
    }
}

/// [`integrate_metered`] with `EXPLAIN ANALYZE` profiling: also returns
/// the residual tree annotated per node with row estimates (from the
/// partials' real cardinalities) and actual rows/loops/time, plus the same
/// actuals flattened into [`NodeActual`]s for the statement profile store.
pub fn integrate_analyzed(
    plan: &LogicalPlan,
    partials: Vec<Partial>,
) -> Result<(ResultSet, IntegrateMetrics, String, Vec<NodeActual>)> {
    let start = Instant::now();
    let tables = PartialTables::new(partials)?;
    let (rs, exec, profile) =
        gridfed_sqlkit::analyze::execute_plan_analyzed(plan, &tables).map_err(CoreError::from)?;
    let annotated =
        gridfed_sqlkit::analyze::annotate(plan, Some(&ProviderCatalog(&tables)), Some(&profile));
    let mut actuals = Vec::new();
    flatten_profile(plan, &profile, &mut 0, &mut actuals);
    Ok((rs, IntegrateMetrics::of(start, &exec), annotated, actuals))
}

/// Compact one-line rendering of a plan's operator tree, e.g.
/// `project(filter(scan))` — the "plan shape" half of the statement
/// fingerprint.
pub fn plan_shape(plan: &LogicalPlan) -> String {
    let children = plan.children();
    if children.is_empty() {
        plan.kind_name().to_string()
    } else {
        let inner: Vec<String> = children.iter().map(|c| plan_shape(c)).collect();
        format!("{}({})", plan.kind_name(), inner.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_sqlkit::parser::parse_select;
    use gridfed_sqlkit::plan::build_plan;
    use gridfed_storage::{ColumnDef, DataType, Database};

    /// A partial from test rows (tests transpose; production partials
    /// arrive as columns).
    fn partial(table: &str, columns: &[&str], rows: Vec<Vec<Value>>) -> Partial {
        Partial {
            table: table.into(),
            data: ColumnarResult::from_rows(
                columns.iter().map(|c| c.to_string()).collect(),
                rows.into_iter().map(Row::new).collect(),
            )
            .unwrap(),
        }
    }

    fn events_partial() -> Partial {
        partial(
            "events",
            &["e_id", "run_id", "energy"],
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Float(5.0)],
                vec![Value::Int(2), Value::Int(10), Value::Float(50.0)],
                vec![Value::Int(3), Value::Int(20), Value::Float(70.0)],
            ],
        )
    }

    fn runs_partial() -> Partial {
        partial(
            "runs",
            &["run_id", "detector"],
            vec![
                vec![Value::Int(10), Value::Text("ecal".into())],
                vec![Value::Int(20), Value::Text("hcal".into())],
            ],
        )
    }

    #[test]
    fn cross_partial_join() {
        let stmt = parse_select(
            "SELECT e.e_id, r.detector FROM events e JOIN runs r ON e.run_id = r.run_id \
             WHERE e.energy > 10.0 ORDER BY e.e_id",
        )
        .unwrap();
        let rs = integrate(&build_plan(&stmt), vec![events_partial(), runs_partial()]).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0].values()[1], Value::Text("ecal".into()));
        assert_eq!(rs.rows[1].values()[1], Value::Text("hcal".into()));
    }

    #[test]
    fn residual_aggregation() {
        let stmt = parse_select(
            "SELECT r.detector, COUNT(*) AS n FROM events e JOIN runs r \
             ON e.run_id = r.run_id GROUP BY r.detector ORDER BY r.detector",
        )
        .unwrap();
        let rs = integrate(&build_plan(&stmt), vec![events_partial(), runs_partial()]).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0].values()[1], Value::Int(2));
    }

    #[test]
    fn partial_tables_are_case_insensitive_and_unique() {
        let stmt = parse_select("SELECT e_id FROM EVENTS WHERE run_id = 20").unwrap();
        let rs = integrate(&build_plan(&stmt), vec![events_partial()]).unwrap();
        assert_eq!(rs.rows, vec![Row::new(vec![Value::Int(3)])]);
        let twice = integrate(&build_plan(&stmt), vec![events_partial(), events_partial()]);
        assert!(
            matches!(
                twice,
                Err(CoreError::Sql(SqlError::Storage(
                    StorageError::TableExists(_)
                )))
            ),
            "{twice:?}"
        );
    }

    #[test]
    fn plan_shape_and_analyzed_actuals_are_shape_stable() {
        let stmt =
            parse_select("SELECT e_id FROM events WHERE energy > 10.0 ORDER BY e_id").unwrap();
        let plan = build_plan(&stmt);
        let shape = plan_shape(&plan);
        assert!(shape.contains("scan"), "shape={shape}");
        assert!(shape.contains('('), "nested operators render as a tree");
        let (rs, _, annotated, actuals) =
            integrate_analyzed(&plan, vec![events_partial()]).unwrap();
        assert_eq!(rs.len(), 2);
        assert!(annotated.contains("(act"), "{annotated}");
        assert!(!actuals.is_empty());
        // Same query again: identical node labels (shape-stable keys).
        let (_, _, _, again) = integrate_analyzed(&plan, vec![events_partial()]).unwrap();
        let labels: Vec<&str> = actuals.iter().map(|a| a.node.as_str()).collect();
        let labels2: Vec<&str> = again.iter().map(|a| a.node.as_str()).collect();
        assert_eq!(labels, labels2);
        assert!(labels.iter().any(|l| l.starts_with("scan#")), "{labels:?}");
    }

    #[test]
    fn self_join_over_one_partial() {
        let stmt = parse_select(
            "SELECT a.e_id, b.e_id FROM events a JOIN events b ON a.run_id = b.run_id \
             WHERE a.e_id < b.e_id",
        )
        .unwrap();
        let rs = integrate(&build_plan(&stmt), vec![events_partial()]).unwrap();
        assert_eq!(rs.len(), 1); // (1,2) within run 10
    }

    #[test]
    fn partial_wire_size_matches_the_encoded_transfer() {
        // `bytes_fetched` (and therefore `bytes_saved`) must measure the
        // same bytes the Clarens codec actually puts on the wire, across
        // every value type — including NULLs and Bytes (which cross
        // rendered as a hex string).
        let exact = |p: &Partial| {
            let rs = p.data.clone().into_result_set();
            assert_eq!(
                p.wire_size(),
                crate::service::result_to_wire(&rs).encode().len(),
                "{p:?}"
            );
        };
        exact(&partial(
            "t",
            &["id", "name", "x", "ok", "raw"],
            vec![
                vec![
                    Value::Int(7),
                    Value::Text("aliquippa".into()),
                    Value::Float(1.25),
                    Value::Bool(true),
                    Value::Bytes(vec![0xde, 0xad, 0xbe]),
                ],
                vec![
                    Value::Null,
                    Value::Text(String::new()),
                    Value::Null,
                    Value::Bool(false),
                    Value::Bytes(Vec::new()),
                ],
            ],
        ));

        // Columns as a backend hands them over: gathered out of a table's
        // chunks, so the string column keeps the source dictionary (with
        // repeats, and with strings the selection dropped) and every type
        // carries NULLs.
        let mut db = Database::new("mart");
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("det", DataType::Text),
            ColumnDef::new("x", DataType::Float),
            ColumnDef::new("ok", DataType::Bool),
            ColumnDef::new("raw", DataType::Bytes),
        ])
        .unwrap();
        let t = db.create_table("hits", schema).unwrap();
        for i in 0..40i64 {
            let null = i % 5 == 4;
            let pick = |v: Value| if null { Value::Null } else { v };
            t.insert(vec![
                pick(Value::Int(i)),
                pick(Value::Text(
                    ["barrel", "endcap", "forward"][i as usize % 3].into(),
                )),
                pick(Value::Float(i as f64 / 4.0)),
                pick(Value::Bool(i % 2 == 0)),
                pick(Value::Bytes(vec![i as u8; i as usize % 4])),
            ])
            .unwrap();
        }
        let provider = gridfed_sqlkit::DatabaseProvider(&db);
        for sql in [
            "SELECT id, det, x, ok, raw FROM hits",
            "SELECT det, raw FROM hits WHERE det <> 'forward'",
            "SELECT * FROM hits WHERE id < 0",
        ] {
            let stmt = parse_select(sql).unwrap();
            let data = gridfed_sqlkit::execute_select_columnar(&stmt, &provider).unwrap();
            exact(&Partial {
                table: "hits".into(),
                data,
            });
        }

        // Degenerate shapes stay exact too: a zero-row partial.
        exact(&partial("t", &["only"], Vec::new()));
    }

    #[test]
    fn reduction_keys_are_distinct_sorted_and_null_free() {
        let p = partial(
            "runs",
            &["run_id", "site"],
            vec![
                vec![Value::Int(30), Value::Text("a".into())],
                vec![Value::Int(10), Value::Text("b".into())],
                vec![Value::Null, Value::Text("c".into())],
                vec![Value::Int(30), Value::Text("d".into())],
            ],
        );
        // Case-insensitive column lookup; NULLs dropped; duplicates folded.
        let keys = reduction_keys(&p, "RUN_ID").unwrap();
        assert_eq!(keys, vec![Value::Int(10), Value::Int(30)]);
        assert!(reduction_keys(&p, "no_such_column").is_none());
    }

    #[test]
    fn reduction_predicate_picks_in_list_bloom_or_empty_guard() {
        use gridfed_sqlkit::render::render_expr_neutral;

        // Empty key set: a predicate that evaluates NULL (zero rows) but
        // still parses at the remote end.
        let none = render_expr_neutral(&reduction_predicate("k", &[]));
        assert!(none.contains("IN (NULL)"), "{none}");

        // Small exact keys: a sorted IN-list.
        let small = render_expr_neutral(&reduction_predicate("k", &[Value::Int(1), Value::Int(5)]));
        assert!(small.contains("IN (1, 5)"), "{small}");

        // Above the IN-list cap: a bloom probe carrying the hex payload.
        let many: Vec<Value> = (0..200).map(Value::Int).collect();
        let big = render_expr_neutral(&reduction_predicate("k", &many));
        assert!(big.contains("BLOOM_HAS("), "{big}");

        // Non-exact literals (a non-finite float) force the bloom form
        // even for tiny key sets.
        let odd = render_expr_neutral(&reduction_predicate("k", &[Value::Float(f64::INFINITY)]));
        assert!(odd.contains("BLOOM_HAS("), "{odd}");
    }
}
