//! The federation's central correctness property, tested with random data:
//! a query decomposed across heterogeneous databases answers exactly like
//! the same query against one database holding all the tables.

use gridfed::clarens::Directory;
use gridfed::core::service::DataAccessService;
use gridfed::prelude::*;
use gridfed::rls::RlsServer;
use gridfed::simnet::topology::Topology;
use gridfed::sqlkit::exec::{execute_select, DatabaseProvider};
use gridfed::sqlkit::parser::parse_select;
use gridfed::storage::Database;
use gridfed::vendors::{DriverRegistry, SimServer};
use proptest::prelude::*;
use std::sync::Arc;

/// A randomly generated two-table federation: `events(id, run, x)` in a
/// MySQL mart, `runs(run, w)` in an MS-SQL mart.
struct Fed {
    das: DataAccessService,
    oracle: Database,
}

fn build_fed(events: &[(i64, i64, f64)], runs: &[(i64, f64)]) -> Fed {
    let registry = Arc::new(DriverRegistry::with_standard_drivers());
    let topology = Arc::new(Topology::lan());
    let directory = Directory::new();
    let rls = RlsServer::new("rls");

    let m1 = SimServer::new(VendorKind::MySql, "n1", "m1");
    m1.with_db_mut(|db| {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int).primary_key(),
            ColumnDef::new("run", DataType::Int),
            ColumnDef::new("x", DataType::Float),
        ])
        .expect("schema");
        let t = db.create_table("events", schema).expect("table");
        for (id, run, x) in events {
            t.insert(vec![Value::Int(*id), Value::Int(*run), Value::Float(*x)])
                .expect("insert");
        }
    });
    let m2 = SimServer::new(VendorKind::MsSql, "n1", "m2");
    m2.with_db_mut(|db| {
        let schema = Schema::new(vec![
            ColumnDef::new("run", DataType::Int).primary_key(),
            ColumnDef::new("w", DataType::Float),
        ])
        .expect("schema");
        let t = db.create_table("runs", schema).expect("table");
        for (run, w) in runs {
            t.insert(vec![Value::Int(*run), Value::Float(*w)])
                .expect("insert");
        }
    });
    registry.register_server(Arc::clone(&m1));
    registry.register_server(Arc::clone(&m2));

    let das = DataAccessService::new(
        "clarens://n1:8443/das",
        "n1",
        Arc::clone(&registry),
        directory,
        topology,
        Some(rls),
    );
    das.register_database("mysql://grid:grid@n1:3306/m1")
        .expect("register m1");
    das.register_database("mssql://n1:1433;database=m2;user=grid;password=grid")
        .expect("register m2");

    // The consolidated oracle database.
    let mut oracle = Database::new("oracle");
    m1.with_db(|db| copy_tables(db, &mut oracle));
    m2.with_db(|db| copy_tables(db, &mut oracle));
    Fed { das, oracle }
}

fn copy_tables(src: &Database, dst: &mut Database) {
    for name in src.table_names() {
        let t = src.table(&name).expect("listed");
        let nt = dst.create_table(name, t.schema().clone()).expect("create");
        for row in t.rows() {
            nt.insert(row.into_values()).expect("insert");
        }
    }
}

fn dedup_by_key<T: Clone, K: std::hash::Hash + Eq>(items: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
    let mut seen = std::collections::HashSet::new();
    items
        .iter()
        .filter(|it| seen.insert(key(it)))
        .cloned()
        .collect()
}

proptest! {
    // Each case builds a federation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Federated execution ≡ consolidated execution, over random data and
    /// a sweep of query shapes.
    #[test]
    fn federated_equals_consolidated(
        raw_events in prop::collection::vec((0i64..40, 0i64..6, -100.0f64..100.0), 0..40),
        raw_runs in prop::collection::vec((0i64..6, 0.0f64..10.0), 0..6),
        threshold in -100.0f64..100.0,
    ) {
        let events = dedup_by_key(&raw_events, |(id, _, _)| *id);
        let runs = dedup_by_key(&raw_runs, |(run, _)| *run);
        let fed = build_fed(&events, &runs);

        let queries = [
            format!("SELECT id, x FROM events WHERE x > {threshold} ORDER BY id"),
            "SELECT e.id, r.w FROM events e JOIN runs r ON e.run = r.run ORDER BY e.id".to_string(),
            format!(
                "SELECT e.id FROM events e JOIN runs r ON e.run = r.run \
                 WHERE e.x > {threshold} AND r.w >= 0.0 ORDER BY e.id"
            ),
            "SELECT e.run, COUNT(*) AS n FROM events e JOIN runs r ON e.run = r.run \
             GROUP BY e.run ORDER BY e.run".to_string(),
            "SELECT e.id, r.w FROM events e LEFT JOIN runs r ON e.run = r.run ORDER BY e.id"
                .to_string(),
        ];
        for sql in &queries {
            let federated = fed
                .das
                .query(sql)
                .unwrap_or_else(|e| panic!("federated `{sql}` failed: {e}"))
                .value
                .result;
            let stmt = parse_select(sql).expect("parses");
            let local = execute_select(&stmt, &DatabaseProvider(&fed.oracle)).expect("local");
            prop_assert_eq!(&federated.rows, &local.rows, "mismatch for `{}`", sql);
        }
    }
}

/// A `BLOOM_HAS` payload: a filter over `keys`, then one mutation —
/// 1 odd length, 2 a non-hex digit, 3 a non-power-of-two byte count,
/// 4 one byte too many, 5 empty, 6 a random alphanumeric string, and
/// none for any other value.
fn bloom_payload(keys: &[i64], mutation: usize, at: usize, noise: &[usize]) -> String {
    const DIGITS: &[u8] = b"0123456789abcdefABCDEFgxyz-";
    let mut f = gridfed::sqlkit::bloom::BloomFilter::with_capacity(keys.len());
    for k in keys {
        f.insert(&Value::Int(*k));
    }
    let mut hex = f.to_hex();
    match mutation {
        1 => {
            hex.pop();
        }
        2 => {
            let i = at % hex.len();
            hex.replace_range(i..i + 1, ["g", "z", " ", "-"][at % 4]);
        }
        3 => hex.truncate(6),
        4 => hex.push_str("00"),
        5 => hex.clear(),
        6 => {
            hex = noise
                .iter()
                .map(|&i| DIGITS[i % DIGITS.len()] as char)
                .collect()
        }
        _ => {}
    }
    hex
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Untrusted `BLOOM_HAS` payloads sent through the mediator: a valid
    /// filter selects exactly the rows it admits; any malformed payload is a
    /// typed SQL error naming the payload, raised only when some row has a
    /// non-NULL operand — never a panic.
    #[test]
    fn bloom_payloads_give_rows_or_typed_errors(
        raw_events in prop::collection::vec((0i64..40, 0i64..6, -100.0f64..100.0), 0..20),
        keys in prop::collection::vec(0i64..8, 0..12),
        mutation in 0usize..12,
        at in 0usize..1000,
        noise in prop::collection::vec(0usize..100, 0..20),
    ) {
        let events = dedup_by_key(&raw_events, |(id, _, _)| *id);
        let fed = build_fed(&events, &[]);
        let payload = bloom_payload(&keys, mutation, at, &noise);
        let sql = format!("SELECT id FROM events WHERE BLOOM_HAS(run, '{payload}') ORDER BY id");
        match (
            gridfed::sqlkit::bloom::BloomFilter::from_hex(&payload),
            fed.das.query(&sql),
        ) {
            (Ok(filter), Ok(out)) => {
                let mut want: Vec<i64> = events
                    .iter()
                    .filter(|(_, run, _)| filter.might_contain(&Value::Int(*run)))
                    .map(|(id, _, _)| *id)
                    .collect();
                want.sort_unstable();
                let got: Vec<Value> = out.value.result.rows.iter().map(|r| r.values()[0].clone()).collect();
                let want: Vec<Value> = want.into_iter().map(Value::Int).collect();
                prop_assert_eq!(got, want, "rows for `{}`", sql);
            }
            (Err(_), Ok(out)) => {
                // Nothing to probe: the payload is never decoded per row.
                prop_assert!(events.is_empty(), "`{}` accepted a malformed payload", sql);
                prop_assert!(out.value.result.rows.is_empty());
            }
            (Err(decode), Err(err)) => {
                prop_assert!(!events.is_empty(), "`{}` failed on an empty table: {}", sql, err);
                prop_assert!(
                    err.to_string().contains(&decode),
                    "`{}`: expected the decode error `{}`, got {:?}", sql, decode, err
                );
            }
            (Ok(_), Err(err)) => {
                return Err(TestCaseError::fail(format!("`{sql}` failed on a valid payload: {err}")));
            }
        }
    }
}
