//! End-to-end client/server round-trips over a real socket.

use dq_core::profiles::{QualityStandard, StandardOp, UserProfile};
use dq_query::{run, run_mut, QueryCatalog};
use dq_server::{render_result, start, start_durable, Client, ClientError, ServerConfig};
use dq_storage::{DurableDb, DurableOptions, MemFs};
use relstore::{DataType, Date, Schema, Value};
use std::sync::Arc;
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

fn stocks() -> TaggedRelation {
    let schema = Schema::of(&[("ticker", DataType::Text), ("share_price", DataType::Float)]);
    let dict = IndicatorDictionary::with_paper_defaults();
    let d = |s: &str| Value::Date(Date::parse(s).unwrap());
    let mk = |t: &str, p: f64, ct: &str, src: &str| {
        vec![
            QualityCell::bare(t),
            QualityCell::bare(p)
                .with_tag(IndicatorValue::new("creation_time", d(ct)))
                .with_tag(IndicatorValue::new("source", src)),
        ]
    };
    TaggedRelation::new(
        schema,
        dict,
        vec![
            mk("FRT", 10.0, "10-20-91", "NYSE feed"),
            mk("NUT", 20.0, "10-1-91", "NYSE feed"),
            mk("BLT", 30.0, "9-1-91", "manual entry"),
        ],
    )
    .unwrap()
}

fn catalog() -> QueryCatalog {
    let mut c = QueryCatalog::new();
    c.register("stocks", stocks());
    c
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        stmt_cache_capacity: 64,
    }
}

#[test]
fn ping_query_and_errors() {
    let server = start(test_config(), catalog()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();

    let sql = "SELECT ticker FROM stocks WITH QUALITY (share_price@source = 'NYSE feed')";
    let over_wire = client.query(sql).unwrap();
    let embedded = render_result(&run(&catalog(), sql).unwrap());
    assert_eq!(over_wire, embedded);
    assert!(over_wire.contains("FRT") && over_wire.contains("NUT"));
    assert!(!over_wire.contains("BLT"));

    // engine errors come back as Server errors, session stays usable
    match client.query("SELECT * FROM ghost") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("ghost")),
        other => panic!("expected server error, got {other:?}"),
    }
    client.ping().unwrap();
}

#[test]
fn repeated_query_hits_stmt_cache() {
    let server = start(test_config(), catalog()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let hits = dq_obs::counter!("server.stmt_cache.hits");
    let h0 = hits.get();
    let sql = "SELECT * FROM stocks WHERE ticker = 'FRT'";
    let first = client.query(sql).unwrap();
    // textual variant still hits the normalized cache entry
    let second = client.query("SELECT  *   FROM stocks\nWHERE ticker = 'FRT'").unwrap();
    assert_eq!(first, second);
    assert!(hits.get() > h0, "second send must be a stmt-cache hit");
}

#[test]
fn tag_write_is_visible_to_other_sessions() {
    let server = start(test_config(), catalog()).unwrap();
    let mut writer = Client::connect(server.addr()).unwrap();
    let mut reader = Client::connect(server.addr()).unwrap();
    let sql = "SELECT ticker FROM stocks WITH QUALITY (share_price@inspection = 'A')";

    // warm the reader's snapshot and statement cache pre-write
    assert!(!reader.query(sql).unwrap().contains("FRT"));
    writer
        .query("TAG stocks SET share_price@inspection = 'A' WHERE ticker = 'FRT'")
        .unwrap();
    // the write bumped the published generation: the reader re-snapshots
    // and its cached plan is invalidated, so the tag is visible
    let after = reader.query(sql).unwrap();
    assert!(after.contains("FRT"), "got: {after}");
}

/// Whatever `run_mut` parses as a `TAG` is routed as one over the wire:
/// the reply is byte-equal to the embedded rendering, however the
/// keyword is spelled or separated from the table name.
#[test]
fn tag_is_classified_by_its_first_token() {
    let server = start(test_config(), catalog()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut embedded = catalog();
    for sql in [
        "TAG\tstocks SET share_price@inspection = 'A' WHERE ticker = 'FRT'",
        "tag\nstocks SET share_price@inspection = 'B' WHERE ticker = 'NUT'",
        "  Tag stocks\n\tSET share_price@inspection = 'C'",
        "-- administrator's note\nTAG stocks SET share_price@inspection = 'D' WHERE ticker = 'BLT'",
    ] {
        let expect = render_result(&run_mut(&mut embedded, sql).unwrap());
        assert_eq!(client.query(sql).unwrap(), expect, "{sql:?}");
    }
    // and the writes landed: both sides render the same table
    let probe = "INSPECT FROM stocks";
    assert_eq!(
        client.query(probe).unwrap(),
        render_result(&run(&embedded, probe).unwrap())
    );
    // a table that merely starts with the letters is still a read error
    assert!(client.query("TAGS stocks").is_err());
}

/// `SET` is evaluated on the rows `WHERE` keeps and on no other, over
/// the wire as embedded: FRT's divisor is zero, and only a statement
/// that tags FRT fails for it — leaving the table as it was.
#[test]
fn tag_set_runs_only_on_rows_where_keeps() {
    let server = start(test_config(), catalog()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut embedded = catalog();
    let set = "TAG stocks SET share_price@age = \
               1000 / (DATE '1991-10-20' - share_price@creation_time)";
    for filter in [" WHERE ticker = 'NUT'", " WHERE share_price > 15"] {
        let sql = format!("{set}{filter}");
        let expect = render_result(&run_mut(&mut embedded, &sql).unwrap());
        assert_eq!(client.query(&sql).unwrap(), expect, "{sql}");
    }
    let err = run_mut(&mut embedded, set).unwrap_err().to_string();
    assert!(err.contains("division by zero"), "{err}");
    match client.query(set) {
        Err(ClientError::Server(msg)) => assert_eq!(msg, err),
        other => panic!("expected the division error, got {other:?}"),
    }
    let probe = "INSPECT FROM stocks";
    let table = client.query(probe).unwrap();
    assert_eq!(table, render_result(&run(&embedded, probe).unwrap()));
    assert!(table.contains("20 (52, 1991-10-01, NYSE feed)"), "{table}");
}

/// A read naming an indicator the table's dictionary does not declare
/// fails when it is prepared, with the error `TAG` gives for that name
/// and over the wire exactly as embedded — it no longer reads as an
/// all-NULL tag. A declared indicator no cell carries still reads NULL.
#[test]
fn undeclared_indicators_fail_like_tag() {
    let server = start(test_config(), catalog()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut embedded = catalog();
    let tag_err = run_mut(&mut embedded, "TAG stocks SET share_price@sorce = 'x'")
        .unwrap_err()
        .to_string();
    assert!(
        tag_err.contains("undeclared indicator `sorce`"),
        "{tag_err}"
    );
    for sql in [
        "SELECT ticker FROM stocks WITH QUALITY (share_price@sorce <> 'estimate')",
        "SELECT ticker, share_price@sorce FROM stocks",
        "SELECT ticker FROM stocks WHERE share_price@sorce = 'x'",
        "INSPECT FROM stocks WHERE share_price@source@sorce IS NULL",
        "EXPLAIN SELECT ticker FROM stocks WHERE share_price@sorce = 'x'",
    ] {
        let err = run(&embedded, sql).unwrap_err().to_string();
        assert_eq!(err, tag_err, "{sql}");
        match client.query(sql) {
            Err(ClientError::Server(msg)) => assert_eq!(msg, err, "{sql}"),
            other => panic!("expected the undeclared-indicator error, got {other:?}"),
        }
    }
    let sql = "SELECT ticker FROM stocks WITH QUALITY (share_price@analyst IS NULL)";
    let expect = render_result(&run(&embedded, sql).unwrap());
    assert_eq!(client.query(sql).unwrap(), expect);
    assert!(expect.contains("BLT"), "{expect}");
}

/// An integer `SUM` past `i64` comes back as an error frame — not a
/// panicked worker, not a wrapped total — with the embedded error's
/// text, and the same session answers the next query.
#[test]
fn integer_sum_overflow_is_an_error_frame() {
    let schema = Schema::of(&[("k", DataType::Text), ("v", DataType::Int)]);
    let rows = [("a", i64::MAX), ("a", 1), ("b", 2)]
        .iter()
        .map(|&(k, v)| vec![QualityCell::bare(k), QualityCell::bare(v)])
        .collect();
    let dict = IndicatorDictionary::with_paper_defaults();
    let mut embedded = catalog();
    embedded.register("big", TaggedRelation::new(schema, dict, rows).unwrap());
    let server = start(test_config(), embedded.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for sql in [
        "SELECT SUM(v) AS s FROM big",
        "SELECT k, SUM(v) AS s FROM big WHERE v > 0 GROUP BY k",
    ] {
        let err = run(&embedded, sql).unwrap_err().to_string();
        assert!(err.contains("integer overflow in SUM"), "{err}");
        match client.query(sql) {
            Err(ClientError::Server(msg)) => assert_eq!(msg, err, "{sql}"),
            other => panic!("expected the overflow error, got {other:?}"),
        }
        let next = "SELECT k, SUM(v) AS s FROM big WHERE k = 'b' GROUP BY k";
        let expect = render_result(&run(&embedded, next).unwrap());
        assert_eq!(client.query(next).unwrap(), expect);
    }
}

/// When two aggregate calls fail in different groups, the answer is the
/// first failing call of the first failing group — here group `k = 1`'s
/// overflowing `SUM(big)`, though `SUM(s)` meets the Text `'x'` (group
/// `k = 2`) a row before the overflow — embedded and over the wire.
#[test]
fn first_failing_group_names_the_aggregate_error() {
    let schema = Schema::of(&[
        ("k", DataType::Int),
        ("big", DataType::Int),
        ("s", DataType::Text),
    ]);
    let rows = [(1, i64::MAX, None), (2, 0, Some("x")), (1, 1, None)]
        .iter()
        .map(|&(k, big, s)| {
            let s = s.map_or(Value::Null, Value::text);
            vec![
                QualityCell::bare(k),
                QualityCell::bare(big),
                QualityCell::bare(s),
            ]
        })
        .collect();
    let dict = IndicatorDictionary::with_paper_defaults();
    let mut embedded = catalog();
    embedded.register("t", TaggedRelation::new(schema, dict, rows).unwrap());
    let server = start(test_config(), embedded.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let sql = "SELECT k, SUM(big) AS a, SUM(s) AS b FROM t GROUP BY k";
    let err = run(&embedded, sql).unwrap_err().to_string();
    assert_eq!(err, "arithmetic error: integer overflow in SUM");
    match client.query(sql) {
        Err(ClientError::Server(msg)) => assert_eq!(msg, err),
        other => panic!("expected the overflow error, got {other:?}"),
    }
    client.ping().unwrap();
}

/// Over an Int column `=`, `<>` and `<` against a Text literal all fail
/// when the statement is prepared, with one type-mismatch text, embedded
/// and over the wire — over a table with rows and over one without.
#[test]
fn ill_typed_comparisons_fail_alike() {
    let schema = Schema::of(&[("k", DataType::Int)]);
    let dict = IndicatorDictionary::with_paper_defaults();
    let rows = vec![vec![QualityCell::bare(1i64)]];
    let mut embedded = catalog();
    embedded.register("t", TaggedRelation::new(schema.clone(), dict.clone(), rows).unwrap());
    embedded.register("empty", TaggedRelation::empty(schema, dict));
    let server = start(test_config(), embedded.clone()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut texts = Vec::new();
    for table in ["t", "empty"] {
        for op in ["=", "<>", "<"] {
            for sql in [
                format!("SELECT k FROM {table} WHERE k {op} 'a'"),
                format!("SELECT k FROM {table} WITH QUALITY (k@age {op} 'a')"),
            ] {
                let err = run(&embedded, &sql).unwrap_err().to_string();
                match client.query(&sql) {
                    Err(ClientError::Server(msg)) => assert_eq!(msg, err, "{sql}"),
                    other => panic!("{sql}: expected a type error, got {other:?}"),
                }
                texts.push(err);
            }
        }
    }
    texts.dedup();
    assert_eq!(
        texts,
        ["type mismatch: expected comparable values of the same type, found Int vs Text"]
    );
    client.ping().unwrap();
}

/// Int arithmetic past `i64` in a scanned, a keyed and a paged σ — the
/// statements that used to wrap, or panic a worker — is one arithmetic
/// error each, byte-equal embedded and over the wire, and the session
/// answers its next query.
#[test]
fn integer_overflow_is_an_error_on_every_access_path() {
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let dict = IndicatorDictionary::with_paper_defaults();
    let rows: Vec<Vec<QualityCell>> = (0..4i64)
        .map(|k| vec![QualityCell::bare(k), QualityCell::bare(k - 2)])
        .collect();
    let fs: Arc<MemFs> = Arc::new(MemFs::default());
    let opts = DurableOptions {
        page_size: 512,
        pool_pages: 8,
        ..Default::default()
    };
    {
        let (mut db, _) = DurableDb::open(fs.clone(), opts.clone()).unwrap();
        db.create_paged("p", schema.clone(), dict.clone()).unwrap();
        for row in &rows {
            db.paged_push("p", row.clone()).unwrap();
        }
        db.commit().unwrap();
    }
    let rel = TaggedRelation::new(schema, dict, rows).unwrap();
    let mut embedded = QueryCatalog::new();
    embedded.register("t", rel.clone());
    embedded.register("p", rel.clone());
    let (db, _) = DurableDb::open(fs, opts).unwrap();
    let server = start_durable(test_config(), db).unwrap();
    server.catalog().publish(|c| c.register("t", rel)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let min_over_minus_one = "(0 - 9223372036854775807 - 1) / (0 - 1) = 1";
    for sql in [
        "SELECT k FROM t WHERE v + 9223372036854775807 < 0".to_owned(),
        format!("SELECT k FROM t WHERE k = 1 AND {min_over_minus_one}"),
        format!("SELECT k FROM p WHERE {min_over_minus_one}"),
    ] {
        let err = run(&embedded, &sql).unwrap_err().to_string();
        assert!(err.starts_with("arithmetic error: integer overflow"), "{sql}: {err}");
        match client.query(&sql) {
            Err(ClientError::Server(msg)) => assert_eq!(msg, err, "{sql}"),
            other => panic!("{sql}: expected the overflow error, got {other:?}"),
        }
        let next = "SELECT k FROM p WHERE k = 3";
        assert_eq!(client.query(next).unwrap(), render_result(&run(&embedded, next).unwrap()));
    }
    server.shutdown();
}

/// One verdict per row: a `WHERE`'s conjuncts run in written order and
/// the first that is not true drops the row, so a division by zero
/// behind a guard no row passes never runs — whether the σ is keyed, a
/// columnar scan, a `TAG`'s mask or a `HAVING` over groups. Each pair
/// answers alike, byte-equal embedded and over the wire; the same
/// fault with a guard some row passes fails alike everywhere. A fault
/// written first runs on every row: no bitmap atom or key after it
/// narrows the rows it reads, resident or paged.
#[test]
fn guarded_faults_answer_alike_on_every_access_path() {
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let dict = IndicatorDictionary::with_paper_defaults();
    let rows: Vec<Vec<QualityCell>> = (0..10i64)
        .map(|k| vec![QualityCell::bare(k), QualityCell::bare(k * 3)])
        .collect();
    let opts = DurableOptions {
        page_size: 512,
        pool_pages: 8,
        ..Default::default()
    };
    let (mut db, _) = DurableDb::open(Arc::new(MemFs::default()), opts).unwrap();
    db.create_tagged("t", schema.clone(), dict.clone()).unwrap();
    db.create_paged("p", schema.clone(), dict.clone()).unwrap();
    for row in &rows {
        db.push("t", row.clone()).unwrap();
        db.paged_push("p", row.clone()).unwrap();
    }
    let rel = TaggedRelation::new(schema, dict, rows).unwrap();
    let mut embedded = QueryCatalog::new();
    embedded.register("t", rel.clone());
    embedded.register("p", rel);
    let server = start_durable(test_config(), db).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut both = |sql: &str| -> Result<String, String> {
        let here = run_mut(&mut embedded, sql).map(|r| render_result(&r)).map_err(|e| e.to_string());
        let wire = client.query(sql).map_err(|e| match e {
            ClientError::Server(msg) => msg,
            other => panic!("{sql}: {other:?}"),
        });
        assert_eq!(wire, here, "{sql}");
        here
    };
    let fault = "v / 0 = 1";
    let no_rows = Ok("+---+---+\n| k | v |\n+---+---+\n+---+---+\n".to_owned());
    // keyed lookup vs columnar range scan
    assert_eq!(both(&format!("SELECT * FROM t WHERE k = 5 AND v > 100 AND {fault}")), no_rows);
    let range = format!("SELECT * FROM t WHERE k >= 5 AND k <= 5 AND v > 100 AND {fault}");
    assert_eq!(both(&range), no_rows);
    // the SELECT and the TAG that filter alike
    assert_eq!(both(&format!("SELECT * FROM t WHERE k > 100 AND {fault}")), no_rows);
    let tag = both(&format!("TAG t SET v@source = 'x' WHERE k > 100 AND {fault}"));
    assert!(tag.unwrap().contains("| 0            |"), "cells_tagged 0");
    let having = "SELECT k, COUNT(*) AS n FROM t GROUP BY k HAVING k > 100 AND n / 0 = 1";
    assert_eq!(both(having), both("SELECT k, COUNT(*) AS n FROM t WHERE k > 100 GROUP BY k"));
    for unguarded in [
        format!("SELECT * FROM t WHERE k = 5 AND {fault}"),
        format!("SELECT * FROM t WHERE k >= 5 AND k <= 5 AND {fault}"),
        format!("TAG t SET v@source = 'x' WHERE k > 1 AND {fault}"),
        "SELECT k, COUNT(*) AS n FROM t GROUP BY k HAVING k > 1 AND n / 0 = 1".to_owned(),
    ] {
        assert_eq!(both(&unguarded), Err("arithmetic error: division by zero".into()));
    }
    // the fault first: k = 3 divides by zero whatever follows
    let first = "v / (k - 3) = 1";
    for leading in [
        format!("SELECT * FROM t WHERE {first} AND v@source = 'x'"),
        format!("SELECT * FROM t WHERE {first} AND k = 7"),
        format!("TAG t SET v@source = 'x' WHERE {first} AND k = 7"),
        format!("SELECT * FROM p WHERE {first} AND v@source = 'x'"),
        format!("SELECT * FROM p WHERE {first} AND k = 7"),
    ] {
        assert_eq!(both(&leading), Err("arithmetic error: division by zero".into()));
    }
    // nothing was tagged, and the session still answers
    let probe = "SELECT k FROM t WITH QUALITY (v@source = 'x')";
    assert_eq!(both(probe), both("SELECT k FROM t WHERE k > 100"));
    server.shutdown();
}

/// A profile standard over an indicator a table's dictionary does not
/// declare is skipped for that table, not injected and then refused:
/// the table answers as if the profile said nothing about it.
#[test]
fn profile_defaults_skip_undeclared_indicators() {
    let server = start(test_config(), catalog()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let standard = |ind: &str, op, v: &str| QualityStandard::new("share_price", ind, op, v);
    let auditor = UserProfile::new("auditor", "graded sources only")
        .with_standard(standard("source", StandardOp::Ne, "manual entry"))
        .with_standard(standard("audit_grade", StandardOp::Eq, "A"));
    client.hello(Some(&auditor)).unwrap();
    let defaulted = client.query("SELECT ticker FROM stocks").unwrap();
    let declared_only =
        "SELECT ticker FROM stocks WITH QUALITY (share_price@source <> 'manual entry')";
    assert_eq!(defaulted, render_result(&run(&catalog(), declared_only).unwrap()));
    assert!(defaulted.contains("FRT") && !defaulted.contains("BLT"), "{defaulted}");
}

#[test]
fn profile_supplies_quality_defaults() {
    let server = start(test_config(), catalog()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let fund_raising = UserProfile::new("fund_raising", "strict sources").with_standard(
        QualityStandard::new("share_price", "source", StandardOp::Ne, "manual entry"),
    );
    client.hello(Some(&fund_raising)).unwrap();

    // no WITH QUALITY spelled: the profile's standard applies
    let defaulted = client.query("SELECT ticker FROM stocks").unwrap();
    assert!(defaulted.contains("FRT") && defaulted.contains("NUT"));
    assert!(!defaulted.contains("BLT"));

    // explicit WITH QUALITY overrides the ambient default
    let explicit = client
        .query("SELECT ticker FROM stocks WITH QUALITY (share_price@source = 'manual entry')")
        .unwrap();
    assert!(explicit.contains("BLT") && !explicit.contains("FRT"));

    // rebinding the unconstrained profile restores pass-through
    client.hello(None).unwrap();
    let open = client.query("SELECT ticker FROM stocks").unwrap();
    assert!(open.contains("BLT"));
}

#[test]
fn many_clients_on_few_workers() {
    let server = start(
        ServerConfig {
            workers: 2,
            ..test_config()
        },
        catalog(),
    )
    .unwrap();
    let addr = server.addr();
    let expected = render_result(&run(&catalog(), "SELECT * FROM stocks").unwrap());
    let handles: Vec<_> = (0..16)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..5 {
                    assert_eq!(c.query("SELECT * FROM stocks").unwrap(), expected);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn paged_tables_are_served_like_resident_ones() {
    let fs: Arc<MemFs> = Arc::new(MemFs::default());
    let opts = DurableOptions {
        group_commit: true,
        page_size: 512,
        pool_pages: 8,
        ..Default::default()
    };
    let schema = Schema::of(&[("id", DataType::Int), ("sym", DataType::Text)]);
    let dict = IndicatorDictionary::with_paper_defaults();
    let mut twin = TaggedRelation::empty(schema.clone(), dict.clone());
    {
        let (mut db, _) = DurableDb::open(fs.clone(), opts.clone()).unwrap();
        db.create_paged("trades", schema, dict).unwrap();
        for i in 0..120i64 {
            let mut cell = QualityCell::bare(format!("sym{}", i % 7));
            if i % 40 == 0 {
                cell.set_tag(IndicatorValue::new("source", "audit"));
            }
            let row = vec![QualityCell::bare(i), cell];
            db.paged_push("trades", row.clone()).unwrap();
            twin.push(row).unwrap();
        }
        db.commit().unwrap();
    }
    let (db, _) = DurableDb::open(fs, opts).unwrap();
    let server = start_durable(test_config(), db).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // the on-disk relation renders exactly like its in-memory twin
    let sql = "SELECT id FROM trades WITH QUALITY (sym@source = 'audit')";
    let over_wire = client.query(sql).unwrap();
    let mut cat = QueryCatalog::new();
    cat.register("trades", twin);
    assert_eq!(over_wire, render_result(&run(&cat, sql).unwrap()));
    assert!(over_wire.contains("80"), "got: {over_wire}");
    // the provider's dictionary binds a paged table's indicator names
    let typo = "SELECT id FROM trades WITH QUALITY (sym@sorce = 'audit')";
    let err = run(&cat, typo).unwrap_err().to_string();
    match client.query(typo) {
        Err(ClientError::Server(msg)) => assert_eq!(msg, err),
        other => panic!("expected the undeclared-indicator error, got {other:?}"),
    }

    // the planner picks the bitmap path and annotates the pool I/O
    let plan = client.query(&format!("EXPLAIN {sql}")).unwrap();
    assert!(plan.contains("PagedIndexScan"), "plan: {plan}");
    let analyzed = client.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    assert!(
        analyzed.contains("layout=paged") && analyzed.contains("pages_read="),
        "analyzed: {analyzed}"
    );

    // repeated sends hit the statement cache like any resident table
    let hits = dq_obs::counter!("server.stmt_cache.hits");
    let h0 = hits.get();
    assert_eq!(client.query(sql).unwrap(), over_wire);
    assert!(hits.get() > h0, "re-send must be a stmt-cache hit");

    // TAG is routed to the durable writer, not the query layer
    match client.query("TAG trades SET sym@inspection = 'A' WHERE id = 1") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("paged storage"), "{msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn out_of_band_registration_reaches_live_sessions() {
    let server = start(test_config(), catalog()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    assert!(client.query("SELECT * FROM extra").is_err());
    let schema = Schema::of(&[("x", DataType::Int)]);
    let rel = TaggedRelation::new(
        schema,
        IndicatorDictionary::with_paper_defaults(),
        vec![vec![QualityCell::bare(7i64)]],
    )
    .unwrap();
    server.catalog().publish(|c| c.register("extra", rel)).unwrap();
    let out = client.query("SELECT * FROM extra").unwrap();
    assert!(out.contains('7'), "got: {out}");
}
