//! Delta publish ≡ registration from scratch. A `TAG` publishes a
//! successor table entry that inherits its predecessor's access paths —
//! the key hash indexes shared, the bitmap index carried with the
//! write's cells retagged. Catalog A takes a seeded stream of `TAG`s
//! that way; catalog B is re-registered from A's relation (every access
//! path dropped and rebuilt) before every read. The two must render
//! every `SELECT` and every plain `EXPLAIN` — whose `est_selectivity`
//! is a popcount of the inherited bitmaps — byte for byte the same, and
//! a snapshot pinned before a `TAG` must go on rendering what it
//! rendered then: postings shared between predecessor and successor
//! never leak a later write.

use dq_query::{explain, prepare_write, run, run_mut, Planner, QueryCatalog};
use dq_server::render_result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{DataType, Date, Schema, Value};
use tagstore::{IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation};

const ROWS: usize = 48;
const SECTORS: [&str; 3] = ["tech", "retail", "energy"];
const SOURCES: [&str; 3] = ["NYSE feed", "manual entry", "Nexis"];

/// `stocks(ticker, price, sector)`: unique tickers, a NULL price, and
/// `price@source` / `price@age` / `price@creation_time` on most rows.
/// No row carries `price@inspection`: the first `TAG` under it creates
/// the posting.
fn stocks(rng: &mut StdRng) -> TaggedRelation {
    let rows = (0..ROWS).map(|i| {
        let value = if i == 5 {
            Value::Null
        } else {
            Value::Float(rng.gen_range(1..400) as f64 / 4.0)
        };
        let mut price = QualityCell::bare(value);
        if rng.gen_bool(0.8) {
            price.set_tag(IndicatorValue::new(
                "source",
                SOURCES[rng.gen_range(0..SOURCES.len())],
            ));
        }
        if rng.gen_bool(0.7) {
            price.set_tag(IndicatorValue::new("age", rng.gen_range(0..30) as i64));
        }
        if rng.gen_bool(0.6) {
            let day = Date::parse(&format!("10-{}-91", rng.gen_range(1..24))).unwrap();
            price.set_tag(IndicatorValue::new("creation_time", Value::Date(day)));
        }
        vec![
            QualityCell::bare(format!("T{i}")),
            price,
            QualityCell::bare(SECTORS[i % 3]),
        ]
    });
    let schema = Schema::of(&[
        ("ticker", DataType::Text),
        ("price", DataType::Float),
        ("sector", DataType::Text),
    ]);
    TaggedRelation::new(
        schema,
        IndicatorDictionary::with_paper_defaults(),
        rows.collect(),
    )
    .unwrap()
}

/// Seeded statement generator.
struct Gen(StdRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    /// A ticker; the last two match no row.
    fn ticker(&mut self) -> String {
        format!("T{}", self.below(ROWS + 2))
    }

    /// `SET` target and expression: literals over a small domain (so
    /// cells are re-tagged and values come and go), derived expressions
    /// that are NULL wherever their input tag is missing, and one that
    /// is NULL everywhere.
    fn set(&mut self) -> String {
        match self.below(7) {
            0 | 1 => format!("price@inspection = 'audit-{}'", self.below(4)),
            2 => format!("price@source = '{}'", SOURCES[self.below(SOURCES.len())]),
            3 => format!("price@age = {}", self.below(30)),
            4 => "price@age = DATE '1991-10-24' - price@creation_time".to_owned(),
            5 => "price@age = price@age + 1".to_owned(),
            _ => "price@age = NULL".to_owned(),
        }
    }

    /// `WHERE`: keyed (alone, flipped, with a residual that may reject
    /// the row), unkeyed over values or tags, or absent.
    fn filter(&mut self) -> String {
        match self.below(8) {
            0 | 1 => format!(" WHERE ticker = '{}'", self.ticker()),
            2 => format!(
                " WHERE '{}' = ticker AND price@age <= {}",
                self.ticker(),
                self.below(30)
            ),
            3 => format!(
                " WHERE price > {} AND ticker = '{}'",
                self.below(100),
                self.ticker()
            ),
            4 => format!(" WHERE price <= {}", self.below(100)),
            5 => format!(
                " WHERE sector = '{}' AND price@age > {}",
                SECTORS[self.below(3)],
                self.below(30)
            ),
            6 => format!(
                " WHERE price@source <> '{}'",
                SOURCES[self.below(SOURCES.len())]
            ),
            _ => String::new(),
        }
    }

    fn tag(&mut self) -> String {
        format!("TAG stocks SET {}{}", self.set(), self.filter())
    }

    /// A point, range or quality `SELECT`.
    fn select(&mut self) -> String {
        let quality = match self.below(5) {
            0 => format!("price@inspection = 'audit-{}'", self.below(4)),
            1 => format!("price@inspection <> 'audit-{}'", self.below(4)),
            2 => format!("price@age <= {}", self.below(32)),
            3 => format!(
                "price@source = '{}' AND price@age > {}",
                SOURCES[self.below(SOURCES.len())],
                self.below(30)
            ),
            _ => format!(
                "price@age BETWEEN {} AND {}",
                self.below(15),
                10 + self.below(20)
            ),
        };
        match self.below(4) {
            0 => format!("SELECT * FROM stocks WHERE ticker = '{}' WITH QUALITY ({quality})", self.ticker()),
            1 => format!("SELECT ticker, price FROM stocks WHERE price > {} WITH QUALITY ({quality})", self.below(100)),
            2 => format!("SELECT ticker, price@age AS age FROM stocks WITH QUALITY ({quality}) ORDER BY ticker"),
            _ => format!("SELECT * FROM stocks WITH QUALITY ({quality})"),
        }
    }
}

/// What a catalog says to `sql` and to its plain `EXPLAIN`.
fn answers(catalog: &QueryCatalog, sql: &str) -> (String, String) {
    let rows = render_result(&run(catalog, sql).unwrap_or_else(|e| panic!("{sql}: {e}")));
    let plan = explain(catalog, sql, &Planner::default()).unwrap_or_else(|e| panic!("{sql}: {e}"));
    (rows, plan)
}

/// What a pinned snapshot is held to: the whole table with its tags, and
/// two statements over the indicators the stream writes.
const PROBES: [&str; 3] = [
    "INSPECT FROM stocks",
    "SELECT ticker FROM stocks WITH QUALITY (price@inspection <> 'audit-0')",
    "SELECT ticker FROM stocks WHERE price > 20 WITH QUALITY (price@age <= 12)",
];

struct Pin {
    snapshot: QueryCatalog,
    after: String,
    rendered: Vec<(String, String)>,
}

impl Pin {
    fn take(catalog: &QueryCatalog, after: &str) -> Pin {
        let snapshot = catalog.snapshot();
        let rendered = PROBES.iter().map(|sql| answers(&snapshot, sql)).collect();
        Pin {
            snapshot,
            after: after.to_owned(),
            rendered,
        }
    }

    fn check(&self, now: &str) {
        for (sql, then) in PROBES.iter().zip(&self.rendered) {
            let got = answers(&self.snapshot, sql);
            assert_eq!(
                &got, then,
                "pin taken after `{}` moved under `{now}`: {sql}",
                self.after
            );
        }
    }
}

fn run_stream(seed: u64) {
    let mut gen = Gen(StdRng::seed_from_u64(seed));
    let mut a = QueryCatalog::new();
    a.register("stocks", stocks(&mut gen.0));
    let mut pins: Vec<Pin> = Vec::new();
    let mut last = String::from("(load)");
    let (mut tags, mut conflicts, mut cells) = (0, 0, 0i64);

    for _ in 0..160 {
        if gen.below(5) < 2 {
            // a read: B starts from scratch every time
            let sql = gen.select();
            let mut b = QueryCatalog::new();
            b.register("stocks", a.get("stocks").unwrap().clone());
            assert_eq!(
                answers(&a, &sql),
                answers(&b, &sql),
                "seed {seed}, after `{last}`"
            );
            continue;
        }
        // Pinning renders the probes, which builds the pinned entry's
        // bitmap index; leave some predecessors unbuilt.
        if gen.below(3) > 0 {
            pins.push(Pin::take(&a, &last));
        }
        let sql = gen.tag();
        let mut twin = a.get("stocks").unwrap().clone();
        let tagged = if gen.below(4) == 0 {
            // two writes prepared on one snapshot: the second finds its
            // base superseded and re-applies its triples
            let snapshot = a.snapshot();
            let other = gen.tag();
            let (w1, w2) = (
                prepare_write(&snapshot, &other).unwrap(),
                prepare_write(&snapshot, &sql).unwrap(),
            );
            for w in [&w1, &w2] {
                for (row, column, tag) in w.tags() {
                    twin.tag_cell(*row, column, tag.clone()).unwrap();
                }
            }
            w1.apply(&mut a).unwrap();
            assert!(!a.same_entry(&snapshot, "stocks"));
            conflicts += 1;
            last = format!("{other}; {sql}");
            w2.apply(&mut a).unwrap()
        } else {
            for (row, column, tag) in prepare_write(&a, &sql).unwrap().tags() {
                twin.tag_cell(*row, column, tag.clone()).unwrap();
            }
            last = sql.clone();
            run_mut(&mut a, &sql).unwrap()
        };
        tags += 1;
        match tagged.relation().cell(0, "cells_tagged").unwrap().value {
            Value::Int(n) => cells += n,
            ref other => panic!("cells_tagged = {other:?}"),
        }
        // the published relation is the recorded triples, nothing else
        assert_eq!(a.get("stocks").unwrap(), &twin, "seed {seed}, `{last}`");
        if let Some(pin) = pins.last() {
            pin.check(&last);
        }
    }
    // old pins too: a posting un-shared many writes ago is still theirs
    for pin in &pins {
        pin.check("(end of stream)");
    }
    assert!(
        tags > 60 && conflicts > 5 && cells > 100,
        "seed {seed}: {tags} {conflicts} {cells}"
    );
}

#[test]
fn delta_publish_equals_registration_from_scratch() {
    for seed in [1, 2, 3, 0xD17A] {
        run_stream(seed);
    }
}

/// The same at 1, 2 and 8 threads: the inherited index and a parallel
/// rebuild agree.
#[test]
fn delta_publish_is_thread_count_invariant() {
    for threads in [1usize, 2, 8] {
        relstore::par::with_thread_count(threads, || run_stream(7));
    }
}
