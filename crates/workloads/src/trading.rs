//! The §3 stock-trading application: Figure 3's ER schema, the Figure-4
//! parameter view and Figure-5 quality view built through the methodology,
//! and seeded generators for clients / stocks / trades / price ticks.

use dq_core::{
    step1_application_view, step4_integrate, CandidateCatalog, QualitySchema, QualityView, Step2,
    Step3, Target, INSPECTION,
};
use er_model::{Cardinality, Correspondences, EntityType, ErAttribute, ErSchema, RelationshipType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{DataType, Date, DbError, DbResult, Schema, Value};
use tagstore::{
    IndicatorDef, IndicatorDictionary, IndicatorValue, QualityCell, TaggedRelation, TaggedRow,
};

/// Figure 3's application view: client — trade — company_stock.
pub fn figure3_schema() -> ErSchema {
    ErSchema::new("trading")
        .with_entity(
            EntityType::new("client")
                .with(ErAttribute::key("account_number", DataType::Int))
                .with(ErAttribute::new("name", DataType::Text))
                .with(ErAttribute::new("address", DataType::Text))
                .with(ErAttribute::new("telephone", DataType::Text)),
        )
        .with_entity(
            EntityType::new("company_stock")
                .with(ErAttribute::key("ticker_symbol", DataType::Text))
                .with(ErAttribute::new("share_price", DataType::Float))
                .with(ErAttribute::new("research_report", DataType::Text)),
        )
        .with_relationship(
            RelationshipType::binary(
                "trade",
                ("client", Cardinality::Many),
                ("company_stock", Cardinality::Many),
            )
            .with(ErAttribute::key("date", DataType::Date))
            .with(ErAttribute::new("quantity", DataType::Int))
            .with(ErAttribute::new("trade_price", DataType::Float)),
        )
}

/// Figure 4: the parameter view — timeliness on share price, credibility
/// and cost on the research report, accuracy on the telephone, and the
/// "✓ inspection" requirement on trades.
pub fn figure4_parameter_view() -> dq_core::ParameterView {
    let app = step1_application_view(figure3_schema()).expect("figure 3 validates");
    Step2::new(app, CandidateCatalog::appendix_a())
        .parameter(
            Target::attr("company_stock", "share_price"),
            "timeliness",
            "the user is concerned with how old the data is",
        )
        .expect("valid target")
        .parameter(
            Target::attr("company_stock", "research_report"),
            "credibility",
            "trader trusts reports by named analysts",
        )
        .expect("valid target")
        .parameter(
            Target::attr("company_stock", "research_report"),
            "cost",
            "the user is concerned with the price of the data",
        )
        .expect("valid target")
        .parameter(
            Target::attr("company_stock", "research_report"),
            "interpretability",
            "reports arrive in multiple document formats",
        )
        .expect("valid target")
        .parameter(
            Target::attr("client", "telephone"),
            "accuracy",
            "multiple collection mechanisms with different error rates",
        )
        .expect("valid target")
        .parameter(
            Target::attr("company_stock", "ticker_symbol"),
            "interpretability",
            "ticker symbols are cryptic without the company name",
        )
        .expect("valid target")
        .inspection(
            Target::Relationship("trade".into()),
            "trades must be verifiable after the fact",
        )
        .expect("valid target")
        .finish()
}

/// Figure 5: the quality view — age on share price; analyst name and
/// media on the report; collection method on the telephone; company name
/// on the ticker symbol; the inspection mechanism on trades.
pub fn figure5_quality_view() -> QualityView {
    Step3::new(figure4_parameter_view())
        .operationalize(
            Target::attr("company_stock", "share_price"),
            "timeliness",
            IndicatorDef::new("age", DataType::Int, "days since the quote was created"),
        )
        .expect("parameter exists")
        .operationalize(
            Target::attr("company_stock", "research_report"),
            "credibility",
            IndicatorDef::new("analyst", DataType::Text, "author of the report"),
        )
        .expect("parameter exists")
        .retain_objective(
            Target::attr("company_stock", "research_report"),
            "cost",
            DataType::Float,
        )
        .expect("parameter exists")
        .operationalize(
            Target::attr("company_stock", "research_report"),
            "interpretability",
            IndicatorDef::new("media", DataType::Text, "bit mapped / ASCII / postscript"),
        )
        .expect("parameter exists")
        .operationalize(
            Target::attr("client", "telephone"),
            "accuracy",
            IndicatorDef::new(
                "collection_method",
                DataType::Text,
                "over the phone / from an information service",
            ),
        )
        .expect("parameter exists")
        .operationalize(
            Target::attr("company_stock", "ticker_symbol"),
            "interpretability",
            IndicatorDef::new(
                "company_name",
                DataType::Text,
                "enhances interpretability of the ticker symbol",
            ),
        )
        .expect("parameter exists")
        .operationalize_suggested(Target::Relationship("trade".into()), INSPECTION)
        .expect("parameter exists")
        .finish()
        .expect("every parameter operationalized")
}

/// The integrated quality schema for the single-view case (§3.4: "because
/// only one set of requirements is considered ... there is no view
/// integration"), with the default derivability rules in force.
pub fn trading_quality_schema() -> QualitySchema {
    let qv = figure5_quality_view();
    step4_integrate(
        "trading_quality",
        &[&qv],
        &Correspondences::new(),
        &dq_core::default_rules(),
    )
    .expect("single-view integration cannot conflict")
}

/// Generator configuration for the trading workload.
#[derive(Debug, Clone)]
pub struct TradingGenConfig {
    /// Number of clients.
    pub clients: usize,
    /// Number of listed stocks.
    pub stocks: usize,
    /// Number of trades.
    pub trades: usize,
    /// RNG seed.
    pub seed: u64,
    /// "Today" — trade dates and quote ages are relative to this.
    pub today: Date,
}

impl Default for TradingGenConfig {
    fn default() -> Self {
        TradingGenConfig {
            clients: 100,
            stocks: 50,
            trades: 1000,
            seed: 7,
            today: Date::new(1991, 10, 24).expect("valid"),
        }
    }
}

/// The generated workload: tagged relations for all three tables.
#[derive(Debug, Clone)]
pub struct TradingWorkload {
    /// `client(account_number, name, address, telephone)`, telephone
    /// tagged with `collection_method`.
    pub clients: TaggedRelation,
    /// `company_stock(ticker_symbol, share_price, research_report)`,
    /// price tagged with `creation_time`/`age`/`source`, report tagged
    /// with `analyst`/`media`.
    pub stocks: TaggedRelation,
    /// `trade(account_number, ticker_symbol, date, quantity, trade_price)`
    /// with `source`/`inspection` tags on quantity.
    pub trades: TaggedRelation,
}

impl TradingWorkload {
    /// Checks the quality-tag invariants the generator promises on the
    /// `stocks` relation: every `share_price` cell carries a
    /// `creation_time` date tag, its `age` tag equals the day count from
    /// creation to `today`, and its `source` is one of the known feeds.
    ///
    /// Returns a [`DbError::ConstraintViolation`] naming the offending
    /// row and invariant instead of panicking, so callers (workload
    /// consumers, admin audits) can surface the defect as data.
    pub fn validate(&self, today: Date) -> DbResult<()> {
        let violation = |row: usize, detail: String| {
            Err(DbError::ConstraintViolation {
                constraint: "stock quality tags".into(),
                detail: format!("stocks row {row}: {detail}"),
            })
        };
        for i in 0..self.stocks.len() {
            let price = self.stocks.cell(i, "share_price")?;
            let created = match price.tag_value("creation_time") {
                Value::Date(d) => d,
                Value::Null => return violation(i, "missing creation_time tag".into()),
                other => {
                    return violation(i, format!("creation_time is {other:?}, expected a date"))
                }
            };
            match price.tag_value("age") {
                Value::Int(age) => {
                    let expected = today.days_between(&created);
                    if age != expected {
                        return violation(
                            i,
                            format!("age {age} != {expected} days since {created}"),
                        );
                    }
                }
                other => return violation(i, format!("age is {other:?}, expected an int")),
            }
            match price.tag_value("source") {
                Value::Text(s) if FEEDS.contains(&s.as_str()) => {}
                other => return violation(i, format!("source {other:?} is not a known feed")),
            }
        }
        Ok(())
    }
}

const ANALYSTS: &[&str] = &["Smith", "Jones", "Garcia", "Chen", "Okafor", "Meyer"];
const MEDIA: &[&str] = &["ASCII", "bit mapped", "postscript"];
const FEEDS: &[&str] = &["NYSE feed", "consolidated tape", "manual entry"];
const PHONE_METHODS: &[&str] = &["over the phone", "from an information service"];

fn ticker(i: usize) -> String {
    let letters: Vec<char> = ('A'..='Z').collect();
    let a = letters[i % 26];
    let b = letters[(i / 26) % 26];
    let c = letters[(i / 676) % 26];
    format!("{a}{b}{c}")
}

/// Generates the full trading workload.
pub fn generate_trading(cfg: &TradingGenConfig) -> DbResult<TradingWorkload> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dict = IndicatorDictionary::with_trading_defaults();

    // clients
    let client_schema = Schema::of(&[
        ("account_number", DataType::Int),
        ("name", DataType::Text),
        ("address", DataType::Text),
        ("telephone", DataType::Text),
    ]);
    let mut clients = TaggedRelation::empty(client_schema, dict.clone());
    for i in 0..cfg.clients {
        let phone = format!("555-{:04}", rng.gen_range(0..10000));
        clients.push(vec![
            QualityCell::bare(i as i64),
            QualityCell::bare(format!("Client {i}")),
            QualityCell::bare(format!("{} Main St", rng.gen_range(1..999))),
            QualityCell::bare(phone).with_tag(IndicatorValue::new(
                "collection_method",
                PHONE_METHODS[rng.gen_range(0..PHONE_METHODS.len())],
            )),
        ])?;
    }

    // stocks
    let stock_schema = Schema::of(&[
        ("ticker_symbol", DataType::Text),
        ("share_price", DataType::Float),
        ("research_report", DataType::Text),
    ]);
    let mut stocks = TaggedRelation::empty(stock_schema, dict.clone());
    for i in 0..cfg.stocks {
        let age = rng.gen_range(0..60i64);
        let created = cfg.today.plus_days(-age);
        let price = (rng.gen_range(100..100_000) as f64) / 100.0;
        stocks.push(vec![
            QualityCell::bare(ticker(i))
                .with_tag(IndicatorValue::new("company_name", format!("Company {i}"))),
            QualityCell::bare(price)
                .with_tag(IndicatorValue::new("creation_time", Value::Date(created)))
                .with_tag(IndicatorValue::new("age", age))
                .with_tag(IndicatorValue::new(
                    "source",
                    FEEDS[rng.gen_range(0..FEEDS.len())],
                )),
            QualityCell::bare(format!("Report on {}", ticker(i)))
                .with_tag(IndicatorValue::new(
                    "analyst",
                    ANALYSTS[rng.gen_range(0..ANALYSTS.len())],
                ))
                .with_tag(IndicatorValue::new(
                    "media",
                    MEDIA[rng.gen_range(0..MEDIA.len())],
                ))
                .with_tag(IndicatorValue::new(
                    "price_paid",
                    (rng.gen_range(0..50_000) as f64) / 100.0,
                )),
        ])?;
    }

    // trades
    let mut trades = TaggedRelation::empty(trade_schema(), dict);
    for _ in 0..cfg.trades {
        trades.push(gen_trade_row(&mut rng, cfg))?;
    }

    Ok(TradingWorkload {
        clients,
        stocks,
        trades,
    })
}

/// Schema of the trade relation (`generate_trading`'s `trades` and every
/// row [`trade_stream`] yields).
pub fn trade_schema() -> Schema {
    Schema::of(&[
        ("account_number", DataType::Int),
        ("ticker_symbol", DataType::Text),
        ("date", DataType::Date),
        ("quantity", DataType::Int),
        ("trade_price", DataType::Float),
    ])
}

fn gen_trade_row(rng: &mut StdRng, cfg: &TradingGenConfig) -> TaggedRow {
    let acct = rng.gen_range(0..cfg.clients.max(1)) as i64;
    let tkr = ticker(rng.gen_range(0..cfg.stocks.max(1)));
    let date = cfg.today.plus_days(-rng.gen_range(0..365i64));
    let qty = rng.gen_range(1..1000i64) * if rng.gen_bool(0.5) { 1 } else { -1 };
    let price = (rng.gen_range(100..100_000) as f64) / 100.0;
    let inspected = rng.gen_bool(0.8);
    let mut qty_cell = QualityCell::bare(qty)
        .with_tag(IndicatorValue::new("source", "order desk"))
        .with_tag(IndicatorValue::new("creation_time", Value::Date(date)));
    if inspected {
        qty_cell.set_tag(IndicatorValue::new("inspection", "double entry"));
    }
    TaggedRow::from([
        QualityCell::bare(acct),
        QualityCell::bare(tkr),
        QualityCell::bare(Value::Date(date)),
        qty_cell,
        QualityCell::bare(price),
    ])
}

/// A seeded *streaming* generator of `cfg.trades` trade rows: identical
/// rows every run, O(1) memory however large the count — this is how
/// multi-million-row paged workloads are driven without materializing
/// anything. Rows follow [`trade_schema`] and validate against
/// [`trading_dictionary`].
pub fn trade_stream(cfg: &TradingGenConfig) -> impl Iterator<Item = TaggedRow> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cfg = cfg.clone();
    (0..cfg.trades).map(move |_| gen_trade_row(&mut rng, &cfg))
}

/// Extension trait adding the trading-domain indicators to the paper
/// defaults (analyst, media, etc. are already there; company_name and
/// price_paid are specific to this application).
trait TradingDict {
    fn with_trading_defaults() -> IndicatorDictionary;
}

impl TradingDict for IndicatorDictionary {
    fn with_trading_defaults() -> IndicatorDictionary {
        let mut d = IndicatorDictionary::with_paper_defaults();
        d.declare(IndicatorDef::new(
            "company_name",
            DataType::Text,
            "full company name behind a ticker symbol",
        ))
        .expect("fresh");
        d.declare(IndicatorDef::new(
            "price_paid",
            DataType::Float,
            "monetary price paid for the document",
        ))
        .expect("fresh");
        d
    }
}

/// Public accessor for the trading indicator dictionary.
pub fn trading_dictionary() -> IndicatorDictionary {
    IndicatorDictionary::with_trading_defaults()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_validates_and_matches_paper() {
        let s = figure3_schema();
        s.validate().unwrap();
        assert!(s.entity("client").unwrap().attribute("telephone").is_some());
        assert!(s.relationship("trade").unwrap().is_many_to_many());
        assert_eq!(s.relationship("trade").unwrap().attributes.len(), 3);
    }

    #[test]
    fn figure4_has_paper_parameters() {
        let pv = figure4_parameter_view();
        assert!(pv.has_inspection());
        let sp = pv.parameters_on(&Target::attr("company_stock", "share_price"));
        assert_eq!(sp.len(), 1);
        assert_eq!(sp[0].parameter, "timeliness");
        let rr = pv.parameters_on(&Target::attr("company_stock", "research_report"));
        assert_eq!(rr.len(), 3); // credibility, cost, interpretability
    }

    #[test]
    fn figure5_has_paper_indicators() {
        let qv = figure5_quality_view();
        let names: Vec<&str> = qv.indicators.iter().map(|i| i.def.name.as_str()).collect();
        for expected in ["age", "analyst", "media", "collection_method", "company_name", "inspection", "cost"] {
            assert!(names.contains(&expected), "missing indicator {expected}");
        }
    }

    #[test]
    fn quality_schema_configures_tagstore() {
        let qs = trading_quality_schema();
        let dict = qs.indicator_dictionary().unwrap();
        assert!(dict.get("age").is_some());
        assert!(dict.get("collection_method").is_some());
        // single-view integration: parameter docs preserved
        assert_eq!(qs.census().0, 7);
    }

    #[test]
    fn workload_is_deterministic_and_sized() {
        let cfg = TradingGenConfig {
            clients: 10,
            stocks: 5,
            trades: 50,
            ..Default::default()
        };
        let a = generate_trading(&cfg).unwrap();
        let b = generate_trading(&cfg).unwrap();
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.stocks, b.stocks);
        assert_eq!(a.trades, b.trades);
        assert_eq!(a.clients.len(), 10);
        assert_eq!(a.stocks.len(), 5);
        assert_eq!(a.trades.len(), 50);
    }

    #[test]
    fn trade_stream_is_deterministic_and_schema_valid() {
        let cfg = TradingGenConfig {
            trades: 200,
            ..Default::default()
        };
        let a: Vec<_> = trade_stream(&cfg).collect();
        let b: Vec<_> = trade_stream(&cfg).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        // every streamed row loads into a relation under the dictionary
        let mut rel = TaggedRelation::empty(trade_schema(), trading_dictionary());
        for row in a {
            rel.push(row).unwrap();
        }
        assert_eq!(rel.len(), 200);
    }

    #[test]
    fn stock_tags_consistent() {
        let w = generate_trading(&TradingGenConfig {
            stocks: 20,
            ..Default::default()
        })
        .unwrap();
        let today = TradingGenConfig::default().today;
        w.stocks.cell(0, "share_price").unwrap(); // generator produced rows
        w.validate(today).unwrap();
    }

    #[test]
    fn validate_reports_malformed_rows_as_errors() {
        let today = TradingGenConfig::default().today;
        let mut w = generate_trading(&TradingGenConfig {
            stocks: 3,
            ..Default::default()
        })
        .unwrap();
        // stale age: validated against the wrong day, not a panic
        let err = w.validate(today.plus_days(1)).unwrap_err();
        match &err {
            DbError::ConstraintViolation { constraint, detail } => {
                assert_eq!(constraint, "stock quality tags");
                assert!(detail.contains("stocks row 0"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
        // untagged price cell: missing creation_time reported, not a panic
        w.stocks
            .push(vec![
                QualityCell::bare("ZZZ"),
                QualityCell::bare(1.0),
                QualityCell::bare("no report"),
            ])
            .unwrap();
        let err = w.validate(today).unwrap_err();
        assert!(
            err.to_string().contains("missing creation_time"),
            "{err}"
        );
        // unknown feed source
        let mut w2 = generate_trading(&TradingGenConfig {
            stocks: 1,
            ..Default::default()
        })
        .unwrap();
        w2.stocks
            .cell_mut(0, "share_price")
            .unwrap()
            .set_tag(IndicatorValue::new("source", "carrier pigeon"));
        let err = w2.validate(today).unwrap_err();
        assert!(err.to_string().contains("not a known feed"), "{err}");
    }

    #[test]
    fn trades_reference_existing_entities() {
        let cfg = TradingGenConfig {
            clients: 5,
            stocks: 3,
            trades: 30,
            ..Default::default()
        };
        let w = generate_trading(&cfg).unwrap();
        let tickers: Vec<Value> = (0..3).map(|i| Value::text(ticker(i))).collect();
        for row in w.trades.iter() {
            assert!(row[0].value.as_int().unwrap() < 5);
            assert!(tickers.contains(&row[1].value));
        }
    }

    #[test]
    fn ticker_generation_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(ticker(i)), "duplicate ticker at {i}");
        }
    }
}
