//! Vectorized batch execution: operators process fixed-size row windows
//! carrying a **selection vector** instead of materializing intermediate
//! `Vec<TaggedRow>`s between pipeline stages.
//!
//! ## Batch format
//!
//! A batch is a window of up to `batch_size` consecutive rows of the
//! input relation (`start .. start + len`) plus a [`Bitset`] selection
//! vector over `0..len`: bit `i` set means row `start + i` is still
//! live. The selection vector reuses the bitmap index's `u64` words
//! directly; the columnar kernels (`crate::columnar`, which import this
//! module's kernel compiler) seed it from an IndexScan's candidate
//! bitset via [`Bitset::extract_range`] — word-at-a-time, with no
//! intermediate `Vec<usize>` of row ids.
//!
//! ## Selection-vector invariants
//!
//! * bits at positions `>= len` are always zero (the [`Bitset`] tail
//!   invariant), so word loops never examine phantom rows;
//! * kernels only ever *clear* bits — a row filtered by conjunct *k* is
//!   never re-examined by conjunct *k+1*, which is where the win over
//!   row-at-a-time full-tree evaluation comes from;
//! * surviving rows are gathered **once**, after all conjuncts, by
//!   cloning maximal contiguous runs of the selection vector — tag sets
//!   propagate per surviving slice as `Arc` refcount bumps (PR 1's
//!   zero-copy representation), never deep copies.
//!
//! ## Semantics parity
//!
//! Kernel evaluation reproduces the scalar evaluator exactly on the rows
//! it examines: NULL operands drop the row before any type check,
//! equality uses the storage total order (`Int(2) == Float(2.0)`), and
//! `<`-family kernels reproduce `TypeMismatch` via
//! [`relstore::expr::cmp_check`]. One caveat is inherited from index
//! narrowing (see `tagstore::bitmap`): conjuncts run batch-at-a-time in
//! order, so when a predicate *does* type-error, the vectorized path may
//! report the error from a different row of the batch than the
//! row-at-a-time path — well-typed predicates (the only kind the query
//! layer produces against declared schemas) are bit-for-bit identical,
//! which the property tests pin at batch sizes 1/7/1024 and 1/2/8
//! threads.

use crate::algebra::CompiledTagExpr;
use crate::bitmap::Bitset;
use crate::cell::QualityCell;
use crate::relation::{TaggedRelation, TaggedRow};
use crate::symbol::Symbol;
use relstore::expr::{cmp_check, BinOp, CompiledExpr};
use relstore::index::HashIndex;
use relstore::{par, DbError, DbResult, Value};

/// Default rows per batch — large enough to amortize per-batch
/// bookkeeping, small enough that a batch's cells stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Per-operator batch accounting, surfaced through EXPLAIN ANALYZE and
/// the `vector.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Batches actually processed (all-dead windows are skipped).
    pub batches: usize,
    /// Configured rows per batch.
    pub batch_size: usize,
    /// Rows entering the operator (selected candidates, not the window).
    pub rows_in: usize,
    /// Rows surviving the operator.
    pub rows_out: usize,
}

impl BatchStats {
    pub(crate) fn new(batch_size: usize) -> Self {
        BatchStats {
            batches: 0,
            batch_size,
            rows_in: 0,
            rows_out: 0,
        }
    }

    pub(crate) fn absorb(&mut self, other: BatchStats) {
        self.batches += other.batches;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
    }

    fn publish(&self) {
        dq_obs::counter!("vector.batches").add(self.batches as u64);
        dq_obs::counter!("vector.rows_in").add(self.rows_in as u64);
        dq_obs::counter!("vector.rows_out").add(self.rows_out as u64);
    }
}

/// Missing tags evaluate to NULL, borrowed from this sentinel.
static NULL_SENTINEL: Value = Value::Null;

/// How a kernel reads its column: an application cell value or a tag
/// value down an interned indicator path.
pub(crate) enum Access {
    App(usize),
    Tag(usize, Vec<Symbol>),
}

impl Access {
    pub(crate) fn from_col(idx: usize, compiled: &CompiledTagExpr) -> Access {
        if idx < compiled.base() {
            Access::App(idx)
        } else {
            let (ci, path) = &compiled.plan()[idx - compiled.base()];
            Access::Tag(*ci, path.clone())
        }
    }

    #[inline]
    fn value<'a>(&self, row: &'a [QualityCell]) -> &'a Value {
        match self {
            Access::App(i) => &row[*i].value,
            Access::Tag(ci, path) => match row[*ci].tag_path_syms(path) {
                Some(tag) => &tag.value,
                None => &NULL_SENTINEL,
            },
        }
    }

}

/// One conjunct of the predicate, compiled to its cheapest batch form.
pub(crate) enum Kernel<'e> {
    /// `col OP literal` — direct cell/tag access, no expression-tree
    /// walk, no `Cow` allocation per row.
    Cmp {
        access: Access,
        op: BinOp,
        lit: &'e Value,
    },
    /// `col BETWEEN lit AND lit` — total-order, never type-errors.
    Between {
        access: Access,
        lo: &'e Value,
        hi: &'e Value,
    },
    /// Anything else: full scalar evaluation, restricted to live rows.
    Generic(&'e CompiledExpr),
}

impl Kernel<'_> {
    /// Scalar comparison against an already-extracted column value.
    #[inline]
    pub(crate) fn test_value(&self, v: &Value) -> DbResult<bool> {
        if v.is_null() {
            return Ok(false); // 3VL: NULL comparison never holds
        }
        match self {
            Kernel::Cmp { op, lit, .. } => match op {
                BinOp::Eq => Ok(v == *lit),
                BinOp::Ne => Ok(v != *lit),
                BinOp::Lt => cmp_check(v, lit).map(|_| v < *lit),
                BinOp::Le => cmp_check(v, lit).map(|_| v <= *lit),
                BinOp::Gt => cmp_check(v, lit).map(|_| v > *lit),
                BinOp::Ge => cmp_check(v, lit).map(|_| v >= *lit),
                _ => unreachable!("non-comparison op in Cmp kernel"),
            },
            Kernel::Between { lo, hi, .. } => Ok(v >= *lo && v <= *hi),
            Kernel::Generic(_) => unreachable!("Generic kernel has no column access"),
        }
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn split_and<'e>(e: &'e CompiledExpr, out: &mut Vec<&'e CompiledExpr>) {
    if let CompiledExpr::Bin(l, BinOp::And, r) = e {
        split_and(l, out);
        split_and(r, out);
    } else {
        out.push(e);
    }
}

/// Decomposes the compiled predicate into top-level AND conjuncts and
/// compiles each to its cheapest kernel.
pub(crate) fn compile_kernels(compiled: &CompiledTagExpr) -> Vec<Kernel<'_>> {
    let mut conjuncts = Vec::new();
    split_and(compiled.expr(), &mut conjuncts);
    conjuncts
        .into_iter()
        .map(|c| kernel_for(c, compiled))
        .collect()
}

fn kernel_for<'e>(c: &'e CompiledExpr, compiled: &CompiledTagExpr) -> Kernel<'e> {
    match c {
        CompiledExpr::Bin(l, op, r)
            if matches!(
                op,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            ) =>
        {
            // NULL literals stay generic: the evaluator folds them to
            // NULL without any type check, which Generic reproduces.
            match (&**l, &**r) {
                (CompiledExpr::Col(i), CompiledExpr::Lit(v)) if !v.is_null() => Kernel::Cmp {
                    access: Access::from_col(*i, compiled),
                    op: *op,
                    lit: v,
                },
                (CompiledExpr::Lit(v), CompiledExpr::Col(i)) if !v.is_null() => Kernel::Cmp {
                    access: Access::from_col(*i, compiled),
                    op: flip(*op),
                    lit: v,
                },
                _ => Kernel::Generic(c),
            }
        }
        CompiledExpr::Between(e, lo, hi) => match (&**e, &**lo, &**hi) {
            (CompiledExpr::Col(i), CompiledExpr::Lit(a), CompiledExpr::Lit(b))
                if !a.is_null() && !b.is_null() =>
            {
                Kernel::Between {
                    access: Access::from_col(*i, compiled),
                    lo: a,
                    hi: b,
                }
            }
            _ => Kernel::Generic(c),
        },
        other => Kernel::Generic(other),
    }
}

/// Runs every kernel over one batch, clearing selection bits in place.
/// Word-at-a-time: dead words are skipped, and a batch whose selection
/// empties short-circuits the remaining conjuncts.
///
/// `Cmp`/`Between` kernels run in two passes over the live rows: an
/// extraction pass that chases each row's cell/tag pointers into a
/// scratch column of `&Value`s (a tiny loop body, so the out-of-order
/// core keeps many independent cache misses in flight), then a compare
/// pass over the dense column that clears bits branchlessly. Both
/// passes visit rows in bit order, so error reporting is identical to
/// testing each row in place.
fn filter_batch<'r>(
    rows: &'r [TaggedRow],
    start: usize,
    sel: &mut Bitset,
    kernels: &[Kernel],
    compiled: &CompiledTagExpr,
    scratch: &mut Vec<&'r Value>,
) -> DbResult<()> {
    for kernel in kernels {
        let access = match kernel {
            Kernel::Cmp { access, .. } | Kernel::Between { access, .. } => Some(access),
            Kernel::Generic(_) => None,
        };
        let mut live = 0u64;
        if let Some(access) = access {
            scratch.clear();
            for i in sel.iter_ones() {
                scratch.push(access.value(&rows[start + i]));
            }
            let mut cursor = 0;
            for word in sel.words_mut().iter_mut() {
                let mut bits = *word;
                let mut keep = bits;
                while bits != 0 {
                    let tz = bits.trailing_zeros();
                    bits &= bits - 1;
                    let ok = kernel.test_value(scratch[cursor])?;
                    cursor += 1;
                    keep &= !((u64::from(!ok)) << tz);
                }
                *word = keep;
                live |= keep;
            }
        } else {
            let Kernel::Generic(e) = kernel else {
                unreachable!()
            };
            for (wi, word) in sel.words_mut().iter_mut().enumerate() {
                let mut bits = *word;
                if bits == 0 {
                    continue;
                }
                let mut keep = bits;
                while bits != 0 {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if !compiled.matches_sub(e, &rows[start + wi * 64 + tz])? {
                        keep &= !(1u64 << tz);
                    }
                }
                *word = keep;
                live |= keep;
            }
        }
        if live == 0 {
            break;
        }
    }
    Ok(())
}

/// Calls `f(run_start, run_len)` for each maximal run of consecutive set
/// bits — the "surviving batch slice" unit of tag propagation.
pub(crate) fn for_each_run(sel: &Bitset, mut f: impl FnMut(usize, usize)) {
    let mut run: Option<(usize, usize)> = None;
    for i in sel.iter_ones() {
        run = match run {
            Some((s, e)) if i == e => Some((s, e + 1)),
            Some((s, e)) => {
                f(s, e - s);
                Some((i, i + 1))
            }
            None => Some((i, i + 1)),
        };
    }
    if let Some((s, e)) = run {
        f(s, e - s);
    }
}

/// Clones surviving rows into `out` run-at-a-time, returning the count.
fn gather(rows: &[TaggedRow], start: usize, sel: &Bitset, out: &mut Vec<TaggedRow>) -> usize {
    let mut n = 0;
    for_each_run(sel, |run_start, run_len| {
        let a = start + run_start;
        out.extend_from_slice(&rows[a..a + run_len]);
        n += run_len;
    });
    n
}

/// The σ pipeline: windows of `batch_size` rows, a full selection
/// refined by `kernels`, gathered once. Batches run in parallel ranges
/// per [`par::plan`]'s cost model, merged in batch order —
/// byte-identical to the serial pass.
fn run_pipeline(
    rel: &TaggedRelation,
    kernels: &[Kernel],
    compiled: &CompiledTagExpr,
    batch_size: usize,
) -> DbResult<(Vec<TaggedRow>, BatchStats)> {
    let rows = rel.rows();
    let batch_size = batch_size.max(1);
    let nbatches = rows.len().div_ceil(batch_size);
    let run_range = |brange: std::ops::Range<usize>| -> DbResult<(Vec<TaggedRow>, BatchStats)> {
        let mut out = Vec::new();
        let mut stats = BatchStats::new(batch_size);
        let mut scratch = Vec::with_capacity(batch_size.min(rows.len()));
        for b in brange {
            let start = b * batch_size;
            let len = batch_size.min(rows.len() - start);
            let mut sel = Bitset::full(len);
            let _t = dq_obs::histogram!("vector.batch_us").start();
            stats.batches += 1;
            stats.rows_in += len;
            filter_batch(rows, start, &mut sel, kernels, compiled, &mut scratch)?;
            stats.rows_out += gather(rows, start, &sel, &mut out);
        }
        Ok((out, stats))
    };
    let (out, stats) = match par::plan(rows.len()) {
        Some(threads) if nbatches > 1 => {
            let parts = par::run_ranges(nbatches, threads.min(nbatches), |_, r| run_range(r));
            let mut out = Vec::new();
            let mut stats = BatchStats::new(batch_size);
            for part in parts {
                let (mut rows_p, s) = part?;
                out.append(&mut rows_p);
                stats.absorb(s);
            }
            (out, stats)
        }
        _ => run_range(0..nbatches)?,
    };
    stats.publish();
    Ok((out, stats))
}

/// Vectorized σ — identical rows and tags to [`algebra::select`], with
/// the predicate decomposed into per-conjunct kernels evaluated batch
/// by batch over a selection vector.
pub fn select_vectorized(
    rel: &TaggedRelation,
    predicate: &relstore::Expr,
    batch_size: usize,
) -> DbResult<(TaggedRelation, BatchStats)> {
    let compiled = CompiledTagExpr::compile(rel, predicate)?;
    let kernels = compile_kernels(&compiled);
    let (rows, stats) = run_pipeline(rel, &kernels, &compiled, batch_size)?;
    Ok((
        TaggedRelation::from_parts_unchecked(rel.schema().clone(), rel.dictionary().clone(), rows),
        stats,
    ))
}

/// Vectorized ⋈ probe — identical output to
/// [`algebra::hash_join_probe`]. Left rows stream through batches whose
/// selection vector first drops NULL keys word-at-a-time; surviving
/// rows probe the prebuilt index. Join fan-out can exceed the batch
/// width, so this operator reports under `vector.join.*` (the
/// `batches × batch_size ≥ rows_out` invariant is a σ/π property).
pub fn hash_join_probe_vectorized(
    left: &TaggedRelation,
    right: &TaggedRelation,
    left_key: &str,
    right_key: &str,
    index: &HashIndex,
    batch_size: usize,
) -> DbResult<(TaggedRelation, BatchStats)> {
    let li = left.schema().resolve(left_key)?;
    right.schema().resolve(right_key)?;
    let schema = left.schema().join(right.schema(), "l", "r")?;
    let rows = left.rows();
    let batch_size = batch_size.max(1);
    let nbatches = rows.len().div_ceil(batch_size);
    let run_range = |brange: std::ops::Range<usize>| -> DbResult<(Vec<TaggedRow>, BatchStats)> {
        let mut out = Vec::new();
        let mut stats = BatchStats::new(batch_size);
        let mut key = vec![Value::Null];
        for b in brange {
            let start = b * batch_size;
            let len = batch_size.min(rows.len() - start);
            let _t = dq_obs::histogram!("vector.batch_us").start();
            stats.batches += 1;
            stats.rows_in += len;
            let mut sel = Bitset::full(len);
            // NULL keys never join (NULL = NULL is true under the
            // storage total order, so they must not reach the index).
            for (i, row) in rows[start..start + len].iter().enumerate() {
                if row[li].value.is_null() {
                    sel.clear(i);
                }
            }
            for i in sel.iter_ones() {
                let lr = &rows[start + i];
                key[0] = lr[li].value.clone();
                for &pos in index.get(&key) {
                    let rr = right.rows().get(pos).ok_or_else(|| {
                        DbError::InvalidExpression(format!(
                            "join index position {pos} out of range"
                        ))
                    })?;
                    let mut combined = lr.clone();
                    combined.extend(rr.iter().cloned());
                    out.push(combined);
                }
            }
            stats.rows_out = out.len();
        }
        Ok((out, stats))
    };
    let (out, stats) = match par::plan(rows.len()) {
        Some(threads) if nbatches > 1 => {
            let parts = par::run_ranges(nbatches, threads.min(nbatches), |_, r| run_range(r));
            let mut out = Vec::new();
            let mut stats = BatchStats::new(batch_size);
            for part in parts {
                let (mut rows_p, s) = part?;
                out.append(&mut rows_p);
                stats.absorb(s);
            }
            (out, stats)
        }
        _ => run_range(0..nbatches)?,
    };
    dq_obs::counter!("vector.join.batches").add(stats.batches as u64);
    dq_obs::counter!("vector.join.rows_in").add(stats.rows_in as u64);
    dq_obs::counter!("vector.join.rows_out").add(stats.rows_out as u64);
    Ok((
        TaggedRelation::from_parts_unchecked(schema, left.dictionary().clone(), out),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra;
    use crate::indicator::{IndicatorDictionary, IndicatorValue};
    use relstore::{DataType, Expr, Schema};

    /// A larger mixed fixture: some rows untagged, several sources/ages.
    fn mixed(n: i64) -> TaggedRelation {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let mut r = TaggedRelation::empty(schema, dict);
        for k in 0..n {
            let mut cell = QualityCell::bare(k * 2);
            if k % 3 != 2 {
                cell.set_tag(IndicatorValue::new(
                    "source",
                    ["a", "b", "c"][(k % 3) as usize],
                ));
            }
            if k % 4 != 3 {
                cell.set_tag(IndicatorValue::new("age", k % 23));
            }
            r.push(vec![QualityCell::bare(k), cell]).unwrap();
        }
        r
    }

    fn predicates() -> Vec<Expr> {
        vec![
            Expr::col("v@source").eq(Expr::lit("a")),
            Expr::col("v@source").ne(Expr::lit("a")),
            Expr::col("v@age").le(Expr::lit(10i64)),
            Expr::col("v@age")
                .le(Expr::lit(15i64))
                .and(Expr::col("v@source").ne(Expr::lit("b")))
                .and(Expr::col("k").ge(Expr::lit(3i64))),
            Expr::lit(7i64).gt(Expr::col("v@age")),
            Expr::Between(
                Box::new(Expr::col("v@age")),
                Box::new(Expr::lit(3i64)),
                Box::new(Expr::lit(12i64)),
            ),
            // OR forces a Generic kernel
            Expr::col("v@source")
                .eq(Expr::lit("a"))
                .or(Expr::col("v@age").le(Expr::lit(2i64))),
            // matches nothing
            Expr::col("v@source").eq(Expr::lit("zzz")),
            // matches everything
            Expr::col("k").ge(Expr::lit(0i64)),
        ]
    }

    #[test]
    fn select_vectorized_matches_row_at_a_time() {
        for n in [0i64, 1, 5, 63, 64, 65, 150] {
            let rel = mixed(n);
            for p in predicates() {
                let expect = algebra::select(&rel, &p).unwrap();
                for batch_size in [1usize, 7, 64, 1024] {
                    let (got, stats) = select_vectorized(&rel, &p, batch_size).unwrap();
                    assert_eq!(got, expect, "n={n} batch={batch_size} p={p:?}");
                    assert_eq!(stats.rows_out, expect.len());
                    assert!(stats.rows_in <= rel.len());
                    assert!(stats.batches * stats.batch_size >= stats.rows_out);
                }
            }
        }
    }

    #[test]
    fn select_vectorized_matches_under_forced_threads() {
        let rel = mixed(200);
        for p in predicates() {
            let expect = algebra::select(&rel, &p).unwrap();
            for threads in [1usize, 2, 8] {
                let (got, stats) =
                    par::with_thread_count(threads, || select_vectorized(&rel, &p, 7).unwrap());
                assert_eq!(got, expect, "threads={threads} p={p:?}");
                assert!(
                    stats.batches * stats.batch_size >= stats.rows_out,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn join_probe_vectorized_matches() {
        let left = mixed(50);
        // right: join partner keyed on k % 10, with one NULL-keyed row
        let schema = Schema::of(&[("k", DataType::Int), ("name", DataType::Text)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let mut rows = Vec::new();
        for k in 0..10i64 {
            rows.push(vec![
                QualityCell::bare(k).with_tag(IndicatorValue::new("source", "dim")),
                QualityCell::bare(format!("name{k}")),
            ]);
        }
        rows.push(vec![
            QualityCell::bare(Value::Null),
            QualityCell::bare("nullkey"),
        ]);
        let right = TaggedRelation::new(schema, dict, rows).unwrap();
        let ri = right.schema().resolve("k").unwrap();
        let mut idx = HashIndex::new(vec![ri]);
        for (pos, row) in right.iter().enumerate() {
            idx.insert(&vec![row[ri].value.clone()], pos);
        }
        let expect = algebra::hash_join_probe(&left, &right, "k", "k", &idx).unwrap();
        for batch_size in [1usize, 7, 1024] {
            let (got, stats) =
                hash_join_probe_vectorized(&left, &right, "k", "k", &idx, batch_size).unwrap();
            assert_eq!(got, expect, "batch={batch_size}");
            assert_eq!(stats.rows_out, expect.len());
        }
    }

    #[test]
    fn type_errors_surface_on_both_paths() {
        let rel = mixed(20);
        // ordered comparison across classes errors on every path
        let p = Expr::col("v@age").lt(Expr::lit("text"));
        assert!(algebra::select(&rel, &p).is_err());
        for batch_size in [1usize, 7, 1024] {
            assert!(select_vectorized(&rel, &p, batch_size).is_err());
        }
        // non-boolean predicate errors too
        let p = Expr::col("k").add(Expr::lit(1i64));
        assert!(algebra::select(&rel, &p).is_err());
        assert!(select_vectorized(&rel, &p, 1024).is_err());
    }

    #[test]
    fn vector_metrics_hold_invariants() {
        let before = dq_obs::registry().snapshot();
        let rel = mixed(300);
        let p = Expr::col("v@age").le(Expr::lit(10i64));
        let (_, stats) = select_vectorized(&rel, &p, 64).unwrap();
        let after = dq_obs::registry().snapshot();
        assert!(after.counter("vector.batches") >= before.counter("vector.batches") + 5);
        assert!(after.counter("vector.rows_out") >= before.counter("vector.rows_out"));
        assert!(stats.batches * stats.batch_size >= stats.rows_out);
        assert!(after.validate().is_ok());
        // process-wide: σ batches are capped at the batch width (join
        // fan-out counts under vector.join.*)
        let (batches, rows_out) = (
            after.counter("vector.batches"),
            after.counter("vector.rows_out"),
        );
        assert!(rows_out <= after.counter("vector.rows_in"));
        assert!(batches * DEFAULT_BATCH_SIZE as u64 >= rows_out);
    }
}
