//! Quality bitmap indexes: per-(column, indicator, value) inverted
//! bitmaps over cell tags.
//!
//! The paper's query-time quality filtering (`price@source = 'NYSE
//! feed'`, `creation_time@age <= 10`) is a conjunction of *quality
//! atoms* over `col@indicator` pseudo-columns. A [`QualityIndex`] keeps,
//! for every (column, indicator) pair, a [`Posting`]: one dense `u64`
//! bitset per distinct tag value plus a bitset of all rows tagged with a
//! non-NULL value. Conjunctions of atoms then resolve to bitmap
//! AND/OR/NOT instead of walking every row's tag vector; only residual
//! (non-atomic) predicate parts fall back to per-row evaluation over the
//! surviving candidates. The atoms are the bound predicate's
//! ([`crate::Predicate::atoms`]): binding classifies each conjunct once,
//! and this module walks no predicate of its own.
//!
//! ## Exactness contract
//!
//! Bitmap answers are *exactly* the rows the scan would keep:
//!
//! * NULL-valued tags are never indexed — the scan's 3VL drops them, so
//!   `≠` is precisely `tagged AND NOT eq`.
//! * `=` / `≠` use [`relstore::Value`]'s total equality (`Int(2)` and
//!   `Float(2.0)` collapse to one B-tree key, matching the evaluator).
//! * `<` / `<=` / `>` / `>=` are answered **only** when every indexed
//!   value is order-comparable with the literal (the scan would raise
//!   `TypeMismatch` otherwise); the per-posting [`Posting::classes`]
//!   bitmask gates this, and unanswerable atoms force a full scan so
//!   type errors surface identically. Binding already rejects a literal
//!   of another class for an indicator of declared type; the gate is for
//!   indicators declared `Any`, whose postings may mix classes, and for
//!   tags set through `TaggedRelation::cell_mut`, which skips the
//!   dictionary check. Class bits are sticky across retags — an
//!   over-approximation that can only force a scan, never a wrong answer.
//! * `BETWEEN` evaluates on the raw total order (the evaluator skips the
//!   comparability check for it), so it is always answerable.
//!
//! One caveat is inherent to index narrowing: when a *residual* conjunct
//! raises a runtime error (division by zero, overflow, or a type error
//! over an `Any` operand) on a row the index already excluded, the
//! indexed path cannot observe that error.

use crate::cell::QualityCell;
use crate::predicate::ToPredicate;
use crate::relation::{TaggedRelation, TaggedRow};
use crate::symbol::Symbol;
use relstore::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// A dense bitset over row ids, stored as `u64` words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    nbits: usize,
}

impl Bitset {
    /// Empty bitset sized for `nbits` rows.
    pub fn new(nbits: usize) -> Self {
        Bitset {
            words: vec![0; nbits.div_ceil(64)],
            nbits,
        }
    }

    /// Bitset with every bit in `0..nbits` set.
    pub fn full(nbits: usize) -> Self {
        let mut b = Bitset {
            words: vec![u64::MAX; nbits.div_ceil(64)],
            nbits,
        };
        b.mask_tail();
        b
    }

    /// Zeroes bits at positions `>= nbits` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.nbits % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Universe size (number of addressable rows).
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// True iff the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Grows the universe to at least `nbits` rows (new bits are 0).
    pub fn grow(&mut self, nbits: usize) {
        if nbits > self.nbits {
            self.nbits = nbits;
            self.words.resize(nbits.div_ceil(64), 0);
        }
    }

    /// Sets bit `i`, growing the universe if needed.
    pub fn set(&mut self, i: usize) {
        self.grow(i + 1);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i` (no-op when out of range).
    pub fn clear(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1u64 << (i % 64));
        }
    }

    /// True iff bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of set bits (popcount).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff no bit is set (stops at the first non-zero word).
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self &= other`. Missing words in `other` count as zero.
    pub fn and_assign(&mut self, other: &Bitset) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// `self |= other`, growing to cover `other`'s universe.
    pub fn or_assign(&mut self, other: &Bitset) {
        self.grow(other.nbits);
        for (i, &w) in other.words.iter().enumerate() {
            self.words[i] |= w;
        }
    }

    /// ORs `src`'s words into `self` starting at word `word_offset` —
    /// i.e. `src`'s bit `i` lands at `self`'s bit `word_offset * 64 + i`.
    /// Grows the universe to exactly `word_offset * 64 + src.len()`, so
    /// when callers apply word-disjoint sources in ascending offset order
    /// the final universe ends at the highest set bit + 1, matching what
    /// incremental [`Bitset::set`] calls would have produced. This is the
    /// merge step of the parallel index build: each worker owns a
    /// word-aligned row range, so no two workers' words overlap and the
    /// merge is a straight copy, not an OR over shared state.
    pub fn or_words_at(&mut self, word_offset: usize, src: &Bitset) {
        if src.nbits == 0 {
            return;
        }
        self.grow(word_offset * 64 + src.nbits);
        for (i, &w) in src.words.iter().enumerate() {
            self.words[word_offset + i] |= w;
        }
    }

    /// Sets every bit in `start..start + len`, growing the universe to
    /// `start + len` — the run-at-a-time primitive behind the columnar
    /// index build (a tag run tags `len` consecutive rows at once).
    pub fn set_range(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = start + len;
        self.grow(end);
        let (ws, we) = (start / 64, (end - 1) / 64);
        let lo_mask = !0u64 << (start % 64);
        let hi_mask = !0u64 >> (63 - (end - 1) % 64);
        if ws == we {
            self.words[ws] |= lo_mask & hi_mask;
        } else {
            self.words[ws] |= lo_mask;
            for w in &mut self.words[ws + 1..we] {
                *w = !0;
            }
            self.words[we] |= hi_mask;
        }
    }

    /// `self &= !other` (AND NOT — the `≠` combinator).
    pub fn and_not_assign(&mut self, other: &Bitset) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= !other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// The backing `u64` words. Bit `i` lives in `words()[i / 64]` at
    /// `1 << (i % 64)`; bits at positions `>= len()` are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words, for word-at-a-time kernels
    /// (the vectorized executor's selection vectors). Clearing bits is
    /// always safe; callers must not *set* bits at positions `>= len()`
    /// (the tail invariant every other operation relies on).
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Builds a bitset directly from backing words. The word vector is
    /// resized to cover exactly `nbits` and tail bits are masked off, so
    /// any word source is safe.
    pub fn from_words(mut words: Vec<u64>, nbits: usize) -> Self {
        words.resize(nbits.div_ceil(64), 0);
        let mut b = Bitset { words, nbits };
        b.mask_tail();
        b
    }

    /// Copies bits `start..start + len` into a fresh `len`-bit bitset —
    /// the word-at-a-time batch slice used by the vectorized executor.
    /// Bits beyond `self.len()` read as zero. Word-aligned starts copy
    /// whole words; unaligned starts stitch adjacent words with shifts.
    pub fn extract_range(&self, start: usize, len: usize) -> Bitset {
        let mut words = vec![0u64; len.div_ceil(64)];
        let woff = start / 64;
        let shift = start % 64;
        if shift == 0 {
            for (i, w) in words.iter_mut().enumerate() {
                *w = self.words.get(woff + i).copied().unwrap_or(0);
            }
        } else {
            for (i, w) in words.iter_mut().enumerate() {
                let lo = self.words.get(woff + i).copied().unwrap_or(0) >> shift;
                let hi = self.words.get(woff + i + 1).copied().unwrap_or(0) << (64 - shift);
                *w = lo | hi;
            }
        }
        Bitset::from_words(words, len)
    }

    /// Iterates set bit positions in ascending order — the deterministic
    /// candidate row-id order the chunked executor relies on.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

/// Order-comparability class of a value, as a one-hot bitmask. The
/// evaluator allows `<`-family comparisons only within one class
/// (Int and Float share the numeric class); `Null` contributes nothing.
fn class_of(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Text(_) => 4,
        Value::Date(_) => 8,
    }
}

/// Inverted index for one (column, indicator) pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Posting {
    /// Per-distinct-tag-value bitsets, keyed by the value's total order
    /// (so ordered atoms resolve to a B-tree range of bitsets).
    values: BTreeMap<Value, Bitset>,
    /// Rows carrying *any* non-NULL value for this indicator.
    tagged: Bitset,
    /// Union of [`class_of`] over every value ever indexed. Sticky:
    /// retags never clear bits, which can only force a scan fallback.
    classes: u8,
}

impl Posting {
    /// Number of distinct indexed tag values.
    pub fn distinct_values(&self) -> usize {
        self.values.len()
    }

    /// Positional swap-delete fix-up: drops row `row`'s bits and re-homes
    /// row `last`'s bits to position `row` in every bitset. Empty value
    /// entries are pruned and `classes` recomputed from the survivors, so
    /// deletes keep the posting tight rather than accumulating garbage.
    /// Returns false when the posting indexes nothing any more.
    fn remove_row(&mut self, row: usize, last: usize) -> bool {
        fn move_bit(bs: &mut Bitset, row: usize, last: usize) {
            if row != last {
                if bs.contains(last) {
                    bs.set(row);
                } else {
                    bs.clear(row);
                }
            }
            bs.clear(last);
        }
        move_bit(&mut self.tagged, row, last);
        self.values.retain(|_, bs| {
            move_bit(bs, row, last);
            bs.count() > 0
        });
        self.classes = self.values.keys().fold(0, |c, v| c | class_of(v));
        self.tagged.count() > 0 || !self.values.is_empty()
    }
}

/// One index-answerable quality constraint: `col@indicator OP literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityAtom {
    /// Position of the application column in the schema.
    pub col: usize,
    /// The (first-level) indicator constrained.
    pub indicator: Symbol,
    /// Pseudo-column name as written (`price@age`), for rendering.
    pub pseudo: String,
    /// The constraint itself.
    pub op: AtomOp,
}

/// The comparison form of a [`QualityAtom`].
#[derive(Debug, Clone, PartialEq)]
pub enum AtomOp {
    /// `= literal`.
    Eq(Value),
    /// `<> literal` (answered as `tagged AND NOT eq`).
    Ne(Value),
    /// An ordered constraint. `strict` marks `<`-family atoms whose scan
    /// semantics type-check operands (so the index must refuse them on
    /// mixed-class postings); `BETWEEN` atoms are non-strict.
    Range {
        /// Lower bound on the tag value.
        lo: Bound<Value>,
        /// Upper bound on the tag value.
        hi: Bound<Value>,
        /// Whether the evaluator would `TypeMismatch` on cross-class
        /// operands for this atom.
        strict: bool,
    },
}

impl fmt::Display for QualityAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.op {
            AtomOp::Eq(v) => write!(f, "{}={v}", self.pseudo),
            AtomOp::Ne(v) => write!(f, "{}<>{v}", self.pseudo),
            AtomOp::Range { lo, hi, .. } => {
                write!(f, "{}", self.pseudo)?;
                match (lo, hi) {
                    (Bound::Unbounded, Bound::Included(v)) => write!(f, "<={v}"),
                    (Bound::Unbounded, Bound::Excluded(v)) => write!(f, "<{v}"),
                    (Bound::Included(v), Bound::Unbounded) => write!(f, ">={v}"),
                    (Bound::Excluded(v), Bound::Unbounded) => write!(f, ">{v}"),
                    (Bound::Included(a), Bound::Included(b)) => {
                        write!(f, " BETWEEN {a} AND {b}")
                    }
                    (lo, hi) => write!(f, " IN {lo:?}..{hi:?}"),
                }
            }
        }
    }
}

/// The quality bitmap index over a tagged relation: one [`Posting`] per
/// (column, first-level indicator) pair actually present in the data.
///
/// Built incrementally on [`QualityIndex::note_row`] (insert) and
/// [`QualityIndex::retag`] (tag mutation); [`QualityIndex::build`] is the
/// rebuild-on-bulk-load path. Meta tags (Premise 1.4) are not indexed —
/// atoms over meta paths are residual by construction.
///
/// Postings are copy-on-write: `clone()` costs one refcount per
/// (column, indicator) and shares every bitset with the original, and a
/// mutator un-shares only the posting it writes. That is what lets a
/// `TAG` hand its successor table entry the predecessor's index with the
/// delta applied while readers pinned on the predecessor keep theirs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityIndex {
    rows: usize,
    postings: HashMap<(usize, Symbol), Arc<Posting>>,
}

impl QualityIndex {
    /// Empty index over zero rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Full (re)build from a relation — the bulk-load path. Equivalent to
    /// folding [`QualityIndex::note_row`] over the rows, by construction.
    ///
    /// Large relations build in parallel (per [`relstore::par::plan_index`]'s
    /// cost model, honoring `DQ_THREADS`) under the **disjoint-word merge
    /// protocol**: row ranges are split on 64-row boundaries
    /// ([`relstore::par::word_aligned_ranges`]), each worker indexes its
    /// range into a partial index using *range-local* row ids (so every
    /// partial bitset is chunk-sized, not universe-sized), and the merge
    /// ORs each partial's words into the output at the range's word
    /// offset ([`Bitset::or_words_at`]). No two workers ever produce bits
    /// in the same output word, so the merge is a single pass over the
    /// partials' words — proportional to the final index size — instead
    /// of the old absolute-id OR-merge that walked `threads ×` near-full
    /// universe bitsets and made the 8-thread build 3.5× *slower* than
    /// serial at 1M rows. Applying partials in ascending range order
    /// keeps every bitset's universe ending at its highest set bit + 1,
    /// so the result is bit-for-bit identical to the serial fold at every
    /// thread count.
    pub fn build(rel: &TaggedRelation) -> Self {
        dq_obs::counter!("tagstore.index.rebuilds").incr();
        let rows = rel.rows();
        let Some(threads) = relstore::par::plan_index(rows.len()) else {
            let mut idx = Self::new();
            for row in rows {
                idx.note_row(row);
            }
            return idx;
        };
        dq_obs::counter!("tagstore.index.par_builds").incr();
        let _t = dq_obs::histogram!("tagstore.index.par_build_us").start();
        let ranges = relstore::par::word_aligned_ranges(rows.len(), threads);
        let partials = relstore::par::run_chunked(&ranges, ranges.len(), |_, rs| {
            let range = rs[0].clone();
            let mut partial = Self::new();
            for (local, id) in range.clone().enumerate() {
                partial.note_row_at(local, &rows[id]);
            }
            (range.start, partial)
        });
        Self::merge_word_aligned(rows.len(), partials)
    }

    /// Merges range-local partial indexes produced under the disjoint-word
    /// protocol: `partials` holds `(range_start, partial)` pairs where
    /// `range_start` is a multiple of 64 and the partial's bitsets use
    /// row ids relative to it. Must be applied in ascending range order
    /// (as [`relstore::par::word_aligned_ranges`] + chunk-ordered results
    /// guarantee) so universes grow monotonically to highest-bit + 1.
    pub(crate) fn merge_word_aligned(rows: usize, partials: Vec<(usize, QualityIndex)>) -> Self {
        let mut idx = Self::new();
        idx.rows = rows;
        for (start, partial) in partials {
            debug_assert_eq!(start % 64, 0, "partial not word-aligned");
            let word_offset = start / 64;
            if word_offset == 0 && idx.postings.is_empty() {
                // The first partial needs no shifting: adopt its postings
                // wholesale (map moves, no word copies).
                idx.postings = partial.postings;
                continue;
            }
            for (key, p) in partial.postings {
                // a worker's partial is never shared: this unwraps, no copy
                let p = Arc::unwrap_or_clone(p);
                let posting = idx.posting_mut(key);
                posting.tagged.or_words_at(word_offset, &p.tagged);
                posting.classes |= p.classes;
                for (v, bs) in p.values {
                    posting.values.entry(v).or_default().or_words_at(word_offset, &bs);
                }
            }
        }
        idx
    }

    /// Number of rows the index covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The posting for `(column, indicator)`, if any row is tagged there.
    pub fn posting(&self, col: usize, indicator: &Symbol) -> Option<&Posting> {
        self.postings.get(&(col, indicator.clone())).map(Arc::as_ref)
    }

    /// The posting under `key` for writing, created empty when absent —
    /// the one door every mutator takes, so a posting shared with a
    /// clone of this index is copied before its first write.
    fn posting_mut(&mut self, key: (usize, Symbol)) -> &mut Posting {
        Arc::make_mut(self.postings.entry(key).or_default())
    }

    /// Indexes the tags of one appended row. Must be called in row order.
    pub fn note_row(&mut self, row: &TaggedRow) {
        self.note_row_at(self.rows, row);
        self.rows += 1;
    }

    /// Indexes `row`'s tags at absolute id `id` without advancing the
    /// row counter — the parallel-build worker primitive.
    fn note_row_at(&mut self, id: usize, row: &TaggedRow) {
        for (ci, cell) in row.iter().enumerate() {
            for tag in cell.tags() {
                if tag.value.is_null() {
                    continue; // NULL-valued tags never satisfy predicates
                }
                let posting = self.posting_mut((ci, tag.indicator.clone()));
                posting.tagged.set(id);
                posting.classes |= class_of(&tag.value);
                posting.values.entry(tag.value.clone()).or_default().set(id);
            }
        }
    }

    /// Indexes one tag *run*: every row in `start..start + len` of column
    /// `col` carries exactly the tags in `tags`. The columnar build walks
    /// each column's run-length-encoded tag runs and calls this once per
    /// run, turning per-row hash probes into one probe + one
    /// [`Bitset::set_range`] per (run, tag). Runs must arrive in
    /// ascending row order within each column (universe = highest bit+1,
    /// the bit-for-bit parity invariant with the row build).
    pub(crate) fn note_tags_range(&mut self, col: usize, start: usize, len: usize, tags: &[crate::indicator::IndicatorValue]) {
        for tag in tags {
            if tag.value.is_null() {
                continue; // NULL-valued tags never satisfy predicates
            }
            let posting = self.posting_mut((col, tag.indicator.clone()));
            posting.tagged.set_range(start, len);
            posting.classes |= class_of(&tag.value);
            posting
                .values
                .entry(tag.value.clone())
                .or_default()
                .set_range(start, len);
        }
    }

    /// Sets the covered-row count after a bulk build that bypassed
    /// [`QualityIndex::note_row`] (the columnar per-column pass).
    pub(crate) fn finish_rows(&mut self, rows: usize) {
        self.rows = rows;
    }

    /// Updates the index after `set_tag` replaced (or added) one tag on
    /// `row`/`col`: `old` is the previous value for the same indicator
    /// (`None` when the cell was untagged there). A value no row carries
    /// any more loses its entry, as in [`QualityIndex::delete_row`].
    pub fn retag(&mut self, row: usize, col: usize, old: Option<&Value>, indicator: &Symbol, new: &Value) {
        let posting = self.posting_mut((col, indicator.clone()));
        if let Some(old_v) = old {
            if let Some(bs) = posting.values.get_mut(old_v) {
                bs.clear(row);
                if bs.none() {
                    posting.values.remove(old_v);
                }
            }
        }
        if new.is_null() {
            posting.tagged.clear(row);
        } else {
            posting.tagged.set(row);
            posting.classes |= class_of(new);
            posting.values.entry(new.clone()).or_default().set(row);
        }
    }

    /// Positional swap-delete: removes row `row` from every posting,
    /// re-homing the last row's bits to `row` — the fix-up matching
    /// [`TaggedRelation::swap_remove`]. Postings left indexing nothing
    /// are dropped, so a drained index compares equal to a fresh one.
    ///
    /// # Panics
    /// When `row` is out of range — callers delete through
    /// [`IndexedTaggedRelation::swap_remove`], which validates against
    /// the relation first.
    pub fn delete_row(&mut self, row: usize) {
        assert!(row < self.rows, "delete_row: row {row} >= {}", self.rows);
        dq_obs::counter!("tagstore.index.deletes").incr();
        let last = self.rows - 1;
        self.postings
            .retain(|_, p| Arc::make_mut(p).remove_row(row, last));
        self.rows = last;
    }

    /// Answers one atom as a bitset of matching rows, or `None` when the
    /// atom is not index-answerable (strict ordered atom over a posting
    /// with values outside the literal's comparability class — the scan
    /// would type-error, so the caller must fall back to it).
    pub fn lookup(&self, atom: &QualityAtom) -> Option<Bitset> {
        let empty = || Bitset::new(self.rows);
        let Some(posting) = self.postings.get(&(atom.col, atom.indicator.clone())) else {
            // No row tagged here: every form of the atom matches nothing
            // (untagged cells evaluate to NULL before any type check).
            return Some(empty());
        };
        match &atom.op {
            AtomOp::Eq(v) => Some(posting.values.get(v).cloned().unwrap_or_else(empty)),
            AtomOp::Ne(v) => {
                let mut out = posting.tagged.clone();
                if let Some(eq) = posting.values.get(v) {
                    out.and_not_assign(eq);
                }
                Some(out)
            }
            AtomOp::Range { lo, hi, strict } => {
                if *strict {
                    let lit_class = match (lo, hi) {
                        (Bound::Included(v) | Bound::Excluded(v), _)
                        | (_, Bound::Included(v) | Bound::Excluded(v)) => class_of(v),
                        (Bound::Unbounded, Bound::Unbounded) => 0,
                    };
                    if posting.classes & !lit_class != 0 {
                        return None; // scan would TypeMismatch — let it
                    }
                }
                // Guard the BTreeMap range panic on inverted bounds.
                if let (
                    Bound::Included(a) | Bound::Excluded(a),
                    Bound::Included(b) | Bound::Excluded(b),
                ) = (lo, hi)
                {
                    if a > b
                        || (a == b
                            && (matches!(lo, Bound::Excluded(_))
                                || matches!(hi, Bound::Excluded(_))))
                    {
                        return Some(empty());
                    }
                }
                let mut out = empty();
                for (_, bs) in posting.values.range((as_ref(lo), as_ref(hi))) {
                    out.or_assign(bs);
                }
                out.grow(self.rows);
                Some(out)
            }
        }
    }

    /// Intersects the answers to a conjunction of atoms. `None` when the
    /// conjunction is empty or any atom is unanswerable.
    pub fn candidates(&self, atoms: &[QualityAtom]) -> Option<Bitset> {
        let (first, rest) = atoms.split_first()?;
        let mut out = self.lookup(first)?;
        for atom in rest {
            out.and_assign(&self.lookup(atom)?);
        }
        Some(out)
    }

    /// Estimated selectivity of a conjunction (matching fraction of
    /// rows), from bitmap popcounts. `None` when unanswerable.
    pub fn estimate(&self, atoms: &[QualityAtom]) -> Option<f64> {
        let bs = self.candidates(atoms)?;
        if self.rows == 0 {
            return Some(0.0);
        }
        Some(bs.count() as f64 / self.rows as f64)
    }
}

fn as_ref(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// A tagged relation bundled with its incrementally-maintained quality
/// bitmap index — the storage form for index-accelerated quality
/// selection.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedTaggedRelation {
    rel: TaggedRelation,
    index: QualityIndex,
}

impl IndexedTaggedRelation {
    /// Wraps a relation, building its index (bulk-load rebuild).
    pub fn from_relation(rel: TaggedRelation) -> Self {
        let index = QualityIndex::build(&rel);
        IndexedTaggedRelation { rel, index }
    }

    /// The underlying relation.
    pub fn relation(&self) -> &TaggedRelation {
        &self.rel
    }

    /// The maintained index.
    pub fn index(&self) -> &QualityIndex {
        &self.index
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// Validates and appends a row, indexing its tags incrementally.
    pub fn push(&mut self, row: TaggedRow) -> relstore::DbResult<()> {
        self.rel.push(row)?;
        dq_obs::counter!("tagstore.index.note_rows").incr();
        self.index
            .note_row(self.rel.rows().last().expect("just pushed"));
        Ok(())
    }

    /// Deletes row `row` by swap-remove (O(1) in the relation, one
    /// positional fix-up pass over the index postings), returning the
    /// removed row. Incremental: the index is never rebuilt.
    pub fn swap_remove(&mut self, row: usize) -> relstore::DbResult<TaggedRow> {
        let removed = self.rel.swap_remove(row)?;
        self.index.delete_row(row);
        Ok(removed)
    }

    /// Tags one cell (validated against the dictionary), updating the
    /// index incrementally.
    pub fn tag_cell(
        &mut self,
        row: usize,
        column: &str,
        tag: crate::indicator::IndicatorValue,
    ) -> relstore::DbResult<()> {
        let ci = self.rel.schema().resolve(column)?;
        let old = self
            .rel
            .rows()
            .get(row)
            .and_then(|r| cell_tag_value(r, ci, &tag.indicator));
        let indicator = tag.indicator.clone();
        let new = tag.value.clone();
        self.rel.tag_cell(row, column, tag)?;
        dq_obs::counter!("tagstore.index.retags").incr();
        self.index.retag(row, ci, old.as_ref(), &indicator, &new);
        Ok(())
    }

    /// Index-accelerated σ: see [`crate::algebra::select_indexed`].
    pub fn select(
        &self,
        predicate: &impl ToPredicate,
    ) -> relstore::DbResult<(TaggedRelation, crate::algebra::TagAccessPath)> {
        crate::algebra::select_indexed(&self.rel, &self.index, predicate)
    }
}

fn cell_tag_value(row: &[QualityCell], ci: usize, indicator: &Symbol) -> Option<Value> {
    row.get(ci)
        .and_then(|c| c.tag_sym(indicator))
        .map(|t| t.value.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indicator::{IndicatorDictionary, IndicatorValue};
    use crate::predicate::Predicate;
    use relstore::{DataType, Expr, Schema};

    #[test]
    fn bitset_ops() {
        let mut a = Bitset::new(10);
        a.set(1);
        a.set(9);
        a.set(70); // auto-grow
        assert_eq!(a.len(), 71);
        assert_eq!(a.count(), 3);
        assert!(a.contains(70) && !a.contains(0));
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 9, 70]);

        let mut b = Bitset::new(71);
        b.set(9);
        b.set(70);
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![9, 70]);

        let mut or = Bitset::new(2);
        or.set(0);
        or.or_assign(&b);
        assert_eq!(or.iter_ones().collect::<Vec<_>>(), vec![0, 9, 70]);

        let mut not = a.clone();
        not.and_not_assign(&b);
        assert_eq!(not.iter_ones().collect::<Vec<_>>(), vec![1]);

        a.clear(9);
        assert_eq!(a.count(), 2);
        a.clear(1000); // out-of-range no-op
        assert_eq!(a.count(), 2);

        let full = Bitset::full(67);
        assert_eq!(full.count(), 67);
        assert!(Bitset::new(0).is_empty());
    }

    #[test]
    fn bitset_words_round_trip_and_extract() {
        let mut a = Bitset::new(0);
        for i in [0, 1, 63, 64, 65, 127, 130] {
            a.set(i);
        }
        // words() exposes the exact backing representation
        assert_eq!(a.words().len(), a.len().div_ceil(64));
        let rebuilt = Bitset::from_words(a.words().to_vec(), a.len());
        assert_eq!(rebuilt, a);
        // from_words masks tail bits and resizes the word vector
        let masked = Bitset::from_words(vec![u64::MAX, u64::MAX], 3);
        assert_eq!(masked.count(), 3);
        assert_eq!(masked.words(), &[0b111]);

        // word-aligned extraction
        let w = a.extract_range(64, 64);
        assert_eq!(w.iter_ones().collect::<Vec<_>>(), vec![0, 1, 63]);
        // unaligned extraction stitches across word boundaries
        let u = a.extract_range(63, 66);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2, 64]);
        // reads beyond the universe are zero
        let z = a.extract_range(120, 128);
        assert_eq!(z.iter_ones().collect::<Vec<_>>(), vec![7, 10]);
        assert_eq!(a.extract_range(10_000, 64).count(), 0);
        // exhaustive parity with the bit-at-a-time definition
        for start in 0..130 {
            for len in [1usize, 7, 64, 100] {
                let got = a.extract_range(start, len);
                for i in 0..len {
                    assert_eq!(got.contains(i), a.contains(start + i), "start={start} len={len} i={i}");
                }
            }
        }
    }

    #[test]
    fn bitset_or_words_at_matches_shifted_sets() {
        // or_words_at(k, src) == setting src's bits at +k*64, including
        // the universe ending exactly at the highest source bit.
        for (offset_words, bits) in [(0usize, vec![0usize, 5, 63]), (1, vec![0, 64, 70]), (3, vec![1])] {
            let mut src = Bitset::new(0);
            let mut expect = Bitset::new(0);
            for &b in &bits {
                src.set(b);
                expect.set(offset_words * 64 + b);
            }
            let mut got = Bitset::new(0);
            got.or_words_at(offset_words, &src);
            assert_eq!(got, expect, "offset={offset_words} bits={bits:?}");
        }
        // empty source is a no-op (no spurious growth)
        let mut b = Bitset::new(0);
        b.or_words_at(5, &Bitset::new(0));
        assert_eq!(b, Bitset::new(0));
        // ascending disjoint applications reproduce incremental set()
        let mut merged = Bitset::new(0);
        let mut lo = Bitset::new(0);
        lo.set(3);
        let mut hi = Bitset::new(0);
        hi.set(2); // lands at 64 + 2
        merged.or_words_at(0, &lo);
        merged.or_words_at(1, &hi);
        let mut direct = Bitset::new(0);
        direct.set(3);
        direct.set(66);
        assert_eq!(merged, direct);
    }

    #[test]
    fn bitset_set_range_matches_bit_loop() {
        for start in [0usize, 1, 13, 63, 64, 65, 127] {
            for len in [0usize, 1, 3, 51, 64, 65, 130] {
                let mut fast = Bitset::new(0);
                fast.set_range(start, len);
                let mut slow = Bitset::new(0);
                for i in start..start + len {
                    slow.set(i);
                }
                assert_eq!(fast, slow, "start={start} len={len}");
            }
        }
    }

    #[test]
    fn parallel_build_matches_serial_bit_for_bit() {
        // enough rows that 8 forced threads produce uneven tail chunks
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let mut r = TaggedRelation::empty(schema, dict);
        for k in 0..533i64 {
            let mut cell = QualityCell::bare(k * 3);
            if k % 3 == 0 {
                cell.set_tag(IndicatorValue::new("source", ["a", "b", "c"][(k % 9 / 3) as usize]));
            }
            if k % 5 != 4 {
                cell.set_tag(IndicatorValue::new("age", k % 17));
            }
            r.push(vec![QualityCell::bare(k), cell]).unwrap();
        }
        let serial = relstore::par::with_thread_count(1, || QualityIndex::build(&r));
        for threads in [2, 3, 8] {
            let par = relstore::par::with_thread_count(threads, || QualityIndex::build(&r));
            assert_eq!(par, serial, "threads={threads}");
        }
        // and both equal the incremental fold
        let mut inc = QualityIndex::new();
        for row in r.iter() {
            inc.note_row(row);
        }
        assert_eq!(inc, serial);
    }

    fn rel() -> TaggedRelation {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let mut r = TaggedRelation::empty(schema, dict);
        for (k, src, age) in [
            (0i64, Some("a"), Some(5i64)),
            (1, Some("b"), None),
            (2, None, Some(20)),
            (3, Some("a"), Some(10)),
            (4, None, None),
        ] {
            let mut cell = QualityCell::bare(k * 10);
            if let Some(s) = src {
                cell.set_tag(IndicatorValue::new("source", s));
            }
            if let Some(a) = age {
                cell.set_tag(IndicatorValue::new("age", a));
            }
            r.push(vec![QualityCell::bare(k), cell]).unwrap();
        }
        r
    }

    fn bound_atoms(rel: &TaggedRelation, e: &Expr) -> (Vec<QualityAtom>, bool) {
        let bound = Predicate::bind(rel.schema(), rel.dictionary(), e).unwrap();
        (bound.atoms().to_vec(), bound.has_residual())
    }

    fn atom(rel: &TaggedRelation, e: &Expr) -> QualityAtom {
        let (atoms, residual) = bound_atoms(rel, e);
        assert!(!residual, "unexpected residual in {e}");
        assert_eq!(atoms.len(), 1);
        atoms.into_iter().next().unwrap()
    }

    #[test]
    fn eq_ne_lookup() {
        let r = rel();
        let idx = QualityIndex::build(&r);
        let a = atom(&r, &Expr::col("v@source").eq(Expr::lit("a")));
        assert_eq!(idx.lookup(&a).unwrap().iter_ones().collect::<Vec<_>>(), vec![0, 3]);
        let a = atom(&r, &Expr::col("v@source").ne(Expr::lit("a")));
        // only row 1 is tagged with a different source; untagged rows drop
        assert_eq!(idx.lookup(&a).unwrap().iter_ones().collect::<Vec<_>>(), vec![1]);
        let a = atom(&r, &Expr::col("v@source").eq(Expr::lit("zzz")));
        assert_eq!(idx.lookup(&a).unwrap().count(), 0);
    }

    #[test]
    fn range_lookup_and_class_gate() {
        let r = rel();
        let idx = QualityIndex::build(&r);
        let a = atom(&r, &Expr::col("v@age").le(Expr::lit(10i64)));
        assert_eq!(idx.lookup(&a).unwrap().iter_ones().collect::<Vec<_>>(), vec![0, 3]);
        // a strict comparison over a posting holding values of another
        // class is refused (the scan would error): binding rejects it for
        // a typed indicator, so build the atom by hand
        let mut a = atom(&r, &Expr::col("v@age").lt(Expr::lit(3i64)));
        a.op = AtomOp::Range {
            lo: Bound::Unbounded,
            hi: Bound::Excluded(Value::text("text")),
            strict: true,
        };
        assert!(idx.lookup(&a).is_none());
        // BETWEEN is total-order and always answerable
        let a = atom(
            &r,
            &Expr::Between(
                Box::new(Expr::col("v@age")),
                Box::new(Expr::lit(6i64)),
                Box::new(Expr::lit(25i64)),
            ),
        );
        assert_eq!(idx.lookup(&a).unwrap().iter_ones().collect::<Vec<_>>(), vec![2, 3]);
        // inverted bounds are an empty match, not a panic
        let a = atom(
            &r,
            &Expr::Between(
                Box::new(Expr::col("v@age")),
                Box::new(Expr::lit(25i64)),
                Box::new(Expr::lit(6i64)),
            ),
        );
        assert_eq!(idx.lookup(&a).unwrap().count(), 0);
    }

    #[test]
    fn conjunction_candidates_and_estimate() {
        let r = rel();
        let idx = QualityIndex::build(&r);
        let (atoms, residual) = bound_atoms(
            &r,
            &Expr::col("v@source")
                .eq(Expr::lit("a"))
                .and(Expr::col("v@age").ge(Expr::lit(8i64)))
                .and(Expr::col("k").ge(Expr::lit(0i64))),
        );
        assert_eq!(atoms.len(), 2);
        assert!(residual); // plain value conjunct
        let bs = idx.candidates(&atoms).unwrap();
        assert_eq!(bs.iter_ones().collect::<Vec<_>>(), vec![3]);
        assert_eq!(idx.estimate(&atoms).unwrap(), 1.0 / 5.0);
        assert!(idx.candidates(&[]).is_none());
    }

    #[test]
    fn extraction_rejects_non_atoms() {
        let r = rel();
        // meta path, OR, NULL literal — all residual
        for e in [
            Expr::col("v@source@inspection").eq(Expr::lit("x")),
            Expr::col("v@age")
                .eq(Expr::lit(1i64))
                .or(Expr::col("v@age").eq(Expr::lit(2i64))),
            Expr::col("v@age").eq(Expr::Lit(Value::Null)),
        ] {
            let (atoms, residual) = bound_atoms(&r, &e);
            assert!(atoms.is_empty(), "{e:?}");
            assert!(residual);
        }
        // flipped literal side still extracts
        let (atoms, _) = bound_atoms(&r, &Expr::lit(10i64).gt(Expr::col("v@age")));
        assert!(matches!(
            &atoms[0].op,
            AtomOp::Range { hi: Bound::Excluded(Value::Int(10)), .. }
        ));
    }

    #[test]
    fn incremental_equals_rebuild_on_push() {
        let r = rel();
        let mut inc = IndexedTaggedRelation::from_relation(TaggedRelation::empty(
            r.schema().clone(),
            r.dictionary().clone(),
        ));
        for row in r.iter() {
            inc.push(row.clone()).unwrap();
        }
        assert_eq!(inc.index(), &QualityIndex::build(&r));
    }

    #[test]
    fn retag_tracks_mutation() {
        let r = rel();
        let mut ir = IndexedTaggedRelation::from_relation(r);
        // row 1: source b → a
        ir.tag_cell(1, "v", IndicatorValue::new("source", "a")).unwrap();
        let a = atom(ir.relation(), &Expr::col("v@source").eq(Expr::lit("a")));
        assert_eq!(
            ir.index().lookup(&a).unwrap().iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
        let b = atom(ir.relation(), &Expr::col("v@source").eq(Expr::lit("b")));
        assert_eq!(ir.index().lookup(&b).unwrap().count(), 0);
        // fresh tag on a previously untagged cell
        ir.tag_cell(4, "v", IndicatorValue::new("age", 7i64)).unwrap();
        let c = atom(ir.relation(), &Expr::col("v@age").le(Expr::lit(7i64)));
        assert_eq!(
            ir.index().lookup(&c).unwrap().iter_ones().collect::<Vec<_>>(),
            vec![0, 4]
        );
    }

    #[test]
    fn retag_drops_values_no_row_carries() {
        let mut ir = IndexedTaggedRelation::from_relation(rel());
        let age = Symbol::intern("age");
        // rows 0, 2, 3 carry ages 5, 20, 10; cycle row 0 through 50 more
        for a in 100..150i64 {
            ir.tag_cell(0, "v", IndicatorValue::new("age", a)).unwrap();
            assert_eq!(ir.index().posting(1, &age).unwrap().distinct_values(), 3);
        }
        // a NULL retag untags the cell and drops its value too
        ir.tag_cell(0, "v", IndicatorValue::new("age", Value::Null)).unwrap();
        let posting = ir.index().posting(1, &age).unwrap();
        assert_eq!((posting.distinct_values(), posting.tagged.count()), (2, 2));
    }

    #[test]
    fn clone_shares_postings_until_written() {
        let original = QualityIndex::build(&rel());
        let (age, source) = (Symbol::intern("age"), Symbol::intern("source"));
        let mut copy = original.clone();
        let shared = |a: &QualityIndex, b: &QualityIndex, ind: &Symbol| {
            std::ptr::eq(a.posting(1, ind).unwrap(), b.posting(1, ind).unwrap())
        };
        assert!(shared(&original, &copy, &age) && shared(&original, &copy, &source));
        copy.retag(4, 1, None, &age, &Value::Int(7));
        // only the written posting was copied, and only in the clone
        assert!(!shared(&original, &copy, &age) && shared(&original, &copy, &source));
        assert_eq!(original, QualityIndex::build(&rel()));
        assert_eq!(copy.posting(1, &age).unwrap().tagged.count(), 4);
    }

    #[test]
    fn swap_delete_rehomes_moved_row() {
        let r = rel();
        let mut ir = IndexedTaggedRelation::from_relation(r);
        // remove row 1 (source=b); row 4 (untagged) moves into its place
        let removed = ir.swap_remove(1).unwrap();
        assert_eq!(removed[0].value, Value::Int(1));
        assert_eq!(ir.len(), 4);
        assert_eq!(ir.index().rows(), 4);
        // source=b is gone entirely — pruned, not a lingering empty bitset
        let b = atom(ir.relation(), &Expr::col("v@source").eq(Expr::lit("b")));
        assert_eq!(ir.index().lookup(&b).unwrap().count(), 0);
        // every selection still matches a scan of the mutated relation
        for p in [
            Expr::col("v@source").eq(Expr::lit("a")),
            Expr::col("v@source").ne(Expr::lit("a")),
            Expr::col("v@age").le(Expr::lit(10i64)),
        ] {
            let (fast, _) = ir.select(&p).unwrap();
            assert_eq!(fast, crate::algebra::select(ir.relation(), &p).unwrap(), "{p:?}");
        }
    }

    #[test]
    fn drained_index_equals_fresh() {
        let mut ir = IndexedTaggedRelation::from_relation(rel());
        assert!(ir.swap_remove(99).is_err()); // out of range: relation rejects
        while !ir.is_empty() {
            ir.swap_remove(0).unwrap();
        }
        // pruning leaves no posting garbage behind
        assert_eq!(ir.index(), &QualityIndex::new());
        // estimates on the empty index are defined (0.0), never NaN
        let probe = rel();
        let (atoms, _) = bound_atoms(&probe, &Expr::col("v@source").eq(Expr::lit("a")));
        let est = ir.index().estimate(&atoms).unwrap();
        assert_eq!(est, 0.0);
        assert!(est.is_finite());
    }

    #[test]
    fn float_int_equality_collapses() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let dict = IndicatorDictionary::with_paper_defaults();
        let mut r = TaggedRelation::empty(schema, dict);
        r.push(vec![
            QualityCell::bare(1i64).with_tag(IndicatorValue::new("age", 2i64)),
        ])
        .unwrap();
        let idx = QualityIndex::build(&r);
        // Float(2.0) == Int(2) under the total order, matching the scan
        let a = atom(&r, &Expr::col("x@age").eq(Expr::lit(2.0)));
        assert_eq!(idx.lookup(&a).unwrap().count(), 1);
    }
}
