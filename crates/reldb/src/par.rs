//! Chunked parallel execution for operator internals.
//!
//! Operators split their input rows into contiguous chunks, process each
//! chunk on a scoped thread (`std::thread::scope` — no external thread
//! pool), and merge per-chunk results **in chunk-index order**. Because
//! the merge order is positional, the output is byte-identical to the
//! serial path for every thread count — determinism is a structural
//! property, not a scheduling accident.
//!
//! Thread count resolution, in priority order:
//!
//! 1. a per-thread override installed by [`with_thread_count`] (tests use
//!    this to force the parallel path on small inputs);
//! 2. the `DQ_THREADS` environment variable (`1..=64`; `DQ_THREADS=1`
//!    disables parallelism entirely and reproduces the serial path
//!    exactly). A value that is zero, not a number, or above
//!    [`MAX_THREADS`] is **rejected, not trusted**: the resolution falls
//!    through to available parallelism and a warning is logged once per
//!    process (`par.env_threads_rejected` counts the rejection);
//! 3. `std::thread::available_parallelism()`, capped at 8 — operator
//!    kernels here are memory-bound and stop scaling long before the
//!    core count on large machines.

use crate::error::DbResult;
use std::cell::Cell;

/// Inputs smaller than this run serially: thread spawn overhead dwarfs
/// the per-row work below a couple thousand rows.
pub const PAR_THRESHOLD: usize = 2048;

/// Minimum rows each worker of a [`plan`]ned operator must receive before
/// an extra thread pays for itself: the row algebra's σ/π/⋈/mask kernels
/// (`tagstore::algebra`), the join probe (`JoinPairs::probe`) and π over
/// rows (`dq-query`'s `Output::project`), each doing a row's worth of
/// per-row work. It
/// was derived from the B2 bench of the row σ/mask kernels at the time:
/// at 10k rows the parallel path was *slower* than serial (spawn + merge
/// overhead ≈ the per-chunk work), while at 100k rows 8 threads won
/// ~3.5×. 8192 keeps 10k-row inputs serial and lets 2 threads engage from
/// 16 384 rows up. The columnar σ, whose typed kernels do far less per
/// row, plans with [`plan_index`] instead.
pub const MIN_ROWS_PER_THREAD: usize = 8192;

/// Minimum rows each worker of a whole-layout scan into a bitset must
/// receive before an extra thread pays for itself: the quality index
/// build (row and columnar) and the columnar σ both plan with
/// [`plan_index`]. Index construction is heavier per row than a
/// σ/mask kernel (hash lookups into the posting map plus bitset growth),
/// but each worker also allocates a full partial index that the merge
/// pass must traverse — so the break-even sits *higher* than
/// [`MIN_ROWS_PER_THREAD`], not lower. B9 pinned the regression: at 10k
/// rows an 8-way build lost to serial outright, and even 2 workers only
/// clear their merge cost once each owns a few tens of thousands of
/// rows. 32 768 keeps 10k-row builds serial (the PR-5 bug spawned
/// threads there) and lets 2 threads engage from 65 536 rows up. The
/// columnar σ's typed kernels are cheap enough per row that a 20 000-row
/// σ lost to its own 2-thread spawn (in-process, 2 vCPUs: a typed σ 100
/// µs on 1 thread, 135 µs on 2; an index-only σ 8 µs against 75 µs), so
/// it shares this model rather than [`MIN_ROWS_PER_THREAD`]'s.
pub const MIN_ROWS_PER_INDEX_THREAD: usize = 32_768;

/// Hard upper bound on the thread count accepted from the environment.
pub const MAX_THREADS: usize = 64;

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Validates a raw `DQ_THREADS` value. `Ok` is a usable thread count in
/// `1..=MAX_THREADS`; `Err` explains why the value was rejected, in
/// which case resolution falls back to available parallelism. An
/// over-the-cap value is rejected outright rather than clamped: a
/// setting like `DQ_THREADS=9999` is a configuration mistake, and
/// silently running 64 threads would hide it.
fn resolve_env_threads(raw: &str) -> Result<usize, String> {
    let t = raw.trim();
    match t.parse::<usize>() {
        Ok(0) => Err("DQ_THREADS=0: zero worker threads cannot execute anything".into()),
        Ok(n) if n > MAX_THREADS => Err(format!(
            "DQ_THREADS={n}: exceeds the {MAX_THREADS}-thread cap"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("DQ_THREADS={t:?}: not an unsigned integer")),
    }
}

/// Logs a rejected `DQ_THREADS` value once per process (repeating the
/// warning on every operator call would swamp stderr) and counts it.
fn warn_env_threads_once(why: &str, fallback: usize) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        dq_obs::counter!("par.env_threads_rejected").incr();
        eprintln!(
            "warning: {why}; falling back to {fallback} worker thread(s) \
             (available parallelism)"
        );
    });
}

/// Available parallelism, capped at 8 (see module docs).
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The thread count operators will use (see module docs for resolution
/// order). Always at least 1.
///
/// `DQ_THREADS` and available parallelism are resolved **once per
/// process** and cached: `env::var` takes the global environment lock
/// and `available_parallelism` is a syscall (cgroup-aware kernels make
/// it a slow one), and this function sits on [`plan`]'s path — i.e. in
/// front of every operator, including point queries whose entire
/// execution is cheaper than one of those syscalls. The thread-local
/// [`with_thread_count`] override is still consulted first on every
/// call, so tests can pin counts without touching the cache.
pub fn thread_count() -> usize {
    if let Some(n) = OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    static RESOLVED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *RESOLVED.get_or_init(|| {
        if let Ok(s) = std::env::var("DQ_THREADS") {
            match resolve_env_threads(&s) {
                Ok(n) => return n,
                Err(why) => warn_env_threads_once(&why, default_threads()),
            }
        }
        default_threads()
    })
}

/// Runs `f` with the thread count pinned to `n` on this thread (operators
/// called from other threads are unaffected). The override also *forces*
/// the parallel path for inputs below [`PAR_THRESHOLD`], so tests can
/// exercise chunked execution on small relations.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Decides whether an operator over `len` items should take the parallel
/// path, returning the chunk count to use. `None` means "stay serial":
/// one thread configured, or the input is too small for any thread to
/// clear [`MIN_ROWS_PER_THREAD`] and no test override is forcing the
/// issue. When parallel, the chunk count is cost-based: never more
/// threads than `len / MIN_ROWS_PER_THREAD`, so every worker has enough
/// rows to amortize its spawn.
pub fn plan(len: usize) -> Option<usize> {
    plan_with_min(len, MIN_ROWS_PER_THREAD)
}

/// Like [`plan`], but with the whole-layout scan's cost model — the
/// index build's and the columnar σ's: workers must each own at least
/// [`MIN_ROWS_PER_INDEX_THREAD`] rows before the partial indexes or
/// selections they allocate (and the merge pass over them) pay for
/// themselves. This is the fix for the PR-5 regression where
/// `QualityIndex::build` consulted [`plan`] and spawned threads at 10k
/// rows — a size where serial wins per B9.
pub fn plan_index(len: usize) -> Option<usize> {
    plan_with_min(len, MIN_ROWS_PER_INDEX_THREAD)
}

fn plan_with_min(len: usize, min_rows: usize) -> Option<usize> {
    let forced = OVERRIDE.with(|o| o.get()).is_some();
    let threads = thread_count();
    match decide_with_min(len, threads, forced, min_rows) {
        None => {
            dq_obs::counter!("par.plan.serial").incr();
            None
        }
        Some(n) => {
            dq_obs::counter!("par.plan.parallel").incr();
            Some(n)
        }
    }
}

/// The pure spawn decision behind [`plan`], factored out so the cost
/// model is unit-testable without touching thread-count state. `forced`
/// (a [`with_thread_count`] override) bypasses the cost model entirely so
/// tests can exercise chunked execution on tiny relations.
#[cfg(test)]
fn decide(len: usize, threads: usize, forced: bool) -> Option<usize> {
    decide_with_min(len, threads, forced, MIN_ROWS_PER_THREAD)
}

/// The shared cost model behind [`decide`] (σ/mask kernels) and
/// [`plan_index`] (index builds): parallel only when more than one worker
/// can clear `min_rows`, and never more threads than `len / min_rows`.
fn decide_with_min(len: usize, threads: usize, forced: bool, min_rows: usize) -> Option<usize> {
    if threads <= 1 || len < 2 {
        return None;
    }
    if forced {
        return Some(threads.min(len));
    }
    if len < PAR_THRESHOLD {
        return None;
    }
    let affordable = len / min_rows;
    if affordable <= 1 {
        return None;
    }
    Some(threads.min(affordable))
}

/// Splits `0..len` into at most `threads` contiguous ranges whose start
/// offsets are multiples of 64 — so each range owns a **disjoint word
/// span** of any [`len`-bit bitset] indexed by position. The parallel
/// index build exploits this: each worker fills bitset words no other
/// worker touches, and the merge is a plain word copy with no OR over
/// shared words (see `QualityIndex::build`). Ranges are returned in
/// ascending order and cover `0..len` exactly once.
pub fn word_aligned_ranges(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let nwords = len.div_ceil(64);
    let chunk_words = nwords.div_ceil(threads.max(1)).max(1);
    (0..nwords)
        .step_by(chunk_words)
        .map(|w| (w * 64)..((w + chunk_words) * 64).min(len))
        .collect()
}

/// Splits `items` into `threads` contiguous chunks, runs `f(chunk_index,
/// chunk)` on scoped threads, and returns the per-chunk results **in
/// chunk order**. Panics in workers propagate to the caller.
pub fn run_chunked<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let f = &f;
    let chunk_us = dq_obs::histogram!("par.chunk_us");
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| {
                s.spawn(move || {
                    let _t = chunk_us.start();
                    f(i, c)
                })
            })
            .collect();
        dq_obs::counter!("par.chunks").add(handles.len() as u64);
        record_utilization(handles.len(), threads);
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Counts how many worker threads a chunked run actually occupied vs.
/// how many the plan asked for — the thread-utilization signal (tail
/// chunks can leave planned threads idle when `len` is small).
fn record_utilization(spawned: usize, planned: usize) {
    dq_obs::counter!("par.threads_spawned").add(spawned as u64);
    dq_obs::counter!("par.threads_planned").add(planned.max(1) as u64);
}

/// Splits `0..len` into `threads` contiguous index ranges and runs
/// `f(chunk_index, range)` on scoped threads, returning per-chunk results
/// **in chunk order**. Unlike [`run_chunked`], the closure indexes the
/// caller's own slice, so results may borrow from it (e.g. a hash-join
/// build phase returning `HashMap<&Value, Vec<&Row>>`).
pub fn run_ranges<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    let chunk = len.div_ceil(threads.max(1)).max(1);
    let f = &f;
    let chunk_us = dq_obs::histogram!("par.chunk_us");
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .enumerate()
            .map(|(i, start)| {
                let range = start..(start + chunk).min(len);
                s.spawn(move || {
                    let _t = chunk_us.start();
                    f(i, range)
                })
            })
            .collect();
        dq_obs::counter!("par.chunks").add(handles.len() as u64);
        record_utilization(handles.len(), threads);
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Concatenates fallible per-chunk row batches in chunk order. The first
/// error (by chunk index) wins — which is the same error the serial path
/// would report, because a chunk stops at its first failing row and any
/// earlier failing row lives in an earlier-or-equal chunk.
pub fn merge_results<R>(chunks: Vec<DbResult<Vec<R>>>) -> DbResult<Vec<R>> {
    let mut out = Vec::new();
    for c in chunks {
        out.extend(c?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;

    /// `DQ_THREADS` hardening: zero, garbage, and absurd values are all
    /// rejected (→ fall back to available parallelism with a warning),
    /// never trusted or silently clamped.
    #[test]
    fn env_threads_rejects_zero_garbage_and_absurd() {
        assert_eq!(resolve_env_threads("4"), Ok(4));
        assert_eq!(resolve_env_threads(" 2 "), Ok(2));
        assert_eq!(resolve_env_threads("1"), Ok(1));
        assert_eq!(resolve_env_threads(&MAX_THREADS.to_string()), Ok(MAX_THREADS));
        for bad in ["0", "nope", "", "-3", "3.5", "9999", "65"] {
            let got = resolve_env_threads(bad);
            assert!(got.is_err(), "{bad:?} must be rejected, got {got:?}");
        }
        // the rejection reasons name the offending value
        assert!(resolve_env_threads("9999").unwrap_err().contains("9999"));
        assert!(resolve_env_threads("banana").unwrap_err().contains("banana"));
    }

    /// The once-per-process warning path feeds the rejection counter.
    #[test]
    fn env_threads_warning_counts_once() {
        let before = dq_obs::registry().snapshot();
        warn_env_threads_once("DQ_THREADS=0: test", 4);
        warn_env_threads_once("DQ_THREADS=0: test again", 4);
        let after = dq_obs::registry().snapshot();
        let delta =
            after.counter("par.env_threads_rejected") - before.counter("par.env_threads_rejected");
        assert!(delta <= 1, "warned {delta} times; the warning must be once-per-process");
    }

    #[test]
    fn override_pins_and_restores() {
        let outside = thread_count();
        let inside = with_thread_count(3, thread_count);
        assert_eq!(inside, 3);
        assert_eq!(thread_count(), outside);
        // zero is clamped up to one
        assert_eq!(with_thread_count(0, thread_count), 1);
    }

    #[test]
    fn plan_respects_threshold_and_force() {
        // under threshold, no override → serial
        with_thread_count(4, || {
            // override forces parallel even for tiny inputs
            assert_eq!(plan(10), Some(4));
            // never more chunks than items
            assert_eq!(plan(3), Some(3));
            assert_eq!(plan(1), None);
        });
        with_thread_count(1, || {
            assert_eq!(plan(1_000_000), None);
        });
    }

    #[test]
    fn decide_is_cost_based_on_rows_per_thread() {
        // The B2 regression case: 10k rows on 8 threads must stay serial
        // (each thread would only see 1 250 rows — spawn overhead wins).
        assert_eq!(decide(10_000, 8, false), None);
        // 100k rows keeps the full 8-way split that wins ~3.5× in B1.
        assert_eq!(decide(100_000, 8, false), Some(8));
        // Parallelism engages at exactly 2 × MIN_ROWS_PER_THREAD, with
        // the thread count capped so each worker clears the minimum.
        assert_eq!(decide(2 * MIN_ROWS_PER_THREAD, 8, false), Some(2));
        assert_eq!(decide(2 * MIN_ROWS_PER_THREAD - 1, 8, false), None);
        assert_eq!(decide(4 * MIN_ROWS_PER_THREAD, 8, false), Some(4));
        // Tiny inputs are serial regardless of configured threads.
        assert_eq!(decide(1_000, 8, false), None);
        // One configured thread is always serial; force never resurrects it.
        assert_eq!(decide(1_000_000, 1, false), None);
        assert_eq!(decide(1_000_000, 1, true), None);
        // A test override forces the parallel path below the threshold
        // but still never plans more chunks than items.
        assert_eq!(decide(10, 4, true), Some(4));
        assert_eq!(decide(3, 4, true), Some(3));
        assert_eq!(decide(1, 4, true), None);
    }

    #[test]
    fn decide_index_crossover_keeps_10k_serial() {
        // The B9 regression case from PR 5: `QualityIndex::build` used the
        // generic σ cost model and spawned 8 threads at 10k rows, where
        // serial wins. The index model must keep that input serial …
        assert_eq!(decide_with_min(10_000, 8, false, MIN_ROWS_PER_INDEX_THREAD), None);
        // … and in fact everything below 2 × MIN_ROWS_PER_INDEX_THREAD.
        assert_eq!(
            decide_with_min(2 * MIN_ROWS_PER_INDEX_THREAD - 1, 8, false, MIN_ROWS_PER_INDEX_THREAD),
            None
        );
        assert_eq!(
            decide_with_min(2 * MIN_ROWS_PER_INDEX_THREAD, 8, false, MIN_ROWS_PER_INDEX_THREAD),
            Some(2)
        );
        // 1M rows keeps the full 8-way split that the disjoint-word merge
        // protocol makes profitable.
        assert_eq!(decide_with_min(1_000_000, 8, false, MIN_ROWS_PER_INDEX_THREAD), Some(8));
        // The index model is strictly more conservative than the σ model.
        const { assert!(MIN_ROWS_PER_INDEX_THREAD > MIN_ROWS_PER_THREAD) };
        // Forced overrides still bypass the model so parity tests can
        // exercise the parallel build on tiny relations.
        assert_eq!(decide_with_min(10, 4, true, MIN_ROWS_PER_INDEX_THREAD), Some(4));
    }

    #[test]
    fn word_aligned_ranges_cover_exactly_once_on_word_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 533, 4096, 100_000] {
            for threads in [1usize, 2, 3, 7, 8] {
                let ranges = word_aligned_ranges(len, threads);
                assert!(ranges.len() <= threads.max(1), "len={len} threads={threads}");
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap/overlap at len={len} threads={threads}");
                    assert_eq!(r.start % 64, 0, "unaligned start at len={len}");
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, len, "coverage at len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn run_chunked_preserves_order() {
        let items: Vec<i64> = (0..1000).collect();
        for threads in [1, 2, 3, 7, 8] {
            let chunks = run_chunked(&items, threads, |_, c| c.to_vec());
            let flat: Vec<i64> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items, "threads={threads}");
        }
    }

    #[test]
    fn run_ranges_covers_exactly_once() {
        let items: Vec<i64> = (0..1000).collect();
        for threads in [1, 2, 3, 7, 8] {
            let chunks = run_ranges(items.len(), threads, |_, r| items[r].to_vec());
            let flat: Vec<i64> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items, "threads={threads}");
        }
        assert!(run_ranges(0, 4, |_, r| r).is_empty());
    }

    #[test]
    fn instrumentation_counts_chunks_and_plans() {
        let before = dq_obs::registry().snapshot();
        let items: Vec<i64> = (0..100).collect();
        with_thread_count(4, || assert_eq!(plan(items.len()), Some(4)));
        with_thread_count(1, || assert_eq!(plan(items.len()), None));
        let chunks = run_chunked(&items, 4, |_, c| c.len());
        assert_eq!(chunks.iter().sum::<usize>(), items.len());
        let after = dq_obs::registry().snapshot();
        assert!(after.counter("par.chunks") >= before.counter("par.chunks") + 4);
        assert!(after.counter("par.plan.parallel") > before.counter("par.plan.parallel"));
        assert!(after.counter("par.plan.serial") > before.counter("par.plan.serial"));
        let hist_before = before
            .histograms
            .get("par.chunk_us")
            .map(|h| h.count)
            .unwrap_or(0);
        assert!(after.histograms["par.chunk_us"].count >= hist_before + 4);
        assert!(after.validate().is_ok());
    }

    #[test]
    fn merge_results_reports_first_error() {
        let chunks: Vec<DbResult<Vec<i64>>> = vec![
            Ok(vec![1, 2]),
            Err(DbError::Arithmetic("chunk 1".into())),
            Err(DbError::Arithmetic("chunk 2".into())),
        ];
        match merge_results(chunks) {
            Err(DbError::Arithmetic(m)) => assert_eq!(m, "chunk 1"),
            other => panic!("{other:?}"),
        }
        let ok: Vec<DbResult<Vec<i64>>> = vec![Ok(vec![1]), Ok(vec![2, 3])];
        assert_eq!(merge_results(ok).unwrap(), vec![1, 2, 3]);
    }
}
