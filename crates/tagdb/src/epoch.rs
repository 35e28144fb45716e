//! Epoch-stamped snapshot publication — the MVCC primitive.
//!
//! A writer builds the next immutable state off to the side (all the
//! tag/relation/index structures in this crate are `Arc`/CoW
//! persistent-data-structure-shaped, so "build the next state" is a
//! cheap copy-on-write rebuild), then publishes it through an
//! [`EpochCell`] in one swap. Readers *pin* the current
//! [`Stamped`] snapshot at statement start and evaluate against it for
//! the statement's whole lifetime: they never block on a writer and can
//! never observe a half-applied tag, because no published state is ever
//! mutated after publication.
//!
//! Epochs are strictly increasing `u64` stamps. Epoch 0 is the initial
//! (pre-first-publish) state; every successful publish produces a
//! strictly larger epoch. [`EpochCell::publish_at`] lets a caller with
//! an external epoch authority (e.g. the WAL commit counter in
//! `dq-storage`) impose a floor so the in-memory epoch sequence and the
//! durable one agree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A value paired with the epoch at which it was published.
///
/// The value is immutable once stamped; readers share it by `Arc`.
#[derive(Debug)]
pub struct Stamped<T> {
    epoch: u64,
    value: T,
}

impl<T> Stamped<T> {
    /// Wrap `value` with the given epoch stamp.
    pub fn new(epoch: u64, value: T) -> Self {
        Stamped { epoch, value }
    }

    /// The epoch at which this value was published.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The published value.
    pub fn value(&self) -> &T {
        &self.value
    }
}

/// A single-slot publication cell: writers swap in new epoch-stamped
/// values, readers pin the current one without ever blocking on a
/// writer's *execution* (pinning takes only a short read lock around
/// one `Arc` clone; publication holds the matching write lock only for
/// the swap itself).
#[derive(Debug)]
pub struct EpochCell<T> {
    current: RwLock<Arc<Stamped<T>>>,
    /// Cached copy of `current`'s epoch, readable without the lock.
    epoch: AtomicU64,
}

impl<T> EpochCell<T> {
    /// Create a cell holding `value` at epoch 0.
    pub fn new(value: T) -> Self {
        Self::with_epoch(0, value)
    }

    /// Create a cell holding `value` at a specific starting epoch
    /// (e.g. the epoch recovered from a durable store).
    pub fn with_epoch(epoch: u64, value: T) -> Self {
        EpochCell {
            current: RwLock::new(Arc::new(Stamped::new(epoch, value))),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// The epoch of the most recently published value, without taking
    /// the lock. Sessions compare this against their pinned epoch to
    /// decide whether to re-pin.
    pub fn published_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pin the current snapshot: one `Arc` clone under a read lock.
    /// The returned snapshot stays valid (and unchanging) for as long
    /// as the caller holds it, regardless of later publishes.
    pub fn pin(&self) -> Arc<Stamped<T>> {
        Arc::clone(&self.current.read().expect("epoch cell poisoned"))
    }

    /// Publish `value` at `max(current + 1, floor)`. The floor lets an
    /// external epoch authority (the WAL) dictate the stamp while still
    /// guaranteeing strict monotonicity if the authority lags.
    pub fn publish_at(&self, value: T, floor: u64) -> u64 {
        let mut slot = self.current.write().expect("epoch cell poisoned");
        let epoch = (slot.epoch() + 1).max(floor);
        *slot = Arc::new(Stamped::new(epoch, value));
        self.epoch.store(epoch, Ordering::Release);
        dq_obs::counter!("mvcc.epochs_published").incr();
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn pin_sees_the_published_value() {
        let cell = EpochCell::new(vec![1, 2]);
        assert_eq!(cell.published_epoch(), 0);
        let pinned = cell.pin();
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.value(), &vec![1, 2]);

        let e = cell.publish_at(vec![3], 0);
        assert_eq!(e, 1);
        assert_eq!(cell.published_epoch(), 1);
        // the old pin is unaffected by the publish
        assert_eq!(pinned.value(), &vec![1, 2]);
        assert_eq!(cell.pin().value(), &vec![3]);
    }

    #[test]
    fn publish_at_respects_the_floor() {
        let cell = EpochCell::new(0u32);
        assert_eq!(cell.publish_at(1, 10), 10);
        // floor below current+1 is ignored
        assert_eq!(cell.publish_at(2, 3), 11);
        assert_eq!(cell.pin().epoch(), 11);
    }

    #[test]
    fn with_epoch_starts_at_the_recovered_stamp() {
        let cell = EpochCell::with_epoch(42, "state");
        assert_eq!(cell.published_epoch(), 42);
        assert_eq!(cell.publish_at("next", 0), 43);
    }

    #[test]
    fn concurrent_publishers_get_strictly_increasing_epochs() {
        let cell = Arc::new(EpochCell::new(0usize));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || (0..50).map(|_| cell.publish_at(i, 0)).collect::<Vec<u64>>())
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        // 400 publishes => exactly epochs 1..=400, no duplicates
        assert_eq!(all, (1..=400).collect::<Vec<u64>>());
        assert_eq!(cell.published_epoch(), 400);
    }
}
