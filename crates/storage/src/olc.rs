//! Optimistic lock coupling: version-validated reads with escalation.
//!
//! Buffer-pool page-table hits and shared B-tree probes would otherwise
//! serialize on a shard mutex even when nothing is being written.
//! This module supplies the shared primitive that removes the mutex
//! from their success paths, in the LeanStore/umbra optimistic-lock-
//! coupling style (ROADMAP item 1): an [`OptLock`] is a seqlock-like
//! version word; readers [`OptLock::begin_optimistic`] a guard, read,
//! and [`OptimisticGuard::validate`] that the version never moved;
//! writers [`OptLock::lock_exclusive`] the word (making it odd) around
//! every mutation, so a concurrent reader's validation fails and the
//! read restarts. After [`MAX_RESTARTS`] failed restarts the caller
//! escalates to the structure's existing exclusive mutex — the
//! pre-PR-8 code path — so a write-heavy phase degrades to exactly the
//! old behaviour instead of livelocking.
//!
//! # Version-word layout
//!
//! One `AtomicU64`: even ⇒ unlocked (the value is the version), odd ⇒
//! a writer holds the word exclusively. `lock_exclusive` CASes `v →
//! v+1` (odd); unlocking stores `v+2` (the next even version). The
//! counter wrapping after 2⁶³ writes is beyond any run's lifetime.
//!
//! # Why validated reads are never torn (safe Rust)
//!
//! This workspace forbids `unsafe`, so optimistic readers never touch
//! plain non-atomic memory: everything read under an optimistic guard
//! is either an atomic cell (the [`AtomicIndex`] buckets, frame pin
//! counts, second-chance bits) or data behind its own small lock (a
//! frame latch) that the mutation paths also take.
//! Validation therefore never has to paper over a data race — it only
//! decides whether the *combination* of values read is current. A
//! validated read is provably equivalent to the mutex path: each probe
//! either observed state that was simultaneously live (same frame
//! mapping, same node) or validation fails and the read restarts.
//!
//! # Escalation and the runtime ABBA graph
//!
//! `lock_exclusive` spins rather than parking, but it is still a
//! blocking acquisition for deadlock purposes. Under the workspace's
//! `lock-order-tracking` feature every `OptLock` registers with the
//! vendored parking_lot order tracker (via its external-primitive
//! hooks), so an exclusive version-word acquisition appears in the
//! runtime lock-order graph exactly like a mutex edge and an inverted
//! escalation order panics instead of deadlocking. The static
//! counterpart is molap-lint's `AcquireOpt` effect arm and the
//! `olc-io` rule (see DESIGN.md §8).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::util::fib_shard;

/// Failed restarts an optimistic read tolerates before the caller
/// escalates to the structure's exclusive mutex. Small on purpose:
/// restarts are cheap, but under a write storm the mutex path has
/// better progress guarantees than an optimistic spin.
pub const MAX_RESTARTS: u32 = 3;

/// A seqlock-style version word (see the module docs).
#[derive(Debug)]
pub struct OptLock {
    version: AtomicU64,
    /// Identity slot for the parking_lot runtime lock-order tracker.
    #[cfg(feature = "lock-order-tracking")]
    order_slot: std::sync::atomic::AtomicUsize,
}

impl Default for OptLock {
    fn default() -> Self {
        Self::new()
    }
}

impl OptLock {
    /// Creates an unlocked version word at version 0.
    pub const fn new() -> Self {
        OptLock {
            version: AtomicU64::new(0),
            #[cfg(feature = "lock-order-tracking")]
            order_slot: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Starts an optimistic read: snapshots the version, or returns
    /// `None` when a writer currently holds the word (odd version).
    /// Acquire ordering: everything the last unlocking writer
    /// published happens-before the reads this guard brackets.
    pub fn begin_optimistic(&self) -> Option<OptimisticGuard<'_>> {
        let seen = self.version.load(Ordering::Acquire);
        (seen & 1 == 0).then_some(OptimisticGuard { lock: self, seen })
    }

    /// True when the word still holds version `seen` — the deferred
    /// re-validation used after a guard was [`OptimisticGuard::confirm`]ed
    /// and released (the B-tree descent re-checks a parent's version
    /// after faulting the child in, without holding a guard across the
    /// I/O).
    pub fn still_valid(&self, seen: u64) -> bool {
        std::sync::atomic::fence(Ordering::Acquire);
        self.version.load(Ordering::Relaxed) == seen
    }

    /// Acquires the word exclusively (spinning), bumping it odd; the
    /// returned guard's drop publishes the next even version, failing
    /// every optimistic read that overlapped the critical section.
    ///
    /// Mutators must already hold whatever lock serializes them
    /// against each other (shard mutex, `&mut self`); the spin only
    /// fences readers, so it is short by construction.
    #[track_caller]
    pub fn lock_exclusive(&self) -> ExclusiveOptGuard<'_> {
        // Register with the runtime lock-order tracker *before*
        // spinning, so an inverted acquisition order panics instead of
        // deadlocking when the schedule is unlucky.
        #[cfg(feature = "lock-order-tracking")]
        let held = parking_lot::order::external_blocking_acquire(&self.order_slot);
        loop {
            let v = self.version.load(Ordering::Relaxed);
            if v & 1 == 0
                && self
                    .version
                    .compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return ExclusiveOptGuard {
                    lock: self,
                    seen: v,
                    #[cfg(feature = "lock-order-tracking")]
                    _held: held,
                };
            }
            std::hint::spin_loop();
        }
    }
}

/// An optimistic read in progress: a snapshotted version, no lock held.
#[derive(Debug)]
pub struct OptimisticGuard<'a> {
    lock: &'a OptLock,
    seen: u64,
}

impl OptimisticGuard<'_> {
    /// True when no writer has locked or advanced the word since
    /// [`OptLock::begin_optimistic`]: everything read under the guard
    /// is a consistent snapshot.
    pub fn validate(&self) -> bool {
        std::sync::atomic::fence(Ordering::Acquire);
        self.lock.version.load(Ordering::Relaxed) == self.seen
    }

    /// Validates and releases the guard, returning the version it
    /// proved stable — for deferred [`OptLock::still_valid`] re-checks
    /// across an operation (an I/O) the guard must not span.
    pub fn confirm(self) -> Option<u64> {
        self.validate().then_some(self.seen)
    }
}

/// Exclusive hold of an [`OptLock`]; dropping it publishes the next
/// version, invalidating every overlapping optimistic read.
pub struct ExclusiveOptGuard<'a> {
    lock: &'a OptLock,
    seen: u64,
    #[cfg(feature = "lock-order-tracking")]
    _held: parking_lot::order::HeldToken,
}

impl std::fmt::Debug for ExclusiveOptGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExclusiveOptGuard")
            .field("seen", &self.seen)
            .finish()
    }
}

impl Drop for ExclusiveOptGuard<'_> {
    fn drop(&mut self) {
        // seen was the even pre-lock version; seen + 1 is the held odd
        // value; seen + 2 re-opens the word at the next even version.
        self.lock
            .version
            .store(self.seen.wrapping_add(2), Ordering::Release);
    }
}

/// Reserved bucket value: a never-written slot.
const EMPTY: u64 = u64::MAX;
/// Reserved bucket value: a deleted slot (probes walk past it).
const TOMB: u64 = u64::MAX - 1;

/// A fixed-capacity open-addressing `u64 → u64` map whose buckets are
/// atomic cells, so optimistic readers can probe it with no lock at
/// all. It is a *mirror*, not an authority: every mutating structure
/// keeps its existing `HashMap` as the source of truth (under its
/// mutex) and mirrors insert/remove here while holding the paired
/// [`OptLock`] exclusively, so a reader that probes a mid-update
/// bucket simply fails validation and retries.
///
/// Keys `u64::MAX` and `u64::MAX - 1` are reserved; [`AtomicIndex::insert`]
/// refuses them and the probe misses, which sends those (never-occurring
/// in practice: page ids are small) lookups down the locked fallback
/// path — correct, merely slower.
#[derive(Debug)]
pub struct AtomicIndex {
    keys: Box<[AtomicU64]>,
    vals: Box<[AtomicU64]>,
    /// Live + tombstone buckets (writer-side bookkeeping; mutations
    /// are already serialized by the owner's mutex).
    used: AtomicU64,
    tombs: AtomicU64,
    mask: usize,
}

impl AtomicIndex {
    /// Creates an index able to hold `entries` live mappings with a
    /// load factor ≤ ½ (bucket count is the next power of two ≥
    /// `2 * entries`, minimum 8).
    pub fn with_capacity(entries: usize) -> Self {
        let buckets = (entries.max(2) * 2).next_power_of_two().max(8);
        AtomicIndex {
            keys: (0..buckets).map(|_| AtomicU64::new(EMPTY)).collect(),
            vals: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            used: AtomicU64::new(0),
            tombs: AtomicU64::new(0),
            mask: buckets - 1,
        }
    }

    /// Lock-free point lookup. Safe to call with no lock held; callers
    /// validate their [`OptimisticGuard`] afterwards to learn whether
    /// the answer was current.
    pub fn probe(&self, key: u64) -> Option<u64> {
        if key >= TOMB {
            return None;
        }
        let start = fib_shard(key, self.mask + 1);
        for step in 0..=self.mask {
            let i = (start + step) & self.mask;
            // Acquire pairs with the Release key store in `insert`, so
            // a matching key implies the value store is visible.
            match self.keys[i].load(Ordering::Acquire) {
                EMPTY => return None,
                k if k == key => return Some(self.vals[i].load(Ordering::Acquire)),
                _ => {}
            }
        }
        None
    }

    /// Inserts or updates `key → val`. Must be called with the paired
    /// [`OptLock`] held exclusively (and the owner's mutex serializing
    /// mutators). Returns `false` — leaving the index unchanged — when
    /// the key is reserved or the table is too full (≥ ¾ of buckets
    /// used); the caller then [`AtomicIndex::clear`]s and re-mirrors
    /// from its authoritative map.
    pub fn insert(&self, key: u64, val: u64) -> bool {
        if key >= TOMB {
            return false;
        }
        let start = fib_shard(key, self.mask + 1);
        let mut free: Option<usize> = None;
        for step in 0..=self.mask {
            let i = (start + step) & self.mask;
            match self.keys[i].load(Ordering::Relaxed) {
                k if k == key => {
                    self.vals[i].store(val, Ordering::Release);
                    return true;
                }
                EMPTY => {
                    let slot = free.unwrap_or(i);
                    if free.is_none()
                        && self.used.load(Ordering::Relaxed) * 4 >= (self.mask as u64 + 1) * 3
                    {
                        return false;
                    }
                    return self.fill(slot, key, val);
                }
                TOMB if free.is_none() => {
                    free = Some(i);
                }
                _ => {}
            }
        }
        match free {
            Some(slot) => self.fill(slot, key, val),
            None => false,
        }
    }

    /// Writes `key → val` into bucket `slot` (an EMPTY or TOMB bucket
    /// found by `insert`), keeping the occupancy counters straight.
    fn fill(&self, slot: usize, key: u64, val: u64) -> bool {
        let (Some(key_cell), Some(val_cell)) = (self.keys.get(slot), self.vals.get(slot)) else {
            return false;
        };
        let prior = key_cell.load(Ordering::Relaxed);
        // Value first, then key with Release: a reader that Acquires
        // the key observes the value store.
        val_cell.store(val, Ordering::Relaxed);
        key_cell.store(key, Ordering::Release);
        if prior == TOMB {
            self.tombs.fetch_sub(1, Ordering::Relaxed);
        } else {
            self.used.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Removes `key` if it currently maps to `val` (the value check
    /// keeps a stale mirror entry for key A from deleting a newer
    /// mapping that reused its bucket). Same locking contract as
    /// [`AtomicIndex::insert`]. Returns whether a bucket was cleared.
    pub fn remove(&self, key: u64, val: u64) -> bool {
        if key >= TOMB {
            return false;
        }
        let start = fib_shard(key, self.mask + 1);
        for step in 0..=self.mask {
            let i = (start + step) & self.mask;
            match self.keys[i].load(Ordering::Relaxed) {
                EMPTY => return false,
                k if k == key => {
                    if self.vals[i].load(Ordering::Relaxed) != val {
                        return false;
                    }
                    self.keys[i].store(TOMB, Ordering::Release);
                    self.tombs.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Empties every bucket. Same locking contract as `insert`.
    pub fn clear(&self) {
        for k in self.keys.iter() {
            k.store(EMPTY, Ordering::Release);
        }
        self.used.store(0, Ordering::Relaxed);
        self.tombs.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn begin_fails_while_exclusively_locked() {
        let l = OptLock::new();
        assert!(l.begin_optimistic().is_some());
        let x = l.lock_exclusive();
        assert!(l.begin_optimistic().is_none(), "odd version = writer");
        drop(x);
        assert!(l.begin_optimistic().is_some());
    }

    #[test]
    fn validation_fails_across_a_write() {
        let l = OptLock::new();
        let g = l.begin_optimistic().unwrap();
        assert!(g.validate(), "no writer yet");
        drop(l.lock_exclusive()); // version advances by 2
        assert!(!g.validate(), "stale guard must fail");
        let g2 = l.begin_optimistic().unwrap();
        let seen = g2.confirm().expect("fresh guard validates");
        assert!(l.still_valid(seen));
        drop(l.lock_exclusive());
        assert!(!l.still_valid(seen));
    }

    #[test]
    fn atomic_index_basics() {
        let idx = AtomicIndex::with_capacity(4);
        assert_eq!(idx.probe(1), None);
        assert!(idx.insert(1, 10));
        assert!(idx.insert(2, 20));
        assert_eq!(idx.probe(1), Some(10));
        assert_eq!(idx.probe(2), Some(20));
        // Update in place.
        assert!(idx.insert(1, 11));
        assert_eq!(idx.probe(1), Some(11));
        // Guarded remove: wrong value is a no-op.
        assert!(!idx.remove(1, 99));
        assert_eq!(idx.probe(1), Some(11));
        assert!(idx.remove(1, 11));
        assert_eq!(idx.probe(1), None);
        // Tombstone does not hide later keys on the same probe path.
        assert_eq!(idx.probe(2), Some(20));
        idx.clear();
        assert_eq!(idx.probe(2), None);
    }

    #[test]
    fn atomic_index_reuses_tombstones_and_bounds_fill() {
        let idx = AtomicIndex::with_capacity(4); // 8 buckets
        for k in 0..4u64 {
            assert!(idx.insert(k, k));
        }
        for k in 0..4u64 {
            assert!(idx.remove(k, k));
        }
        // Tombstoned buckets are reused, so churn never fills it up.
        for round in 0..10u64 {
            for k in 0..4u64 {
                assert!(idx.insert(k, round), "round {round} key {k}");
                assert_eq!(idx.probe(k), Some(round));
                assert!(idx.remove(k, round));
            }
        }
        // Overfilling reports false instead of degrading probes.
        let mut accepted = 0;
        for k in 100..200u64 {
            if idx.insert(k, k) {
                accepted += 1;
            }
        }
        assert!(accepted >= 4, "capacity-worth of inserts must fit");
        assert!(accepted < 100, "the ¾ fill bound must refuse eventually");
        // Reserved keys are refused outright.
        assert!(!idx.insert(u64::MAX, 1));
        assert!(!idx.insert(u64::MAX - 1, 1));
        assert_eq!(idx.probe(u64::MAX), None);
    }

    #[test]
    fn concurrent_readers_never_see_torn_pairs() {
        // Two counters updated together under the exclusive side; a
        // validated optimistic read of the pair must always see them
        // equal — the primitive's no-torn-reads contract.
        struct Pair {
            lock: OptLock,
            a: AtomicU64,
            b: AtomicU64,
        }
        let p = Arc::new(Pair {
            lock: OptLock::new(),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        });
        let writer = {
            let p = p.clone();
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    let x = p.lock.lock_exclusive();
                    p.a.fetch_add(1, Ordering::Relaxed);
                    p.b.fetch_add(1, Ordering::Relaxed);
                    drop(x);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let mut validated = 0u64;
                    for _ in 0..20_000 {
                        let Some(guard) = p.lock.begin_optimistic() else {
                            continue;
                        };
                        let a = p.a.load(Ordering::Relaxed);
                        let b = p.b.load(Ordering::Relaxed);
                        if guard.validate() {
                            assert_eq!(a, b, "torn pair observed");
                            validated += 1;
                        }
                    }
                    validated
                })
            })
            .collect();
        writer.join().unwrap();
        // Per-reader validated counts can legitimately be zero on a
        // loaded single-core box (a reader slice may coincide entirely
        // with writer holds), so only the no-torn-pairs assertions
        // inside the readers are load-bearing there.
        for r in readers {
            let _validated: u64 = r.join().unwrap();
        }
        // Quiescent read must validate first try.
        let guard = p.lock.begin_optimistic().expect("no writer left");
        assert_eq!(p.a.load(Ordering::Relaxed), 20_000);
        assert!(guard.validate(), "quiescent read must validate");
        assert_eq!(p.a.load(Ordering::Relaxed), p.b.load(Ordering::Relaxed));
    }
}
