//! I/O statistics counters.
//!
//! The paper's performance argument is partly a *footprint* argument: the
//! compressed array is smaller than the fact file, so scanning it costs
//! fewer I/Os. Absolute 1997 wall-clock times are not reproducible on
//! modern hardware, so the benchmark harness reports these counters next
//! to wall time; the I/O ratios are hardware-independent.
//!
//! Besides page-level I/O, the counters track the decoded-chunk cache
//! and the chunk prefetch pipeline (both maintained by the array layer,
//! which lacks a shared home of its own — the cache and the prefetcher
//! are pool-scoped, so their counters live with the pool's).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::page::PAGE_SIZE;

/// Thread-safe I/O counters owned by a [`crate::BufferPool`].
#[derive(Debug)]
pub struct IoStats {
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    seq_physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    evictions: AtomicU64,
    last_read_pid: AtomicU64,
    chunk_cache_hits: AtomicU64,
    chunk_cache_misses: AtomicU64,
    chunk_cache_evictions: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
    prefetch_queue_peak: AtomicU64,
    result_cache_hits: AtomicU64,
    result_cache_misses: AtomicU64,
    result_cache_derived: AtomicU64,
    result_cache_evictions: AtomicU64,
    result_cache_invalidations: AtomicU64,
    write_batches: AtomicU64,
    write_cells: AtomicU64,
    result_cache_patched: AtomicU64,
    result_cache_fallbacks: AtomicU64,
    opt_pool_reads: AtomicU64,
    opt_pool_restarts: AtomicU64,
    opt_pool_escalations: AtomicU64,
    opt_btree_reads: AtomicU64,
    opt_btree_restarts: AtomicU64,
    opt_btree_escalations: AtomicU64,
    hbi_probes: AtomicU64,
    hbi_bitmaps_read: AtomicU64,
    planner_btree: AtomicU64,
    planner_hbi: AtomicU64,
}

impl Default for IoStats {
    fn default() -> Self {
        Self::new()
    }
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        IoStats {
            logical_reads: AtomicU64::new(0),
            physical_reads: AtomicU64::new(0),
            seq_physical_reads: AtomicU64::new(0),
            physical_writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            // Chosen so no first read can look sequential.
            last_read_pid: AtomicU64::new(u64::MAX - 1),
            chunk_cache_hits: AtomicU64::new(0),
            chunk_cache_misses: AtomicU64::new(0),
            chunk_cache_evictions: AtomicU64::new(0),
            prefetch_issued: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
            prefetch_queue_peak: AtomicU64::new(0),
            result_cache_hits: AtomicU64::new(0),
            result_cache_misses: AtomicU64::new(0),
            result_cache_derived: AtomicU64::new(0),
            result_cache_evictions: AtomicU64::new(0),
            result_cache_invalidations: AtomicU64::new(0),
            write_batches: AtomicU64::new(0),
            write_cells: AtomicU64::new(0),
            result_cache_patched: AtomicU64::new(0),
            result_cache_fallbacks: AtomicU64::new(0),
            opt_pool_reads: AtomicU64::new(0),
            opt_pool_restarts: AtomicU64::new(0),
            opt_pool_escalations: AtomicU64::new(0),
            opt_btree_reads: AtomicU64::new(0),
            opt_btree_restarts: AtomicU64::new(0),
            opt_btree_escalations: AtomicU64::new(0),
            hbi_probes: AtomicU64::new(0),
            hbi_bitmaps_read: AtomicU64::new(0),
            planner_btree: AtomicU64::new(0),
            planner_hbi: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn logical_read(&self) {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn logical_reads_add(&self, n: u64) {
        self.logical_reads.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn physical_read(&self, pid: u64) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
        // A read is "sequential" when it follows its predecessor on
        // disk — the distinction that separates a chunk/fact scan from
        // the bitmap plan's scattered tuple fetches under a seek-bound
        // 1997 disk model.
        let last = self.last_read_pid.swap(pid, Ordering::Relaxed);
        if pid == last.wrapping_add(1) {
            self.seq_physical_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one disk read spanning `n` contiguous pages starting at
    /// `first` (a vectored LOB fault). Pages 2..n trivially follow
    /// their predecessor, so `n - 1` of the reads count as sequential;
    /// the first page is sequential iff it follows the previous read.
    #[inline]
    pub(crate) fn physical_read_span(&self, first: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.physical_reads.fetch_add(n, Ordering::Relaxed);
        let last = self
            .last_read_pid
            .swap(first.wrapping_add(n - 1), Ordering::Relaxed);
        let mut seq = n - 1;
        if first == last.wrapping_add(1) {
            seq += 1;
        }
        self.seq_physical_reads.fetch_add(seq, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn physical_write(&self) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a decoded-chunk cache lookup that found a live entry.
    #[inline]
    pub fn chunk_cache_hit(&self) {
        self.chunk_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a decoded-chunk cache lookup that had to decode.
    #[inline]
    pub fn chunk_cache_miss(&self) {
        self.chunk_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` decoded chunks evicted to stay under the byte cap.
    #[inline]
    pub fn chunk_cache_evictions_add(&self, n: u64) {
        self.chunk_cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a chunk handed to a prefetcher thread (read + decode
    /// started).
    #[inline]
    pub fn prefetch_issue(&self) {
        self.prefetch_issued.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a prefetched chunk consumed by a consolidation worker.
    #[inline]
    pub fn prefetch_hit(&self) {
        self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` prefetched chunks that were decoded but never
    /// consumed (pipeline cancelled or errored out).
    #[inline]
    pub fn prefetch_wasted_add(&self, n: u64) {
        self.prefetch_wasted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records the delivery queue's depth after a publication; the
    /// high-water mark is kept (gauge, not a counter).
    #[inline]
    pub fn prefetch_queue_depth(&self, depth: u64) {
        self.prefetch_queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a result-cube cache lookup answered by an exact entry.
    #[inline]
    pub fn result_cache_hit(&self) {
        self.result_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a result-cube cache lookup that found nothing usable.
    #[inline]
    pub fn result_cache_miss(&self) {
        self.result_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a result derived from a finer cached cube by rollup
    /// subsumption (counted *instead of* a hit or miss).
    #[inline]
    pub fn result_cache_derive(&self) {
        self.result_cache_derived.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` cached result cubes evicted for the byte budget.
    #[inline]
    pub fn result_cache_evictions_add(&self, n: u64) {
        self.result_cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a cache-wide invalidation (a write or a pool clear
    /// observed by the result cache).
    #[inline]
    pub fn result_cache_invalidation(&self) {
        self.result_cache_invalidations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one committed write batch.
    #[inline]
    pub fn write_batch(&self) {
        self.write_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` cells mutated by committed write batches.
    #[inline]
    pub fn write_cells_add(&self, n: u64) {
        self.write_cells.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a cached result cube patched in place by delta
    /// maintenance (kept warm across a write).
    #[inline]
    pub fn result_cache_patch(&self) {
        self.result_cache_patched.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cached result cube dropped by delta maintenance
    /// because an aggregate could not be patched incrementally
    /// (MIN/MAX shrinking update → lazy recompute on next lookup).
    #[inline]
    pub fn result_cache_fallback(&self) {
        self.result_cache_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one optimistic buffer-pool page-table read: the restart
    /// count it burned, and whether it gave up and escalated to the
    /// shard mutex.
    #[inline]
    pub fn opt_pool(&self, restarts: u64, escalated: bool) {
        self.opt_pool_reads.fetch_add(1, Ordering::Relaxed);
        // Zero restarts is the hot case; skip the wasted atomic add.
        if restarts > 0 {
            self.opt_pool_restarts
                .fetch_add(restarts, Ordering::Relaxed);
        }
        if escalated {
            self.opt_pool_escalations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one optimistic B-tree probe (see [`IoStats::opt_pool`]
    /// for the argument convention).
    #[inline]
    pub fn opt_btree(&self, restarts: u64, escalated: bool) {
        self.opt_btree_reads.fetch_add(1, Ordering::Relaxed);
        if restarts > 0 {
            self.opt_btree_restarts
                .fetch_add(restarts, Ordering::Relaxed);
        }
        if escalated {
            self.opt_btree_escalations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one predicate resolved against a hierarchical bitmap
    /// index (a range cover or an IN-list lookup).
    #[inline]
    pub fn hbi_probe(&self) {
        self.hbi_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` HBI node bitmaps fetched and decompressed.
    #[inline]
    pub fn hbi_bitmaps_read_add(&self, n: u64) {
        self.hbi_bitmaps_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one selection the predicate-shape planner routed to the
    /// B-tree index-list path.
    #[inline]
    pub fn planner_route_btree(&self) {
        self.planner_btree.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one selection the predicate-shape planner routed to the
    /// hierarchical bitmap index.
    #[inline]
    pub fn planner_route_hbi(&self) {
        self.planner_hbi.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            seq_physical_reads: self.seq_physical_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            chunk_cache_hits: self.chunk_cache_hits.load(Ordering::Relaxed),
            chunk_cache_misses: self.chunk_cache_misses.load(Ordering::Relaxed),
            chunk_cache_evictions: self.chunk_cache_evictions.load(Ordering::Relaxed),
            prefetch_issued: self.prefetch_issued.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Ordering::Relaxed),
            prefetch_queue_peak: self.prefetch_queue_peak.load(Ordering::Relaxed),
            result_cache_hits: self.result_cache_hits.load(Ordering::Relaxed),
            result_cache_misses: self.result_cache_misses.load(Ordering::Relaxed),
            result_cache_derived: self.result_cache_derived.load(Ordering::Relaxed),
            result_cache_evictions: self.result_cache_evictions.load(Ordering::Relaxed),
            result_cache_invalidations: self.result_cache_invalidations.load(Ordering::Relaxed),
            write_batches: self.write_batches.load(Ordering::Relaxed),
            write_cells: self.write_cells.load(Ordering::Relaxed),
            result_cache_patched: self.result_cache_patched.load(Ordering::Relaxed),
            result_cache_fallbacks: self.result_cache_fallbacks.load(Ordering::Relaxed),
            opt_pool_reads: self.opt_pool_reads.load(Ordering::Relaxed),
            opt_pool_restarts: self.opt_pool_restarts.load(Ordering::Relaxed),
            opt_pool_escalations: self.opt_pool_escalations.load(Ordering::Relaxed),
            opt_btree_reads: self.opt_btree_reads.load(Ordering::Relaxed),
            opt_btree_restarts: self.opt_btree_restarts.load(Ordering::Relaxed),
            opt_btree_escalations: self.opt_btree_escalations.load(Ordering::Relaxed),
            hbi_probes: self.hbi_probes.load(Ordering::Relaxed),
            hbi_bitmaps_read: self.hbi_bitmaps_read.load(Ordering::Relaxed),
            planner_btree: self.planner_btree.load(Ordering::Relaxed),
            planner_hbi: self.planner_hbi.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero (used between benchmark runs).
    pub fn reset(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.seq_physical_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.last_read_pid.store(u64::MAX - 1, Ordering::Relaxed);
        self.chunk_cache_hits.store(0, Ordering::Relaxed);
        self.chunk_cache_misses.store(0, Ordering::Relaxed);
        self.chunk_cache_evictions.store(0, Ordering::Relaxed);
        self.prefetch_issued.store(0, Ordering::Relaxed);
        self.prefetch_hits.store(0, Ordering::Relaxed);
        self.prefetch_wasted.store(0, Ordering::Relaxed);
        self.prefetch_queue_peak.store(0, Ordering::Relaxed);
        self.result_cache_hits.store(0, Ordering::Relaxed);
        self.result_cache_misses.store(0, Ordering::Relaxed);
        self.result_cache_derived.store(0, Ordering::Relaxed);
        self.result_cache_evictions.store(0, Ordering::Relaxed);
        self.result_cache_invalidations.store(0, Ordering::Relaxed);
        self.write_batches.store(0, Ordering::Relaxed);
        self.write_cells.store(0, Ordering::Relaxed);
        self.result_cache_patched.store(0, Ordering::Relaxed);
        self.result_cache_fallbacks.store(0, Ordering::Relaxed);
        self.opt_pool_reads.store(0, Ordering::Relaxed);
        self.opt_pool_restarts.store(0, Ordering::Relaxed);
        self.opt_pool_escalations.store(0, Ordering::Relaxed);
        self.opt_btree_reads.store(0, Ordering::Relaxed);
        self.opt_btree_restarts.store(0, Ordering::Relaxed);
        self.opt_btree_escalations.store(0, Ordering::Relaxed);
        self.hbi_probes.store(0, Ordering::Relaxed);
        self.hbi_bitmaps_read.store(0, Ordering::Relaxed);
        self.planner_btree.store(0, Ordering::Relaxed);
        self.planner_hbi.store(0, Ordering::Relaxed);
    }
}

/// Hit/miss counters for one buffer-pool shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Page requests answered from this shard's table.
    pub hits: u64,
    /// Page requests that faulted through this shard.
    pub misses: u64,
}

/// A point-in-time copy of [`IoStats`], with delta arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Page requests served by the pool (hits + misses).
    pub logical_reads: u64,
    /// Page reads that went to the disk manager.
    pub physical_reads: u64,
    /// Physical reads whose page directly follows the previous one
    /// (subset of `physical_reads`).
    pub seq_physical_reads: u64,
    /// Dirty pages written back to the disk manager.
    pub physical_writes: u64,
    /// Frames recycled by the clock hand.
    pub evictions: u64,
    /// Decoded-chunk cache lookups that found a live entry.
    pub chunk_cache_hits: u64,
    /// Decoded-chunk cache lookups that had to decode.
    pub chunk_cache_misses: u64,
    /// Decoded chunks evicted to stay under the cache's byte cap.
    pub chunk_cache_evictions: u64,
    /// Chunks handed to a prefetcher thread (read + decode started).
    pub prefetch_issued: u64,
    /// Prefetched chunks consumed by a consolidation worker.
    pub prefetch_hits: u64,
    /// Prefetched chunks decoded but never consumed (cancellation).
    pub prefetch_wasted: u64,
    /// High-water mark of the prefetch delivery queue's depth (gauge;
    /// since the last reset, not differenced by [`IoSnapshot::since`]).
    pub prefetch_queue_peak: u64,
    /// Result-cube cache lookups answered by an exact cached cube.
    pub result_cache_hits: u64,
    /// Result-cube cache lookups that found nothing usable.
    pub result_cache_misses: u64,
    /// Results derived from a finer cached cube (rollup subsumption).
    pub result_cache_derived: u64,
    /// Cached result cubes evicted for the byte budget.
    pub result_cache_evictions: u64,
    /// Cache-wide invalidations observed (writes / pool clears).
    pub result_cache_invalidations: u64,
    /// Write batches committed through the batched write path.
    pub write_batches: u64,
    /// Cells mutated by committed write batches.
    pub write_cells: u64,
    /// Cached result cubes patched in place by delta maintenance.
    pub result_cache_patched: u64,
    /// Cached result cubes dropped by delta maintenance (unpatchable
    /// aggregate → recompute on next lookup).
    pub result_cache_fallbacks: u64,
    /// Optimistic buffer-pool page-table reads attempted.
    pub opt_pool_reads: u64,
    /// Restarts burned by optimistic pool reads (validation conflicts).
    pub opt_pool_restarts: u64,
    /// Optimistic pool reads that gave up and took the shard mutex.
    pub opt_pool_escalations: u64,
    /// Optimistic B-tree probes attempted.
    pub opt_btree_reads: u64,
    /// Restarts burned by optimistic B-tree probes.
    pub opt_btree_restarts: u64,
    /// Optimistic B-tree probes that escalated to the tree mutex.
    pub opt_btree_escalations: u64,
    /// Predicates resolved against a hierarchical bitmap index (range
    /// covers + IN-list lookups).
    pub hbi_probes: u64,
    /// HBI node bitmaps fetched and decompressed.
    pub hbi_bitmaps_read: u64,
    /// Selections the predicate-shape planner routed to the B-tree
    /// index-list path.
    pub planner_btree: u64,
    /// Selections the predicate-shape planner routed to the
    /// hierarchical bitmap index.
    pub planner_hbi: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.logical_reads.saturating_sub(earlier.logical_reads),
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            seq_physical_reads: self
                .seq_physical_reads
                .saturating_sub(earlier.seq_physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            chunk_cache_hits: self
                .chunk_cache_hits
                .saturating_sub(earlier.chunk_cache_hits),
            chunk_cache_misses: self
                .chunk_cache_misses
                .saturating_sub(earlier.chunk_cache_misses),
            chunk_cache_evictions: self
                .chunk_cache_evictions
                .saturating_sub(earlier.chunk_cache_evictions),
            prefetch_issued: self.prefetch_issued.saturating_sub(earlier.prefetch_issued),
            prefetch_hits: self.prefetch_hits.saturating_sub(earlier.prefetch_hits),
            prefetch_wasted: self.prefetch_wasted.saturating_sub(earlier.prefetch_wasted),
            // A high-water gauge cannot be differenced; the later
            // snapshot's peak is the honest value for the interval.
            prefetch_queue_peak: self.prefetch_queue_peak,
            result_cache_hits: self
                .result_cache_hits
                .saturating_sub(earlier.result_cache_hits),
            result_cache_misses: self
                .result_cache_misses
                .saturating_sub(earlier.result_cache_misses),
            result_cache_derived: self
                .result_cache_derived
                .saturating_sub(earlier.result_cache_derived),
            result_cache_evictions: self
                .result_cache_evictions
                .saturating_sub(earlier.result_cache_evictions),
            result_cache_invalidations: self
                .result_cache_invalidations
                .saturating_sub(earlier.result_cache_invalidations),
            write_batches: self.write_batches.saturating_sub(earlier.write_batches),
            write_cells: self.write_cells.saturating_sub(earlier.write_cells),
            result_cache_patched: self
                .result_cache_patched
                .saturating_sub(earlier.result_cache_patched),
            result_cache_fallbacks: self
                .result_cache_fallbacks
                .saturating_sub(earlier.result_cache_fallbacks),
            opt_pool_reads: self.opt_pool_reads.saturating_sub(earlier.opt_pool_reads),
            opt_pool_restarts: self
                .opt_pool_restarts
                .saturating_sub(earlier.opt_pool_restarts),
            opt_pool_escalations: self
                .opt_pool_escalations
                .saturating_sub(earlier.opt_pool_escalations),
            opt_btree_reads: self.opt_btree_reads.saturating_sub(earlier.opt_btree_reads),
            opt_btree_restarts: self
                .opt_btree_restarts
                .saturating_sub(earlier.opt_btree_restarts),
            opt_btree_escalations: self
                .opt_btree_escalations
                .saturating_sub(earlier.opt_btree_escalations),
            hbi_probes: self.hbi_probes.saturating_sub(earlier.hbi_probes),
            hbi_bitmaps_read: self
                .hbi_bitmaps_read
                .saturating_sub(earlier.hbi_bitmaps_read),
            planner_btree: self.planner_btree.saturating_sub(earlier.planner_btree),
            planner_hbi: self.planner_hbi.saturating_sub(earlier.planner_hbi),
        }
    }

    /// Bytes transferred from disk (physical reads × page size).
    pub fn bytes_read(&self) -> u64 {
        self.physical_reads * PAGE_SIZE as u64
    }

    /// Physical reads that were not sequential.
    pub fn random_physical_reads(&self) -> u64 {
        self.physical_reads - self.seq_physical_reads
    }

    /// Buffer-pool hit rate in `[0, 1]`; 1.0 when no reads were issued.
    pub fn hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            1.0 - self.physical_reads as f64 / self.logical_reads as f64
        }
    }

    /// Decoded-chunk cache lookups (hits + misses).
    pub fn chunk_cache_lookups(&self) -> u64 {
        self.chunk_cache_hits + self.chunk_cache_misses
    }

    /// Decoded-chunk cache hit rate in `[0, 1]`; 1.0 with no lookups.
    pub fn chunk_cache_hit_rate(&self) -> f64 {
        let lookups = self.chunk_cache_lookups();
        if lookups == 0 {
            1.0
        } else {
            self.chunk_cache_hits as f64 / lookups as f64
        }
    }

    /// Fraction of issued prefetches that were consumed, in `[0, 1]`;
    /// 1.0 when nothing was issued.
    pub fn prefetch_hit_rate(&self) -> f64 {
        if self.prefetch_issued == 0 {
            1.0
        } else {
            self.prefetch_hits as f64 / self.prefetch_issued as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.logical_read();
        s.logical_read();
        s.physical_read(0);
        s.physical_write();
        s.eviction();
        s.chunk_cache_hit();
        s.chunk_cache_miss();
        s.chunk_cache_evictions_add(2);
        s.prefetch_issue();
        s.prefetch_issue();
        s.prefetch_hit();
        s.prefetch_wasted_add(1);
        s.prefetch_queue_depth(3);
        s.prefetch_queue_depth(1); // peak keeps the max
        s.result_cache_hit();
        s.result_cache_miss();
        s.result_cache_miss();
        s.result_cache_derive();
        s.result_cache_evictions_add(4);
        s.result_cache_invalidation();
        s.write_batch();
        s.write_cells_add(5);
        s.result_cache_patch();
        s.result_cache_patch();
        s.result_cache_fallback();
        s.opt_pool(2, false);
        s.opt_pool(3, true);
        s.opt_btree(4, false);
        s.hbi_probe();
        s.hbi_bitmaps_read_add(7);
        s.planner_route_btree();
        s.planner_route_btree();
        s.planner_route_hbi();
        let snap = s.snapshot();
        assert_eq!(snap.logical_reads, 2);
        assert_eq!(snap.physical_reads, 1);
        assert_eq!(snap.physical_writes, 1);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.chunk_cache_hits, 1);
        assert_eq!(snap.chunk_cache_misses, 1);
        assert_eq!(snap.chunk_cache_lookups(), 2);
        assert_eq!(snap.chunk_cache_evictions, 2);
        assert_eq!(snap.prefetch_issued, 2);
        assert_eq!(snap.prefetch_hits, 1);
        assert_eq!(snap.prefetch_wasted, 1);
        assert_eq!(snap.prefetch_queue_peak, 3);
        assert!((snap.prefetch_hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(snap.result_cache_hits, 1);
        assert_eq!(snap.result_cache_misses, 2);
        assert_eq!(snap.result_cache_derived, 1);
        assert_eq!(snap.result_cache_evictions, 4);
        assert_eq!(snap.result_cache_invalidations, 1);
        assert_eq!(snap.write_batches, 1);
        assert_eq!(snap.write_cells, 5);
        assert_eq!(snap.result_cache_patched, 2);
        assert_eq!(snap.result_cache_fallbacks, 1);
        assert_eq!(snap.opt_pool_reads, 2);
        assert_eq!(snap.opt_pool_restarts, 5);
        assert_eq!(snap.opt_pool_escalations, 1);
        assert_eq!(snap.opt_btree_reads, 1);
        assert_eq!(snap.opt_btree_restarts, 4);
        assert_eq!(snap.opt_btree_escalations, 0);
        assert_eq!(snap.hbi_probes, 1);
        assert_eq!(snap.hbi_bitmaps_read, 7);
        assert_eq!(snap.planner_btree, 2);
        assert_eq!(snap.planner_hbi, 1);

        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn since_computes_deltas() {
        let s = IoStats::new();
        s.logical_read();
        s.physical_read(5);
        s.chunk_cache_miss();
        let before = s.snapshot();
        s.logical_read();
        s.logical_read();
        s.physical_read(6);
        s.chunk_cache_hit();
        s.chunk_cache_hit();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.logical_reads, 2);
        assert_eq!(delta.physical_reads, 1);
        assert_eq!(delta.physical_writes, 0);
        assert_eq!(delta.chunk_cache_hits, 2);
        assert_eq!(delta.chunk_cache_misses, 0);
    }

    #[test]
    fn sequential_read_detection() {
        let s = IoStats::new();
        s.physical_read(0); // first read never counts as sequential
        s.physical_read(1); // seq
        s.physical_read(2); // seq
        s.physical_read(9); // random
        s.physical_read(10); // seq
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 5);
        assert_eq!(snap.seq_physical_reads, 3);
        assert_eq!(snap.random_physical_reads(), 2);
    }

    #[test]
    fn derived_metrics() {
        let snap = IoSnapshot {
            logical_reads: 10,
            physical_reads: 2,
            seq_physical_reads: 1,
            chunk_cache_hits: 3,
            chunk_cache_misses: 1,
            ..Default::default()
        };
        assert_eq!(snap.random_physical_reads(), 1);
        assert_eq!(snap.bytes_read(), 2 * PAGE_SIZE as u64);
        assert!((snap.hit_rate() - 0.8).abs() < 1e-9);
        assert!((snap.chunk_cache_hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(IoSnapshot::default().hit_rate(), 1.0);
        assert_eq!(IoSnapshot::default().chunk_cache_hit_rate(), 1.0);
        assert_eq!(IoSnapshot::default().prefetch_hit_rate(), 1.0);
    }

    #[test]
    fn span_reads_count_pages_and_sequentiality() {
        let s = IoStats::new();
        s.physical_read_span(10, 4); // 10..=13: 3 sequential followers
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 4);
        assert_eq!(snap.seq_physical_reads, 3);
        // A span starting right after the previous one is fully
        // sequential; a scattered span pays one random read.
        s.physical_read_span(14, 2);
        s.physical_read_span(100, 3);
        let snap = s.snapshot();
        assert_eq!(snap.physical_reads, 9);
        assert_eq!(snap.seq_physical_reads, 3 + 2 + 2);
        s.physical_read_span(0, 0); // empty span is a no-op
        assert_eq!(s.snapshot().physical_reads, 9);
    }
}
