//! Server-side observability: lock-free counters plus a log2 latency
//! histogram, snapshotted into a wire-encodable [`MetricsSnapshot`]
//! for the `Stats` request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use molap_storage::{IoSnapshot, ShardStats};

use crate::protocol::{put_u64, Cursor, ProtocolError};

/// Number of histogram buckets. Bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is open-ended.
pub const LATENCY_BUCKETS: usize = 16;

/// Live server counters, updated with relaxed atomics on hot paths.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    sessions_opened: AtomicU64,
    active_sessions: AtomicU64,
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    queries_rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
    queries_coalesced: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    latency_micros_total: AtomicU64,
    latency_histogram: [AtomicU64; LATENCY_BUCKETS],
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a session being accepted.
    pub fn session_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
        self.active_sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a session ending.
    pub fn session_closed(&self) {
        self.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a successfully executed query and its latency.
    pub fn query_ok(&self, latency: Duration) {
        self.queries_ok.fetch_add(1, Ordering::Relaxed);
        self.record_latency(latency);
    }

    /// Records a query that executed but returned an error.
    pub fn query_failed(&self, latency: Duration) {
        self.queries_failed.fetch_add(1, Ordering::Relaxed);
        self.record_latency(latency);
    }

    /// Records a query bounced by admission control (`SERVER_BUSY`).
    pub fn query_rejected(&self) {
        self.queries_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query that missed its deadline.
    pub fn query_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query that attached to an identical in-flight
    /// execution instead of occupying a queue slot.
    pub fn query_coalesced(&self) {
        self.queries_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Records bytes received from clients.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Records bytes sent to clients.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    fn record_latency(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        self.latency_micros_total
            .fetch_add(micros, Ordering::Relaxed);
        // log2 bucket index: 0µs and 1µs land in bucket 0.
        let bucket = (64 - micros.max(1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1);
        self.latency_histogram[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the counters, folding in the buffer pool's I/O stats.
    pub fn snapshot(&self, io: IoSnapshot) -> MetricsSnapshot {
        self.snapshot_full(io, Vec::new())
    }

    /// Like [`ServerMetrics::snapshot`], additionally carrying the
    /// pool's per-shard hit/miss counters.
    pub fn snapshot_full(&self, io: IoSnapshot, shards: Vec<ShardStats>) -> MetricsSnapshot {
        let mut latency_histogram = [0u64; LATENCY_BUCKETS];
        for (slot, counter) in latency_histogram.iter_mut().zip(&self.latency_histogram) {
            *slot = counter.load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            active_sessions: self.active_sessions.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            queries_rejected: self.queries_rejected.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            queries_coalesced: self.queries_coalesced.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            latency_micros_total: self.latency_micros_total.load(Ordering::Relaxed),
            latency_histogram,
            io,
            shards,
        }
    }
}

/// A point-in-time copy of [`ServerMetrics`], shippable over the wire.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Total sessions ever accepted.
    pub sessions_opened: u64,
    /// Sessions currently connected.
    pub active_sessions: u64,
    /// Queries that completed successfully.
    pub queries_ok: u64,
    /// Queries that executed but returned an error.
    pub queries_failed: u64,
    /// Queries bounced with `SERVER_BUSY`.
    pub queries_rejected: u64,
    /// Queries that missed their deadline.
    pub deadline_exceeded: u64,
    /// Queries answered by attaching to an identical in-flight
    /// execution (coalesced; not counted in `queries_ok`).
    pub queries_coalesced: u64,
    /// Bytes received from clients.
    pub bytes_in: u64,
    /// Bytes sent to clients.
    pub bytes_out: u64,
    /// Sum of executed-query latencies, in microseconds.
    pub latency_micros_total: u64,
    /// log2 latency histogram; bucket `i` counts `[2^i, 2^(i+1))` µs.
    pub latency_histogram: [u64; LATENCY_BUCKETS],
    /// Buffer-pool I/O counters, passed through from storage.
    pub io: IoSnapshot,
    /// Per-shard page-table hit/miss counters (empty if not collected).
    pub shards: Vec<ShardStats>,
}

impl MetricsSnapshot {
    /// Queries that ran to completion (ok + failed).
    pub fn queries_executed(&self) -> u64 {
        self.queries_ok + self.queries_failed
    }

    /// Mean executed-query latency in microseconds; 0 when idle.
    pub fn mean_latency_micros(&self) -> u64 {
        self.latency_micros_total
            .checked_div(self.queries_executed())
            .unwrap_or(0)
    }

    /// Appends the wire encoding (a flat sequence of u64 fields).
    pub fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.sessions_opened,
            self.active_sessions,
            self.queries_ok,
            self.queries_failed,
            self.queries_rejected,
            self.deadline_exceeded,
            self.queries_coalesced,
            self.bytes_in,
            self.bytes_out,
            self.latency_micros_total,
        ] {
            put_u64(out, v);
        }
        for &b in &self.latency_histogram {
            put_u64(out, b);
        }
        for v in [
            self.io.logical_reads,
            self.io.physical_reads,
            self.io.seq_physical_reads,
            self.io.physical_writes,
            self.io.evictions,
            self.io.chunk_cache_hits,
            self.io.chunk_cache_misses,
            self.io.chunk_cache_evictions,
            self.io.prefetch_issued,
            self.io.prefetch_hits,
            self.io.prefetch_wasted,
            self.io.prefetch_queue_peak,
            self.io.result_cache_hits,
            self.io.result_cache_misses,
            self.io.result_cache_derived,
            self.io.result_cache_evictions,
            self.io.result_cache_invalidations,
            self.io.write_batches,
            self.io.write_cells,
            self.io.result_cache_patched,
            self.io.result_cache_fallbacks,
            self.io.opt_pool_reads,
            self.io.opt_pool_restarts,
            self.io.opt_pool_escalations,
            self.io.opt_btree_reads,
            self.io.opt_btree_restarts,
            self.io.opt_btree_escalations,
            self.io.hbi_probes,
            self.io.hbi_bitmaps_read,
            self.io.planner_btree,
            self.io.planner_hbi,
        ] {
            put_u64(out, v);
        }
        put_u64(out, self.shards.len() as u64);
        for s in &self.shards {
            put_u64(out, s.hits);
            put_u64(out, s.misses);
        }
    }

    /// Decodes the wire encoding.
    pub(crate) fn decode(c: &mut Cursor<'_>) -> Result<Self, ProtocolError> {
        let mut snap = MetricsSnapshot {
            sessions_opened: c.u64()?,
            active_sessions: c.u64()?,
            queries_ok: c.u64()?,
            queries_failed: c.u64()?,
            queries_rejected: c.u64()?,
            deadline_exceeded: c.u64()?,
            queries_coalesced: c.u64()?,
            bytes_in: c.u64()?,
            bytes_out: c.u64()?,
            latency_micros_total: c.u64()?,
            ..Default::default()
        };
        for slot in snap.latency_histogram.iter_mut() {
            *slot = c.u64()?;
        }
        snap.io = IoSnapshot {
            logical_reads: c.u64()?,
            physical_reads: c.u64()?,
            seq_physical_reads: c.u64()?,
            physical_writes: c.u64()?,
            evictions: c.u64()?,
            chunk_cache_hits: c.u64()?,
            chunk_cache_misses: c.u64()?,
            chunk_cache_evictions: c.u64()?,
            prefetch_issued: c.u64()?,
            prefetch_hits: c.u64()?,
            prefetch_wasted: c.u64()?,
            prefetch_queue_peak: c.u64()?,
            result_cache_hits: c.u64()?,
            result_cache_misses: c.u64()?,
            result_cache_derived: c.u64()?,
            result_cache_evictions: c.u64()?,
            result_cache_invalidations: c.u64()?,
            write_batches: c.u64()?,
            write_cells: c.u64()?,
            result_cache_patched: c.u64()?,
            result_cache_fallbacks: c.u64()?,
            opt_pool_reads: c.u64()?,
            opt_pool_restarts: c.u64()?,
            opt_pool_escalations: c.u64()?,
            opt_btree_reads: c.u64()?,
            opt_btree_restarts: c.u64()?,
            opt_btree_escalations: c.u64()?,
            hbi_probes: c.u64()?,
            hbi_bitmaps_read: c.u64()?,
            planner_btree: c.u64()?,
            planner_hbi: c.u64()?,
        };
        let n_shards = c.u64()? as usize;
        // Cap the allocation by what the payload can actually hold.
        if n_shards > c.remaining() / 16 {
            return Err(ProtocolError::Corrupt(format!(
                "shard stat count {n_shards} exceeds payload"
            )));
        }
        snap.shards = (0..n_shards)
            .map(|_| {
                Ok(ShardStats {
                    hits: c.u64()?,
                    misses: c.u64()?,
                })
            })
            .collect::<Result<_, ProtocolError>>()?;
        Ok(snap)
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sessions: {} active / {} total",
            self.active_sessions, self.sessions_opened
        )?;
        writeln!(
            f,
            "queries:  {} ok, {} failed, {} rejected (busy), {} deadline-exceeded, {} coalesced",
            self.queries_ok,
            self.queries_failed,
            self.queries_rejected,
            self.deadline_exceeded,
            self.queries_coalesced
        )?;
        writeln!(
            f,
            "latency:  mean {} µs over {} executed",
            self.mean_latency_micros(),
            self.queries_executed()
        )?;
        writeln!(
            f,
            "traffic:  {} B in, {} B out",
            self.bytes_in, self.bytes_out
        )?;
        writeln!(
            f,
            "pool I/O: {} logical, {} physical ({} seq), {} writes, {} evictions",
            self.io.logical_reads,
            self.io.physical_reads,
            self.io.seq_physical_reads,
            self.io.physical_writes,
            self.io.evictions
        )?;
        writeln!(
            f,
            "chunks:   {} cached hits / {} lookups ({:.0}% hit rate), {} evicted",
            self.io.chunk_cache_hits,
            self.io.chunk_cache_lookups(),
            self.io.chunk_cache_hit_rate() * 100.0,
            self.io.chunk_cache_evictions
        )?;
        writeln!(
            f,
            "prefetch: {} issued, {} delivered ({:.0}% hit rate), {} wasted, queue peak {}",
            self.io.prefetch_issued,
            self.io.prefetch_hits,
            self.io.prefetch_hit_rate() * 100.0,
            self.io.prefetch_wasted,
            self.io.prefetch_queue_peak
        )?;
        writeln!(
            f,
            "results:  {} hits, {} derived (rollup), {} misses, {} evicted, {} invalidations",
            self.io.result_cache_hits,
            self.io.result_cache_derived,
            self.io.result_cache_misses,
            self.io.result_cache_evictions,
            self.io.result_cache_invalidations
        )?;
        writeln!(
            f,
            "writes:   {} batches / {} cells, {} cubes patched, {} recompute fallbacks",
            self.io.write_batches,
            self.io.write_cells,
            self.io.result_cache_patched,
            self.io.result_cache_fallbacks
        )?;
        writeln!(
            f,
            "olc:      pool {}/{}/{}, btree {}/{}/{} (reads/restarts/escalations)",
            self.io.opt_pool_reads,
            self.io.opt_pool_restarts,
            self.io.opt_pool_escalations,
            self.io.opt_btree_reads,
            self.io.opt_btree_restarts,
            self.io.opt_btree_escalations
        )?;
        write!(
            f,
            "planner:  {} btree-routed, {} hbi-routed; hbi {} probes / {} bitmaps read",
            self.io.planner_btree,
            self.io.planner_hbi,
            self.io.hbi_probes,
            self.io.hbi_bitmaps_read
        )?;
        if !self.shards.is_empty() {
            let hits: u64 = self.shards.iter().map(|s| s.hits).sum();
            let misses: u64 = self.shards.iter().map(|s| s.misses).sum();
            write!(
                f,
                "\nshards:   {} pool shards, {hits} hits / {misses} misses",
                self.shards.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2() {
        let m = ServerMetrics::new();
        m.query_ok(Duration::from_micros(0)); // bucket 0
        m.query_ok(Duration::from_micros(1)); // bucket 0
        m.query_ok(Duration::from_micros(3)); // bucket 1
        m.query_ok(Duration::from_micros(1000)); // bucket 9 (512..1024)
        m.query_ok(Duration::from_secs(3600)); // clamped to last bucket
        let snap = m.snapshot(IoSnapshot::default());
        assert_eq!(snap.latency_histogram[0], 2);
        assert_eq!(snap.latency_histogram[1], 1);
        assert_eq!(snap.latency_histogram[9], 1);
        assert_eq!(snap.latency_histogram[LATENCY_BUCKETS - 1], 1);
        assert_eq!(snap.queries_ok, 5);
    }

    #[test]
    fn snapshot_roundtrips_on_the_wire() {
        let m = ServerMetrics::new();
        m.session_opened();
        m.query_ok(Duration::from_micros(250));
        m.query_failed(Duration::from_micros(10));
        m.query_rejected();
        m.query_deadline_exceeded();
        m.query_coalesced();
        m.add_bytes_in(123);
        m.add_bytes_out(4567);
        let io = IoSnapshot {
            logical_reads: 10,
            physical_reads: 4,
            seq_physical_reads: 2,
            physical_writes: 1,
            evictions: 0,
            chunk_cache_hits: 7,
            chunk_cache_misses: 3,
            chunk_cache_evictions: 1,
            prefetch_issued: 9,
            prefetch_hits: 8,
            prefetch_wasted: 1,
            prefetch_queue_peak: 5,
            result_cache_hits: 6,
            result_cache_misses: 2,
            result_cache_derived: 1,
            result_cache_evictions: 3,
            result_cache_invalidations: 1,
            write_batches: 2,
            write_cells: 11,
            result_cache_patched: 4,
            result_cache_fallbacks: 1,
            opt_pool_reads: 20,
            opt_pool_restarts: 3,
            opt_pool_escalations: 1,
            opt_btree_reads: 17,
            opt_btree_restarts: 4,
            opt_btree_escalations: 2,
            hbi_probes: 5,
            hbi_bitmaps_read: 12,
            planner_btree: 6,
            planner_hbi: 3,
        };
        let shards = vec![
            ShardStats { hits: 6, misses: 2 },
            ShardStats { hits: 4, misses: 2 },
        ];
        let snap = m.snapshot_full(io, shards);
        let mut buf = Vec::new();
        snap.encode(&mut buf);
        let decoded = MetricsSnapshot::decode(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.queries_executed(), 2);
        assert_eq!(decoded.mean_latency_micros(), 130);
        assert!(!decoded.to_string().is_empty());
    }

    #[test]
    fn zero_duration_lands_in_bucket_zero() {
        let m = ServerMetrics::new();
        m.query_ok(Duration::ZERO);
        let snap = m.snapshot(IoSnapshot::default());
        assert_eq!(snap.latency_histogram[0], 1);
        assert_eq!(snap.latency_histogram[1..].iter().sum::<u64>(), 0);
        assert_eq!(snap.latency_micros_total, 0);
        assert_eq!(snap.mean_latency_micros(), 0);
    }

    #[test]
    fn extreme_latencies_clamp_into_the_open_top_bucket() {
        let m = ServerMetrics::new();
        // First duration of the top bucket, last duration of the bucket
        // below it, and a latency whose microseconds exceed u64.
        m.query_ok(Duration::from_micros(1 << (LATENCY_BUCKETS - 1)));
        m.query_ok(Duration::from_micros((1 << (LATENCY_BUCKETS - 1)) - 1));
        m.query_ok(Duration::MAX);
        let snap = m.snapshot(IoSnapshot::default());
        assert_eq!(snap.latency_histogram[LATENCY_BUCKETS - 1], 2);
        assert_eq!(snap.latency_histogram[LATENCY_BUCKETS - 2], 1);
        assert_eq!(snap.queries_ok, 3);
    }

    #[test]
    fn concurrent_recording_loses_no_samples() {
        let m = std::sync::Arc::new(ServerMetrics::new());
        let threads = 8u64;
        let per_thread = 1000u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    m.query_ok(Duration::from_micros(i % 1024));
                    m.add_bytes_in(1);
                    if t % 2 == 0 {
                        m.session_opened();
                        m.session_closed();
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("metrics thread");
        }
        let snap = m.snapshot(IoSnapshot::default());
        assert_eq!(snap.queries_ok, threads * per_thread);
        assert_eq!(
            snap.latency_histogram.iter().sum::<u64>(),
            threads * per_thread
        );
        assert_eq!(snap.bytes_in, threads * per_thread);
        assert_eq!(snap.active_sessions, 0);
    }

    #[test]
    fn session_gauge_tracks_open_close() {
        let m = ServerMetrics::new();
        m.session_opened();
        m.session_opened();
        m.session_closed();
        let snap = m.snapshot(IoSnapshot::default());
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.active_sessions, 1);
    }
}
