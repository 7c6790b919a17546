//! Asynchronous chunk prefetch/decode pipeline.
//!
//! Cold consolidation used to serialize fault-in I/O and chunk decode on
//! the consuming thread: every chunk paid `read → decode → aggregate` in
//! lockstep. The candidate chunk list (full scan or §4.2 selection) is
//! known up front and already in chunk order — which is disk order — so
//! prefetcher threads can run ahead of the consumers: each claims the
//! next chunk index, reads its pages (multi-page spans bypass the buffer
//! pool via one vectored read, see `LobStore::read_into_prefetch`),
//! decodes into an [`Arc<Chunk>`], publishes the decode through the
//! shared [`ChunkCache`](crate::ChunkCache), and hands it to consumers
//! through a bounded **in-order** delivery queue.
//!
//! Delivery is strictly in candidate order regardless of which producer
//! finishes first, so consumers see exactly the sequential scan order
//! and results are bit-identical to the unpipelined paths. The queue is
//! bounded by `depth`: producers park on [`ChunkPipeline::shutdown`]'s
//! `space` condvar when they are `depth` chunks ahead of delivery, which
//! caps decoded-chunk memory at `depth × chunk size`.
//!
//! Run with no producers, the same pipeline is the inline scan:
//! consumers claim candidates and read them themselves
//! ([`ChunkPipeline::read_next`]), with the same snapshot and the same
//! streamed-or-materialized payloads.
//!
//! Lock discipline: the `delivery` mutex ranks between `catalog` and
//! `chunks` (DESIGN.md §8). Producers drop it across the read+decode and
//! nothing else is ever acquired while it is held.

use std::collections::HashMap;
use std::sync::Arc;

use molap_storage::BufferPool;
use parking_lot::{Condvar, Mutex};

use crate::array::{Chunk, ChunkPayload, ChunkedArray, PrefetchScratch};
use crate::version::ChunkSnapshot;
use crate::Result;

struct QueueState {
    /// Next candidate index a producer will claim.
    next_issue: usize,
    /// Next candidate index a consumer will receive.
    next_deliver: usize,
    /// Decoded (or failed) payloads awaiting in-order delivery.
    ready: HashMap<usize, Result<ChunkPayload>>,
    /// Set by [`ChunkPipeline::shutdown`]; producers and consumers exit.
    cancelled: bool,
}

/// A bounded, in-order chunk delivery queue shared by a set of producer
/// (prefetcher) threads and consumer (aggregation) threads.
///
/// The owner spawns producers that loop on [`ChunkPipeline::run_worker`]
/// and consumers that loop on [`ChunkPipeline::next`] — or, with no
/// producers, on [`ChunkPipeline::read_next`]. When a consumer
/// receives an `Err` it must call [`ChunkPipeline::shutdown`] and stop;
/// producers keep publishing (errors included) until cancelled, so
/// delivery always progresses and nobody parks forever.
pub struct ChunkPipeline {
    /// Candidate chunk numbers, in chunk (= disk) order.
    candidates: Vec<u64>,
    depth: usize,
    pool: Arc<BufferPool>,
    /// Optional read snapshot: when set, every read resolves
    /// through it, so the whole pipelined scan observes one commit
    /// generation even while a writer publishes mid-scan.
    snapshot: Option<ChunkSnapshot>,
    /// When set, producers on DiffSeq arrays deliver validated encoded
    /// bytes ([`ChunkPayload::DiffSeq`]) instead of decoded chunks, so
    /// [`ChunkPipeline::next_payload`] consumers can stream gaps
    /// straight into kernels. Other formats are unaffected.
    streaming: bool,
    delivery: Mutex<QueueState>,
    /// Signalled when a chunk is published (consumers wait here).
    avail: Condvar,
    /// Signalled when a chunk is delivered (producers wait here).
    space: Condvar,
}

impl ChunkPipeline {
    /// Creates a pipeline over `candidates` (chunk numbers in chunk
    /// order) delivering at most `depth` undelivered chunks at a time.
    pub fn new(pool: Arc<BufferPool>, candidates: Vec<u64>, depth: usize) -> Self {
        ChunkPipeline {
            candidates,
            depth: depth.max(1),
            pool,
            snapshot: None,
            streaming: false,
            delivery: Mutex::new(QueueState {
                next_issue: 0,
                next_deliver: 0,
                ready: HashMap::new(),
                cancelled: false,
            }),
            avail: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Attaches a read snapshot; producer reads then resolve every
    /// chunk at the snapshot's commit generation.
    pub fn with_snapshot(mut self, snapshot: Option<ChunkSnapshot>) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Enables streaming delivery: producers on a DiffSeq array hand
    /// consumers validated encoded bytes instead of decoded chunks
    /// (see [`ChunkedArray::read_chunk_stream_at`]). A no-op for every
    /// other format. [`ChunkPipeline::next`] still materializes, so
    /// only [`ChunkPipeline::next_payload`] consumers observe the
    /// difference.
    pub fn with_streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }

    /// Number of candidate chunks the pipeline will deliver.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True if there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Undelivered decoded chunks currently queued (test/diagnostic).
    pub fn queued(&self) -> usize {
        self.delivery.lock().ready.len()
    }

    /// Producer loop: claims candidate indices, reads + decodes them
    /// via `array`, and publishes the results. Returns when the
    /// candidate list is exhausted or the pipeline is cancelled. Run
    /// one call per prefetcher thread; `array` must be the array the
    /// candidate chunk numbers refer to.
    pub fn run_worker(&self, array: &ChunkedArray) {
        let stats = self.pool.stats();
        let mut scratch = PrefetchScratch::default();
        loop {
            let index = {
                let mut q = self.delivery.lock();
                loop {
                    if q.cancelled || q.next_issue >= self.candidates.len() {
                        return;
                    }
                    if q.next_issue - q.next_deliver < self.depth {
                        break;
                    }
                    self.space.wait(&mut q);
                }
                let i = q.next_issue;
                q.next_issue += 1;
                i
            };
            stats.prefetch_issue();
            // Read + decode/validate outside the delivery lock.
            let result = self.read(array, self.candidates[index], &mut scratch);
            let mut q = self.delivery.lock();
            if q.cancelled {
                stats.prefetch_wasted_add(1);
                return;
            }
            q.ready.insert(index, result);
            stats.prefetch_queue_depth(q.ready.len() as u64);
            self.avail.notify_all();
        }
    }

    /// Inline mode, for a pipeline run with no prefetchers: claims the
    /// next candidate and reads it on the calling thread. Several
    /// inline consumers may share one pipeline; each chunk goes to
    /// exactly one of them, and none ever waits on the delivery queue.
    /// Inline reads bypass the queue and its prefetch counters.
    pub fn read_next(
        &self,
        array: &ChunkedArray,
        scratch: &mut PrefetchScratch,
    ) -> Option<Result<(u64, ChunkPayload)>> {
        let index = {
            let mut q = self.delivery.lock();
            if q.cancelled || q.next_issue >= self.candidates.len() {
                return None;
            }
            q.next_issue += 1;
            q.next_issue - 1
        };
        let chunk_no = self.candidates[index];
        Some(
            self.read(array, chunk_no, scratch)
                .map(|payload| (chunk_no, payload)),
        )
    }

    /// Reads one candidate at the pipeline's snapshot, streamed or
    /// materialized as configured.
    fn read(
        &self,
        array: &ChunkedArray,
        chunk_no: u64,
        scratch: &mut PrefetchScratch,
    ) -> Result<ChunkPayload> {
        let snap = self.snapshot.as_ref();
        if self.streaming {
            array.read_chunk_stream_at(chunk_no, scratch, snap)
        } else {
            array
                .read_chunk_prefetched_at(chunk_no, scratch, snap)
                .map(ChunkPayload::Chunk)
        }
    }

    /// Consumer side: blocks for the next payload **in candidate
    /// order** and returns it with its chunk number. Returns `None`
    /// when every candidate has been delivered or the pipeline was
    /// cancelled. On `Some(Err(_))` the caller must
    /// [`ChunkPipeline::shutdown`] and propagate the error. Streaming
    /// consumers use this; [`ChunkPipeline::next`] wraps it for
    /// consumers that want materialized chunks.
    pub fn next_payload(&self) -> Option<Result<(u64, ChunkPayload)>> {
        let mut q = self.delivery.lock();
        loop {
            if q.cancelled || q.next_deliver >= self.candidates.len() {
                return None;
            }
            let index = q.next_deliver;
            if let Some(result) = q.ready.remove(&index) {
                q.next_deliver += 1;
                self.space.notify_all();
                if result.is_ok() {
                    self.pool.stats().prefetch_hit();
                }
                return Some(result.map(|payload| (self.candidates[index], payload)));
            }
            self.avail.wait(&mut q);
        }
    }

    /// [`ChunkPipeline::next_payload`] materialized: any streamed
    /// DiffSeq bytes are decoded (fast path) before delivery, so
    /// non-streaming consumers keep receiving whole chunks.
    pub fn next(&self) -> Option<Result<(u64, Arc<Chunk>)>> {
        self.next_payload().map(|item| {
            item.and_then(|(chunk_no, payload)| Ok((chunk_no, payload.into_chunk(u32::MAX)?)))
        })
    }

    /// Cancels the pipeline: producers stop claiming work, consumers
    /// drain to `None`, and undelivered decodes are counted as
    /// `prefetch_wasted`. Idempotent; call it on the error path *and*
    /// after a successful drain (where it is a no-op beyond waking any
    /// parked producers) before joining the producer threads.
    pub fn shutdown(&self) {
        let wasted = {
            let mut q = self.delivery.lock();
            q.cancelled = true;
            let n = q.ready.len();
            q.ready.clear();
            n
        };
        if wasted > 0 {
            self.pool.stats().prefetch_wasted_add(wasted as u64);
        }
        self.avail.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayBuilder, ChunkFormat, Shape};
    use molap_storage::MemDisk;

    fn sample_array(pool: &Arc<BufferPool>, format: ChunkFormat) -> ChunkedArray {
        let shape = Shape::new(vec![16, 16], vec![4, 4]).unwrap();
        let mut b = ArrayBuilder::new(shape, 1, format);
        for x in 0..16u32 {
            for y in 0..16u32 {
                if (x + y) % 3 == 0 {
                    b.add(&[x, y], &[(x * 16 + y) as i64]).unwrap();
                }
            }
        }
        b.build(pool.clone()).unwrap()
    }

    #[test]
    fn delivers_in_candidate_order_with_many_workers() {
        for format in [ChunkFormat::ChunkOffset, ChunkFormat::DenseLzw] {
            let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
            let a = sample_array(&pool, format);
            let candidates: Vec<u64> = (0..a.shape().num_chunks()).collect();
            let n = candidates.len();
            let depth = 3;
            pool.clear().unwrap();
            let before = pool.stats().snapshot();
            let pipe = ChunkPipeline::new(pool.clone(), candidates.clone(), depth);
            let mut seen = Vec::new();
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| pipe.run_worker(&a));
                }
                while let Some(item) = pipe.next() {
                    let (chunk_no, chunk) = item.unwrap();
                    let expect = a.read_chunk(chunk_no).unwrap();
                    assert_eq!(chunk.valid_cells(), expect.valid_cells());
                    seen.push(chunk_no);
                }
                pipe.shutdown();
            });
            assert_eq!(seen, candidates, "in-order delivery violated");
            let d = pool.stats().snapshot().since(&before);
            assert_eq!(d.prefetch_issued, n as u64);
            assert_eq!(d.prefetch_hits, n as u64);
            assert_eq!(d.prefetch_wasted, 0);
            assert!(
                d.prefetch_queue_peak >= 1 && d.prefetch_queue_peak <= depth as u64,
                "queue peak {} outside 1..={depth}",
                d.prefetch_queue_peak
            );
        }
    }

    #[test]
    fn cancellation_counts_undelivered_chunks_as_wasted() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
        let a = sample_array(&pool, ChunkFormat::ChunkOffset);
        let candidates: Vec<u64> = (0..a.shape().num_chunks()).collect();
        let depth = 2;
        let pipe = ChunkPipeline::new(pool.clone(), candidates, depth);
        std::thread::scope(|s| {
            s.spawn(|| pipe.run_worker(&a));
            // Take one chunk, then let the producer refill the window.
            assert!(pipe.next().unwrap().is_ok());
            for _ in 0..1000 {
                if pipe.queued() == depth {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(pipe.queued(), depth, "producer never filled the window");
            pipe.shutdown();
            assert!(
                pipe.next().is_none(),
                "cancelled pipeline must drain to None"
            );
        });
        let s = pool.stats().snapshot();
        assert_eq!(s.prefetch_hits, 1);
        // The two queued chunks are wasted; a third may have been
        // claimed (issued) right as the window opened and wasted on
        // its cancelled publish.
        assert!(
            s.prefetch_wasted >= depth as u64,
            "wasted {} < {depth}",
            s.prefetch_wasted
        );
        assert_eq!(s.prefetch_issued, s.prefetch_hits + s.prefetch_wasted);
    }

    #[test]
    fn inline_consumers_claim_each_candidate_once() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
        let a = sample_array(&pool, ChunkFormat::DiffSeq);
        let candidates: Vec<u64> = (0..a.shape().num_chunks()).collect();
        let pipe = ChunkPipeline::new(pool.clone(), candidates.clone(), 1).with_streaming(true);
        let before = pool.stats().snapshot();
        let mut seen: Vec<u64> = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut scratch = PrefetchScratch::default();
                        let mut mine = Vec::new();
                        while let Some(item) = pipe.read_next(&a, &mut scratch) {
                            let (chunk_no, payload) = item.unwrap();
                            let limit = a.shape().chunk_cells() as u32;
                            let expect = a.read_chunk(chunk_no).unwrap().valid_cells();
                            assert_eq!(payload.valid_cells(limit).unwrap(), expect);
                            mine.push(chunk_no);
                        }
                        mine
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        seen.sort_unstable();
        assert_eq!(seen, candidates);
        let d = pool.stats().snapshot().since(&before);
        assert_eq!(d.prefetch_issued + d.prefetch_hits, 0);
    }

    #[test]
    fn empty_candidate_list_is_a_no_op() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
        let a = sample_array(&pool, ChunkFormat::ChunkOffset);
        let pipe = ChunkPipeline::new(pool.clone(), Vec::new(), 4);
        assert!(pipe.is_empty());
        std::thread::scope(|s| {
            s.spawn(|| pipe.run_worker(&a));
            assert!(pipe.next().is_none());
            pipe.shutdown();
        });
        assert_eq!(pool.stats().snapshot().prefetch_issued, 0);
    }

    #[test]
    fn backpressure_never_exceeds_depth_one() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
        let a = sample_array(&pool, ChunkFormat::ChunkOffset);
        let candidates: Vec<u64> = (0..a.shape().num_chunks()).collect();
        let pipe = ChunkPipeline::new(pool.clone(), candidates, 1);
        std::thread::scope(|s| {
            s.spawn(|| pipe.run_worker(&a));
            s.spawn(|| pipe.run_worker(&a));
            while let Some(item) = pipe.next() {
                item.unwrap();
                assert!(pipe.queued() <= 1);
            }
            pipe.shutdown();
        });
        assert_eq!(pool.stats().snapshot().prefetch_queue_peak, 1);
    }
}
