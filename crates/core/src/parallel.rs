//! The consolidation executor: the one production path for both the
//! §4.1 full scan and the §4.2 selection.
//!
//! Phase 1 loads the group maps; the candidate chunks (every chunk, or
//! the §4.2 qualifying chunks) are listed in chunk (= disk) order and
//! handed to a [`ChunkPipeline`] pinned to one chunk snapshot. Consumers
//! drain it, and each aggregates into a *private* result cube through
//! per-chunk kernels; cubes merge associatively at the end
//! ([`ResultCube::merge`]), so results are bit-identical to the
//! per-cell oracle ([`OlapArray::consolidate`]) for any staffing.
//!
//! Staffing is a [`PrefetchPlan`]. With prefetchers, they read and
//! decode ahead of the consumers through a bounded in-order queue —
//! the paper's future work (§6) on parallel OLAP operations, as
//! intra-operator parallelism over one shared pool and chunk cache.
//! With zero prefetchers the executor runs inline: consumers read
//! their chunks themselves, and a single consumer runs on the calling
//! thread without spawning anything. Sequential consolidation is that
//! one-worker case, not a separate path.

use molap_array::{shared_version_table, ChunkPayload, ChunkPipeline, PrefetchScratch};

use crate::adt::OlapArray;
use crate::consolidate::{make_cube, phase1, GroupMap};
use crate::error::{Error, Result};
use crate::kernel::ChunkKernel;
use crate::query::Query;
use crate::result::{ConsolidationResult, ResultCube};
use crate::select::{build_probes, candidate_chunks, chunk_membership, probe_chunk, DimProbe};

/// Fewer qualifying chunks than this and [`consolidate_auto`] runs
/// inline: thread spin-up would cost more than it saves.
const AUTO_MIN_CHUNKS_PER_WORKER: u64 = 4;

/// The inline plan: no prefetcher threads, consumers read for
/// themselves.
pub(crate) const INLINE: PrefetchPlan = PrefetchPlan {
    prefetchers: 0,
    depth: 1,
    streaming: true,
};

/// The §4.2 context a selection consumer needs: the per-dimension
/// probes plus the candidate chunks with their selected within-chunk
/// indices.
type SelectionPlan = (Vec<DimProbe>, Vec<(u64, Vec<usize>)>);

/// How the executor is staffed and bounded.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchPlan {
    /// Prefetcher (read + decode) threads feeding the consumers; `0`
    /// runs the executor inline.
    pub prefetchers: usize,
    /// Delivery-queue bound: decoded chunks held ahead of consumption.
    pub depth: usize,
    /// Deliver diff-seq chunks as validated raw bytes so consumers can
    /// stream (offset, measures) batches straight into the kernels
    /// instead of materializing a `Chunk` first. On by default; other
    /// formats always materialize. Turn off to benchmark the
    /// materialize-then-scan path on the same data.
    pub streaming: bool,
}

impl PrefetchPlan {
    /// A plan with at least one prefetcher and a window of at least one
    /// chunk.
    pub fn new(prefetchers: usize, depth: usize) -> Self {
        PrefetchPlan {
            prefetchers: prefetchers.max(1),
            depth: depth.max(1),
            streaming: true,
        }
    }

    /// The depth/staffing [`consolidate_auto`] picks for a job of
    /// `num_chunks` candidate chunks: two prefetchers (one faulting
    /// while one decodes) and a window deep enough to keep consumers
    /// fed without holding more than a small fraction of the array's
    /// decoded chunks in flight.
    pub fn auto(num_chunks: u64) -> Self {
        PrefetchPlan::new(2, (num_chunks / 4).clamp(4, 16) as usize)
    }

    /// Same plan with streaming delivery switched on or off.
    pub fn with_streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }
}

/// Like [`OlapArray::consolidate`], but run by the executor with
/// `workers` consumers (at least one) staffed by `plan`. Results are
/// bit-identical to the per-cell oracle for any worker/prefetcher
/// count.
pub fn consolidate_pipelined(
    adt: &OlapArray,
    query: &Query,
    workers: usize,
    plan: PrefetchPlan,
) -> Result<ConsolidationResult> {
    consolidate_pipelined_cube(adt, query, workers, plan)?
        .1
        .into_result(&query.aggs)
}

/// The executor: [`consolidate_pipelined`] stopping at the group maps
/// and the positional result cube — the forms the result-cube cache
/// and result materialization need.
pub(crate) fn consolidate_pipelined_cube(
    adt: &OlapArray,
    query: &Query,
    workers: usize,
    plan: PrefetchPlan,
) -> Result<(Vec<GroupMap>, ResultCube)> {
    query.validate(adt.dims(), adt.n_measures())?;
    let maps = phase1(adt, query)?;
    let shape = adt.array().shape();

    // Candidate chunk list, in chunk (= disk) order. `selection` is
    // `None` for the §4.1 full scan (and for a provably-empty §4.2
    // selection, whose candidate list is empty).
    let (chunk_nos, selection): (Vec<u64>, Option<SelectionPlan>) = if query.has_selection() {
        let (probes, any_empty) = build_probes(adt, query)?;
        if any_empty {
            (Vec::new(), None)
        } else {
            let candidates = candidate_chunks(shape, &probes);
            let nos = candidates.iter().map(|c| c.0).collect();
            (nos, Some((probes, candidates)))
        }
    } else {
        ((0..shape.num_chunks()).collect(), None)
    };

    // Pin a chunk snapshot so a write batch committing mid-scan cannot
    // hand later chunks a newer array state than earlier ones saw: the
    // pipeline resolves every chunk against the version table as of
    // this generation, reading pinned pre-images where a writer has
    // since overwritten bytes in place.
    let snap = shared_version_table(adt.pool()).map(|vt| vt.begin_snapshot());
    let pipe = ChunkPipeline::new(adt.pool().clone(), chunk_nos, plan.depth)
        .with_snapshot(snap)
        .with_streaming(plan.streaming);
    let inline = plan.prefetchers == 0;
    let run_consumer = || {
        let mut scratch = PrefetchScratch::default();
        let next = || {
            if inline {
                pipe.read_next(adt.array(), &mut scratch)
            } else {
                pipe.next_payload()
            }
        };
        let cube = consume(adt, &maps, selection.as_ref(), next);
        if cube.is_err() {
            // Stop the producers and the peer consumers early.
            pipe.shutdown();
        }
        cube
    };
    let cubes = crossbeam::thread::scope(|scope| {
        for _ in 0..plan.prefetchers {
            scope.spawn(|_| pipe.run_worker(adt.array()));
        }
        // Inline, one consumer runs on the calling thread. With
        // prefetchers every consumer is spawned, so a panicking one
        // still reaches the shutdown below that wakes parked producers.
        let spawned: Vec<_> = (usize::from(inline)..workers.max(1))
            .map(|_| scope.spawn(|_| run_consumer()))
            .collect();
        let mut cubes = if inline {
            vec![run_consumer()]
        } else {
            Vec::new()
        };
        cubes.extend(spawned.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err(Error::Internal("pipeline consumer panicked".into())))
        }));
        // Wake any parked prefetchers (producers waiting on
        // delivery-queue space) so the scope can join them.
        pipe.shutdown();
        cubes.into_iter().collect::<Result<Vec<_>>>()
    })
    .map_err(|_| Error::Internal("pipeline scope panicked".into()))??;

    let mut iter = cubes.into_iter();
    let mut total = iter
        .next()
        .unwrap_or_else(|| make_cube(&maps, adt.n_measures()));
    for cube in iter {
        total.merge(&cube)?;
    }
    Ok((maps, total))
}

/// One consumer: drains `next` and aggregates every chunk into a
/// private cube. Full-scan chunks, and §4.2 chunks whose cross-product
/// outnumbers their valid cells (the scan direction, with the
/// membership masks folded into the kernel's remap tables), stream
/// through [`ChunkKernel::apply_batch`]; the other §4.2 chunks take the
/// resumed binary probe.
fn consume(
    adt: &OlapArray,
    maps: &[GroupMap],
    selection: Option<&SelectionPlan>,
    mut next: impl FnMut() -> Option<molap_array::Result<(u64, ChunkPayload)>>,
) -> Result<ResultCube> {
    let shape = adt.array().shape();
    let limit = shape.chunk_cells() as u32;
    let p = adt.n_measures();
    let mut cube = make_cube(maps, p);
    let mut ranks = vec![0u32; maps.len()];
    while let Some(item) = next() {
        let (chunk_no, payload) = item?;
        let valid = payload.valid_cells(limit)?;
        if valid == 0 {
            continue;
        }
        let membership = match selection {
            None => None,
            Some((probes, candidates)) => {
                // Candidates ascend in chunk number (odometer order), so
                // the chunk's selection cursor is a binary search away.
                let ci = candidates.binary_search_by_key(&chunk_no, |c| c.0).ok();
                let Some((_, chunk_sel)) = ci.and_then(|i| candidates.get(i)) else {
                    return Err(Error::Internal(
                        "pipelined chunk missing from candidates".into(),
                    ));
                };
                let cross: u64 = (0..probes.len())
                    .map(|d| probes[d].groups[chunk_sel[d]].indices.len() as u64)
                    .product();
                if cross <= valid {
                    // The probe direction needs random access by offset.
                    let chunk = payload.into_chunk(limit)?;
                    probe_chunk(adt, &chunk, probes, chunk_sel, maps, &mut ranks, &mut cube);
                    continue;
                }
                Some(chunk_membership(shape, probes, chunk_sel))
            }
        };
        let kernel = ChunkKernel::new(shape, maps, &cube, chunk_no, membership.as_deref());
        payload.for_each_batch(limit, |offsets, values| {
            kernel.apply_batch(offsets, values, p, &mut cube)
        })?;
    }
    Ok(cube)
}

/// Chooses a worker count and a prefetch plan from the machine's
/// parallelism and the size of the job, then runs the executor: the
/// engine's default consolidation entry point. Answers come from the
/// pool's result-cube cache when possible — an exact cached cube, or a
/// finer one coarsened by pure in-memory re-aggregation (see
/// [`crate::rescache`]); both are bit-identical to computing directly.
/// On a true miss, small arrays run inline (pipeline spin-up would
/// cost more than it saves); everything else gets prefetchers and one
/// consumer per few chunks, up to the CPU count.
pub fn consolidate_auto(adt: &OlapArray, query: &Query) -> Result<ConsolidationResult> {
    query.validate(adt.dims(), adt.n_measures())?;
    crate::rescache::consolidate_cached(adt, query, || consolidate_cube_auto(adt, query))
}

/// The compute path behind [`consolidate_auto`]: staff the executor by
/// job size and stop at the positional cube.
fn consolidate_cube_auto(adt: &OlapArray, query: &Query) -> Result<ResultCube> {
    let num_chunks = adt.array().shape().num_chunks();
    let (workers, plan) = if num_chunks < 2 * AUTO_MIN_CHUNKS_PER_WORKER {
        (1, INLINE)
    } else {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        let workers = cpus.min(num_chunks / AUTO_MIN_CHUNKS_PER_WORKER).max(1);
        (workers as usize, PrefetchPlan::auto(num_chunks))
    };
    Ok(consolidate_pipelined_cube(adt, query, workers, plan)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionTable;
    use crate::query::{AttrRef, DimGrouping, Selection};
    use molap_array::ChunkFormat;
    use molap_storage::{BufferPool, MemDisk};
    use std::sync::Arc;

    fn build(cells: usize) -> OlapArray {
        build_with(cells, ChunkFormat::ChunkOffset, &[7, 6])
    }

    /// A 30×20 cube: `[7, 6]` chunks make 20 of them, `[15, 20]` two.
    fn build_with(cells: usize, format: ChunkFormat, chunk_dims: &[u32]) -> OlapArray {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 4096));
        let dims = vec![
            DimensionTable::build(
                "a",
                &(0..30i64).collect::<Vec<_>>(),
                vec![("h", (0..30i64).map(|k| k / 10).collect())],
            )
            .unwrap(),
            DimensionTable::build(
                "b",
                &(0..20i64).collect::<Vec<_>>(),
                vec![("h", (0..20i64).map(|k| k % 4).collect())],
            )
            .unwrap(),
        ];
        let all: Vec<(Vec<i64>, Vec<i64>)> = (0..30i64)
            .flat_map(|x| (0..20i64).map(move |y| (vec![x, y], vec![x * 31 + y])))
            .filter(|(k, _)| (k[0] * 13 + k[1] * 7) % 3 != 0)
            .take(cells)
            .collect();
        OlapArray::build(pool, dims, chunk_dims, format, all, 1).unwrap()
    }

    /// Every grouping shape crossed with no selection, a broad
    /// selection (scan direction), a conjunction across both
    /// dimensions, narrow key probes (probe direction) and an empty
    /// selection.
    fn mixed_queries() -> Vec<Query> {
        let selections: Vec<Vec<(usize, Selection)>> = vec![
            vec![],
            vec![(0, Selection::in_list(AttrRef::Level(0), vec![0, 2]))],
            vec![
                (0, Selection::in_list(AttrRef::Level(0), vec![0, 2])),
                (1, Selection::in_list(AttrRef::Level(0), vec![1, 3])),
            ],
            vec![
                (0, Selection::in_list(AttrRef::Key, vec![3, 17, 29])),
                (1, Selection::eq(AttrRef::Key, 5)),
            ],
            vec![(0, Selection::eq(AttrRef::Level(0), 99))],
        ];
        let mut queries = Vec::new();
        for sels in &selections {
            for group_by in [
                vec![DimGrouping::Level(0), DimGrouping::Level(0)],
                vec![DimGrouping::Key, DimGrouping::Drop],
                vec![DimGrouping::Drop, DimGrouping::Drop],
            ] {
                let mut q = Query::new(group_by);
                for (d, sel) in sels {
                    q = q.with_selection(*d, sel.clone());
                }
                queries.push(q);
            }
        }
        queries
    }

    #[test]
    fn pipelined_equals_sequential_for_mixed_queries() {
        // Worker counts: 0 clamps to one, more workers than the 20
        // chunks, inline and prefetched staffing alike.
        let staffing = [
            (0, PrefetchPlan::new(2, 4)),
            (0, INLINE),
            (1, INLINE),
            (3, INLINE),
            (1, PrefetchPlan::new(1, 1)),
            (2, PrefetchPlan::new(2, 4)),
            (3, PrefetchPlan::new(2, 2)),
            (8, PrefetchPlan::new(3, 16)),
            (64, PrefetchPlan::new(1, 4)),
        ];
        for format in ChunkFormat::ALL {
            // Dense-ish and sparse (mostly empty chunks).
            for cells in [300, 10] {
                let adt = build_with(cells, format, &[7, 6]);
                for q in &mixed_queries() {
                    let sequential = adt.consolidate(q).unwrap();
                    for (workers, plan) in staffing {
                        let piped = consolidate_pipelined(&adt, q, workers, plan).unwrap();
                        assert_eq!(
                            piped, sequential,
                            "{format:?} {cells} cells, {workers} workers, {plan:?}, {q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn diffseq_streaming_matches_sequential_oracle() {
        // On a DiffSeq array, streaming consolidation (no chunk
        // materialization on the scan path) must be bit-identical to
        // the sequential `consolidate`, across all five aggregates,
        // both §4.2 directions, inline and prefetched, with the
        // materialize-then-scan pipeline as a third witness.
        use crate::aggregate::AggFunc;
        let adt = build_with(300, ChunkFormat::DiffSeq, &[7, 6]);
        let queries = vec![
            // Full scans (no selection).
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]),
            Query::new(vec![DimGrouping::Key, DimGrouping::Drop]),
            Query::new(vec![DimGrouping::Drop, DimGrouping::Drop]),
            // Broad selection: scan direction, masked streaming kernel.
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)])
                .with_selection(0, Selection::in_list(AttrRef::Level(0), vec![0, 2])),
            // Narrow key probes: probe direction materializes.
            Query::new(vec![DimGrouping::Key, DimGrouping::Drop])
                .with_selection(0, Selection::in_list(AttrRef::Key, vec![3, 17, 29]))
                .with_selection(1, Selection::eq(AttrRef::Key, 5)),
            // Empty selection.
            Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop])
                .with_selection(0, Selection::eq(AttrRef::Level(0), 99)),
        ];
        for base in &queries {
            for agg in [
                AggFunc::Sum,
                AggFunc::Count,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ] {
                let q = base.clone().with_aggs(vec![agg]);
                let sequential = adt.consolidate(&q).unwrap();
                for (workers, plan) in [
                    (1, INLINE),
                    (1, PrefetchPlan::new(1, 1)),
                    (2, PrefetchPlan::new(2, 4)),
                    (4, PrefetchPlan::new(3, 16)),
                ] {
                    adt.pool().clear().unwrap(); // cold: force the byte path
                    let streamed = consolidate_pipelined(&adt, &q, workers, plan).unwrap();
                    assert_eq!(streamed, sequential, "streaming {workers}w {plan:?} {q:?}");
                    adt.pool().clear().unwrap();
                    let materialized =
                        consolidate_pipelined(&adt, &q, workers, plan.with_streaming(false))
                            .unwrap();
                    assert_eq!(materialized, sequential, "materialize {workers}w {q:?}");
                }
            }
        }
    }

    #[test]
    fn pipelined_cold_runs_match_and_count_prefetches() {
        let adt = build(300);
        let pool = adt.pool().clone();
        let q = Query::new(vec![DimGrouping::Level(0), DimGrouping::Level(0)]);
        let sequential = adt.consolidate(&q).unwrap();
        pool.clear().unwrap();
        let before = pool.stats().snapshot();
        let piped = consolidate_pipelined(&adt, &q, 2, PrefetchPlan::new(2, 4)).unwrap();
        assert_eq!(piped, sequential);
        let d = pool.stats().snapshot().since(&before);
        let num_chunks = adt.array().shape().num_chunks();
        assert_eq!(d.prefetch_issued, num_chunks);
        assert_eq!(d.prefetch_hits + d.prefetch_wasted, d.prefetch_issued);
        assert!(d.prefetch_queue_peak >= 1);

        // Inline runs read the same chunks themselves: no prefetches.
        let misses = d.chunk_cache_misses;
        pool.clear().unwrap();
        let before = pool.stats().snapshot();
        assert_eq!(
            consolidate_pipelined(&adt, &q, 1, INLINE).unwrap(),
            sequential
        );
        let d = pool.stats().snapshot().since(&before);
        assert_eq!(d.prefetch_issued, 0);
        assert_eq!(d.chunk_cache_misses, misses);
    }

    #[test]
    fn auto_matches_sequential() {
        // `[7, 6]` is staffed with prefetchers, `[15, 20]` (2 chunks)
        // runs inline.
        for chunk_dims in [[7, 6], [15, 20]] {
            let adt = build_with(300, ChunkFormat::ChunkOffset, &chunk_dims);
            let plain = Query::new(vec![DimGrouping::Level(0), DimGrouping::Drop]);
            let selected = Query::new(vec![DimGrouping::Key, DimGrouping::Drop])
                .with_selection(1, Selection::in_list(AttrRef::Level(0), vec![0, 2]));
            for q in [plain, selected] {
                let first = consolidate_auto(&adt, &q).unwrap();
                assert_eq!(first, adt.consolidate(&q).unwrap(), "{q:?}");
                // The repeat answers from the result-cube cache,
                // bit-identically.
                let before = adt.pool().stats().snapshot();
                assert_eq!(consolidate_auto(&adt, &q).unwrap(), first, "{q:?}");
                let d = adt.pool().stats().snapshot().since(&before);
                assert_eq!(d.result_cache_hits, 1, "{q:?}");
            }
            // Invalid queries are rejected up front.
            assert!(consolidate_auto(&adt, &Query::new(vec![DimGrouping::Drop])).is_err());
        }
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let adt = build(50);
        let q = Query::new(vec![DimGrouping::Drop]); // wrong arity
        for plan in [INLINE, PrefetchPlan::new(2, 4)] {
            assert!(consolidate_pipelined(&adt, &q, 2, plan).is_err());
        }
    }
}
