//! Per-chunk aggregation kernels — the array analogue of vectorized
//! execution.
//!
//! The per-cell inner loops of the `consolidate`/`select` oracle pay a
//! full dispatch per valid cell: decode the cell's coordinates, walk the
//! grouped dimensions, bounds-check an IndexToIndex lookup each, then
//! re-derive the result cube's linear cell from the ranks. All of that
//! is invariant *per chunk* except the cell offset. A [`ChunkKernel`]
//! hoists it: for each relevant dimension it precomputes a within-chunk
//! remap table whose entry `w` is the dimension's whole contribution to
//! the result cell — `i2i[base + w] * cube_stride` — with a sentinel for
//! coordinates a §4.2 selection excludes (or array padding). The hot
//! loop is then `(offset, values)` → a few shifts/divides + table loads
//! → [`ResultCube::add_linear`].
//!
//! The executor's consumers feed every chunk format through the one
//! batch entry point, [`ChunkKernel::apply_batch`]; the per-cell paths
//! stay as the oracle it is tested against.

use molap_array::Shape;

use crate::consolidate::GroupMap;
use crate::result::ResultCube;

/// Remap-table sentinel: cells at this within-chunk coordinate are
/// excluded (selection miss or array padding).
const SKIP: u64 = u64::MAX;

/// Batch width of the streaming entry point — matches the diff-seq
/// decoder's block size so one decoded gap block is one kernel batch.
const BATCH: usize = molap_array::diffseq::BLOCK;

struct DimTable {
    /// Chunk extent along the dimension.
    extent: u64,
    /// Precomputed `ceil(2^64 / cell_stride)`, where `cell_stride` is
    /// the dimension's within-chunk stride in the offset encoding, for
    /// strength-reduced division; `0` is the divisor-is-one sentinel
    /// (the true magic would overflow u64).
    stride_magic: u64,
    /// Same, for `extent`.
    extent_magic: u64,
    /// Within-chunk coordinate → result-cell contribution, or [`SKIP`].
    remap: Vec<u64>,
}

/// `ceil(2^64 / d)` as a u64, with `0` standing in for `d == 1`.
fn div_magic(d: u64) -> u64 {
    if d == 1 {
        0
    } else {
        u64::MAX / d + 1
    }
}

/// `n / d` via the precomputed magic. Exact for `n < 2^32`, `d < 2^32`
/// (Lemire, Kaser & Kurz, "Faster remainder by direct computation"),
/// which chunk geometry guarantees: offsets and strides both fit in
/// u32 because `Shape::new` caps the per-chunk cell count.
#[inline(always)]
fn fast_div(n: u64, magic: u64) -> u64 {
    if magic == 0 {
        n
    } else {
        ((magic as u128 * n as u128) >> 64) as u64
    }
}

/// A once-per-chunk specialization of phase-2 aggregation.
pub(crate) struct ChunkKernel {
    tables: Vec<DimTable>,
}

impl ChunkKernel {
    /// Builds the kernel for `chunk_no`. `membership`, when present,
    /// holds the §4.2 scan-direction membership mask per dimension
    /// (indexed by within-chunk coordinate); dimensions that are
    /// neither grouped nor masked contribute nothing and get no table.
    pub(crate) fn new(
        shape: &Shape,
        maps: &[GroupMap],
        cube: &ResultCube,
        chunk_no: u64,
        membership: Option<&[Vec<bool>]>,
    ) -> Self {
        let n = shape.n_dims();
        let mut base = vec![0u32; n];
        shape.chunk_base(chunk_no, &mut base);
        let strides = cube.strides();
        let mut tables = Vec::new();
        for d in 0..n {
            let grouped = maps.iter().enumerate().find(|(_, m)| m.dim == d);
            let mask = membership.map(|m| m[d].as_slice());
            if grouped.is_none() && mask.is_none() {
                continue;
            }
            let extent = shape.chunk_dims()[d] as usize;
            let dim_len = shape.dims()[d] as usize;
            let remap: Vec<u64> = (0..extent)
                .map(|w| {
                    let idx = base[d] as usize + w;
                    if idx >= dim_len || mask.is_some_and(|m| !m[w]) {
                        SKIP
                    } else {
                        match grouped {
                            Some((g, map)) => map.i2i[idx] as u64 * strides[g] as u64,
                            None => 0,
                        }
                    }
                })
                .collect();
            tables.push(DimTable {
                extent: extent as u64,
                stride_magic: div_magic(shape.cell_stride(d)),
                extent_magic: div_magic(extent as u64),
                remap,
            });
        }
        ChunkKernel { tables }
    }

    /// Aggregates a batch of the chunk's valid `(offset, measures)`
    /// cells into `cube`. `values` is row-major, `offsets.len() *
    /// n_measures` long — what [`molap_array::Chunk::for_each_batch`]
    /// and [`molap_array::diffseq::DiffSeqCursor::next_batch`] yield.
    ///
    /// The remap phase runs column-wise over a fixed-width cell buffer
    /// with strength-reduced division and no per-cell branching:
    /// excluded cells saturate to [`SKIP`] and are dropped in the final
    /// scatter. Bit-identical to the per-cell rank path (aggregate
    /// folds are order-independent).
    pub(crate) fn apply_batch(
        &self,
        offsets: &[u32],
        values: &[i64],
        n_measures: usize,
        cube: &mut ResultCube,
    ) {
        debug_assert_eq!(values.len(), offsets.len() * n_measures);
        let mut cells = [0u64; BATCH];
        for (block, offs) in offsets.chunks(BATCH).enumerate() {
            let k = offs.len();
            cells[..k].fill(0);
            for t in &self.tables {
                for (cell, &off) in cells[..k].iter_mut().zip(offs) {
                    let q = fast_div(off as u64, t.stride_magic);
                    let within = q - fast_div(q, t.extent_magic) * t.extent;
                    // SKIP is u64::MAX, so a masked dimension pins the
                    // cell at SKIP no matter what later tables add.
                    *cell = cell.saturating_add(t.remap[within as usize]);
                }
            }
            for (i, &cell) in cells[..k].iter().enumerate() {
                if cell != SKIP {
                    let row = (block * BATCH + i) * n_measures;
                    cube.add_linear(cell as usize, &values[row..row + n_measures]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt::OlapArray;
    use crate::aggregate::AggFunc;
    use crate::consolidate::{make_cube, phase1};
    use crate::dimension::DimensionTable;
    use crate::query::{DimGrouping, Query};
    use molap_array::ChunkFormat;
    use molap_storage::{BufferPool, MemDisk};
    use std::sync::Arc;

    /// 12×16 cube with chunk 0 of the `[4, 3]` shape left empty; `[4,
    /// 3]` pads the last chunk along `b`, `[12, 16]` is one chunk of
    /// more than 64 valid cells (so a dense gather crosses a batch).
    fn build(format: ChunkFormat, chunk_dims: &[u32]) -> OlapArray {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2048));
        let dims = vec![
            DimensionTable::build(
                "a",
                &(0..12i64).collect::<Vec<_>>(),
                vec![("h", (0..12i64).map(|k| k % 3).collect())],
            )
            .unwrap(),
            DimensionTable::build(
                "b",
                &(0..16i64).collect::<Vec<_>>(),
                vec![("h", (0..16i64).map(|k| k / 4).collect())],
            )
            .unwrap(),
        ];
        let cells: Vec<(Vec<i64>, Vec<i64>)> = (0..12i64)
            .flat_map(|x| (0..16i64).map(move |y| (vec![x, y], vec![x * 100 + y, 1])))
            .filter(|(k, _)| !(k[0] < 4 && k[1] < 3) && (k[0] + k[1]) % 3 != 0)
            .collect();
        OlapArray::build(pool, dims, chunk_dims, format, cells, 2).unwrap()
    }

    /// Masks keeping the even within-chunk coordinates of dim 0.
    fn even_mask(adt: &OlapArray) -> Vec<Vec<bool>> {
        let shape = adt.array().shape();
        (0..2)
            .map(|d| {
                (0..shape.chunk_dims()[d] as usize)
                    .map(|w| d != 0 || w % 2 == 0)
                    .collect()
            })
            .collect()
    }

    /// The per-cell reference: coordinates decoded cell by cell, ranks
    /// looked up per grouped dimension, cells outside `mask` dropped.
    fn per_cell(adt: &OlapArray, maps: &[GroupMap], mask: Option<&[Vec<bool>]>) -> ResultCube {
        let shape = adt.array().shape();
        let mut cube = make_cube(maps, adt.n_measures());
        let mut ranks = vec![0u32; maps.len()];
        adt.array()
            .for_each_cell(|coords, values| {
                let masked = mask.is_some_and(|m| {
                    (0..2).any(|d| !m[d][shape.within_chunk(d, coords[d]) as usize])
                });
                if masked {
                    return;
                }
                for (g, map) in maps.iter().enumerate() {
                    ranks[g] = map.i2i[coords[map.dim] as usize];
                }
                cube.add(&ranks, values);
            })
            .unwrap();
        cube
    }

    /// The kernel path: each chunk's `Chunk::for_each_batch` batches
    /// re-sliced at `steps` (cycled) before they reach `apply_batch`.
    fn kernel(
        adt: &OlapArray,
        maps: &[GroupMap],
        mask: Option<&[Vec<bool>]>,
        steps: &[usize],
    ) -> ResultCube {
        let shape = adt.array().shape();
        let p = adt.n_measures();
        let mut cube = make_cube(maps, p);
        for chunk_no in 0..shape.num_chunks() {
            let chunk = adt.array().read_chunk(chunk_no).unwrap();
            let kernel = ChunkKernel::new(shape, maps, &cube, chunk_no, mask);
            chunk.for_each_batch(|offsets, values| {
                let mut at = 0;
                for &step in steps.iter().cycle() {
                    if at == offsets.len() {
                        break;
                    }
                    let end = at.saturating_add(step).min(offsets.len());
                    kernel.apply_batch(&offsets[at..end], &values[at * p..end * p], p, &mut cube);
                    at = end;
                }
            });
        }
        cube
    }

    fn query(group_by: [DimGrouping; 2]) -> Query {
        Query::new(group_by.to_vec()).with_aggs(vec![AggFunc::Sum, AggFunc::Max])
    }

    const GROUPINGS: [[DimGrouping; 2]; 3] = [
        [DimGrouping::Level(0), DimGrouping::Level(0)],
        [DimGrouping::Key, DimGrouping::Drop],
        [DimGrouping::Drop, DimGrouping::Drop],
    ];

    #[test]
    fn kernel_matches_per_cell_aggregation() {
        for format in [ChunkFormat::ChunkOffset, ChunkFormat::Dense] {
            for chunk_dims in [[4, 3], [12, 16]] {
                let adt = build(format, &chunk_dims);
                let array = adt.array();
                // The fixture reaches the edge cases it is meant to.
                if chunk_dims == [4, 3] {
                    assert_eq!(array.read_chunk(0).unwrap().valid_cells(), 0);
                } else {
                    assert!(array.read_chunk(0).unwrap().valid_cells() > BATCH as u64);
                }
                for group_by in GROUPINGS {
                    let q = query(group_by);
                    let maps = phase1(&adt, &q).unwrap();
                    let got = kernel(&adt, &maps, None, &[usize::MAX]);
                    assert_eq!(
                        got.into_result(&q.aggs).unwrap(),
                        adt.consolidate(&q).unwrap(),
                        "{format:?} {chunk_dims:?} {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ragged_batches_match_per_cell_oracle() {
        // Batches re-sliced unevenly hit both the full-BATCH and the
        // tail paths of `apply_batch`, with and without masks.
        for format in [ChunkFormat::ChunkOffset, ChunkFormat::Dense] {
            for chunk_dims in [[4, 3], [12, 16]] {
                let adt = build(format, &chunk_dims);
                let mask = even_mask(&adt);
                for group_by in GROUPINGS {
                    for membership in [None, Some(mask.as_slice())] {
                        let q = query(group_by);
                        let maps = phase1(&adt, &q).unwrap();
                        let got = kernel(&adt, &maps, membership, &[1, 3, BATCH, BATCH + 7]);
                        let expect = per_cell(&adt, &maps, membership);
                        if membership.is_some() {
                            // The mask really drops cells.
                            let all = per_cell(&adt, &maps, None);
                            assert!(
                                expect.clone().into_result(&q.aggs).unwrap().total()
                                    < all.into_result(&q.aggs).unwrap().total()
                            );
                        }
                        assert_eq!(
                            got.into_result(&q.aggs).unwrap(),
                            expect.into_result(&q.aggs).unwrap(),
                            "{format:?} {chunk_dims:?} {q:?} masked={}",
                            membership.is_some()
                        );
                    }
                }
            }
        }
    }
}
