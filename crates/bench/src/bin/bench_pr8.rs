//! PR 8 acceptance bench: optimistic lock coupling under contention —
//! the two hot read structures that keep an optimistic path (B-tree
//! probe, buffer-pool page-table hit), each measured down its mutex
//! path and its optimistic path, at 1/2/4/8 threads, min-of-N wall
//! time per cell. (The decoded-chunk and result-cube caches have a
//! single locked lookup, so they have nothing to compare.)
//!
//! Every workload is all-hits on a warm structure: the point of the
//! optimistic path is the *success* path, so the bench measures
//! exactly that (misses and write storms fall back to the mutex path
//! by construction and are covered by the stress suites instead).
//!
//! Bars (the bench exits non-zero when missed):
//!
//! * single-thread: optimistic ≥ 1.0× mutex on every structure — the
//!   lock-free probe must not regress the uncontended case;
//! * 4 threads, only when the host has ≥ 4 CPUs: optimistic ≥ 1.5×
//!   mutex on every structure — removing the shard lock must actually
//!   buy scaling once there is real parallelism to scale with.
//!
//! ```text
//! bench_pr8 [--smoke] [--out <path>]
//!
//! --smoke    shrink op counts ~20x and repetitions (CI)
//! --out      output path (default BENCH_PR8.json in the CWD)
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use molap_btree::{BTree, SharedBTree};
use molap_storage::{BufferPool, MemDisk, PageId};

/// Single-thread bar: the optimistic path must not be slower than the
/// mutex path it replaces.
const BAR_SINGLE_THREAD: f64 = 1.0;
/// Contention bar at 4 threads, enforced only when the host actually
/// has ≥ 4 CPUs (oversubscribed "threads" on fewer cores measure the
/// scheduler, not the lock).
const BAR_FOUR_THREADS: f64 = 1.5;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Cell {
    threads: usize,
    mutex_ops_per_s: f64,
    opt_ops_per_s: f64,
    speedup: f64,
}

struct StructureResult {
    name: &'static str,
    cells: Vec<Cell>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_PR8.json".into());

    let reps = if smoke { 3 } else { 5 };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "optimistic lock coupling microbench: {} threads x 2 structures x (mutex|optimistic), \
         min of {reps}, {nproc} CPUs",
        THREAD_COUNTS.len()
    );

    let results = vec![bench_btree(smoke, reps), bench_pool(smoke, reps)];

    let mut failed = false;
    for s in &results {
        for c in &s.cells {
            println!(
                "  {:>13} @ {} thread{}: mutex {:>11.0} ops/s, optimistic {:>11.0} ops/s  ({:.2}x)",
                s.name,
                c.threads,
                if c.threads == 1 { " " } else { "s" },
                c.mutex_ops_per_s,
                c.opt_ops_per_s,
                c.speedup
            );
        }
        let single = s.cells.iter().find(|c| c.threads == 1).expect("1-thread");
        if single.speedup < BAR_SINGLE_THREAD {
            eprintln!(
                "bench_pr8: FAIL — {} optimistic path is {:.2}x the mutex path single-threaded, \
                 below the {BAR_SINGLE_THREAD:.1}x no-regression bar",
                s.name, single.speedup
            );
            failed = true;
        }
        if nproc >= 4 {
            let four = s.cells.iter().find(|c| c.threads == 4).expect("4-thread");
            if four.speedup < BAR_FOUR_THREADS {
                eprintln!(
                    "bench_pr8: FAIL — {} optimistic path is {:.2}x the mutex path at 4 threads \
                     on a {nproc}-CPU host, below the {BAR_FOUR_THREADS:.1}x contention bar",
                    s.name, four.speedup
                );
                failed = true;
            }
        }
    }
    let worst_single = results
        .iter()
        .filter_map(|s| s.cells.iter().find(|c| c.threads == 1))
        .map(|c| c.speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "headline: worst single-thread optimistic/mutex ratio {worst_single:.2}x \
         (bar {BAR_SINGLE_THREAD:.1}x); 4-thread bar {}",
        if nproc >= 4 {
            format!("{BAR_FOUR_THREADS:.1}x enforced")
        } else {
            format!("not enforced ({nproc} CPUs)")
        }
    );

    std::fs::write(&out, to_json(nproc, reps, &results)).expect("write BENCH_PR8.json");
    println!("wrote {out}");
    if failed {
        std::process::exit(1);
    }
}

/// Best-of-`reps` wall time for `threads` workers each running `ops`
/// iterations of `op` (called with a per-worker starting offset), as
/// total ops/sec. Workers start together behind a barrier so the
/// measured window is all-threads-hot.
fn throughput<F>(threads: usize, ops: usize, reps: usize, op: &F) -> f64
where
    F: Fn(usize, usize) + Sync,
{
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        // Each worker times its own span; the rep's wall is
        // earliest-start → latest-end. Timing in the main thread
        // instead would race the barrier wake-up on few-CPU hosts and
        // can measure a near-zero window.
        let barrier = Barrier::new(threads);
        let wall = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let start = Instant::now();
                        for i in 0..ops {
                            op(t, i);
                        }
                        (start, Instant::now())
                    })
                })
                .collect();
            let spans: Vec<(Instant, Instant)> = workers
                .into_iter()
                .map(|w| w.join().expect("bench worker"))
                .collect();
            let first = spans.iter().map(|s| s.0).min().expect("worker span");
            let last = spans.iter().map(|s| s.1).max().expect("worker span");
            (last - first).as_secs_f64()
        });
        best = best.min(wall);
    }
    (threads * ops) as f64 / best
}

/// Runs one structure's mutex-vs-optimistic grid over the thread
/// counts. The two modes alternate inside each thread count so slow
/// drift (thermal, page cache) hits both evenly.
fn grid<M, O>(
    name: &'static str,
    ops: usize,
    reps: usize,
    mutex_op: M,
    opt_op: O,
) -> StructureResult
where
    M: Fn(usize, usize) + Sync,
    O: Fn(usize, usize) + Sync,
{
    let cells = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let mutex_ops_per_s = throughput(threads, ops, reps, &mutex_op);
            let opt_ops_per_s = throughput(threads, ops, reps, &opt_op);
            Cell {
                threads,
                mutex_ops_per_s,
                opt_ops_per_s,
                speedup: opt_ops_per_s / mutex_ops_per_s,
            }
        })
        .collect();
    StructureResult { name, cells }
}

/// B-tree point probes: version-coupled descent vs. the `tree` writer
/// mutex around the same descent.
fn bench_btree(smoke: bool, reps: usize) -> StructureResult {
    let keys: i64 = if smoke { 2_000 } else { 10_000 };
    let ops = if smoke { 5_000 } else { 100_000 };
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2_048));
    let tree = SharedBTree::new(BTree::create(pool).expect("create tree"));
    for k in 0..keys {
        tree.insert(k, (k as u64) * 3).expect("seed tree");
    }
    grid(
        "btree_probe",
        ops,
        reps,
        |t, i| {
            let key = ((t * 7 + i) as i64)
                .wrapping_mul(2_654_435_761)
                .rem_euclid(keys);
            let got = tree.with_tree(|inner| inner.get(key)).expect("mutex probe");
            black_box(got);
        },
        |t, i| {
            let key = ((t * 7 + i) as i64)
                .wrapping_mul(2_654_435_761)
                .rem_euclid(keys);
            let got = tree.get(key).expect("optimistic probe");
            black_box(got);
        },
    )
}

/// Buffer-pool page-table hits on a fully resident working set:
/// `fetch` (optimistic pin probe) vs. `fetch_via_mutex` (the shard
/// mutex pin path, skipping the probe).
fn bench_pool(smoke: bool, reps: usize) -> StructureResult {
    let pages: u64 = if smoke { 256 } else { 1_024 };
    let ops = if smoke { 10_000 } else { 300_000 };
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 2_048);
    let first = pool.allocate_pages(pages).expect("allocate pages");
    for p in 0..pages {
        let mut page = pool.create_page(PageId(first.0 + p)).expect("create page");
        page.as_mut()[0] = p as u8;
    }
    grid(
        "pool_hit",
        ops,
        reps,
        |t, i| {
            let pid = PageId(first.0 + ((t * 13 + i) as u64).wrapping_mul(31) % pages);
            let page = pool.fetch_via_mutex(pid).expect("mutex hit");
            black_box(page.as_ref()[0]);
        },
        |t, i| {
            let pid = PageId(first.0 + ((t * 13 + i) as u64).wrapping_mul(31) % pages);
            let page = pool.fetch(pid).expect("optimistic hit");
            black_box(page.as_ref()[0]);
        },
    )
}

fn to_json(nproc: usize, reps: usize, results: &[StructureResult]) -> String {
    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"pr8_optimistic_lock_coupling\",\n");
    let _ = writeln!(j, "  \"host\": {{\"nproc\": {nproc}, \"min_of\": {reps}}},");
    j.push_str("  \"structures\": [\n");
    for (si, s) in results.iter().enumerate() {
        let _ = writeln!(j, "    {{\"name\": \"{}\", \"cells\": [", s.name);
        for (ci, c) in s.cells.iter().enumerate() {
            let _ = write!(
                j,
                "      {{\"threads\": {}, \"mutex_ops_per_s\": {:.0}, \
                 \"opt_ops_per_s\": {:.0}, \"speedup\": {:.3}}}",
                c.threads, c.mutex_ops_per_s, c.opt_ops_per_s, c.speedup
            );
            j.push_str(if ci + 1 < s.cells.len() { ",\n" } else { "\n" });
        }
        j.push_str("    ]}");
        j.push_str(if si + 1 < results.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"bars\": {{\"single_thread\": {BAR_SINGLE_THREAD:.1}, \"four_threads\": \
         {BAR_FOUR_THREADS:.1}, \"four_thread_bar_enforced\": {}}}",
        nproc >= 4
    );
    j.push_str("}\n");
    j
}
