//! PR 4 acceptance bench: the asynchronous prefetch/decode pipeline
//! plus per-chunk aggregation kernels, measured against the PR 3 path.
//!
//! The baseline is a *cold* sequential consolidation
//! (`BufferPool::clear` before every run — the §5.3 methodology; the
//! pipeline-off rows run the per-cell `OlapArray::consolidate`, at one
//! thread only). Against it we run the same selection-free Query 1
//! cold and warm through the pipelined executor at 1/2/4/8 threads,
//! for both chunk formats:
//!
//! * `chunk_offset` — decode is a cheap memcpy-shaped pass, so the
//!   pipeline's win is vectored bypass reads + per-chunk kernels.
//! * `dense_lzw` — cold scans decompress every chunk; overlapping the
//!   bypass read/decode with kernelized aggregation takes the headline.
//!
//! Every pipelined run is asserted bit-identical to the sequential
//! oracle before its wall time counts.
//!
//! ```text
//! bench_pr4 [--smoke] [--out <path>]
//!
//! --smoke    shrink the dataset ~30x and run once (CI gate)
//! --out      output path (default BENCH_PR4.json in the CWD)
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use molap_array::ChunkFormat;
use molap_bench::{PAPER_CHUNK_DIMS, PAPER_POOL_BYTES};
use molap_core::{consolidate_pipelined, DimGrouping, OlapArray, PrefetchPlan, Query};
use molap_datagen::{generate, CubeSpec};
use molap_storage::{BufferPool, FileDisk};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Acceptance bars: cold pipelined(4) vs cold sequential, per format.
const BAR_DENSE_LZW: f64 = 1.8;
const BAR_CHUNK_OFFSET: f64 = 1.15;

struct Sample {
    mode: &'static str,
    pipeline: bool,
    threads: usize,
    wall_ms: f64,
    physical_reads: u64,
    prefetch_issued: u64,
    prefetch_hits: u64,
    prefetch_wasted: u64,
}

struct FormatResult {
    name: &'static str,
    fourth_dim: u32,
    valid_cells: u64,
    density: f64,
    samples: Vec<Sample>,
    /// cold sequential (pipeline off) / cold pipelined at 4 threads.
    speedup: f64,
    bar: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_PR4.json".into());

    // The smoke gate compares two walls in the low-millisecond range,
    // where scheduler noise alone can flip the sign of a single run —
    // take extra runs there and let `measure` keep the minimum (noise
    // is strictly additive, so min-of-N is the least-noisy estimator).
    let runs = if smoke { 5 } else { 3 };

    // Same dataset points as bench_pr3: chunk_offset runs the paper's
    // Data Set 1; dense_lzw a shorter fourth dimension so the decoded
    // dense working set fits the 16 MiB cache budget.
    let mut co_spec = CubeSpec::dataset1(100);
    let mut lzw_spec = CubeSpec::dataset1(20);
    if smoke {
        // Keep smoke walls a few ms: much smaller than the full run,
        // but big enough that the pipeline's fixed cost (spawning the
        // prefetcher + consumer threads) amortizes — below ~1 ms the
        // strict `<= sequential` gate is dominated by spawn jitter.
        co_spec.valid_cells = 200_000;
        lzw_spec.valid_cells = 100_000;
    }
    let query = Query::new(vec![DimGrouping::Level(0); 4]);

    let formats = [
        (
            "chunk_offset",
            ChunkFormat::ChunkOffset,
            &co_spec,
            BAR_CHUNK_OFFSET,
        ),
        ("dense_lzw", ChunkFormat::DenseLzw, &lzw_spec, BAR_DENSE_LZW),
    ];
    let mut results = Vec::new();
    for (name, format, spec, bar) in formats {
        println!(
            "format {name}: 40x40x40x{}, {} valid cells, {runs} runs per point",
            spec.dim_sizes[3], spec.valid_cells
        );
        let cube = generate(spec).expect("generate cube");
        let (adt, store_path) = build(&cube, spec, format);
        let expect = adt.consolidate(&query).expect("baseline query");
        let mut samples = Vec::new();
        for pipeline in [false, true] {
            let threads_for: &[usize] = if pipeline { &THREADS } else { &[1] };
            for &threads in threads_for {
                for mode in ["cold", "warm"] {
                    let s = measure(&adt, &query, mode, pipeline, threads, runs);
                    println!(
                        "  {mode:>4} pipe={} t={threads}: {:8.2} ms, {:6} physical reads, \
                         prefetch {}/{}/{} issued/hit/wasted",
                        if pipeline { "on " } else { "off" },
                        s.wall_ms,
                        s.physical_reads,
                        s.prefetch_issued,
                        s.prefetch_hits,
                        s.prefetch_wasted
                    );
                    // Every configuration must agree with the oracle.
                    let check = run_once(&adt, &query, pipeline, threads);
                    assert_eq!(check, expect, "{name} {mode} pipe={pipeline} t={threads}");
                    samples.push(s);
                }
            }
        }
        let cold_seq = point(&samples, "cold", false, 1);
        let cold_pipe4 = point(&samples, "cold", true, 4);
        let speedup = cold_seq / cold_pipe4;
        println!(
            "  {name}: cold sequential {cold_seq:.2} ms -> cold pipelined(4) {cold_pipe4:.2} ms \
             ({speedup:.2}x, bar {bar:.2}x)"
        );
        results.push(FormatResult {
            name,
            fourth_dim: spec.dim_sizes[3],
            valid_cells: spec.valid_cells,
            density: spec.density(),
            samples,
            speedup,
            bar,
        });
        drop(adt);
        let _ = std::fs::remove_file(store_path);
    }

    let headline = results
        .iter()
        .find(|r| r.name == "dense_lzw")
        .expect("lzw result")
        .speedup;
    println!("headline (dense_lzw): {headline:.2}x cold pipelined(4) vs cold sequential");

    let json = to_json(runs, &results, headline);
    std::fs::write(&out, json).expect("write BENCH_PR4.json");
    println!("wrote {out}");
    let mut failed = false;
    for r in &results {
        if smoke {
            // CI gate: the pipeline must not make a cold scan slower.
            if r.speedup < 1.0 {
                eprintln!(
                    "bench_pr4: FAIL — {} cold pipelined(4) is {:.2}x the cold sequential \
                     wall (must be <= 1.0x)",
                    r.name,
                    1.0 / r.speedup
                );
                failed = true;
            }
        } else if r.speedup < r.bar {
            eprintln!(
                "bench_pr4: FAIL — {} speedup {:.2}x is below the {:.2}x acceptance bar",
                r.name, r.speedup, r.bar
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

type Cube = molap_datagen::GeneratedCube;

/// File-backed pool + array in the given chunk format. The store file
/// is returned for cleanup.
fn build(cube: &Cube, spec: &CubeSpec, format: ChunkFormat) -> (OlapArray, std::path::PathBuf) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "molap-bench-pr4-{}-{}.db",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let disk = FileDisk::create(&path).expect("create store");
    let pool = Arc::new(BufferPool::with_bytes(Arc::new(disk), PAPER_POOL_BYTES));
    let adt = OlapArray::build(
        pool.clone(),
        cube.dims.clone(),
        &PAPER_CHUNK_DIMS,
        format,
        cube.cells.iter().cloned(),
        spec.n_measures,
    )
    .expect("build OLAP array");
    pool.flush_all().expect("flush");
    (adt, path)
}

/// Minimum-of-`runs` measurement of one (mode, pipeline, threads)
/// point: wall-clock noise is additive, so the minimum is the best
/// estimate of the true cost.
fn measure(
    adt: &OlapArray,
    query: &Query,
    mode: &str,
    pipeline: bool,
    threads: usize,
    runs: usize,
) -> Sample {
    let pool = adt.pool();
    if mode == "warm" {
        // Prime the decoded-chunk cache (and page table) once, untimed.
        run_once(adt, query, pipeline, threads);
    }
    let mut walls = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs.max(1) {
        if mode == "cold" {
            pool.clear().expect("cold pool");
        }
        let before = pool.stats().snapshot();
        let start = Instant::now();
        run_once(adt, query, pipeline, threads);
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(pool.stats().snapshot().since(&before));
    }
    walls.sort_by(|a, b| a.total_cmp(b));
    let io = last.expect("at least one run");
    Sample {
        mode: if mode == "cold" { "cold" } else { "warm" },
        pipeline,
        threads,
        wall_ms: walls[0],
        physical_reads: io.physical_reads,
        prefetch_issued: io.prefetch_issued,
        prefetch_hits: io.prefetch_hits,
        prefetch_wasted: io.prefetch_wasted,
    }
}

fn run_once(
    adt: &OlapArray,
    query: &Query,
    pipeline: bool,
    threads: usize,
) -> molap_core::ConsolidationResult {
    if pipeline {
        let plan = PrefetchPlan::new(2, 16);
        consolidate_pipelined(adt, query, threads, plan).expect("pipelined run")
    } else {
        adt.consolidate(query).expect("sequential run")
    }
}

fn point(samples: &[Sample], mode: &str, pipeline: bool, threads: usize) -> f64 {
    samples
        .iter()
        .find(|s| s.mode == mode && s.pipeline == pipeline && s.threads == threads)
        .expect("measured point")
        .wall_ms
}

fn to_json(runs: usize, results: &[FormatResult], headline: f64) -> String {
    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"pr4_prefetch_pipeline_chunk_kernels\",\n");
    j.push_str("  \"query\": \"full consolidation (Query 1, group by h1 of 4 dims)\",\n");
    let _ = writeln!(j, "  \"runs_per_point\": {runs},");
    j.push_str("  \"formats\": [\n");
    for (fi, r) in results.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"format\": \"{}\", \"dataset\": {{\"dims\": [40, 40, 40, {}], \
             \"valid_cells\": {}, \"density\": {:.4}}}, \"results\": [",
            r.name, r.fourth_dim, r.valid_cells, r.density
        );
        for (i, s) in r.samples.iter().enumerate() {
            let _ = write!(
                j,
                "      {{\"mode\": \"{}\", \"pipeline\": {}, \"threads\": {}, \
                 \"wall_ms\": {:.3}, \"physical_reads\": {}, \"prefetch_issued\": {}, \
                 \"prefetch_hits\": {}, \"prefetch_wasted\": {}}}",
                s.mode,
                s.pipeline,
                s.threads,
                s.wall_ms,
                s.physical_reads,
                s.prefetch_issued,
                s.prefetch_hits,
                s.prefetch_wasted
            );
            j.push_str(if i + 1 < r.samples.len() { ",\n" } else { "\n" });
        }
        let _ = writeln!(
            j,
            "    ], \"speedup_cold_pipelined4_vs_cold_sequential\": {:.3}, \
             \"acceptance_bar\": {:.2}}}{}",
            r.speedup,
            r.bar,
            if fi + 1 < results.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"baseline\": \"cold sequential, pipeline off (pool cleared per run, per-cell path)\","
    );
    let _ = writeln!(
        j,
        "  \"speedup_cold_pipelined4_vs_cold_sequential\": {headline:.3}"
    );
    j.push_str("}\n");
    j
}
