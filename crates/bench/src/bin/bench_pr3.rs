//! PR 3 acceptance bench: sharded pool + decoded-chunk cache +
//! parallel consolidation, measured against the pre-PR baseline.
//!
//! The baseline is the paper's §5.3 methodology — a *cold* sequential
//! consolidation (`BufferPool::clear` before every run, which also
//! epoch-invalidates the chunk cache; the per-cell
//! `OlapArray::consolidate`, which re-reads and re-decodes every chunk
//! on every query). Against it we measure the same selection-free
//! Query 1 cold and warm at 1/2/4/8 threads — 1 is the per-cell path,
//! 2/4/8 that many executor consumers fed by two prefetchers — for
//! both chunk formats:
//!
//! * `chunk_offset` — the paper's §3.3 format; decode is a cheap
//!   memcpy-shaped pass, so the cache mostly saves the physical reads.
//! * `dense_lzw` — the generic Paradise array format (§3.1 ablation);
//!   LZW decompression dominates a cold scan, so warm cache hits skip
//!   the real cost. The headline speedup is taken here.
//!
//! ```text
//! bench_pr3 [--smoke] [--out <path>]
//!
//! --smoke    shrink the dataset ~30x and run once (CI gate)
//! --out      output path (default BENCH_PR3.json in the CWD)
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

struct Sample {
    mode: &'static str,
    threads: usize,
    wall_ms: f64,
    physical_reads: u64,
    chunk_cache_hits: u64,
    chunk_cache_misses: u64,
}

struct FormatResult {
    name: &'static str,
    fourth_dim: u32,
    valid_cells: u64,
    density: f64,
    samples: Vec<Sample>,
    speedup: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_PR3.json".into());

    let runs = if smoke { 1 } else { 3 };

    // chunk_offset runs the paper's Data Set 1 point; dense_lzw runs a
    // shorter fourth dimension so the *decoded* dense array (positions
    // x 8 B, independent of density) fits the 16 MiB cache budget —
    // with 40x40x40x100 the 52 MB decoded working set can only thrash.
    let mut co_spec = CubeSpec::dataset1(100);
    let mut lzw_spec = CubeSpec::dataset1(20);
    if smoke {
        co_spec.valid_cells = 20_000;
        lzw_spec.valid_cells = 20_000;
    }
    let query = Query::new(vec![DimGrouping::Level(0); 4]);

    let formats = [
        ("chunk_offset", ChunkFormat::ChunkOffset, &co_spec),
        ("dense_lzw", ChunkFormat::DenseLzw, &lzw_spec),
    ];
    let mut results = Vec::new();
    for (name, format, spec) in formats {
        println!(
            "format {name}: 40x40x40x{}, {} valid cells, {runs} runs per point",
            spec.dim_sizes[3], spec.valid_cells
        );
        let cube = generate(spec).expect("generate cube");
        let (adt, store_path) = build(&cube, spec, format);
        let expect = adt.consolidate(&query).expect("baseline query");
        let mut samples = Vec::new();
        for &threads in &THREADS {
            for mode in ["cold", "warm"] {
                let s = measure(&adt, &query, mode, threads, runs);
                println!(
                    "  {mode:>4} t={threads}: {:8.2} ms, {:6} physical reads, \
                     chunk cache {}/{} hit/miss",
                    s.wall_ms, s.physical_reads, s.chunk_cache_hits, s.chunk_cache_misses
                );
                // Every configuration must agree with the sequential answer.
                let check = run_once(&adt, &query, threads);
                assert_eq!(check, expect, "{name} {mode} t={threads} diverged");
                samples.push(s);
            }
        }
        let cold_seq = point(&samples, "cold", 1);
        let warm_par4 = point(&samples, "warm", 4);
        let speedup = cold_seq / warm_par4;
        println!(
            "  {name}: cold sequential {cold_seq:.2} ms -> warm parallel(4) {warm_par4:.2} ms \
             ({speedup:.2}x speedup)"
        );
        results.push(FormatResult {
            name,
            fourth_dim: spec.dim_sizes[3],
            valid_cells: spec.valid_cells,
            density: spec.density(),
            samples,
            speedup,
        });
        drop(adt);
        let _ = std::fs::remove_file(store_path);
    }

    // Headline: the format whose cold cost the cache actually removes.
    let headline = results
        .iter()
        .find(|r| r.name == "dense_lzw")
        .expect("lzw result")
        .speedup;
    println!("headline (dense_lzw): {headline:.2}x warm parallel(4) vs cold sequential");

    let json = to_json(runs, &results, headline);
    std::fs::write(&out, json).expect("write BENCH_PR3.json");
    println!("wrote {out}");
    if !smoke && headline < 2.0 {
        eprintln!(
            "bench_pr3: FAIL — headline speedup {headline:.2}x is below the 2x acceptance bar"
        );
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
        "molap-bench-pr3-{}-{}.db",
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

/// Median-of-`runs` measurement of one (mode, threads) point.
fn measure(adt: &OlapArray, query: &Query, mode: &str, threads: usize, runs: usize) -> Sample {
    let pool = adt.pool();
    if mode == "warm" {
        // Prime the decoded-chunk cache (and the page table) once,
        // untimed; warm runs then skip both I/O and chunk decode.
        run_once(adt, query, threads);
    }
    let mut walls = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs.max(1) {
        if mode == "cold" {
            pool.clear().expect("cold pool");
        }
        let before = pool.stats().snapshot();
        let start = Instant::now();
        run_once(adt, query, threads);
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(pool.stats().snapshot().since(&before));
    }
    walls.sort_by(|a, b| a.total_cmp(b));
    let io = last.expect("at least one run");
    Sample {
        mode: if mode == "cold" { "cold" } else { "warm" },
        threads,
        wall_ms: walls[walls.len() / 2],
        physical_reads: io.physical_reads,
        chunk_cache_hits: io.chunk_cache_hits,
        chunk_cache_misses: io.chunk_cache_misses,
    }
}

fn run_once(adt: &OlapArray, query: &Query, threads: usize) -> molap_core::ConsolidationResult {
    if threads == 1 {
        adt.consolidate(query).expect("sequential run")
    } else {
        let plan = PrefetchPlan::new(2, 16);
        consolidate_pipelined(adt, query, threads, plan).expect("parallel run")
    }
}

fn point(samples: &[Sample], mode: &str, threads: usize) -> f64 {
    samples
        .iter()
        .find(|s| s.mode == mode && s.threads == threads)
        .expect("measured point")
        .wall_ms
}

fn to_json(runs: usize, results: &[FormatResult], headline: f64) -> String {
    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"pr3_sharded_pool_chunk_cache_parallel\",\n");
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
                "      {{\"mode\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}, \
                 \"physical_reads\": {}, \"chunk_cache_hits\": {}, \"chunk_cache_misses\": {}}}",
                s.mode,
                s.threads,
                s.wall_ms,
                s.physical_reads,
                s.chunk_cache_hits,
                s.chunk_cache_misses
            );
            j.push_str(if i + 1 < r.samples.len() { ",\n" } else { "\n" });
        }
        let _ = writeln!(
            j,
            "    ], \"speedup_warm_parallel4_vs_cold_sequential\": {:.3}}}{}",
            r.speedup,
            if fi + 1 < results.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"baseline\": \"cold sequential (pool cleared per run, pre-PR path)\","
    );
    let _ = writeln!(
        j,
        "  \"speedup_warm_parallel4_vs_cold_sequential\": {headline:.3}"
    );
    j.push_str("}\n");
    j
}
