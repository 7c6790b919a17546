//! End-to-end client-query benchmark for molap.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload dashboard|adhoc|mixed_writes --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the untraced closed-loop window and reports the
//! end-to-end metrics; `--trace 1` runs a shorter untraced window (for
//! the server-side figures) followed by the traced in-process replay and
//! reports the per-layer metrics. Every metric is printed as
//! `metric <name> = <value> <unit>`; the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod drive;
mod setup;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

use molap_core::{ConsolidationResult, Database};
use molap_datagen::generate;
use molap_storage::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::SeedableRng;

use drive::{Check, Window};
use setup::{remove_db, run_setup, stored_len, CubePlan, Oracle, Served, Setup, MEASURES};
use stats::{digest, median, mix, ratio, rss_mib};
use stream::{written_cells, AdhocStream, Batch, Dashboard, GRAND_TOTAL, SALES};
use trace::{layer_times, replay, route_counts, Replay, Req};

/// Time slices of a window; `read_qps` is the median of their rates.
const SLICES: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Write batches prepared per second of window: far above any commit
/// rate the write path reaches, so the writer never runs dry.
const BATCHES_PER_SECOND: usize = 400;
/// Dashboard statements (and ad-hoc statements) resolved twice to show
/// that planner route counts repeat exactly.
const ROUTE_CHECK_STATEMENTS: usize = 64;
/// Ad-hoc statements run before the window, to fill the pool and the
/// chunk cache.
const ADHOC_WARM_UP: usize = 32;
/// In the traced `mixed_writes` replay, one commit follows this many
/// reads.
const REPLAY_READS_PER_WRITE: u64 = 2;

/// The end-to-end metrics the final JSON line carries on `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "read_qps",
    "read_p50_ms",
    "rss_mb",
    "stored_bytes_per_user_byte",
];

/// The per-layer metrics the final JSON line carries on `--trace 1`.
const PER_LAYER: &[&str] = &[
    "server.roundtrip_us",
    "server.exec_us",
    "server.outside_exec_us",
    "server.coalesced_frac",
    "server.bytes_out_per_query",
    "protocol.encode_us",
    "protocol.decode_us",
    "sql.parse_us",
    "catalog.open_us",
    "catalog.fingerprint_us",
    "rescache.hit_frac",
    "rescache.derive_frac",
    "rescache.miss_frac",
    "rescache.evictions_per_query",
    "rescache.patched_per_commit",
    "rescache.fallbacks_per_commit",
    "rescache.invalidations_per_commit",
    "exec.hit_us",
    "exec.derive_us",
    "exec.miss_us",
    "select.index_us",
    "select.route_hbi_frac",
    "hbi.bitmaps_read_per_probe",
    "pool.logical_reads_per_query",
    "pool.physical_reads_per_query",
    "pool.hit_rate",
    "array.chunk_cache_hit_rate",
    "array.chunk_cache_evictions_per_query",
    "array.prefetch_hit_rate",
    "array.prefetch_wasted_per_query",
    "array.prefetch_queue_peak",
    "result.rows_per_query",
    "write.commit_us",
    "storage.page_writes_per_commit",
    "storage.bytes_written_per_user_byte",
    "storage.file_growth_per_commit_bytes",
    "write.torn_reads",
    "trace.overhead_frac",
    "trace.unattributed_frac",
    "read_p90_ms",
    "read_p99_ms",
    "failed_frac",
    "write_commits_per_s",
    "write_p50_ms",
    "write_p90_ms",
    "write_growth_per_user_byte",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Dashboard,
    Adhoc,
    MixedWrites,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "dashboard" => Some(Workload::Dashboard),
            "adhoc" => Some(Workload::Adhoc),
            "mixed_writes" => Some(Workload::MixedWrites),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Dashboard => "dashboard",
            Workload::Adhoc => "adhoc",
            Workload::MixedWrites => "mixed_writes",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Every figure a run printed, by name.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name} = {value} {unit}");
        self.metrics.insert(name, (value, unit));
    }

    fn info(&self, line: String) {
        println!("info {line}");
    }

    fn problem(&mut self, p: String) {
        println!("FAIL {p}");
        self.problems.push(p);
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn json(&self, names: &[&str]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for &n in names {
            let (v, unit) = self
                .metrics
                .get(n)
                .ok_or_else(|| format!("metric {n} was not measured"))?;
            parts.push(format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".e2ebench").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome.and_then(|r| {
        let names = if args.trace { PER_LAYER } else { END_TO_END };
        r.json(names)
    }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let plan = CubePlan::for_workload(w);
    let mut rep = Report::default();
    rep.info(format!(
        "workload {} seed {} seconds {} trace {} cpus {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));

    // Set-up, several times; the last one stays up.
    let mut times = Vec::with_capacity(SETUPS);
    let mut stored = Vec::with_capacity(SETUPS);
    let mut last: Option<Setup> = None;
    for i in 0..SETUPS {
        if let Some(prev) = last.take() {
            let path = prev.path.clone();
            drop(prev);
            remove_db(&path);
        }
        let s = run_setup(
            &plan,
            &work.join(format!("db{i}.molap")),
            w != Workload::Adhoc,
        )
        .map_err(|e| format!("set-up: {e}"))?;
        times.push(s.elapsed.as_secs_f64());
        stored.push(s.stored_bytes);
        last = Some(s);
    }
    let setup = last.ok_or("no set-up ran")?;
    rep.info(format!("setup_s samples {times:?}"));
    rep.info(format!(
        "array {} B vs pool {} B ({:.2}x)",
        setup.array_bytes,
        plan.pool_bytes,
        setup.array_bytes as f64 / plan.pool_bytes as f64
    ));
    if stored.iter().any(|&b| b != stored[0]) {
        rep.problem(format!(
            "stored bytes did not repeat across set-ups: {stored:?}"
        ));
    }
    rep.put("setup_s", median(&times), "s");
    rep.put(
        "stored_bytes_per_user_byte",
        stored[0] as f64 / plan.user_bytes() as f64,
        "ratio",
    );

    match w {
        Workload::Adhoc => run_adhoc(args, &plan, setup, &mut rep)?,
        Workload::Dashboard | Workload::MixedWrites => run_wire(args, &plan, setup, &mut rep)?,
    }
    Ok(rep)
}

/// This process's CPU time and the machine's stolen time over a window.
struct HostUse {
    cpu_s: f64,
    ticks: (u64, u64),
}

impl HostUse {
    fn start() -> Self {
        HostUse {
            cpu_s: stats::process_cpu_s(),
            ticks: stats::host_ticks(),
        }
    }

    /// Prints, to help read the latencies, CPU time per completed
    /// request (server threads included) and the share of machine time
    /// the hypervisor gave to other tenants. Neither is a bounded
    /// metric: CPU time comes in 10 ms ticks, too coarse for `dashboard`.
    fn report(&self, rep: &mut Report, win: &Window) {
        let done = (win.reads.len() + win.writes.len()) as f64;
        let cpu_ms = (stats::process_cpu_s() - self.cpu_s) * 1e3;
        let (steal, total) = stats::host_ticks();
        rep.info(format!(
            "process CPU per request {:.3} ms; host steal during the window {:.1}%",
            ratio(cpu_ms, done),
            100.0
                * ratio(
                    steal.saturating_sub(self.ticks.0) as f64,
                    total.saturating_sub(self.ticks.1) as f64
                )
        ));
    }
}

/// Half the window when the run is traced: the rest is the replay.
fn window(args: &Args) -> Duration {
    let s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    Duration::from_secs_f64(s)
}

fn report_window(rep: &mut Report, win: &Window, label: &str) {
    rep.info(format!(
        "{label}: {} attempted, {} reads ({} correct), {} writes, {} wrong, {} torn, \
         {} errors ({} busy, {} deadline) in {:.3} s",
        win.attempted,
        win.reads.len(),
        win.correct_reads,
        win.writes.len(),
        win.wrong,
        win.torn,
        win.errors,
        win.busy,
        win.deadline,
        win.elapsed.as_secs_f64()
    ));
    for n in &win.notes {
        rep.info(format!("{label} failure: {n}"));
    }
    rep.count(win.attempted, win.failed());
    if win.wrong > 0 {
        rep.problem(format!("{label}: {} wrong answers", win.wrong));
    }
    if win.torn > 0 {
        rep.problem(format!("{label}: {} torn reads", win.torn));
    }
}

/// The end-to-end figures of a window.
fn report_reads(rep: &mut Report, win: &Window, rss: f64) -> Result<(), String> {
    // Throughput is the median over equal time slices of the window, so
    // a short burst of contention from outside moves it little.
    let start = win.start.ok_or("window without a start time")?;
    let slice_s = win.elapsed.as_secs_f64() / SLICES as f64;
    let slice_qps: Vec<f64> = win
        .reads
        .slices(start, win.elapsed, SLICES)
        .iter()
        .map(|l| l.len() as f64 / slice_s)
        .collect();
    rep.info(format!(
        "read replies per second by slice {:?}",
        slice_qps.iter().map(|q| q.round()).collect::<Vec<_>>()
    ));
    let correct_share = ratio(win.correct_reads as f64, win.reads.len() as f64);
    rep.put("read_qps", median(&slice_qps) * correct_share, "1/s");
    rep.put("read_p50_ms", win.reads.quantile_ms(0.50), "ms");
    rep.put("read_p90_ms", win.reads.quantile_ms(0.90), "ms");
    rep.put("read_p99_ms", win.reads.quantile_ms(0.99), "ms");
    rep.info(format!(
        "read samples {} ({} beyond p90, {} beyond p99)",
        win.reads.len(),
        win.reads.beyond(0.90),
        win.reads.beyond(0.99)
    ));
    rep.put(
        "failed_frac",
        ratio(win.failed() as f64, win.attempted as f64),
        "ratio",
    );
    if rss > 0.0 {
        rep.put("rss_mb", rss, "MiB");
    }
    Ok(())
}

fn report_writes(rep: &mut Report, win: &Window, growth: u64) {
    let secs = win.elapsed.as_secs_f64();
    let acked = win.writes.len() as f64;
    rep.put("write_commits_per_s", ratio(acked, secs), "1/s");
    rep.put("write_p50_ms", win.writes.quantile_ms(0.50), "ms");
    rep.put("write_p90_ms", win.writes.quantile_ms(0.90), "ms");
    let user = acked * batch_user_bytes();
    rep.put(
        "write_growth_per_user_byte",
        ratio(growth as f64, user),
        "ratio",
    );
}

/// User bytes one batch acknowledges: cells × (4 dims + 1 measure) × 8 B.
fn batch_user_bytes() -> f64 {
    (stream::BATCH_CELLS * 5 * 8) as f64
}

/// `dashboard` and `mixed_writes`: requests over the wire.
fn run_wire(args: &Args, plan: &CubePlan, setup: Setup, rep: &mut Report) -> Result<(), String> {
    let mixed = args.workload == Workload::MixedWrites;
    let Setup {
        path, served, cube, ..
    } = setup;
    let Served::Wire(handle) = served else {
        return Err("wire workload without a server".into());
    };
    let dash = Dashboard::new(args.seed);
    let oracle: Vec<ConsolidationResult> = {
        let engine = Oracle::build(&cube).map_err(|e| format!("oracle: {e}"))?;
        dash.stmts
            .iter()
            .map(|s| engine.answer(&s.sql))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("oracle: {e}"))?
    };
    let n_batches = if mixed {
        (BATCHES_PER_SECOND as f64 * args.seconds).ceil() as usize + 64
    } else {
        0
    };
    let (batches, prefix) = stream::write_batches(args.seed, &cube, n_batches);
    // The generator's cells are dropped before anything is timed.
    drop(cube);
    let check = if mixed {
        Check::UnderWrites {
            oracle: &oracle,
            dash: &dash,
            prefix: &prefix,
        }
    } else {
        Check::Exact(&oracle)
    };

    let addr = handle.local_addr();
    let warm = drive::warm_up(addr, &dash, &check)?;
    report_window(rep, &warm, "warm-up");
    let m0 = handle.metrics();
    let size0 = stored_len(&path);
    let host = HostUse::start();
    let win = if mixed {
        drive::mixed_window(addr, &dash, &check, &batches, 0, args.seed, window(args))?
    } else {
        drive::dashboard_window(addr, &dash, &check, args.seed, window(args))?
    };
    let rss = rss_mib();
    host.report(rep, &win);
    let growth = stored_len(&path).saturating_sub(size0);
    let m1 = handle.metrics();
    report_window(rep, &win, "window");
    report_reads(rep, &win, if args.trace { 0.0 } else { rss })?;
    if mixed {
        report_writes(rep, &win, growth);
    } else {
        put_zero(rep, WRITE_METRICS);
    }

    // Server-side view of the same window.
    let executed = (m1.queries_executed() - m0.queries_executed()) as f64;
    let coalesced = (m1.queries_coalesced - m0.queries_coalesced) as f64;
    let exec_us = ratio(
        (m1.latency_micros_total - m0.latency_micros_total) as f64,
        executed,
    );
    let roundtrip_us = win.reads.mean_us();
    rep.put("server.roundtrip_us", roundtrip_us, "us");
    rep.put("server.exec_us", exec_us, "us");
    rep.put("server.outside_exec_us", roundtrip_us - exec_us, "us");
    rep.put(
        "server.coalesced_frac",
        ratio(coalesced, executed + coalesced),
        "ratio",
    );
    rep.put(
        "server.bytes_out_per_query",
        ratio(
            (m1.bytes_out - m0.bytes_out) as f64,
            (win.reads.len() + win.writes.len()) as f64,
        ),
        "B",
    );

    // Graceful shutdown checkpoints; then every acknowledged cell must
    // read back from the reopened file.
    drop(handle);
    let acked = win.acked;
    let mut torn = win.torn;
    if mixed {
        durability_check(rep, &path, plan, &batches[..acked], prefix[acked])?;
    }
    if !args.trace {
        return Ok(());
    }

    // Traced replay on the reopened database.
    let db = Database::open(&path, plan.pool_bytes).map_err(|e| format!("reopen: {e}"))?;
    for s in &dash.stmts {
        db.sql(&s.sql, MEASURES)
            .map_err(|e| format!("replay warm-up: {e}"))?;
    }
    let queries = parse_all(&db, plan.name, dash.stmts.iter().map(|s| s.sql.as_str()))?;
    route_check(rep, &db, plan.name, &queries)?;
    let mut rng = StdRng::seed_from_u64(mix(args.seed) ^ 0x7ACE);
    let mut n = 0u64;
    let mut next_batch = acked;
    let r = replay(
        &db,
        &path,
        SALES,
        Some(&check),
        &batches,
        acked,
        window(args),
        || {
            n += 1;
            if mixed && n.is_multiple_of(REPLAY_READS_PER_WRITE + 1) && next_batch < batches.len() {
                next_batch += 1;
                return Req::Write(next_batch - 1);
            }
            if mixed && n.is_multiple_of(drive::GRAND_TOTAL_EVERY as u64) {
                return Req::Read {
                    sql: GRAND_TOTAL.to_string(),
                    stmt: None,
                    sample: None,
                };
            }
            let i = dash.draw(&mut rng);
            Req::Read {
                sql: dash.stmts[i].sql.clone(),
                stmt: Some(i),
                sample: None,
            }
        },
    );
    torn += r.torn;
    report_replay(rep, &r, torn, args)
}

/// `adhoc`: unique statements in-process from two threads.
fn run_adhoc(args: &Args, plan: &CubePlan, setup: Setup, rep: &mut Report) -> Result<(), String> {
    let Setup {
        path, served, cube, ..
    } = setup;
    let Served::Local(db) = served else {
        return Err("adhoc runs in-process".into());
    };
    drop(cube);
    let stream = Mutex::new(AdhocStream::new(args.seed));
    for _ in 0..ADHOC_WARM_UP {
        let (_, sql) = stream.lock().expect("stream lock").next_statement();
        db.sql(&sql, MEASURES)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let host = HostUse::start();
    let mut win = drive::adhoc_window(&db, &stream, args.seed, window(args));
    let rss = rss_mib();
    host.report(rep, &win);

    let mut r = Replay::default();
    if args.trace {
        let queries = {
            let mut fresh = AdhocStream::new(args.seed);
            let sqls: Vec<String> = (0..ROUTE_CHECK_STATEMENTS)
                .map(|_| fresh.next_statement().1)
                .collect();
            parse_all(&db, plan.name, sqls.iter().map(String::as_str))?
        };
        route_check(rep, &db, plan.name, &queries)?;
        let mut stream = stream.lock().expect("stream lock");
        r = replay(&db, &path, plan.name, None, &[], 0, window(args), || {
            let (idx, sql) = stream.next_statement();
            let sample = drive::sampled(args.seed, idx).then_some(idx);
            Req::Read {
                sql,
                stmt: None,
                sample,
            }
        });
    }
    drop(db);

    // Oracle check of the sampled answers, on a freshly generated cube.
    let cube = generate(&plan.spec).map_err(|e| format!("regenerate: {e}"))?;
    let engine = Oracle::build(&cube).map_err(|e| format!("oracle: {e}"))?;
    drop(cube);
    let mut checked = 0;
    let samples = win.samples.iter().chain(r.samples.iter());
    let mut wrong_in_window = 0;
    let mut wrong_in_replay = 0;
    for (k, (idx, sql, got)) in samples.enumerate() {
        let want = engine.answer(sql).map_err(|e| format!("oracle: {e}"))?;
        checked += 1;
        if digest(&want) != *got {
            rep.info(format!(
                "adhoc statement {idx} differs from the oracle: {sql}"
            ));
            if k < win.samples.len() {
                wrong_in_window += 1;
            } else {
                wrong_in_replay += 1;
            }
        }
    }
    rep.info(format!("adhoc oracle checked {checked} sampled answers"));
    win.wrong += wrong_in_window;
    win.correct_reads -= wrong_in_window;
    r.wrong += wrong_in_replay;
    report_window(rep, &win, "window");
    report_reads(rep, &win, if args.trace { 0.0 } else { rss })?;
    put_zero(rep, SERVER_METRICS);
    put_zero(rep, WRITE_METRICS);
    if args.trace {
        report_replay(rep, &r, 0, args)?;
    }
    Ok(())
}

/// Metrics only a server window measures, with their units.
const SERVER_METRICS: &[(&str, &str)] = &[
    ("server.roundtrip_us", "us"),
    ("server.exec_us", "us"),
    ("server.outside_exec_us", "us"),
    ("server.coalesced_frac", "ratio"),
    ("server.bytes_out_per_query", "B"),
];

/// Metrics only a writer measures, with their units.
const WRITE_METRICS: &[(&str, &str)] = &[
    ("write_commits_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("write_growth_per_user_byte", "ratio"),
];

/// Reports metrics of a layer the workload does not exercise as 0.
fn put_zero(rep: &mut Report, metrics: &[(&'static str, &'static str)]) {
    for &(name, unit) in metrics {
        rep.put(name, 0.0, unit);
    }
}

fn parse_all<'a>(
    db: &Database,
    name: &str,
    sqls: impl Iterator<Item = &'a str>,
) -> Result<Vec<molap_core::Query>, String> {
    let adt = db.open_olap_array(name).map_err(|e| e.to_string())?;
    sqls.map(|s| {
        molap_core::parse_query(s, adt.dims(), MEASURES)
            .map(|st| st.query)
            .map_err(|e| e.to_string())
    })
    .collect()
}

/// Resolves the same selections twice: planner route counts must repeat
/// exactly.
fn route_check(
    rep: &mut Report,
    db: &Database,
    name: &str,
    queries: &[molap_core::Query],
) -> Result<(), String> {
    let adt = db.open_olap_array(name).map_err(|e| e.to_string())?;
    let a = route_counts(&adt, queries)?;
    let b = route_counts(&adt, queries)?;
    rep.info(format!(
        "planner routes over {} statements: btree {} hbi {}",
        queries.len(),
        a.0,
        a.1
    ));
    if a != b {
        rep.problem(format!(
            "planner route counts did not repeat: {a:?} vs {b:?}"
        ));
    }
    Ok(())
}

/// Reopens the database after a graceful shutdown and reads back every
/// acknowledged cell.
fn durability_check(
    rep: &mut Report,
    path: &Path,
    plan: &CubePlan,
    acked: &[Batch],
    total: i64,
) -> Result<(), String> {
    let db = Database::open(path, plan.pool_bytes).map_err(|e| format!("reopen: {e}"))?;
    let adt = db
        .open_olap_array(plan.name)
        .map_err(|e| format!("reopen: {e}"))?;
    let cells = written_cells(acked);
    let mut lost = 0;
    for (keys, v) in &cells {
        match adt.get_by_keys(keys) {
            Ok(Some(got)) if got == [*v] => {}
            _ => lost += 1,
        }
    }
    let got_total = db
        .sql(GRAND_TOTAL, MEASURES)
        .map_err(|e| format!("reopen: {e}"))?
        .total();
    rep.info(format!(
        "durability: {} batches, {} cells read back, {lost} lost; total {got_total} (want {total})",
        acked.len(),
        cells.len()
    ));
    if lost > 0 || got_total != total {
        rep.problem(format!(
            "durability: {lost} acknowledged cells lost, total {got_total} vs {total}"
        ));
    }
    Ok(())
}

fn report_replay(rep: &mut Report, r: &Replay, torn: u64, args: &Args) -> Result<(), String> {
    let tr = r.tracer.as_ref().ok_or("replay kept no spans")?;
    let reads = r.traced_reads.len() as u64;
    rep.info(format!(
        "replay: {} attempted, {reads} traced reads, {} untraced reads, {} commits, \
         {} wrong, {} torn, {} errors, {} spans",
        r.attempted,
        r.untraced_reads.len(),
        r.commits,
        r.wrong,
        r.torn,
        r.errors,
        tr.spans.len()
    ));
    for n in &r.notes {
        rep.info(format!("replay failure: {n}"));
    }
    rep.count(r.attempted, r.failed());
    if r.wrong > 0 || r.torn > 0 {
        rep.problem(format!("replay: {} wrong, {} torn", r.wrong, r.torn));
    }
    let out = PathBuf::from(".e2ebench").join(format!(
        "trace-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    tr.write_tsv(&out)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    rep.info(format!("spans written to {}", out.display()));

    let lt = layer_times(tr, reads, r.index_calls, r.commits);
    let us = |name: &str| lt.per_read_us.get(name).copied().unwrap_or(0.0);
    rep.info(format!(
        "traced requests whose spans leave more than 5% unattributed: {}",
        lt.requests_over_5pct
    ));
    if lt.unattributed_frac > 0.05 {
        rep.problem(format!(
            "top-level spans cover only {:.1}% of traced request time",
            100.0 * (1.0 - lt.unattributed_frac)
        ));
    }
    let (q, c) = (reads as f64, r.commits as f64);
    let (io, wio) = (&r.read_io, &r.write_io);
    let per = |n: u64, d: f64| ratio(n as f64, d);
    let rate = |hits: u64, other: u64| ratio(hits as f64, (hits + other) as f64);
    let user_bytes = c * batch_user_bytes();
    let table: [(&'static str, f64, &'static str); 34] = [
        (
            "sql.parse_us",
            us("sql.extract_from") + us("sql.parse"),
            "us",
        ),
        // Dropping the handle frees what opening it built.
        (
            "catalog.open_us",
            us("catalog.open") + us("catalog.release"),
            "us",
        ),
        ("select.index_us", lt.select_call_us, "us"),
        ("write.commit_us", lt.write_commit_us, "us"),
        ("trace.unattributed_frac", lt.unattributed_frac, "ratio"),
        (
            "trace.overhead_frac",
            ratio(r.traced_reads.mean_us(), r.untraced_reads.mean_us()) - 1.0,
            "ratio",
        ),
        ("exec.hit_us", r.exec_hit.mean_us(), "us"),
        ("exec.derive_us", r.exec_derive.mean_us(), "us"),
        ("exec.miss_us", r.exec_miss.mean_us(), "us"),
        ("rescache.hit_frac", per(r.hits, q), "ratio"),
        ("rescache.derive_frac", per(r.derives, q), "ratio"),
        ("rescache.miss_frac", per(r.misses, q), "ratio"),
        (
            "rescache.evictions_per_query",
            per(io.rc_evictions, q),
            "count",
        ),
        (
            "select.route_hbi_frac",
            rate(io.route_hbi, io.route_btree),
            "ratio",
        ),
        (
            "hbi.bitmaps_read_per_probe",
            per(io.hbi_bitmaps, io.hbi_probes as f64),
            "count",
        ),
        (
            "pool.logical_reads_per_query",
            per(io.logical_reads, q),
            "count",
        ),
        (
            "pool.physical_reads_per_query",
            per(io.physical_reads, q),
            "count",
        ),
        (
            "pool.hit_rate",
            per(
                io.logical_reads.saturating_sub(io.physical_reads),
                io.logical_reads as f64,
            ),
            "ratio",
        ),
        (
            "array.chunk_cache_hit_rate",
            rate(io.chunk_hits, io.chunk_misses),
            "ratio",
        ),
        (
            "array.chunk_cache_evictions_per_query",
            per(io.chunk_evictions, q),
            "count",
        ),
        (
            "array.prefetch_hit_rate",
            per(io.prefetch_hits, io.prefetch_issued as f64),
            "ratio",
        ),
        (
            "array.prefetch_wasted_per_query",
            per(io.prefetch_wasted, q),
            "count",
        ),
        (
            "array.prefetch_queue_peak",
            r.prefetch_queue_peak as f64,
            "count",
        ),
        ("result.rows_per_query", per(r.rows, q), "count"),
        (
            "rescache.patched_per_commit",
            per(wio.rc_patched, c),
            "count",
        ),
        (
            "rescache.fallbacks_per_commit",
            per(wio.rc_fallbacks, c),
            "count",
        ),
        (
            "rescache.invalidations_per_commit",
            per(wio.rc_invalidations, c),
            "count",
        ),
        (
            "storage.page_writes_per_commit",
            per(wio.physical_writes, c),
            "count",
        ),
        (
            "storage.bytes_written_per_user_byte",
            per(wio.physical_writes * PAGE_SIZE as u64, user_bytes),
            "ratio",
        ),
        (
            "storage.file_growth_per_commit_bytes",
            per(r.file_growth, c),
            "B",
        ),
        ("write.torn_reads", torn as f64, "count"),
        ("protocol.encode_us", us("protocol.encode"), "us"),
        ("protocol.decode_us", us("protocol.decode"), "us"),
        ("catalog.fingerprint_us", us("catalog.fingerprint"), "us"),
    ];
    for (name, value, unit) in table {
        rep.put(name, value, unit);
    }
    Ok(())
}
