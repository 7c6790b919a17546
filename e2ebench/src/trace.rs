//! The traced replay: requests run in-process, one at a time, calling
//! each layer's public functions in the order the server calls them,
//! with a span around every call. Spans live in memory and are written
//! out when the run ends. One request at a time means the pool-global
//! I/O counter deltas around a request belong to that request alone.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use molap_core::sql::{extract_from, parse_query};
use molap_core::{consolidate_auto, Database, Query, WriteBatch};
use molap_server::Response;
use molap_storage::IoSnapshot;

use crate::drive::{Check, Seen, Verdict};
use crate::setup::{stored_len, MEASURES};
use crate::stats::{digest, Latencies};
use crate::stream::Batch;

/// The replay stops at this many requests even if its window has time
/// left, which bounds the span buffer and the trace file.
const MAX_REPLAY_REQUESTS: u64 = 50_000;

/// One timed call: `parent` is the enclosing span, `req` the request
/// every span of one request shares.
pub struct Span {
    pub name: &'static str,
    pub req: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            // Reserved up front so a growing buffer is never copied
            // inside a request.
            spans: Vec::with_capacity(1 << 20),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: u32) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    pub fn end(&mut self) {
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Duration of the most recently recorded span.
    fn last_dur(&self) -> Duration {
        Duration::from_nanos(self.spans.last().map_or(0, Span::dur_ns))
    }

    /// Per span: the duration of its direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.dur_ns();
            }
        }
        child
    }

    /// Writes one tab-separated line per span: request, span id,
    /// parent id (-1 for a request), name, start and end in ns since
    /// the replay began, and self time.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let child = self.child_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.req,
                s.name,
                s.start_ns,
                s.end_ns,
                s.dur_ns().saturating_sub(child[id])
            )?;
        }
        out.flush()
    }
}

/// A request of the replayed stream.
pub enum Req {
    /// A statement; `stmt` indexes the dashboard set (`None` for the
    /// grand total or an ad-hoc statement), `sample` is the ad-hoc
    /// stream index when the answer is sampled for the oracle.
    Read {
        sql: String,
        stmt: Option<usize>,
        sample: Option<usize>,
    },
    /// The batch with this index.
    Write(usize),
}

/// Sums of I/O counter deltas over requests.
#[derive(Default)]
pub struct IoSum {
    pub logical_reads: u64,
    pub physical_reads: u64,
    pub physical_writes: u64,
    pub chunk_hits: u64,
    pub chunk_misses: u64,
    pub chunk_evictions: u64,
    pub prefetch_issued: u64,
    pub prefetch_hits: u64,
    pub prefetch_wasted: u64,
    pub rc_evictions: u64,
    pub rc_invalidations: u64,
    pub rc_patched: u64,
    pub rc_fallbacks: u64,
    pub hbi_probes: u64,
    pub hbi_bitmaps: u64,
    pub route_btree: u64,
    pub route_hbi: u64,
}

impl IoSum {
    pub fn add(&mut self, d: &IoSnapshot) {
        self.logical_reads += d.logical_reads;
        self.physical_reads += d.physical_reads;
        self.physical_writes += d.physical_writes;
        self.chunk_hits += d.chunk_cache_hits;
        self.chunk_misses += d.chunk_cache_misses;
        self.chunk_evictions += d.chunk_cache_evictions;
        self.prefetch_issued += d.prefetch_issued;
        self.prefetch_hits += d.prefetch_hits;
        self.prefetch_wasted += d.prefetch_wasted;
        self.rc_evictions += d.result_cache_evictions;
        self.rc_invalidations += d.result_cache_invalidations;
        self.rc_patched += d.result_cache_patched;
        self.rc_fallbacks += d.result_cache_fallbacks;
        self.hbi_probes += d.hbi_probes;
        self.hbi_bitmaps += d.hbi_bitmaps_read;
        self.route_btree += d.planner_btree;
        self.route_hbi += d.planner_hbi;
    }
}

/// What the replay measured.
#[derive(Default)]
pub struct Replay {
    pub tracer: Option<Tracer>,
    /// Wall time of traced and of untraced read requests.
    pub traced_reads: Latencies,
    pub untraced_reads: Latencies,
    pub commits: u64,
    /// I/O deltas summed over traced reads, and over commits.
    pub read_io: IoSum,
    pub write_io: IoSum,
    /// `select.index` calls (one per selected dimension).
    pub index_calls: u64,
    /// `consolidate_auto` time by cache outcome.
    pub exec_hit: Latencies,
    pub exec_derive: Latencies,
    pub exec_miss: Latencies,
    pub hits: u64,
    pub derives: u64,
    pub misses: u64,
    pub rows: u64,
    pub file_growth: u64,
    pub prefetch_queue_peak: u64,
    pub attempted: u64,
    pub wrong: u64,
    pub torn: u64,
    pub errors: u64,
    pub acked: usize,
    pub samples: Vec<(usize, String, u64)>,
    pub notes: Vec<String>,
}

impl Replay {
    fn note(&mut self, n: String) {
        if self.notes.len() < 8 {
            self.notes.push(n);
        }
    }

    fn verdict(&mut self, v: Verdict) {
        match v {
            Verdict::Ok => {}
            Verdict::Wrong(n) => {
                self.wrong += 1;
                self.note(n);
            }
            Verdict::Torn(n) => {
                self.torn += 1;
                self.note(n);
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.torn + self.errors
    }
}

/// Replays requests from `next` on `db` (cube `name`) until `window`
/// passes. Reads alternate untraced and traced, so the two share the
/// stream's mix and cache state; the difference is the trace's own
/// cost. Writes are always traced. `acked` batches are already applied.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    db: &Database,
    path: &Path,
    name: &str,
    check: Option<&Check>,
    batches: &[Batch],
    acked: usize,
    window: Duration,
    mut next: impl FnMut() -> Req,
) -> Replay {
    let stats = db.pool().stats();
    stats.reset();
    let size_before = stored_len(path);
    let mut r = Replay {
        acked,
        ..Replay::default()
    };
    let mut tr = Tracer::new();
    let mut req_id = 0u32;
    let mut nread = 0u64;
    let deadline = Instant::now() + window;
    while Instant::now() < deadline && r.attempted < MAX_REPLAY_REQUESTS {
        r.attempted += 1;
        match next() {
            Req::Write(j) => {
                let mut batch = WriteBatch::new();
                for (keys, values) in &batches[j].rows {
                    batch.set(keys, values);
                }
                let before = stats.snapshot();
                tr.begin("request", req_id);
                let res = tr.span("write.commit", req_id, || db.write_batch(name, &batch));
                tr.end();
                req_id += 1;
                r.write_io.add(&stats.snapshot().since(&before));
                match res {
                    Ok(_) => {
                        r.commits += 1;
                        r.acked = j + 1;
                    }
                    Err(e) => {
                        r.errors += 1;
                        r.note(format!("write batch {j}: {e}"));
                        break;
                    }
                }
            }
            Req::Read { sql, stmt, sample } => {
                nread += 1;
                let seen = Seen {
                    lo: r.acked,
                    hi: r.acked,
                };
                // A seeded coin, not parity, picks the traced half, so
                // no request position in a repeating mix is favoured.
                let answer = if crate::stats::mix(nread) & 1 == 0 {
                    let t = Instant::now();
                    let out = untraced_read(db, &sql);
                    r.untraced_reads.push(t.elapsed());
                    out
                } else {
                    let t = Instant::now();
                    let out = traced_read(db, &sql, req_id, &mut tr, &mut r);
                    r.traced_reads.push(t.elapsed());
                    req_id += 1;
                    out
                };
                match answer {
                    Ok(res) => {
                        if let Some(c) = check {
                            let v = c.verdict(stmt, &res, &seen);
                            r.verdict(v);
                        }
                        if let Some(idx) = sample {
                            r.samples.push((idx, sql, digest(&res)));
                        }
                    }
                    Err(e) => {
                        r.errors += 1;
                        r.note(format!("read: {e}"));
                    }
                }
            }
        }
    }
    r.file_growth = stored_len(path).saturating_sub(size_before);
    r.prefetch_queue_peak = stats.snapshot().prefetch_queue_peak;
    r.tracer = Some(tr);
    r
}

type ReadResult = Result<molap_core::ConsolidationResult, String>;

/// The server's read path without spans: fingerprint at admission,
/// `Database::sql` on a worker, encode, and the client's decode.
fn untraced_read(db: &Database, sql: &str) -> ReadResult {
    let _ = db.query_fingerprint(sql, MEASURES);
    let res = db.sql(sql, MEASURES).map_err(|e| e.to_string())?;
    let (ft, payload) = Response::ResultSet(res).encode();
    decode(ft, &payload)
}

fn decode(ft: u8, payload: &[u8]) -> ReadResult {
    match Response::decode(ft, payload) {
        Ok(Response::ResultSet(res)) => Ok(res),
        Ok(other) => Err(format!("decoded {other:?}, not a result set")),
        Err(e) => Err(e.to_string()),
    }
}

/// The same path with a span around each layer's call.
fn traced_read(db: &Database, sql: &str, req: u32, tr: &mut Tracer, r: &mut Replay) -> ReadResult {
    let stats = db.pool().stats();
    let before = stats.snapshot();
    tr.begin("request", req);
    let out = traced_read_inner(db, sql, req, tr, r);
    tr.end();
    r.read_io.add(&stats.snapshot().since(&before));
    out
}

fn traced_read_inner(
    db: &Database,
    sql: &str,
    req: u32,
    tr: &mut Tracer,
    r: &mut Replay,
) -> ReadResult {
    let stats = db.pool().stats();
    let _ = tr.span("catalog.fingerprint", req, || {
        db.query_fingerprint(sql, MEASURES)
    });
    let name = tr
        .span("sql.extract_from", req, || extract_from(sql))
        .map_err(|e| e.to_string())?;
    let adt = tr
        .span("catalog.open", req, || db.open_olap_array(&name))
        .map_err(|e| e.to_string())?;
    let stmt = tr
        .span("sql.parse", req, || parse_query(sql, adt.dims(), MEASURES))
        .map_err(|e| e.to_string())?;
    for d in selected_dims(&stmt.query) {
        r.index_calls += 1;
        tr.span("select.index", req, || {
            adt.selection_index_list(&stmt.query, d)
        })
        .map_err(|e| e.to_string())?;
    }
    let before = stats.snapshot();
    let res = tr
        .span("exec.consolidate", req, || {
            consolidate_auto(&adt, &stmt.query)
        })
        .map_err(|e| e.to_string())?;
    let took = tr.last_dur();
    let d = stats.snapshot().since(&before);
    if d.result_cache_hits > 0 {
        r.hits += 1;
        r.exec_hit.push(took);
    } else if d.result_cache_derived > 0 {
        r.derives += 1;
        r.exec_derive.push(took);
    } else {
        r.misses += 1;
        r.exec_miss.push(took);
    }
    r.rows += res.rows().len() as u64;
    // Dropping the handle frees what opening it built: catalog work.
    tr.span("catalog.release", req, move || drop(adt));
    let (ft, payload) = tr.span("protocol.encode", req, || Response::ResultSet(res).encode());
    tr.span("protocol.decode", req, move || decode(ft, &payload))
}

/// Dimensions carrying a selection, each resolved by the index layer.
pub fn selected_dims(q: &Query) -> Vec<usize> {
    q.selections
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(d, _)| d)
        .collect()
}

/// Per-layer time from the recorded spans: mean per traced read (µs)
/// of each span name's total duration, and the share of traced request
/// time no top-level span covers.
pub struct LayerTimes {
    pub per_read_us: std::collections::HashMap<&'static str, f64>,
    pub select_call_us: f64,
    pub write_commit_us: f64,
    pub unattributed_frac: f64,
    /// Traced requests whose own gap exceeds 5 % of their wall time.
    pub requests_over_5pct: u64,
}

pub fn layer_times(tr: &Tracer, reads: u64, index_calls: u64, commits: u64) -> LayerTimes {
    let child = tr.child_ns();
    let mut totals: std::collections::HashMap<&'static str, u64> = Default::default();
    let (mut req_ns, mut gap_ns, mut over) = (0u64, 0u64, 0u64);
    for (id, s) in tr.spans.iter().enumerate() {
        if s.parent.is_none() {
            let gap = s.dur_ns().saturating_sub(child[id]);
            req_ns += s.dur_ns();
            gap_ns += gap;
            if gap * 20 > s.dur_ns() {
                over += 1;
            }
        } else {
            *totals.entry(s.name).or_default() += s.dur_ns();
        }
    }
    let per = |ns: u64, n: u64| crate::stats::ratio(ns as f64 / 1e3, n as f64);
    let per_read_us = totals
        .iter()
        .map(|(&name, &ns)| (name, per(ns, reads)))
        .collect();
    LayerTimes {
        per_read_us,
        select_call_us: per(
            totals.get("select.index").copied().unwrap_or(0),
            index_calls,
        ),
        write_commit_us: per(totals.get("write.commit").copied().unwrap_or(0), commits),
        unattributed_frac: crate::stats::ratio(gap_ns as f64, req_ns as f64),
        requests_over_5pct: over,
    }
}

/// Planner routes `(btree, hbi)` taken resolving every selected
/// dimension of `queries`: a count that must repeat exactly.
pub fn route_counts(adt: &molap_core::OlapArray, queries: &[Query]) -> Result<(u64, u64), String> {
    let stats = adt.pool().stats();
    let before = stats.snapshot();
    for q in queries {
        for d in selected_dims(q) {
            adt.selection_index_list(q, d).map_err(|e| e.to_string())?;
        }
    }
    let d = stats.snapshot().since(&before);
    Ok((d.planner_btree, d.planner_hbi))
}
