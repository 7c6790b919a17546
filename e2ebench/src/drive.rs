//! The untraced closed-loop windows: each client sends its next
//! request only after the previous reply arrived, until the window
//! closes. Latency is timed by the client around the call.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use molap_core::{ConsolidationResult, Database};
use molap_server::{ClientError, ErrorCode, ServerClient};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::setup::MEASURES;
use crate::stats::{digest, mix, Latencies};
use crate::stream::{admissible, AdhocStream, Batch, Dashboard, GRAND_TOTAL, SALES};

/// Client connections of the wire workloads: the host's two CPUs.
pub const CLIENTS: usize = 2;
/// In-process `adhoc` threads. One: each statement already runs its
/// own prefetch threads, and a second client thread saturates both CPUs,
/// which doubles how far time stolen by the hypervisor moves latency
/// (measured on a 2-vCPU VM: about ±10% against ±5% run to run).
pub const ADHOC_CLIENTS: usize = 1;
/// Every this-many reads, the `mixed_writes` reader polls the grand
/// total.
pub const GRAND_TOTAL_EVERY: usize = 8;
/// At most this many `adhoc` answers are kept for the oracle check.
const ADHOC_SAMPLES: usize = 48;

/// What one window did.
#[derive(Default)]
pub struct Window {
    pub start: Option<Instant>,
    pub elapsed: Duration,
    /// Latency of every read that got a reply.
    pub reads: Latencies,
    /// Reads whose answer checked out.
    pub correct_reads: u64,
    /// Latency of every acknowledged write.
    pub writes: Latencies,
    pub attempted: u64,
    pub wrong: u64,
    pub torn: u64,
    pub errors: u64,
    pub busy: u64,
    pub deadline: u64,
    /// Batches acknowledged, a prefix of the batch list.
    pub acked: usize,
    pub rows: u64,
    /// Seeded sample of `(stream index, sql, answer digest)` for a
    /// later oracle check.
    pub samples: Vec<(usize, String, u64)>,
    /// First few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Window {
    pub fn failed(&self) -> u64 {
        self.wrong + self.torn + self.errors
    }

    fn merge(&mut self, o: Window) {
        self.reads.extend(o.reads);
        self.writes.extend(o.writes);
        self.correct_reads += o.correct_reads;
        self.attempted += o.attempted;
        self.wrong += o.wrong;
        self.torn += o.torn;
        self.errors += o.errors;
        self.busy += o.busy;
        self.deadline += o.deadline;
        self.acked = self.acked.max(o.acked);
        self.rows += o.rows;
        self.samples.extend(o.samples);
        for n in o.notes {
            self.note(n);
        }
    }

    fn note(&mut self, n: String) {
        if self.notes.len() < 8 {
            self.notes.push(n);
        }
    }

    fn error(&mut self, what: &str, e: &ClientError) {
        match e.server_code() {
            Some(ErrorCode::ServerBusy) => self.busy += 1,
            Some(ErrorCode::DeadlineExceeded) => self.deadline += 1,
            _ => {}
        }
        self.errors += 1;
        self.note(format!("{what}: {e}"));
    }
}

/// The answer checks a reader applies.
pub enum Check<'a> {
    /// `dashboard`: every answer equals the oracle's.
    Exact(&'a [ConsolidationResult]),
    /// `mixed_writes`: the base oracle plus the admissible grand totals
    /// after each batch prefix.
    UnderWrites {
        oracle: &'a [ConsolidationResult],
        dash: &'a Dashboard,
        prefix: &'a [i64],
    },
}

/// What a `mixed_writes` read may have seen: batches `lo..=hi`.
pub struct Seen {
    pub lo: usize,
    pub hi: usize,
}

pub enum Verdict {
    Ok,
    Wrong(String),
    Torn(String),
}

impl Check<'_> {
    /// Checks the answer to statement `stmt` (`None`: the grand total).
    pub fn verdict(&self, stmt: Option<usize>, got: &ConsolidationResult, seen: &Seen) -> Verdict {
        match (self, stmt) {
            (Check::Exact(oracle), Some(i)) => {
                if got == &oracle[i] {
                    Verdict::Ok
                } else {
                    Verdict::Wrong(format!("statement {i} differs from the oracle"))
                }
            }
            (Check::UnderWrites { prefix, .. }, None) => {
                if admissible(prefix, seen.lo, seen.hi, got.total()) {
                    Verdict::Ok
                } else {
                    Verdict::Torn(format!(
                        "grand total {} is no batch boundary in {}..={}",
                        got.total(),
                        seen.lo,
                        seen.hi
                    ))
                }
            }
            (
                Check::UnderWrites {
                    oracle,
                    dash,
                    prefix,
                },
                Some(i),
            ) => {
                let want = &oracle[i];
                let stmt = &dash.stmts[i];
                if stmt.is_count {
                    return if got == want {
                        Verdict::Ok
                    } else {
                        Verdict::Wrong(format!("COUNT statement {i} differs from the oracle"))
                    };
                }
                let same_groups = got.columns() == want.columns()
                    && got.rows().len() == want.rows().len()
                    && got
                        .rows()
                        .iter()
                        .zip(want.rows())
                        .all(|(a, b)| a.keys == b.keys);
                if !same_groups {
                    return Verdict::Wrong(format!("statement {i} has the wrong groups"));
                }
                if !stmt.has_where && !admissible(prefix, seen.lo, seen.hi, got.total()) {
                    return Verdict::Torn(format!(
                        "statement {i} sums to {}, no batch boundary in {}..={}",
                        got.total(),
                        seen.lo,
                        seen.hi
                    ));
                }
                Verdict::Ok
            }
            (Check::Exact(_), None) => Verdict::Wrong("grand total without writes".into()),
        }
    }
}

fn connect(addr: SocketAddr) -> Result<ServerClient, String> {
    ServerClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn record(w: &mut Window, verdict: Verdict) {
    match verdict {
        Verdict::Ok => w.correct_reads += 1,
        Verdict::Wrong(n) => {
            w.wrong += 1;
            w.note(n);
        }
        Verdict::Torn(n) => {
            w.torn += 1;
            w.note(n);
        }
    }
}

/// Runs each statement once over one connection, checking answers:
/// the warm-up that fills the result cache before a dashboard window.
pub fn warm_up(addr: SocketAddr, dash: &Dashboard, check: &Check) -> Result<Window, String> {
    let mut client = connect(addr)?;
    let mut w = Window::default();
    let seen = Seen { lo: 0, hi: 0 };
    for (i, stmt) in dash.stmts.iter().enumerate() {
        w.attempted += 1;
        let t = Instant::now();
        match client.query_with_measures(&stmt.sql, MEASURES) {
            Ok(res) => {
                w.reads.push(t.elapsed());
                record(&mut w, check.verdict(Some(i), &res, &seen));
            }
            Err(e) => w.error("warm-up", &e),
        }
    }
    Ok(w)
}

/// `dashboard`: [`CLIENTS`] connections draw statements by popularity.
pub fn dashboard_window(
    addr: SocketAddr,
    dash: &Dashboard,
    check: &Check,
    seed: u64,
    window: Duration,
) -> Result<Window, String> {
    let clients = (0..CLIENTS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + window;
    let parts: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(mix(seed) ^ c as u64);
                    let mut w = Window::default();
                    let seen = Seen { lo: 0, hi: 0 };
                    while Instant::now() < deadline {
                        let i = dash.draw(&mut rng);
                        w.attempted += 1;
                        let t = Instant::now();
                        let reply = client.query_with_measures(&dash.stmts[i].sql, MEASURES);
                        let took = t.elapsed();
                        match reply {
                            Ok(res) => {
                                w.reads.push(took);
                                w.rows += res.rows().len() as u64;
                                record(&mut w, check.verdict(Some(i), &res, &seen));
                            }
                            Err(e) => w.error("read", &e),
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dashboard client thread panicked"))
            .collect()
    });
    let mut total = Window {
        start: Some(start),
        elapsed: start.elapsed(),
        ..Window::default()
    };
    for p in parts {
        total.merge(p);
    }
    Ok(total)
}

/// `mixed_writes`: one connection commits `batches` in order, the other
/// runs the dashboard mix plus a periodic grand total. `first` is the
/// index of the first batch to send (earlier ones are already applied).
pub fn mixed_window(
    addr: SocketAddr,
    dash: &Dashboard,
    check: &Check,
    batches: &[Batch],
    first: usize,
    seed: u64,
    window: Duration,
) -> Result<Window, String> {
    let mut writer = connect(addr)?;
    let mut reader = connect(addr)?;
    let sent = AtomicUsize::new(first);
    let acked = AtomicUsize::new(first);
    let start = Instant::now();
    let deadline = start + window;
    let (wr, rd) = std::thread::scope(|s| {
        let wh = s.spawn(|| {
            let mut w = Window::default();
            for (j, batch) in batches.iter().enumerate().skip(first) {
                if Instant::now() >= deadline {
                    break;
                }
                w.attempted += 1;
                sent.store(j + 1, Ordering::SeqCst);
                let t = Instant::now();
                match writer.write(SALES, &batch.rows) {
                    Ok(_) => {
                        w.writes.push(t.elapsed());
                        acked.store(j + 1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        // Later prefixes assume this batch applied:
                        // stop writing rather than guess.
                        w.error("write", &e);
                        break;
                    }
                }
            }
            if batches.len() == acked.load(Ordering::SeqCst) {
                w.note("write batches ran out before the window closed".into());
            }
            w.acked = acked.load(Ordering::SeqCst);
            w
        });
        let rh = s.spawn(|| {
            let mut rng = StdRng::seed_from_u64(mix(seed) ^ 0x5EAD);
            let mut w = Window::default();
            let mut n = 0usize;
            while Instant::now() < deadline {
                n += 1;
                let stmt = (!n.is_multiple_of(GRAND_TOTAL_EVERY)).then(|| dash.draw(&mut rng));
                let sql = stmt.map_or(GRAND_TOTAL, |i| dash.stmts[i].sql.as_str());
                w.attempted += 1;
                let lo = acked.load(Ordering::SeqCst);
                let t = Instant::now();
                let reply = reader.query_with_measures(sql, MEASURES);
                let took = t.elapsed();
                let hi = sent.load(Ordering::SeqCst);
                match reply {
                    Ok(res) => {
                        w.reads.push(took);
                        w.rows += res.rows().len() as u64;
                        record(&mut w, check.verdict(stmt, &res, &Seen { lo, hi }));
                    }
                    Err(e) => w.error("read", &e),
                }
            }
            w
        });
        (
            wh.join().expect("writer thread panicked"),
            rh.join().expect("reader thread panicked"),
        )
    });
    let mut total = Window {
        start: Some(start),
        elapsed: start.elapsed(),
        ..Window::default()
    };
    total.merge(wr);
    total.merge(rd);
    Ok(total)
}

/// `adhoc`: [`ADHOC_CLIENTS`] in-process threads take the next unique
/// statement and run it through `Database::sql`. A seeded sample of
/// answers is kept for the oracle.
pub fn adhoc_window(
    db: &Database,
    stream: &Mutex<AdhocStream>,
    seed: u64,
    window: Duration,
) -> Window {
    let start = Instant::now();
    let deadline = start + window;
    let parts: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ADHOC_CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut w = Window::default();
                    while Instant::now() < deadline {
                        let (idx, sql) = stream
                            .lock()
                            .expect("statement stream lock poisoned")
                            .next_statement();
                        w.attempted += 1;
                        let t = Instant::now();
                        let reply = db.sql(&sql, MEASURES);
                        let took = t.elapsed();
                        match reply {
                            Ok(res) => {
                                w.reads.push(took);
                                w.correct_reads += 1;
                                w.rows += res.rows().len() as u64;
                                if sampled(seed, idx) {
                                    w.samples.push((idx, sql, digest(&res)));
                                }
                            }
                            Err(e) => {
                                w.errors += 1;
                                w.note(format!("adhoc statement {idx}: {e}"));
                            }
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("adhoc client thread panicked"))
            .collect()
    });
    let mut total = Window {
        start: Some(start),
        elapsed: start.elapsed(),
        ..Window::default()
    };
    for p in parts {
        total.merge(p);
    }
    total.samples.sort_by_key(|(i, _, _)| *i);
    total.samples.truncate(ADHOC_SAMPLES);
    total
}

/// The seeded sample: about one statement in 32.
pub fn sampled(seed: u64, idx: usize) -> bool {
    mix(seed ^ mix(idx as u64)).is_multiple_of(32)
}
