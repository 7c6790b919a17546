//! Seeded request streams: the dashboard statement set and its skewed
//! popularity, the unique ad-hoc statements, and the write batches.
//!
//! Everything here depends only on the workload seed (and, for write
//! batches, on the generated cube), so the same seed replays the same
//! requests in the untraced and the traced run.

use std::collections::{HashMap, HashSet};

use molap_datagen::GeneratedCube;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// Cataloged name of the Data Set 1 cube (`dashboard`, `mixed_writes`).
pub const SALES: &str = "sales";
/// Cataloged name of the selection-sweep cube (`adhoc`).
pub const SWEEP: &str = "sweep";
/// The grand total the `mixed_writes` reader polls.
pub const GRAND_TOTAL: &str = "SELECT SUM(volume) FROM sales";
/// Cells per `mixed_writes` batch.
pub const BATCH_CELLS: usize = 8;

/// Statements in the dashboard set.
const DASHBOARD_STATEMENTS: usize = 64;
/// Fixed generator seed of the dashboard set: the set is the same for
/// every workload seed, only its popularity order changes.
const DASHBOARD_SET_SEED: u64 = 0xDA5B_0A2D;
/// Zipf exponent of dashboard statement popularity.
const ZIPF_S: f64 = 1.0;

/// Uniform draw in `[0, 1)`.
pub fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// One dashboard statement and what its answer can be checked against
/// while writes run.
pub struct DashStmt {
    pub sql: String,
    /// `COUNT(volume)`: its answer does not change under the
    /// value-only writes of `mixed_writes`.
    pub is_count: bool,
    /// Has a WHERE clause; without one, a SUM's rows add up to the
    /// grand total.
    pub has_where: bool,
}

/// The dashboard statement set with seeded, Zipf-skewed popularity.
pub struct Dashboard {
    pub stmts: Vec<DashStmt>,
    /// `order[r]` is the statement at popularity rank `r`.
    order: Vec<usize>,
    /// Cumulative Zipf weights over ranks, ending at 1.
    cdf: Vec<f64>,
}

impl Dashboard {
    pub fn new(seed: u64) -> Self {
        let stmts = dashboard_statements();
        let mut order: Vec<usize> = (0..stmts.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0D0A_5B0A));
        let weights: Vec<f64> = (0..stmts.len())
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Dashboard { stmts, order, cdf }
    }

    /// Draws a statement index by popularity.
    pub fn draw(&self, rng: &mut StdRng) -> usize {
        let u = unit(rng);
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.order[rank]
    }
}

/// The Query 1 / Query 2 family on Data Set 1: group-bys on one to
/// three dimensions at `h1` or `h2`, half of them with equality or IN
/// selections on level attributes; a quarter use COUNT.
fn dashboard_statements() -> Vec<DashStmt> {
    let mut rng = StdRng::seed_from_u64(DASHBOARD_SET_SEED);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    while out.len() < DASHBOARD_STATEMENTS {
        let is_count = rng.random_bool(0.25);
        let agg = if is_count {
            "COUNT(volume)"
        } else {
            "SUM(volume)"
        };
        let mut dims: Vec<usize> = (0..4).collect();
        dims.shuffle(&mut rng);
        let ngroup = rng.random_range(1..=3usize);
        let mut grouped = dims[..ngroup].to_vec();
        grouped.sort_unstable();
        let cols: Vec<String> = grouped
            .iter()
            .map(|&d| format!("dim{d}.h{d}{}", rng.random_range(1..=2u32)))
            .collect();
        let mut preds = Vec::new();
        if rng.random_bool(0.5) {
            dims.shuffle(&mut rng);
            let nsel = rng.random_range(1..=2usize);
            let mut selected = dims[..nsel].to_vec();
            selected.sort_unstable();
            for d in selected {
                if rng.random_bool(0.5) {
                    // h2 has two values, labelled AB0 and AB1.
                    preds.push(format!("dim{d}.h{d}2 = 'AB{}'", rng.random_range(0..2u32)));
                } else {
                    let card = if d == 3 { 10 } else { 4 };
                    let mut values: Vec<u32> = (0..card).collect();
                    values.shuffle(&mut rng);
                    let n = rng.random_range(2..=3usize);
                    let mut values = values[..n].to_vec();
                    values.sort_unstable();
                    let list: Vec<String> = values.iter().map(u32::to_string).collect();
                    preds.push(format!("dim{d}.h{d}1 IN ({})", list.join(", ")));
                }
            }
        }
        let where_clause = if preds.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", preds.join(" AND "))
        };
        let sql = format!(
            "SELECT {agg}, {cols} FROM {SALES}{where_clause} GROUP BY {cols}",
            cols = cols.join(", ")
        );
        if seen.insert(sql.clone()) {
            out.push(DashStmt {
                sql,
                is_count,
                has_where: !preds.is_empty(),
            });
        }
    }
    out
}

/// Rows of the sweep cube's big dimension and distinct `dim0.h01`
/// values (`CubeSpec::selection_sweep(65536, 8192)`).
pub const SWEEP_ROWS: u32 = 65_536;
pub const SWEEP_DISTINCT: u32 = 8_192;
/// Rows of the sweep cube's small dimension.
const SWEEP_SMALL: u32 = 64;

/// The unique ad-hoc statement stream, produced in seeded order:
/// ranges of log-spread width on `dim0.h01`, IN-lists of 2–512
/// values, key points, and `dim1`-filtered consolidations grouped by
/// `dim0.h01`, in turn, so every run has the same mix of kinds.
/// Statement `i` depends only on the seed, whichever thread takes it.
pub struct AdhocStream {
    rng: StdRng,
    seen: HashSet<String>,
    produced: usize,
}

impl AdhocStream {
    pub fn new(seed: u64) -> Self {
        AdhocStream {
            rng: StdRng::seed_from_u64(seed ^ 0xAD_0C),
            seen: HashSet::new(),
            produced: 0,
        }
    }

    /// Index and text of the next statement.
    pub fn next_statement(&mut self) -> (usize, String) {
        let idx = self.produced;
        self.produced += 1;
        // The size of the j-th statement of a kind (range width, list
        // length) follows a Weyl sequence, so every run, whatever its
        // seed, spreads sizes the same way over its window; the seed
        // places them.
        let size = ((idx / 4) as f64 * 0.618_033_988_749_894_9).fract();
        loop {
            let sql = adhoc_statement(&mut self.rng, idx % 4, size);
            if self.seen.insert(sql.clone()) {
                return (idx, sql);
            }
        }
    }
}

fn in_list(rng: &mut StdRng, len: usize, domain: u32) -> String {
    let mut picked = HashSet::with_capacity(len);
    while picked.len() < len {
        picked.insert(rng.random_range(0..domain));
    }
    let mut values: Vec<u32> = picked.into_iter().collect();
    values.sort_unstable();
    let list: Vec<String> = values.iter().map(u32::to_string).collect();
    list.join(", ")
}

/// One statement of `kind`; `size` in `[0, 1)` picks its range width or
/// list length.
fn adhoc_statement(rng: &mut StdRng, kind: usize, size: f64) -> String {
    let pick = |lo: usize, hi: usize| lo + (size * (hi - lo + 1) as f64) as usize;
    match kind {
        0 => {
            let max_w = SWEEP_DISTINCT as f64;
            let w = (size * max_w.ln()).exp().floor().clamp(1.0, max_w) as u32;
            let lo = rng.random_range(0..=SWEEP_DISTINCT - w);
            format!(
                "SELECT SUM(volume), dim1.h11 FROM {SWEEP} \
                 WHERE dim0.h01 BETWEEN {lo} AND {} GROUP BY dim1.h11",
                lo + w - 1
            )
        }
        1 => {
            let len = pick(2, 512);
            format!(
                "SELECT SUM(volume), dim1.h11 FROM {SWEEP} \
                 WHERE dim0.h01 IN ({}) GROUP BY dim1.h11",
                in_list(rng, len, SWEEP_DISTINCT)
            )
        }
        2 => format!(
            "SELECT SUM(volume) FROM {SWEEP} WHERE dim0.key = {} AND dim1.key = {}",
            rng.random_range(0..SWEEP_ROWS),
            rng.random_range(0..SWEEP_SMALL)
        ),
        _ => {
            let len = pick(2, 8);
            format!(
                "SELECT SUM(volume), dim0.h01 FROM {SWEEP} \
                 WHERE dim1.key IN ({}) GROUP BY dim0.h01",
                in_list(rng, len, SWEEP_SMALL)
            )
        }
    }
}

/// One write batch: `(keys, [volume])` rows and its effect on the
/// grand total.
pub struct Batch {
    pub rows: Vec<(Vec<i64>, Vec<i64>)>,
}

/// The `mixed_writes` writer's batches, plus the grand total after
/// each prefix: `prefix[k]` is the total once batches `0..k` are
/// applied. Every batch overwrites [`BATCH_CELLS`] existing cells with
/// new values, so cell counts (and COUNT answers) never change.
pub fn write_batches(seed: u64, cube: &GeneratedCube, n: usize) -> (Vec<Batch>, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0038_17E5);
    let mut current: HashMap<usize, i64> = HashMap::new();
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(cube.total_volume());
    let mut batches = Vec::with_capacity(n);
    for _ in 0..n {
        let mut picked = HashSet::with_capacity(BATCH_CELLS);
        while picked.len() < BATCH_CELLS {
            picked.insert(rng.random_range(0..cube.cells.len()));
        }
        let mut picked: Vec<usize> = picked.into_iter().collect();
        picked.sort_unstable();
        let mut delta = 0;
        let mut rows = Vec::with_capacity(BATCH_CELLS);
        for i in picked {
            let (keys, measures) = &cube.cells[i];
            let old = current.get(&i).copied().unwrap_or(measures[0]);
            let new = rng.random_range(1..=1000i64);
            delta += new - old;
            current.insert(i, new);
            rows.push((keys.clone(), vec![new]));
        }
        prefix.push(prefix[prefix.len() - 1] + delta);
        batches.push(Batch { rows });
    }
    (batches, prefix)
}

/// Final value of every cell the first `k` batches wrote.
pub fn written_cells(batches: &[Batch]) -> HashMap<Vec<i64>, i64> {
    let mut out = HashMap::new();
    for b in batches {
        for (keys, values) in &b.rows {
            out.insert(keys.clone(), values[0]);
        }
    }
    out
}

/// True if `total` is the grand total after some prefix `k` with
/// `lo <= k <= hi` — a snapshot taken at a batch boundary that was
/// possible while the read was in flight.
pub fn admissible(prefix: &[i64], lo: usize, hi: usize, total: i64) -> bool {
    let hi = hi.min(prefix.len() - 1);
    lo <= hi && prefix[lo..=hi].contains(&total)
}
