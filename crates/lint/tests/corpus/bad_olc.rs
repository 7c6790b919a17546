//@ path: crates/storage/src/corpus_olc.rs
//! Corpus: optimistic-concurrency misuse. The version-word idiom gives
//! the lint three new things to catch: I/O inside an optimistic read
//! span (`olc-io`), escalation that inverts the declared order while
//! still holding the version word's exclusive side (`lock-order`), and
//! a pragma that claims to excuse an `olc-io` which no longer exists
//! (`lint-pragma`).

use std::io::Write;
use std::sync::Mutex;

use crate::olc::OptLock;

pub struct Shard {
    pub tree: Mutex<Vec<u32>>,
    pub tree_v: OptLock,
}

pub struct StripedTree {
    pub tree_v: [OptLock; 4],
}

/// The escalation anti-pattern: after too many conflicts the reader
/// grabs the shard mutex *while still holding the version word's
/// exclusive side* — the writer path takes `tree` before `tree_v`,
/// so this deadlocks ABBA against every writer. Escalation must drop
/// the version guard first (or never hold one, like the B-tree probe).
pub fn escalate_while_holding_version(s: &Shard) -> usize {
    let _v = s.tree_v.lock_exclusive();
    let g = s.tree.lock(); //~ lock-order
    g.len()
}

/// I/O inside the restart loop: the span's reads are provisional until
/// validation, so the write may act on torn bytes and repeats on every
/// restart of the retry loop.
pub fn log_inside_span(s: &Shard, out: &mut std::net::TcpStream) {
    let Some(guard) = s.tree_v.begin_optimistic() else {
        return;
    };
    out.write_all(b"probe").ok(); //~ olc-io
    let _ = guard.validate();
}

/// Same bug one call deep, behind an indexed receiver: the span opens
/// on a `tree_v` stripe and the helper's I/O effect propagates back to
/// the callsite inside it.
pub fn log_under_striped_span(t: &StripedTree, out: &mut std::net::TcpStream) {
    let Some(_guard) = t.tree_v[0].begin_optimistic() else {
        return;
    };
    tick(out); //~ olc-io
}

fn tick(out: &mut std::net::TcpStream) {
    out.write_all(b"tick").ok();
}

/// A pinned version number (guard confirmed and dropped within its
/// statement) is the *correct* deferred-I/O idiom: nothing fires.
pub fn pin_then_io_is_fine(s: &Shard, out: &mut std::net::TcpStream) -> Option<()> {
    let seen = s.tree_v.begin_optimistic()?.confirm()?;
    out.write_all(b"fetched").ok();
    if s.tree_v.still_valid(seen) {
        Some(())
    } else {
        None
    }
}

/// The span here closes before the I/O runs, so the pragma below
/// excuses nothing — the stale claim is itself the finding.
pub fn stale_olc_allow(s: &Shard, out: &mut std::net::TcpStream) {
    if let Some(guard) = s.tree_v.begin_optimistic() {
        let _ = guard.validate();
    }
    // lint:allow(olc-io): nothing below runs inside a span anymore — kept to prove stale detection //~ lint-pragma
    out.write_all(b"done").ok();
}
