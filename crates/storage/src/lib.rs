//! SHORE-lite: a paged storage substrate for the OLAP array / relational
//! comparison.
//!
//! The 1998 paper runs every competitor — the chunked OLAP array, the
//! relational fact file, the per-dimension B-trees, and the bitmap join
//! indices — on the same storage manager (SHORE) so that the comparison
//! isolates the *data layout and algorithm*, not the I/O stack. This
//! crate plays SHORE's role for the reproduction:
//!
//! * fixed-size **pages** ([`PAGE_SIZE`] = 8 KiB) addressed by [`PageId`];
//! * pluggable **disk managers** ([`FileDisk`], [`MemDisk`]) behind the
//!   [`DiskManager`] trait, both supporting *contiguous extent
//!   allocation* (the fact file's page-arithmetic depends on it);
//! * a **clock buffer pool** ([`BufferPool`]) with pin/unpin page guards,
//!   dirty write-back, and a configurable frame budget (the paper uses a
//!   16 MB pool, see [`BufferPool::with_bytes`]);
//! * a **large-object store** ([`LobStore`]) used for variable-length
//!   array chunks, mirroring SHORE large objects;
//! * **I/O statistics** ([`IoStats`]) — logical and physical page reads
//!   and writes — which the benchmark harness reports alongside wall
//!   time, because 1997 wall-clock numbers are not reproducible but I/O
//!   volume is.
//!
//! Recovery and concurrency control are out of scope: the paper inherits
//! them from SHORE but never measures them. The pool is nonetheless
//! thread-safe (frames are individually latched) so the optional
//! parallel chunk-scan extension can share it.
//!
//! # Example
//!
//! ```
//! use molap_storage::{BufferPool, MemDisk, PAGE_SIZE};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
//! let pid = pool.allocate_pages(1).unwrap();
//! {
//!     let mut page = pool.create_page(pid).unwrap();
//!     page[0] = 0xAB;
//! }
//! let page = pool.fetch(pid).unwrap();
//! assert_eq!(page[0], 0xAB);
//! assert_eq!(page.len(), PAGE_SIZE);
//! ```

#![forbid(unsafe_code)]
// Panic-freedom is enforced twice: molap-lint's `panic-freedom` rule in
// CI scripts, and clippy's lints for anyone running `cargo clippy`.
// Tests are exempt (unwrap in a test is the assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod disk;
mod error;
mod lob;
pub mod olc;
mod page;
mod pool;
mod stats;
pub mod util;
mod wal;

pub use disk::{DiskManager, FileDisk, MemDisk};
pub use error::{Result, StorageError};
pub use lob::{LobId, LobStore};
pub use olc::{AtomicIndex, ExclusiveOptGuard, OptLock, OptimisticGuard, MAX_RESTARTS};
pub use page::{PageBuf, PageId, INVALID_PAGE, PAGE_SIZE};
pub use pool::{BufferPool, PageMut, PageRef};
pub use stats::{IoSnapshot, IoStats, ShardStats};
pub use wal::{validate_wal_path, Wal};
