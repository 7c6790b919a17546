//! Timed set-up (generate, build, catalog, checkpoint, start the
//! server) and the independent oracle.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use molap_core::sql::parse_query;
use molap_core::{starjoin_consolidate, ChunkFormat, ConsolidationResult, Database, StarSchema};
use molap_datagen::{generate, CubeSpec, GeneratedCube};
use molap_server::{Server, ServerConfig, ServerHandle};
use molap_storage::{BufferPool, MemDisk};

use crate::stats::file_len;
use crate::stream::{SALES, SWEEP};
use crate::Workload;

/// The paper's buffer pool (§5): Data Set 1's ≈ 7.7 MB array fits.
const PAPER_POOL_BYTES: usize = 16 << 20;
/// The `adhoc` pool: the ≈ 6.3 MB sweep array is ≈ 1.5× this.
const ADHOC_POOL_BYTES: usize = 4 << 20;
/// Pool for the oracle's in-memory star schema: large enough that the
/// oracle never pages.
const ORACLE_POOL_BYTES: usize = 96 << 20;

/// The measure columns every statement names.
pub const MEASURES: &[&str] = &["volume"];

/// What a workload's cube looks like and where it lives.
pub struct CubePlan {
    pub spec: CubeSpec,
    pub chunk_dims: Vec<u32>,
    pub pool_bytes: usize,
    pub name: &'static str,
}

impl CubePlan {
    pub fn for_workload(w: Workload) -> Self {
        match w {
            Workload::Dashboard | Workload::MixedWrites => CubePlan {
                spec: CubeSpec::dataset1(100),
                chunk_dims: vec![20, 20, 20, 10],
                pool_bytes: PAPER_POOL_BYTES,
                name: SALES,
            },
            Workload::Adhoc => CubePlan {
                spec: CubeSpec::selection_sweep(
                    crate::stream::SWEEP_ROWS,
                    crate::stream::SWEEP_DISTINCT,
                ),
                chunk_dims: vec![crate::stream::SWEEP_ROWS / 64, 16],
                pool_bytes: ADHOC_POOL_BYTES,
                name: SWEEP,
            },
        }
    }

    /// User bytes of the cube: valid cells × (dims + measures) × 8 B.
    pub fn user_bytes(&self) -> u64 {
        self.spec.valid_cells * (self.spec.dim_sizes.len() + self.spec.n_measures) as u64 * 8
    }
}

/// The database a workload runs on: served over the wire, or held
/// in-process.
pub enum Served {
    Wire(ServerHandle),
    Local(Database),
}

/// One completed set-up.
pub struct Setup {
    pub path: PathBuf,
    pub served: Served,
    pub cube: GeneratedCube,
    pub elapsed: Duration,
    /// Database file + WAL right after the checkpoint.
    pub stored_bytes: u64,
    /// Array bytes as built (for the array-vs-pool figure).
    pub array_bytes: u64,
}

pub fn wal_path(db: &Path) -> PathBuf {
    let mut p = db.as_os_str().to_owned();
    p.push(".wal");
    PathBuf::from(p)
}

/// Database file plus WAL, in bytes.
pub fn stored_len(db: &Path) -> u64 {
    file_len(db) + file_len(&wal_path(db))
}

pub fn remove_db(db: &Path) {
    let _ = std::fs::remove_file(db);
    let _ = std::fs::remove_file(wal_path(db));
}

/// Runs the set-up once: generate the cube, build the array, catalog
/// it, checkpoint, and (for wire workloads) start the server. The
/// whole sequence is timed.
pub fn run_setup(plan: &CubePlan, path: &Path, wire: bool) -> molap_core::Result<Setup> {
    remove_db(path);
    let start = Instant::now();
    let cube = generate(&plan.spec)?;
    let db = Database::create(path, plan.pool_bytes)?;
    let adt = cube.build_olap(
        db.pool().clone(),
        &plan.chunk_dims,
        ChunkFormat::ChunkOffset,
    )?;
    let array_bytes = adt.array_bytes();
    db.save_olap_array(plan.name, &adt)?;
    drop(adt);
    db.checkpoint()?;
    let served = if wire {
        // Default config: min(nproc, 8) workers, and a 64-deep queue
        // that two closed-loop clients never fill.
        let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| molap_core::Error::Data(format!("server start: {e}")))?;
        Served::Wire(handle)
    } else {
        Served::Local(db)
    };
    let elapsed = start.elapsed();
    Ok(Setup {
        path: path.to_path_buf(),
        served,
        cube,
        elapsed,
        stored_bytes: stored_len(path),
        array_bytes,
    })
}

/// The independent engine answers are checked against: the StarJoin
/// over a fact file built from the same cells, on its own in-memory
/// pool.
pub struct Oracle {
    schema: StarSchema,
}

impl Oracle {
    pub fn build(cube: &GeneratedCube) -> molap_core::Result<Self> {
        let pool = Arc::new(BufferPool::with_bytes(
            Arc::new(MemDisk::new()),
            ORACLE_POOL_BYTES,
        ));
        let schema = StarSchema::build(
            pool,
            cube.dims.clone(),
            cube.cells.iter().cloned(),
            cube.spec.n_measures,
        )?;
        Ok(Oracle { schema })
    }

    pub fn answer(&self, sql: &str) -> molap_core::Result<ConsolidationResult> {
        let stmt = parse_query(sql, &self.schema.dims, MEASURES)?;
        starjoin_consolidate(&self.schema, &stmt.query)
    }
}
