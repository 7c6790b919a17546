//! `molap-cli` — an interactive shell over a molap database file, or
//! over a running `molap-server`.
//!
//! ```sh
//! cargo run --bin molap-cli -- /tmp/demo.molap          # embedded
//! cargo run --bin molap-cli -- --connect 127.0.0.1:7171 # remote
//! ```
//!
//! Meta commands start with a dot; anything else is parsed as a SQL
//! consolidation statement and routed by the catalog (array engine for
//! `OlapArray` objects, StarJoin for `StarSchema` objects):
//!
//! ```text
//! .tables                 list cataloged objects
//! .schema <name>          show an object's dimensions and levels (embedded only)
//! .load demo              generate + catalog a small demo star schema (embedded only)
//! .stats                  buffer-pool I/O counters (server metrics when remote)
//! .checkpoint             flush + WAL checkpoint (embedded only)
//! .ping                   round-trip liveness probe (remote only)
//! .shutdown-server        ask the server to drain and stop (remote only)
//! .quit
//! SELECT SUM(volume), dim0.h01 FROM sales GROUP BY dim0.h01
//! ```
//!
//! Exit codes: `0` success, `1` runtime failure (e.g. the database
//! file cannot be opened), `2` usage error, `3` no server reachable at
//! the `--connect` address (refused/timed out — retrying may help),
//! `4` a server answered but violated the wire protocol.

#![forbid(unsafe_code)]

use std::io::{BufRead, Write};
use std::time::Instant;

use molap::array::ChunkFormat;
use molap::core::{Database, JoinBitmapIndexes, ObjectKind, StarSchema};
use molap::datagen::{generate, AttrLayout, CubeSpec};
use molap::server::{ClientError, ServerClient};

/// What the REPL talks to: an embedded database or a remote server.
enum Backend {
    Local(Database),
    Remote(ServerClient),
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut backend = match parse_args(&args) {
        Ok(b) => b,
        Err(code) => return code,
    };

    println!("molap-cli — .help for commands");
    let stdin = std::io::stdin();
    loop {
        print!("molap> ");
        if std::io::stdout().flush().is_err() {
            eprintln!("molap-cli: stdout is gone; exiting");
            return 1;
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("molap-cli: failed to read stdin: {e}");
                return 1;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match run_command(&mut backend, line) {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => println!("error: {e}"),
        }
    }

    if let Backend::Local(db) = &backend {
        if db.is_dirty() {
            println!("checkpointing before exit");
            if let Err(e) = db.checkpoint() {
                eprintln!("molap-cli: final checkpoint failed: {e}");
                eprintln!("molap-cli: the WAL preserves committed state; reopen to recover");
                return 1;
            }
        }
    }
    0
}

fn parse_args(args: &[String]) -> Result<Backend, i32> {
    let usage = "usage: molap-cli <database-file> [--create] | molap-cli --connect <host:port>";
    if let Some(pos) = args.iter().position(|a| a == "--connect") {
        let Some(addr) = args.get(pos + 1) else {
            eprintln!("molap-cli: --connect needs an address\n{usage}");
            return Err(2);
        };
        println!("connecting to {addr}");
        // Probe with a ping so "a molap-server is draining" and "that
        // port speaks some other protocol" are caught here, not on the
        // first command.
        let probed = ServerClient::connect(addr.as_str()).and_then(|mut client| {
            client.ping()?;
            Ok(client)
        });
        match probed {
            Ok(client) => Ok(Backend::Remote(client)),
            Err(e) if e.is_unreachable() => {
                eprintln!("molap-cli: cannot connect to {addr}: {e}");
                eprintln!("molap-cli: is a molap-server running there?");
                Err(3)
            }
            Err(e) => {
                eprintln!("molap-cli: {addr} answered but the handshake failed: {e}");
                eprintln!("molap-cli: is that endpoint really a molap-server?");
                Err(4)
            }
        }
    } else {
        let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
            eprintln!("{usage}");
            return Err(2);
        };
        let create = args.iter().any(|a| a == "--create") || !std::path::Path::new(path).exists();
        let opened = if create {
            println!("creating {path}");
            Database::create(path, 64 << 20)
        } else {
            println!("opening {path}");
            Database::open(path, 64 << 20)
        };
        match opened {
            Ok(db) => Ok(Backend::Local(db)),
            Err(e) => {
                let verb = if create { "create" } else { "open" };
                eprintln!("molap-cli: cannot {verb} database {path}: {e}");
                if !create {
                    eprintln!("molap-cli: pass --create to start a fresh database file");
                }
                Err(1)
            }
        }
    }
}

/// Executes one line; returns Ok(true) to quit.
fn run_command(backend: &mut Backend, line: &str) -> Result<bool, Box<dyn std::error::Error>> {
    match line {
        ".quit" | ".exit" => return Ok(true),
        ".help" => {
            println!(
                ".tables | .schema <name> | .load demo [format] | .stats | .checkpoint | .ping | \
                 .shutdown-server | .quit\n\
                 or a SQL statement: SELECT SUM(volume), d.attr FROM <object> \
                 [WHERE d.attr = v | IN (..) | BETWEEN a AND b] [GROUP BY d.attr, ...]"
            );
        }
        ".tables" => match backend {
            Backend::Local(db) => {
                let objects = db.list();
                if objects.is_empty() {
                    println!("(catalog is empty — try `.load demo`)");
                }
                for (name, kind) in objects {
                    println!("{name:<20} {kind:?}");
                }
            }
            Backend::Remote(client) => {
                let objects = client.list_objects()?;
                if objects.is_empty() {
                    println!("(catalog is empty)");
                }
                for (name, kind) in objects {
                    println!("{name:<20} {kind}");
                }
            }
        },
        ".stats" => match backend {
            Backend::Local(db) => {
                let pool = db.pool();
                let s = pool.stats().snapshot();
                println!(
                    "logical reads {}, physical reads {} ({} sequential), writes {}",
                    s.logical_reads, s.physical_reads, s.seq_physical_reads, s.physical_writes
                );
                println!(
                    "chunk cache: {} hits / {} lookups ({:.0}% hit rate), {} evicted",
                    s.chunk_cache_hits,
                    s.chunk_cache_lookups(),
                    s.chunk_cache_hit_rate() * 100.0,
                    s.chunk_cache_evictions
                );
                println!(
                    "prefetch: {} issued, {} delivered ({:.0}% hit rate), {} wasted, queue peak {}",
                    s.prefetch_issued,
                    s.prefetch_hits,
                    s.prefetch_hit_rate() * 100.0,
                    s.prefetch_wasted,
                    s.prefetch_queue_peak
                );
                println!(
                    "result cache: {} hits, {} derived (rollup), {} misses, {} evicted, {} invalidations",
                    s.result_cache_hits,
                    s.result_cache_derived,
                    s.result_cache_misses,
                    s.result_cache_evictions,
                    s.result_cache_invalidations
                );
                println!(
                    "optimistic reads (reads/restarts/escalations): pool {}/{}/{}, btree {}/{}/{}",
                    s.opt_pool_reads,
                    s.opt_pool_restarts,
                    s.opt_pool_escalations,
                    s.opt_btree_reads,
                    s.opt_btree_restarts,
                    s.opt_btree_escalations
                );
                println!(
                    "selection planner: {} btree-routed, {} hbi-routed; hbi {} probes / {} bitmaps read",
                    s.planner_btree, s.planner_hbi, s.hbi_probes, s.hbi_bitmaps_read
                );
                let shards = pool.shard_stats();
                let (hits, misses) = shards
                    .iter()
                    .fold((0u64, 0u64), |(h, m), s| (h + s.hits, m + s.misses));
                println!(
                    "pool shards: {} shards, {hits} table hits / {misses} misses",
                    shards.len()
                );
            }
            Backend::Remote(client) => println!("{}", client.stats()?),
        },
        ".checkpoint" => match backend {
            Backend::Local(db) => {
                db.checkpoint()?;
                println!("checkpointed");
            }
            Backend::Remote(_) => {
                println!(".checkpoint is embedded-only; the server checkpoints on shutdown")
            }
        },
        cmd if cmd == ".load demo" || cmd.starts_with(".load demo ") => {
            let rest = cmd.trim_start_matches(".load demo").trim();
            let format = if rest.is_empty() {
                ChunkFormat::ChunkOffset
            } else {
                match ChunkFormat::parse(rest) {
                    Some(f) => f,
                    None => {
                        println!(
                            "unknown chunk format {rest:?}; one of: {}",
                            ChunkFormat::ALL.map(|f| f.name()).join(", ")
                        );
                        return Ok(false);
                    }
                }
            };
            match backend {
                Backend::Local(db) => load_demo(db, format)?,
                Backend::Remote(_) => {
                    println!(".load demo is embedded-only; load data on the server side")
                }
            }
        }
        ".ping" => match backend {
            Backend::Local(_) => println!("pong (embedded — nothing to ping)"),
            Backend::Remote(client) => {
                let start = Instant::now();
                client.ping()?;
                println!("pong ({:.2} ms)", start.elapsed().as_secs_f64() * 1e3);
            }
        },
        ".shutdown-server" => match backend {
            Backend::Local(_) => println!(".shutdown-server only makes sense with --connect"),
            Backend::Remote(client) => {
                client.shutdown_server()?;
                println!("server is draining; disconnecting");
                return Ok(true);
            }
        },
        cmd if cmd.starts_with(".schema") => {
            let name = cmd.trim_start_matches(".schema").trim();
            match backend {
                Backend::Local(db) => show_schema(db, name)?,
                Backend::Remote(_) => {
                    println!(".schema is embedded-only for now; .tables lists objects")
                }
            }
        }
        cmd if cmd.starts_with('.') => {
            println!("unknown command {cmd:?}; .help lists commands");
        }
        sql => {
            let start = Instant::now();
            let result = match backend {
                Backend::Local(db) => db.sql(sql, &["volume"])?,
                Backend::Remote(client) => match client.query(sql) {
                    Ok(result) => result,
                    // Query-level server errors keep the session alive.
                    Err(ClientError::Server { code, message }) => {
                        println!("server error [{code}]: {message}");
                        return Ok(false);
                    }
                    Err(e) => return Err(e.into()),
                },
            };
            let ms = start.elapsed().as_secs_f64() * 1e3;
            print!("{}", result.to_table());
            println!("({} rows in {ms:.2} ms)", result.rows().len());
        }
    }
    Ok(false)
}

fn show_schema(db: &Database, name: &str) -> molap::core::Result<()> {
    let dims = match db.list().iter().find(|(n, _)| n == name).map(|(_, k)| *k) {
        Some(ObjectKind::OlapArray) => db.open_olap_array(name)?.dims().to_vec(),
        Some(ObjectKind::StarSchema) => db.open_star_schema(name)?.dims,
        Some(ObjectKind::BitmapIndexes) => {
            println!("{name} is a bitmap index set");
            return Ok(());
        }
        None => {
            println!("no object named {name:?}");
            return Ok(());
        }
    };
    for dim in &dims {
        let levels: Vec<&str> = (0..dim.num_levels())
            .map(|l| dim.level_name(l).unwrap_or("?"))
            .collect();
        println!(
            "{} ({} rows): key, {}",
            dim.name(),
            dim.len(),
            levels.join(", ")
        );
    }
    Ok(())
}

/// Generates a small star schema and catalogs it in all three forms.
/// `format` selects the array's chunk codec (`.load demo diffseq`).
fn load_demo(db: &Database, format: ChunkFormat) -> molap::core::Result<()> {
    let spec = CubeSpec {
        dim_sizes: vec![30, 20, 16],
        level_cards: vec![vec![5, 2], vec![4, 2], vec![4, 2]],
        valid_cells: 2_000,
        seed: 7,
        n_measures: 1,
        independent_last_level: false,
        layout: AttrLayout::Blocked,
    };
    let cube = generate(&spec)?;
    let adt = cube.build_olap(db.pool().clone(), &[10, 10, 8], format)?;
    let schema = StarSchema::build(
        db.pool().clone(),
        cube.dims.clone(),
        cube.cells.iter().cloned(),
        1,
    )?;
    let indexes = JoinBitmapIndexes::build(db.pool().clone(), &schema)?;
    db.save_olap_array("sales", &adt)?;
    db.save_star_schema("sales_rel", &schema)?;
    db.save_bitmap_indexes("sales_bm", &indexes)?;
    db.checkpoint()?;
    println!(
        "loaded demo: {} cells into `sales` (array), `sales_rel` (star schema), `sales_bm`",
        cube.len()
    );
    println!("try: SELECT SUM(volume), dim0.h01 FROM sales GROUP BY dim0.h01");
    Ok(())
}
