//! Long-running compile server over a persistent artifact store.
//!
//! Two modes:
//!
//! * `--prime`: compile the whole model registry once, persist every
//!   program (and the allocation-cache snapshot) to `--store`, print
//!   the batch summary and exit. Run this once per store directory.
//! * default: start the worker pool and read model names from stdin,
//!   one per line, replying `OK <model> …` per request. With
//!   `--assert-zero-solves` the process exits non-zero if any request
//!   invoked the allocator — the CI gate proving disk-warm compiles
//!   are solve-free across a real process boundary. The last line on
//!   stderr is the tally: `served=… failed=… cancelled=… rejected=…`,
//!   and with a store `store: hits=… misses=… corrupt=…
//!   verdicts_reused=…` (fetches whose payload this process had
//!   already verified).
//!
//! ```text
//! STORE=$(mktemp -d)
//! cmswitch-serve --store "$STORE" --prime
//! printf '%s\n' bert-base llama2-7b | cmswitch-serve --store "$STORE" --assert-zero-solves
//! ```

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use cmswitch_core::{ArtifactStore, CompileRequest, Session};
use cmswitch_serve::{CompileServer, ServeRequest, ServerOptions, SubmitError};

struct Args {
    store: Option<String>,
    arch: String,
    workers: usize,
    queue: usize,
    batch: usize,
    seq: usize,
    prime: bool,
    assert_zero_solves: bool,
    deadline_ms: Option<u64>,
}

const USAGE: &str = "usage: cmswitch-serve [--store DIR] [--arch dynaplasia|prime|tiny] \
[--workers N] [--queue N] [--batch N] [--seq N] [--deadline-ms N] [--prime] [--assert-zero-solves]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        store: None,
        arch: "dynaplasia".into(),
        workers: 0,
        queue: 64,
        batch: 1,
        seq: 32,
        prime: false,
        assert_zero_solves: false,
        deadline_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--store" => args.store = Some(value("--store")?),
            "--arch" => args.arch = value("--arch")?,
            "--workers" => {
                args.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue" => {
                args.queue = value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?;
            }
            "--batch" => {
                args.batch = value("--batch")?.parse().map_err(|e| format!("--batch: {e}"))?;
            }
            "--seq" => {
                args.seq = value("--seq")?.parse().map_err(|e| format!("--seq: {e}"))?;
            }
            "--deadline-ms" => {
                args.deadline_ms =
                    Some(value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?);
            }
            "--prime" => args.prime = true,
            "--assert-zero-solves" => args.assert_zero_solves = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn arch_by_name(name: &str) -> Result<cmswitch_arch::DualModeArch, String> {
    match name {
        "dynaplasia" => Ok(cmswitch_arch::presets::dynaplasia()),
        "prime" => Ok(cmswitch_arch::presets::prime()),
        "tiny" => Ok(cmswitch_arch::presets::tiny()),
        other => Err(format!("unknown arch {other} (dynaplasia|prime|tiny)")),
    }
}

fn build_session(args: &Args) -> Result<Session, String> {
    let mut builder = Session::builder(arch_by_name(&args.arch)?);
    if let Some(dir) = &args.store {
        let store: Arc<ArtifactStore> =
            ArtifactStore::open(dir.clone()).map_err(|e| format!("--store {dir}: {e}"))?;
        builder = builder.store(store);
    }
    Ok(builder.build())
}

/// `--prime`: one batch over the registry, snapshot, summary, exit.
fn prime(args: &Args) -> Result<(), String> {
    let session = build_session(args)?;
    let models = cmswitch_models::registry::build_all(args.batch, args.seq)
        .map_err(|e| format!("registry: {e:?}"))?;
    let requests: Vec<CompileRequest> = models
        .into_iter()
        .map(|(name, graph)| CompileRequest::new(graph).with_label(name))
        .collect();
    let report = session.compile_batch(&requests);
    print!("{}", report.summary());
    if args.store.is_some() {
        let entries = session
            .persist_alloc_snapshot()
            .map_err(|e| format!("snapshot: {e}"))?;
        println!("persisted allocation snapshot ({entries} entries)");
    }
    let failed = report.outcomes.iter().filter(|o| o.result.is_err()).count();
    if failed > 0 {
        return Err(format!("{failed} model(s) failed to compile"));
    }
    Ok(())
}

/// Default mode: serve model names read from stdin.
fn serve(args: &Args) -> Result<(), String> {
    let session = build_session(args)?;
    let store = session.store().cloned();
    let mut options = ServerOptions::default()
        .with_workers(args.workers)
        .with_queue_capacity(args.queue);
    if let Some(ms) = args.deadline_ms {
        options = options.with_default_deadline(Duration::from_millis(ms));
    }
    let server = CompileServer::start(session, options);

    let stdin = std::io::stdin();
    let mut violations = 0u64;
    let mut tickets = Vec::new();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let name = line.trim();
        if name.is_empty() {
            continue;
        }
        let graph = match cmswitch_models::registry::build(name, args.batch, args.seq) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("ERR {name}: {e:?}");
                violations += 1;
                continue;
            }
        };
        match server.submit(ServeRequest::new(name, graph)) {
            Ok(ticket) => tickets.push((name.to_string(), ticket)),
            Err(e @ SubmitError::QueueFull { .. }) => {
                eprintln!("ERR {name}: {e}");
                violations += 1;
            }
            Err(e) => return Err(format!("{name}: {e}")),
        }
    }
    for (name, ticket) in tickets {
        let reply = ticket.wait();
        match &reply.outcome {
            Ok(_) => {
                let solves = reply.solver_invocations();
                println!(
                    "OK {name} wall={:.1}ms queued={:.1}ms solves={solves} store={}",
                    reply.wall.as_secs_f64() * 1e3,
                    reply.queued.as_secs_f64() * 1e3,
                    if reply.store_served() { "hit" } else { "miss" },
                );
                if args.assert_zero_solves && solves > 0 {
                    eprintln!("VIOLATION {name}: {solves} solver invocation(s) on a warm store");
                    violations += 1;
                }
            }
            Err(e) => {
                eprintln!("ERR {name}: {e}");
                violations += 1;
            }
        }
    }
    let stats = server.stats();
    let mut summary = format!(
        "served={} failed={} cancelled={} rejected={}",
        stats.served, stats.failed, stats.cancelled, stats.rejected
    );
    if let Some(store) = store {
        let s = store.stats();
        summary += &format!(
            " store: hits={} misses={} corrupt={} verdicts_reused={}",
            s.hits, s.misses, s.corrupt, s.verdicts_reused
        );
    }
    eprintln!("{summary}");
    if violations > 0 {
        return Err(format!("{violations} request(s) violated expectations"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.prime { prime(&args) } else { serve(&args) };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cmswitch-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
