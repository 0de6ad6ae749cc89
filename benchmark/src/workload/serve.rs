//! `warm_serve` and `mixed_serve`: a `CompileServer` over an artifact
//! store, driven by closed-loop clients.
//!
//! Two client threads each submit their next request only after the
//! previous reply arrived, so at most two requests are in flight against
//! two server workers and — a client blocked in `Ticket::wait` being
//! asleep — at most two threads are runnable, which is what the 2-core
//! sandbox has. A closed loop builds no queue, so `serve.queue_wait_*`
//! measures the hand-off between threads, not backlog.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cmswitch::arch::DualModeArch;
use cmswitch::compiler::{
    ArtifactStore, CompilerOptions, Session, StoreFetch, StoreKey, StoreStats, Verifier,
};
use cmswitch::graph::Graph;
use cmswitch::models::registry;
use cmswitch::prelude::presets;
use cmswitch::serve::{CompileServer, ServeReply, ServeRequest, ServerOptions, ServerStats};

use super::{
    cimmlc_cycles, count_compile, layers_of, open_store, ratio, timed, Layers, Mode, Pass,
    Reference, Workload,
};
use crate::check::{self, check_program};
use crate::probe;
use crate::rng::{hash_labels, Rng};
use crate::stats::{median, percentile};
use crate::trace::Recorder;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// How often a client requests each of its keys in a pass (see `deal`):
/// 2 clients x 9 keys x 6 = 108 requests for `warm_serve`; for
/// `mixed_serve` 2 x (10 primed + 7 of the 14 others) x 2 = 68.
const REPEATS_WARM: usize = 6;
const REPEATS_MIXED: usize = 2;
const MIXED_SEQS: [usize; 4] = [16, 32, 48, 64];

struct Key {
    label: String,
    graph: Graph,
    store_key: StoreKey,
}

pub struct Serve {
    mixed: bool,
    arch: DualModeArch,
    options: CompilerOptions,
    /// Keys in their fixed order; the reference follows it.
    keys: Vec<Key>,
    reference: Reference,
    setup_layers: Layers,
    /// Every key's program, compiled cold during set-up.
    full: Arc<ArtifactStore>,
    /// Which keys a `mixed_serve` pass finds in its store at the start.
    primed: Vec<bool>,
    /// The key each client requests, in order.
    draws: Vec<Vec<usize>>,
    /// `warm_serve` keeps one server for the run; `mixed_serve` starts
    /// one per pass over a fresh half-primed store.
    server: Option<CompileServer>,
    scratch: PathBuf,
    passes: usize,
}

fn keys(mixed: bool, arch: &DualModeArch, options: &CompilerOptions) -> Result<Vec<Key>, String> {
    let mut named = Vec::new();
    for &model in registry::ALL_MODELS {
        let seqs: &[usize] = match (mixed, registry::transformer_config(model)) {
            (true, Some(_)) => &MIXED_SEQS,
            _ => &[32],
        };
        for &seq in seqs {
            let label = if seqs.len() > 1 {
                format!("{model}@{seq}")
            } else {
                model.to_string()
            };
            named.push((
                label,
                registry::build(model, 1, seq).map_err(|e| e.to_string())?,
            ));
        }
    }
    Ok(named
        .into_iter()
        .map(|(label, graph)| Key {
            store_key: StoreKey::for_compile(arch, "cmswitch", options, &graph),
            label,
            graph,
        })
        .collect())
}

/// Which keys a `mixed_serve` pass finds in its store: of every model
/// that has several keys (`model@seq`), a seeded half. Models with one
/// key — the CNNs — never start primed: their cold compiles differ
/// twentyfold in cost, and a seeded choice among them would make the work
/// of a run depend on its seed.
fn primed_half(labels: &[&str], rng: &mut Rng) -> Vec<bool> {
    let model = |label: &str| label.split('@').next().map(str::to_string);
    let mut primed = vec![false; labels.len()];
    let mut at = 0;
    while at < labels.len() {
        let n = labels[at..]
            .iter()
            .take_while(|l| model(l) == model(labels[at]))
            .count();
        let mut members: Vec<usize> = (at..at + n).collect();
        rng.shuffle(&mut members);
        if n > 1 {
            members[..n / 2].iter().for_each(|&i| primed[i] = true);
        }
        at += n;
    }
    primed
}

/// Each client's request list, built so that the seed decides the order
/// of a pass and nothing else about it.
///
/// * Every client requests every key the store holds at the start
///   (`served`) `repeats` times: equal work for the clients, whatever the
///   seed. (One shuffled list dealt to both made the slower client's
///   share, and so the pass's wall, depend on the seed.)
/// * The keys the store lacks (`missing`) are dealt to the clients in
///   turn and each requested by its one client only, `repeats` times: a
///   pass compiles each exactly once. Requested by both clients, a key
///   compiled once or twice depending on whether the two first requests
///   raced, and `latency_p95_ms` moved between 52 and 89 ms with it.
fn deal(served: &[usize], missing: &[usize], repeats: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    (0..CLIENTS)
        .map(|client| {
            let own = missing.iter().skip(client).step_by(CLIENTS);
            let mut draws: Vec<usize> = served
                .iter()
                .chain(own)
                .flat_map(|&k| std::iter::repeat_n(k, repeats))
                .collect();
            rng.shuffle(&mut draws);
            draws
        })
        .collect()
}

fn start_server(
    arch: &DualModeArch,
    options: &CompilerOptions,
    store: Arc<ArtifactStore>,
) -> CompileServer {
    let session = Session::builder(arch.clone())
        .options(options.clone())
        .store(store)
        .build();
    CompileServer::start(
        session,
        ServerOptions::default()
            .with_workers(WORKERS)
            .with_queue_capacity(CLIENTS),
    )
}

impl Serve {
    pub fn setup(mixed: bool, seed: u64, scratch: &Path) -> Result<Self, String> {
        let arch = presets::dynaplasia();
        let options = check::options();
        let (keys, build_s) = timed(|| keys(mixed, &arch, &options));
        let keys = keys?;

        // Prime the full store with one cold compile per key; the
        // programs it holds are the reference every reply is held to.
        let full_dir = scratch.join("full");
        let full = open_store(&full_dir)?;
        let primer = Session::builder(arch.clone())
            .options(options.clone())
            .workers(1)
            .store(Arc::clone(&full))
            .build();
        let mut reference = Reference::default();
        for key in &keys {
            let program = primer
                .compile_graph(&key.graph)
                .map_err(|e| format!("priming {}: {e}", key.label))?;
            reference
                .facts
                .push(check_program(&program, &arch).map_err(|e| format!("{}: {e}", key.label))?);
        }
        primer
            .persist_alloc_snapshot()
            .map_err(|e| format!("allocation snapshot: {e}"))?;
        let (cimmlc, cimmlc_s) = timed(|| {
            keys.iter()
                .map(|k| cimmlc_cycles(&arch, &k.graph))
                .collect::<Result<Vec<_>, _>>()
        });
        reference.cimmlc_cycles = cimmlc?;

        let mut rng = Rng::new(seed, 2);
        let labels: Vec<&str> = keys.iter().map(|k| k.label.as_str()).collect();
        let primed = if mixed {
            primed_half(&labels, &mut rng)
        } else {
            vec![false; keys.len()]
        };
        let (served, missing): (Vec<usize>, Vec<usize>) =
            (0..keys.len()).partition(|&k| !mixed || primed[k]);
        let repeats = if mixed { REPEATS_MIXED } else { REPEATS_WARM };
        let draws = deal(&served, &missing, repeats, &mut rng);

        // A second handle on the same directory, so the server's store
        // counters start at zero.
        let server = if mixed {
            None
        } else {
            Some(start_server(&arch, &options, open_store(&full_dir)?))
        };
        let mut setup_layers =
            super::setup_layers(build_s, keys.iter().map(|k| &k.graph), cimmlc_s);
        reference.plan_layers(&mut setup_layers);
        Ok(Serve {
            mixed,
            arch,
            options,
            keys,
            reference,
            setup_layers,
            full,
            primed,
            draws,
            server,
            scratch: scratch.to_path_buf(),
            passes: 0,
        })
    }

    /// A fresh store holding only the primed keys' programs — and no
    /// allocation snapshot, so the others compile with real solves.
    fn half_primed_store(&self, dir: &Path) -> Result<Arc<ArtifactStore>, String> {
        let store = open_store(dir)?;
        for (key, _) in self.keys.iter().zip(&self.primed).filter(|(_, &p)| p) {
            std::fs::copy(
                self.full.program_path(key.store_key),
                store.program_path(key.store_key),
            )
            .map_err(|e| format!("priming {}: {e}", key.label))?;
        }
        Ok(store)
    }
}

/// What one client saw of one pass.
#[derive(Default)]
struct ClientLog {
    wall_ms: Vec<f64>,
    queued_ms: Vec<f64>,
    failures: Vec<String>,
    store_served: usize,
    solves: u64,
    recorder: Option<Recorder>,
}

/// The stores a traced client replays its replies against: a second
/// handle on the served store (so the server's own counters stay clean)
/// and a sink for replayed writes.
struct Replay {
    served: Arc<ArtifactStore>,
    sink: Arc<ArtifactStore>,
}

impl Serve {
    fn check_reply(&self, key: usize, reply: &ServeReply, mode: Mode) -> Result<(), String> {
        let outcome = reply.outcome.as_ref().map_err(|e| e.to_string())?;
        let facts = &self.reference.facts[key];
        let same = match mode {
            Mode::Warmup => facts.same_bytes(&outcome.program),
            _ => facts.same_plan(&outcome.program),
        };
        if !same {
            return Err("served plan differs from the cold-compiled reference".into());
        }
        if !self.mixed && (!reply.store_served() || reply.solver_invocations() > 0) {
            return Err(format!(
                "a warm request must come from the store with no solves (store: {}, solves: {})",
                reply.store_served(),
                reply.solver_invocations()
            ));
        }
        Ok(())
    }

    /// One client's pass: under a `client` root span when traced.
    fn client(
        &self,
        server: &CompileServer,
        client: usize,
        requests: Vec<ServeRequest>,
        mode: Mode,
        replay: Option<(&Replay, Instant)>,
    ) -> ClientLog {
        let mut log = ClientLog::default();
        match replay {
            Some((stores, epoch)) => {
                let mut rec = Recorder::new(epoch, client as u32 + 1);
                rec.span("client", client as u32, |rec| {
                    self.requests(
                        server,
                        client,
                        requests,
                        mode,
                        &mut log,
                        Some((stores, rec)),
                    );
                });
                log.recorder = Some(rec);
            }
            None => self.requests(server, client, requests, mode, &mut log, None),
        }
        log
    }

    fn requests(
        &self,
        server: &CompileServer,
        client: usize,
        requests: Vec<ServeRequest>,
        mode: Mode,
        log: &mut ClientLog,
        mut traced: Option<(&Replay, &mut Recorder)>,
    ) {
        let draws = &self.draws[client];
        for (n, (&key, request)) in draws.iter().zip(requests).enumerate() {
            let label = &self.keys[key].label;
            let submitted = Instant::now();
            let reply = match server.submit(request) {
                Ok(ticket) => ticket.wait(),
                Err(e) => {
                    // A refused request never completes: its latency is
                    // infinite, which keeps the list aligned with the
                    // request list and out of every "best of" reading.
                    log.failures.push(format!("{label}: {e}"));
                    log.wall_ms.push(f64::INFINITY);
                    log.queued_ms.push(f64::INFINITY);
                    continue;
                }
            };
            if let Err(e) = self.check_reply(key, &reply, mode) {
                log.failures.push(format!("{label}: {e}"));
            }
            log.wall_ms.push(reply.wall.as_secs_f64() * 1e3);
            log.queued_ms.push(reply.queued.as_secs_f64() * 1e3);
            log.store_served += usize::from(reply.store_served());
            log.solves += reply.solver_invocations();
            if let Some((stores, rec)) = &mut traced {
                let op = (client * draws.len() + n) as u32;
                rec.record("serve.queue", op, submitted, submitted + reply.queued);
                rec.record(
                    "serve.service",
                    op,
                    submitted + reply.queued,
                    submitted + reply.wall,
                );
                if let Err(e) = self.replay(rec, op, key, &reply, stores) {
                    log.failures.push(format!("{label}: replay: {e}"));
                }
            }
        }
    }

    /// Repeats, on the client's thread, the layer calls the server made
    /// for this request: the store fetch and the re-verification of a
    /// served program, or the store write of a compiled one.
    fn replay(
        &self,
        rec: &mut Recorder,
        op: u32,
        key: usize,
        reply: &ServeReply,
        stores: &Replay,
    ) -> Result<(), String> {
        let store_key = self.keys[key].store_key;
        let outcome = reply.outcome.as_ref().map_err(|e| e.to_string())?;
        if reply.store_served() {
            let fetched = rec.span("core.store.fetch", op, |_| {
                stores.served.fetch_program(store_key)
            });
            let StoreFetch::Hit(program) = fetched else {
                return Err("the served store no longer holds the program".into());
            };
            rec.span("core.verify", op, |_| {
                Verifier::new().run(&program, &self.arch)
            });
        } else {
            count_compile(rec, &outcome.program, &outcome.diagnostics);
            rec.span("core.store.put", op, |_| {
                stores.sink.put_program(store_key, &outcome.program)
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

fn server_delta(before: ServerStats, after: ServerStats) -> [(&'static str, u64); 5] {
    [
        ("serve.submitted", after.submitted - before.submitted),
        ("serve.rejected", after.rejected - before.rejected),
        ("serve.served", after.served - before.served),
        ("serve.failed", after.failed - before.failed),
        ("serve.cancelled", after.cancelled - before.cancelled),
    ]
}

fn store_delta(before: StoreStats, after: StoreStats) -> [(&'static str, u64); 3] {
    [
        ("core.store.hits", after.hits - before.hits),
        ("core.store.misses", after.misses - before.misses),
        ("core.store.corrupt", after.corrupt - before.corrupt),
    ]
}

impl Workload for Serve {
    fn ops_per_pass(&self) -> usize {
        self.draws.iter().map(Vec::len).sum()
    }

    fn ops_hash(&self) -> u64 {
        let primed = self.keys.iter().zip(&self.primed).filter(|(_, &p)| p);
        hash_labels(
            self.draws
                .iter()
                .flat_map(|d| d.iter().map(|&k| self.keys[k].label.as_str()).chain(["|"]))
                .chain(primed.map(|(k, _)| k.label.as_str())),
        )
    }

    fn pass(&mut self, mode: Mode) -> Pass {
        self.passes += 1;
        let pass_dir = self.scratch.join(format!("pass-{}", self.passes));
        let fail = |e: String| Pass::unprepared(e, self.ops_per_pass());
        // Untimed preparation: the pass's store and server, the requests
        // (each owns a clone of its graph) and the replay handles.
        let (per_pass_server, served_dir) = if self.mixed {
            let dir = pass_dir.join("store");
            match self.half_primed_store(&dir) {
                Ok(store) => (Some(start_server(&self.arch, &self.options, store)), dir),
                Err(e) => return fail(e),
            }
        } else {
            (None, self.full.root().to_path_buf())
        };
        let server = per_pass_server
            .as_ref()
            .or(self.server.as_ref())
            .expect("warm_serve keeps its server");
        let replay = if mode == Mode::Traced {
            match (open_store(&served_dir), open_store(&pass_dir.join("sink"))) {
                (Ok(served), Ok(sink)) => Some(Replay { served, sink }),
                (Err(e), _) | (_, Err(e)) => return fail(e),
            }
        } else {
            None
        };
        let requests: Vec<Vec<ServeRequest>> = self
            .draws
            .iter()
            .map(|draws| {
                draws
                    .iter()
                    .map(|&k| {
                        ServeRequest::new(self.keys[k].label.clone(), self.keys[k].graph.clone())
                    })
                    .collect()
            })
            .collect();
        let store = Arc::clone(
            server
                .session()
                .store()
                .expect("the server's session has a store"),
        );
        let (server_before, store_before) = (server.stats(), store.stats());

        let start = Instant::now();
        let this = &*self;
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let clients: Vec<_> = requests
                .into_iter()
                .enumerate()
                .map(|(c, requests)| {
                    let replay = replay.as_ref().map(|r| (r, start));
                    scope.spawn(move || this.client(server, c, requests, mode, replay))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();

        let mut latencies_ms = Vec::new();
        let mut queued_ms = Vec::new();
        let mut failures = Vec::new();
        let (mut store_served, mut solves) = (0, 0);
        let mut recorder = replay.as_ref().map(|_| Recorder::new(start, 0));
        for log in logs {
            latencies_ms.extend(log.wall_ms);
            queued_ms.extend(log.queued_ms);
            failures.extend(log.failures);
            store_served += log.store_served;
            solves += log.solves;
            if let (Some(all), Some(rec)) = (&mut recorder, log.recorder) {
                all.absorb(rec);
            }
        }
        let mut layers = Layers::new();
        if let Some(rec) = &mut recorder {
            for (name, n) in server_delta(server_before, server.stats()) {
                rec.count(name, n as f64);
            }
            for (name, n) in store_delta(store_before, store.stats()) {
                rec.count(name, n as f64);
            }
            layers = layers_of(rec);
            queued_ms.retain(|q| q.is_finite());
            let service_ms: Vec<f64> = latencies_ms
                .iter()
                .filter(|w| w.is_finite())
                .zip(&queued_ms)
                .map(|(w, q)| w - q)
                .collect();
            layers.insert("serve.queue_wait_p50_ms", median(&queued_ms));
            layers.insert(
                "serve.queue_wait_p95_ms",
                percentile(&queued_ms, 0.95).value,
            );
            layers.insert("serve.service_p50_ms", median(&service_ms));
            layers.insert("serve.service_p95_ms", percentile(&service_ms, 0.95).value);
            layers.insert(
                "serve.store_served_ratio",
                ratio(store_served as f64, latencies_ms.len() as f64),
            );
            layers.insert("serve.solves", solves as f64);
        }
        // Joins the pass's workers before its store goes away.
        drop(per_pass_server);
        let _ = std::fs::remove_dir_all(&pass_dir);
        Pass {
            wall_s,
            latencies_ms,
            failures,
            layers,
            recorder,
        }
    }

    fn reference(&self) -> &Reference {
        &self.reference
    }

    fn setup_layers(&self) -> &Layers {
        &self.setup_layers
    }

    fn probes(&mut self, rng: &mut Rng) -> Layers {
        let graphs: Vec<&Graph> = self.keys.iter().map(|k| &k.graph).collect();
        let mut layers = probe::solve_windows(&self.arch, &self.options, &graphs, rng);
        let archs = vec![&self.arch; self.keys.len()];
        layers.extend(probe::programs(&self.reference, &archs));
        layers.extend(probe::snapshot(
            &self.full,
            &self.scratch.join("snapshot-probe"),
        ));
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_deal_equal_balanced_request_lists() {
        // Keys 0..6 are in the store, 6..9 are not.
        let (served, missing) = ([0, 1, 2, 3, 4, 5], [6, 7, 8]);
        let dealt = |seed| deal(&served, &missing, 3, &mut Rng::new(seed, 2));
        let a = dealt(5);
        assert_eq!(a, dealt(5));
        assert_ne!(a, dealt(6));
        assert_eq!(a.len(), CLIENTS);
        assert_ne!(a[0], a[1], "each client has its own order");
        let times = |client: &[usize], key| client.iter().filter(|&&k| k == key).count();
        for seed in 0..20 {
            let lists = dealt(seed);
            for client in &lists {
                // Whatever the seed: every served key equally often ...
                assert!(served.iter().all(|&k| times(client, k) == 3));
            }
            // ... and every missing key from exactly one client.
            assert_eq!((times(&lists[0], 6), times(&lists[1], 6)), (3, 0));
            assert_eq!((times(&lists[0], 7), times(&lists[1], 7)), (0, 3));
            assert_eq!((times(&lists[0], 8), times(&lists[1], 8)), (3, 0));
        }
    }

    #[test]
    fn half_of_each_transformers_lengths_start_primed_and_no_cnn() {
        let labels = [
            "bert@16", "bert@32", "bert@48", "bert@64", "opt@16", "opt@32", "opt@48", "opt@64",
            "vgg16", "resnet50",
        ];
        let primed = |seed| primed_half(&labels, &mut Rng::new(seed, 2));
        let a = primed(1);
        assert_eq!(a, primed(1));
        assert_eq!(a[..4].iter().filter(|&&p| p).count(), 2);
        assert_eq!(a[4..8].iter().filter(|&&p| p).count(), 2);
        assert_eq!(a[8..], [false, false]);
        assert!(
            (2..20).any(|seed| primed(seed) != a),
            "the seed chooses the half"
        );
    }
}
