//! The unified public surface: a [`Session`] serving [`CompileRequest`]s.
//!
//! The paper frames CMSwitch and its baselines as interchangeable
//! strategies over one IR and cost model; a [`Session`] makes that the
//! *API*: one typed entry point that
//!
//! * targets one [`DualModeArch`] with one [`CompilerOptions`] default
//!   (overridable per request),
//! * compiles through **any** [`Backend`] strategy (CMSwitch by default;
//!   select a baseline with [`SessionBuilder::backend`] and a boxed
//!   [`crate::BackendKind`], or `cmswitch-baselines`'
//!   `SessionBackendExt::backend_kind`),
//! * shares one cross-model [`AllocationCache`] across every request and
//!   batch (warm recompiles of repeated segment shapes skip the solver;
//!   the cache serves allocator-backed compiles — CMSwitch's dual-mode
//!   solves — while the baselines' closed-form allocations bypass it),
//! * fans batches out over a worker pool ([`Session::compile_batch`]),
//! * honors deadlines and explicit cancellation ([`CancelToken`],
//!   [`CompileRequest::with_deadline`]) with checks at stage boundaries
//!   *and* inside the segmentation-DP window loop, surfacing
//!   [`CompileError::Cancelled`],
//! * reports what happened structurally: every [`CompileOutcome`]
//!   carries a typed [`Diagnostics`] sink next to the program and its
//!   [`crate::CompileStats`],
//! * extends into simulation: the `cmswitch-sim` crate's
//!   `SessionSimExt` adds `Session::simulate(&CompileOutcome)`, which
//!   executes the compiled program on the event-driven engine and
//!   reports a [`DiagnosticEvent::Simulated`](crate::DiagnosticEvent)
//!   summary alongside the full engine report.
//!
//! # Example
//!
//! ```
//! use cmswitch_arch::presets;
//! use cmswitch_core::{CompileRequest, Session};
//!
//! let session = Session::builder(presets::tiny()).workers(2).build();
//! let graph = cmswitch_models::mlp::mlp(4, &[256, 512, 128]).unwrap();
//! let outcome = session.compile(CompileRequest::new(graph).with_label("demo"))?;
//! assert!(outcome.program.predicted_latency > 0.0);
//! assert_eq!(outcome.label.as_deref(), Some("demo"));
//! // Typed diagnostics instead of prose:
//! assert!(!outcome.diagnostics.is_empty());
//! # Ok::<(), cmswitch_core::CompileError>(())
//! ```

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cmswitch_arch::DualModeArch;
use cmswitch_graph::Graph;
use parking_lot::Mutex;

use crate::allocation::AllocationCache;
use crate::artifact::PayloadStamp;
use crate::backend::{Backend, BackendKind};
use crate::compiler::CompiledProgram;
use crate::diagnostics::{DiagnosticEvent, Diagnostics};
use crate::pipeline::{PipelineCx, StageWall};
use crate::service::{BatchOutcome, BatchReport, BatchStats};
use crate::store::{ArtifactStore, StoreFetch, StoreKey};
use crate::verify::Verifier;
use crate::{CompileError, CompilerOptions};

/// A cloneable cancellation handle with an optional deadline.
///
/// Cloned tokens share one flag: cancelling any clone cancels them all.
/// A deadline is carried per token value (clones made *before* a
/// deadline was attached do not observe it), and the compilation
/// pipeline polls [`CancelToken::is_cancelled`] at stage boundaries and
/// inside the segmentation-DP window loop, so a fired token aborts a
/// compile mid-solve with [`CompileError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// Creates a token that never fires until [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a token that fires `timeout` from now (or earlier, if
    /// [`CancelToken::cancel`] is called first).
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken::new().deadline_in(timeout)
    }

    /// Returns a token sharing this token's flag with an additional
    /// deadline `timeout` from now; when both tokens carry deadlines the
    /// earlier one wins on the returned token.
    pub fn deadline_in(&self, timeout: Duration) -> Self {
        let new = Instant::now().checked_add(timeout);
        let deadline = match (self.deadline, new) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline,
        }
    }

    /// Fires the token: every clone reports cancelled from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// [`CompileError::Cancelled`] if the token fired, `Ok` otherwise —
    /// the polling form used by pipeline stages and the DP loop.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Cancelled`] when cancelled.
    pub fn check(&self) -> Result<(), CompileError> {
        if self.is_cancelled() {
            Err(CompileError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// One typed compilation request: a graph plus everything that may vary
/// per call.
///
/// `#[non_exhaustive]` with `with_*` setters, so future knobs are
/// non-breaking. Construct with [`CompileRequest::new`] (or
/// `Graph::into`).
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// The graph to compile.
    pub graph: Graph,
    /// Display label reported back in outcomes; defaults to the graph's
    /// own name.
    pub label: Option<String>,
    /// Per-request override of the session's [`CompilerOptions`].
    pub options: Option<CompilerOptions>,
    /// Cancellation handle; the session also derives one from
    /// [`CompileRequest::deadline`].
    pub cancel: Option<CancelToken>,
    /// Deadline measured from submission; combined with
    /// [`CompileRequest::cancel`] (whichever fires first wins).
    pub deadline: Option<Duration>,
}

impl CompileRequest {
    /// A request with session defaults: no label override, session
    /// options, no cancellation, no deadline.
    pub fn new(graph: Graph) -> Self {
        CompileRequest {
            graph,
            label: None,
            options: None,
            cancel: None,
            deadline: None,
        }
    }

    /// Sets the display label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Overrides the session's compiler options for this request only.
    /// (Allocation-cache keys embed the allocator kind and the op
    /// shapes, so mixing overrides on one shared cache stays sound.)
    #[must_use]
    pub fn with_options(mut self, options: CompilerOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Attaches an explicit cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Aborts the request with [`CompileError::Cancelled`] once
    /// `deadline` has elapsed after submission.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The name outcomes report: the label if set, else the graph name.
    pub fn display_name(&self) -> &str {
        self.label.as_deref().unwrap_or_else(|| self.graph.name())
    }

    fn effective_cancel(&self) -> CancelToken {
        let base = self.cancel.clone().unwrap_or_default();
        match self.deadline {
            Some(d) => base.deadline_in(d),
            None => base,
        }
    }
}

impl From<Graph> for CompileRequest {
    fn from(graph: Graph) -> Self {
        CompileRequest::new(graph)
    }
}

/// What a successful [`Session::compile`] returns: the program, its
/// statistics (via [`CompileOutcome::stats`]) and the typed diagnostics
/// of the run.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOutcome {
    /// The request's label, if one was set.
    pub label: Option<String>,
    /// The compiled program (statistics in `program.stats`).
    pub program: CompiledProgram,
    /// Typed events recorded during this compilation.
    pub diagnostics: Diagnostics,
}

impl CompileOutcome {
    /// The compilation statistics (shorthand for `program.stats`).
    pub fn stats(&self) -> &crate::CompileStats {
        &self.program.stats
    }
}

/// Builder for a [`Session`]: architecture first, everything else
/// optional.
pub struct SessionBuilder {
    arch: DualModeArch,
    backend: Option<Box<dyn Backend>>,
    options: CompilerOptions,
    workers: usize,
    cache: Option<Arc<AllocationCache>>,
    store: Option<Arc<ArtifactStore>>,
}

impl SessionBuilder {
    /// Sets the session-default compiler options (each request may still
    /// override them via [`CompileRequest::with_options`]).
    #[must_use]
    pub fn options(mut self, options: CompilerOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the backend strategy (any boxed [`BackendKind`], or a
    /// custom [`Backend`]). Defaults to [`BackendKind::CmSwitch`].
    #[must_use]
    pub fn backend(mut self, backend: Box<dyn Backend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the worker-thread count for [`Session::compile_batch`].
    /// `0` (the default) means auto: available parallelism, capped at 8.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Shares an existing (possibly warm, possibly shared with other
    /// sessions) allocation cache instead of a fresh one. Keys embed the
    /// architecture's allocation fingerprint, so sharing across chips is
    /// sound — and chips that differ only in what the allocator never
    /// reads share entries.
    #[must_use]
    pub fn cache(mut self, cache: Arc<AllocationCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a persistent [`ArtifactStore`] — the on-disk L2 behind
    /// the in-memory allocation cache. Compiles probe the store first
    /// (decoded artifacts must pass the static verifier before being
    /// served), successful cold compiles write back, and the store's
    /// allocation snapshot is promoted into the session cache right
    /// here at build time, so a fresh process starts warm.
    #[must_use]
    pub fn store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Builds the session.
    pub fn build(self) -> Session {
        let backend: Arc<dyn Backend> = match self.backend {
            Some(backend) => Arc::from(backend),
            None => Arc::new(BackendKind::CmSwitch),
        };
        let workers = if self.workers == 0 {
            thread::available_parallelism().map_or(1, |n| n.get().min(8))
        } else {
            self.workers
        };
        let cache = self.cache.unwrap_or_default();
        if let Some(store) = &self.store {
            // L2 → L1 promotion: entries arrive pre-hashed, so this is
            // pure insertion work regardless of snapshot size.
            store.load_alloc_snapshot(&cache);
        }
        Session {
            arch: self.arch,
            backend,
            options: self.options,
            workers,
            cache,
            store: self.store,
        }
    }
}

impl fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("arch", &self.arch.name())
            .field("backend", &self.backend.as_ref().map(|b| b.name()))
            .field("options", &self.options)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// A compilation session: one backend strategy, one architecture, one
/// options default, a persistent cross-model [`AllocationCache`] and a
/// worker pool for batches. See the [module docs](self).
pub struct Session {
    arch: DualModeArch,
    backend: Arc<dyn Backend>,
    options: CompilerOptions,
    workers: usize,
    cache: Arc<AllocationCache>,
    store: Option<Arc<ArtifactStore>>,
}

impl Session {
    /// Starts building a session for `arch`.
    pub fn builder(arch: DualModeArch) -> SessionBuilder {
        SessionBuilder {
            arch,
            backend: None,
            options: CompilerOptions::default(),
            workers: 0,
            cache: None,
            store: None,
        }
    }

    /// The target architecture.
    pub fn arch(&self) -> &DualModeArch {
        &self.arch
    }

    /// The backend strategy's name.
    pub fn backend_name(&self) -> &str {
        self.backend.name()
    }

    /// The session-default compiler options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// The worker-thread count used by [`Session::compile_batch`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared allocation cache (inspect hit counters, pre-warm it,
    /// or hand it to another session).
    pub fn cache(&self) -> &Arc<AllocationCache> {
        &self.cache
    }

    /// The persistent artifact store, if one was attached at build.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// A session compiling against an `n_arrays`-array partition of
    /// this session's chip — the re-segmentation hook of the
    /// multi-tenant decode loop (`cmswitch-sim`'s `tenancy` module).
    ///
    /// The partition session shares this session's allocation cache
    /// and artifact store, so re-planning a tenant mid-flight is near
    /// solve-free once warm (cache keys embed the sub-chip fingerprint,
    /// keeping partition sizes from cross-contaminating). It keeps the
    /// session's backend and default [`CompilerOptions`], targeted at
    /// the sub-chip.
    ///
    /// # Errors
    ///
    /// Propagates [`cmswitch_arch::ArchError`] when `n_arrays` is not a
    /// valid array count (zero).
    pub fn partitioned(&self, n_arrays: usize) -> Result<Session, cmswitch_arch::ArchError> {
        let arch = self.arch.partition(n_arrays)?;
        // Built directly, not through `SessionBuilder::build`: the shared
        // cache already holds whatever this session promoted from the
        // store's snapshot.
        Ok(Session {
            arch,
            backend: Arc::clone(&self.backend),
            options: self.options.clone(),
            workers: self.workers,
            cache: Arc::clone(&self.cache),
            store: self.store.clone(),
        })
    }

    /// Writes the allocation cache's current entries to the attached
    /// store's snapshot, making this session's solver work available to
    /// future processes. Returns the number of entries written (`0`
    /// without a store). Batch compiles that missed the cache call this
    /// automatically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the snapshot write.
    pub fn persist_alloc_snapshot(&self) -> std::io::Result<usize> {
        match &self.store {
            Some(store) => store.save_alloc_snapshot(&self.cache),
            None => Ok(0),
        }
    }

    /// Serves one request.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`CompileError`];
    /// [`CompileError::Cancelled`] when the request's token or deadline
    /// fires first.
    pub fn compile(
        &self,
        request: impl Into<CompileRequest>,
    ) -> Result<CompileOutcome, CompileError> {
        let request = request.into();
        let cancel = request.effective_cancel();
        let options = request.options.as_ref().unwrap_or(&self.options);
        let (result, diagnostics) = self.run_one(&request.graph, options, &cancel);
        result.map(|program| CompileOutcome {
            label: request.label,
            program,
            diagnostics,
        })
    }

    /// Compiles a borrowed graph with session defaults, returning just
    /// the program.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`CompileError`].
    pub fn compile_graph(&self, graph: &Graph) -> Result<CompiledProgram, CompileError> {
        self.run_one(graph, &self.options, &CancelToken::new()).0
    }

    /// Serves a batch of requests concurrently.
    ///
    /// Requests are distributed dynamically over the worker pool, every
    /// request compiles through the shared cache, per-request failures
    /// are reported in the request's [`BatchOutcome`] without affecting
    /// the others, and outcomes come back in submission order. Deadlines
    /// count from this call, not from the moment a worker picks the
    /// request up. An empty slice returns an empty report without
    /// spinning up any worker, and a batch of one worker (or of one
    /// request) compiles on the calling thread.
    pub fn compile_batch(&self, requests: &[CompileRequest]) -> BatchReport {
        if requests.is_empty() {
            return BatchReport {
                outcomes: Vec::new(),
                stats: BatchStats::default(),
            };
        }
        let start = Instant::now();
        let workers = self.workers.clamp(1, requests.len());
        // Deadlines are armed here, before any worker starts.
        let cancels: Vec<CancelToken> =
            requests.iter().map(CompileRequest::effective_cancel).collect();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<BatchOutcome>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();

        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(request) = requests.get(i) else { break };
            let t = Instant::now();
            let (result, diagnostics) = self.run_one(
                &request.graph,
                request.options.as_ref().unwrap_or(&self.options),
                &cancels[i],
            );
            *slots[i].lock() = Some(BatchOutcome {
                name: request.display_name().to_string(),
                wall: t.elapsed(),
                diagnostics,
                result,
            });
        };
        if workers == 1 {
            // No pool of one: a spawned thread would only add a spawn
            // and a handoff to every batch.
            work();
        } else {
            thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(work);
                }
            });
        }

        let outcomes: Vec<BatchOutcome> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every job slot filled once the workers are done"))
            .collect();

        let mut stats = BatchStats {
            wall: start.elapsed(),
            workers,
            ..BatchStats::default()
        };
        for o in &outcomes {
            // Traffic comes from each outcome's own diagnostics, so a
            // failed model's lookups count and another batch's never do.
            let (hits, misses) = o.diagnostics.cache_traffic();
            let (store_hits, store_misses, _) = o.diagnostics.store_traffic();
            stats.cache_hits += hits;
            stats.cache_misses += misses;
            stats.store_hits += store_hits;
            stats.store_misses += store_misses;
            match &o.result {
                Ok(p) => {
                    stats.compiled += 1;
                    stats.programs.absorb(&p.stats);
                }
                Err(_) => stats.failed += 1,
            }
        }
        // New solver work happened → refresh the on-disk snapshot so the
        // next process inherits it. Best-effort, like the program
        // write-back.
        if let Some(store) = self.store.as_ref().filter(|_| stats.cache_misses > 0) {
            let _ = store.save_alloc_snapshot(&self.cache);
        }
        BatchReport { outcomes, stats }
    }

    /// One compilation through the session's backend, cache and token.
    /// Diagnostics come back even when the compilation fails.
    ///
    /// With a store attached, the persistent L2 is probed first: every
    /// read validates the header and recomputes the payload checksum,
    /// and a decoded artifact that passes the static verifier — run on
    /// the first sight of each distinct payload per store handle, its
    /// verdict reused for the same bytes after that — replaces the
    /// entire pipeline run (`StoreHit` + `Verified`); a decode failure
    /// or a `Deny` finding degrades to a cold compile that overwrites
    /// the bad entry (`StoreCorrupt`); a plain miss compiles cold and
    /// writes back (`StoreMiss`).
    fn run_one(
        &self,
        graph: &Graph,
        options: &CompilerOptions,
        cancel: &CancelToken,
    ) -> (Result<CompiledProgram, CompileError>, Diagnostics) {
        let start = Instant::now();
        let key = self
            .store
            .is_some()
            .then(|| StoreKey::for_compile(&self.arch, self.backend.name(), options, graph));
        let mut store_events: Vec<DiagnosticEvent> = Vec::new();
        if let (Some(store), Some(key)) = (&self.store, key) {
            let (fetch, stamp) = store.fetch_program_stamped(key);
            match fetch {
                // Never serve an unverified artifact: the checksum
                // catches bit rot, the verifier catches stale or
                // semantically unsound plans.
                StoreFetch::Hit(program) => match self.store_verdict(store, key, stamp, &program) {
                    Ok(warn) => return served_from_store(*program, key, warn, start),
                    Err(deny) => {
                        store.record_corrupt(key);
                        store_events.push(DiagnosticEvent::StoreCorrupt {
                            key: key.hash(),
                            reason: format!("verify rejected: {deny} deny finding(s)"),
                        });
                    }
                },
                StoreFetch::Miss => {
                    store_events.push(DiagnosticEvent::StoreMiss { key: key.hash() });
                }
                StoreFetch::Corrupt(reason) => {
                    store_events.push(DiagnosticEvent::StoreCorrupt {
                        key: key.hash(),
                        reason,
                    });
                }
            }
        }
        let mut cx = PipelineCx::with_shared_cache(&self.arch, options, Arc::clone(&self.cache))
            .with_cancel(cancel.clone());
        for event in store_events {
            cx.emit(event);
        }
        // The one unwind barrier between a strategy and the server
        // worker or batch thread running it: a panic fails this request
        // only. `cx` is dropped for its diagnostics alone afterwards, and
        // the cache's in-flight marks release themselves on unwind.
        let result = catch_unwind(AssertUnwindSafe(|| self.backend.compile_in(&mut cx, graph)))
            .unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(CompileError::BackendPanicked {
                    backend: self.backend.name().to_string(),
                    message,
                })
            });
        match result {
            Ok(mut program) => {
                let diagnostics = cx.finalize(&mut program.stats);
                program.stats.wall = start.elapsed();
                if let (Some(store), Some(key)) = (&self.store, key) {
                    // Write-back is best-effort: a full disk must not
                    // fail an otherwise successful compile.
                    let _ = store.put_program(key, &program);
                }
                (Ok(program), diagnostics)
            }
            Err(e) => (Err(e), cx.into_diagnostics()),
        }
    }

    /// The verifier's verdict on a program just fetched under `key`: its
    /// warning count, or the number of `Deny` findings. The verdict
    /// depends on the payload alone (the arch is in the key), so the
    /// verifier runs once per distinct payload per store handle — the
    /// store remembers the stamp of what passed.
    fn store_verdict(
        &self,
        store: &ArtifactStore,
        key: StoreKey,
        stamp: PayloadStamp,
        program: &CompiledProgram,
    ) -> Result<u64, usize> {
        if let Some(warn) = store.reuse_verdict(key, stamp) {
            return Ok(warn);
        }
        let report = Verifier::new().run(program, &self.arch);
        match report.deny_count() {
            0 => {
                let warn = report.warn_count() as u64;
                store.remember_verdict(key, stamp, warn);
                Ok(warn)
            }
            deny => Err(deny),
        }
    }
}

/// The outcome of a request answered from the store: the decoded program
/// with statistics describing work done *this* process — a served
/// artifact cost no solver work, only the fetch + decode (+ verify)
/// accounted as "store".
fn served_from_store(
    mut program: CompiledProgram,
    key: StoreKey,
    warn: u64,
    start: Instant,
) -> (Result<CompiledProgram, CompileError>, Diagnostics) {
    let mut diagnostics = Diagnostics::new();
    diagnostics.push(DiagnosticEvent::StoreHit { key: key.hash() });
    diagnostics.push(DiagnosticEvent::Verified { deny: 0, warn });
    // The artifact holds no run history: every counter is already zero.
    program.stats.stage_wall = vec![StageWall {
        stage: "store",
        wall: start.elapsed(),
    }];
    program.stats.wall = start.elapsed();
    (Ok(program), diagnostics)
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("backend", &self.backend.name())
            .field("arch", &self.arch.name())
            .field("options", &self.options)
            .field("workers", &self.workers)
            .field("cache_entries", &self.cache.len())
            .field("store", &self.store.as_ref().map(|s| s.root().display().to_string()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;
    use cmswitch_models::mlp::mlp;

    fn graph() -> Graph {
        mlp(2, &[128, 256, 128]).unwrap()
    }

    #[test]
    fn session_compiles_with_default_backend() {
        let session = Session::builder(presets::tiny()).build();
        assert_eq!(session.backend_name(), "cmswitch");
        let outcome = session.compile(CompileRequest::new(graph())).unwrap();
        assert!(outcome.program.predicted_latency > 0.0);
        assert!(!outcome.program.segments.is_empty());
        assert!(outcome.label.is_none());
    }

    #[test]
    fn request_from_graph_and_label() {
        let session = Session::builder(presets::tiny()).build();
        let outcome = session.compile(graph()).unwrap();
        assert!(outcome.label.is_none());
        let req = CompileRequest::new(graph()).with_label("named");
        assert_eq!(req.display_name(), "named");
        let outcome = session.compile(req).unwrap();
        assert_eq!(outcome.label.as_deref(), Some("named"));
    }

    #[test]
    fn session_cache_is_shared_across_compiles() {
        let session = Session::builder(presets::tiny()).build();
        let p1 = session.compile_graph(&graph()).unwrap();
        let p2 = session.compile_graph(&graph()).unwrap();
        assert!(p2.stats.solver_invocations() < p1.stats.solver_invocations());
        assert_eq!(p1.predicted_latency, p2.predicted_latency);
        assert!(p2.stats.cache_hits > 0);
    }

    #[test]
    fn per_request_options_override_session_default() {
        let session = Session::builder(presets::tiny()).build();
        let dflt = session.compile(CompileRequest::new(graph())).unwrap();
        let exhaustive = session
            .compile(
                CompileRequest::new(graph())
                    .with_options(CompilerOptions::default().with_dp_mode(crate::DpMode::Exhaustive)),
            )
            .unwrap();
        // Identical schedules (the pruned DP is provably exact) …
        assert_eq!(dflt.program.segments, exhaustive.program.segments);
        // … but the override really took effect: nothing was pruned.
        assert_eq!(exhaustive.stats().dp_windows_pruned, 0);
    }

    #[test]
    fn cancelled_token_aborts_before_work() {
        let session = Session::builder(presets::tiny()).build();
        let token = CancelToken::new();
        token.cancel();
        let err = session
            .compile(CompileRequest::new(graph()).with_cancel(token))
            .unwrap_err();
        assert_eq!(err, CompileError::Cancelled);
    }

    #[test]
    fn zero_deadline_cancels() {
        let session = Session::builder(presets::tiny()).build();
        let err = session
            .compile(CompileRequest::new(graph()).with_deadline(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err, CompileError::Cancelled);
    }

    #[test]
    fn cancel_token_deadline_semantics() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let with_deadline = t.deadline_in(Duration::from_secs(3600));
        assert!(!with_deadline.is_cancelled());
        let expired = t.deadline_in(Duration::ZERO);
        assert!(expired.is_cancelled());
        assert_eq!(expired.check(), Err(CompileError::Cancelled));
        // Shared flag: cancelling the derived token fires the original.
        with_deadline.cancel();
        assert!(t.is_cancelled());
        // Earlier deadline wins when combining.
        let both = CancelToken::with_deadline(Duration::ZERO)
            .deadline_in(Duration::from_secs(3600));
        assert!(both.is_cancelled());
    }

    #[test]
    fn batch_over_requests_matches_sequential() {
        let session = Session::builder(presets::tiny()).workers(3).build();
        let requests: Vec<CompileRequest> = (0..3)
            .map(|i| CompileRequest::new(graph()).with_label(format!("m{i}")))
            .collect();
        let report = session.compile_batch(&requests);
        assert_eq!(report.stats.compiled, 3);
        assert_eq!(
            report.outcomes.iter().map(|o| o.name.as_str()).collect::<Vec<_>>(),
            vec!["m0", "m1", "m2"]
        );
        let solo = session.compile_graph(&graph()).unwrap();
        for o in &report.outcomes {
            let p = o.result.as_ref().unwrap();
            assert_eq!(p.predicted_latency, solo.predicted_latency);
            assert_eq!(p.flow, solo.flow);
        }
    }

    #[test]
    fn empty_batch_returns_without_workers() {
        let session = Session::builder(presets::tiny()).workers(4).build();
        let report = session.compile_batch(&[]);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.stats.workers, 0, "no worker pool for an empty batch");
        assert_eq!(report.stats.wall, Duration::ZERO);
        assert_eq!(report.stats.compiled + report.stats.failed, 0);
        assert_eq!(report.stats.hit_rate(), 0.0);
    }

    #[test]
    fn batch_failure_carries_diagnostics_and_does_not_sink_batch() {
        let session = Session::builder(presets::tiny()).workers(2).build();
        let requests = vec![
            CompileRequest::new(Graph::from_nodes("empty", Vec::new())),
            CompileRequest::new(graph()).with_label("ok"),
        ];
        let report = session.compile_batch(&requests);
        assert_eq!(report.stats.compiled, 1);
        assert_eq!(report.stats.failed, 1);
        assert!(report.get("empty").unwrap().result.is_err());
        assert!(report.get("ok").unwrap().result.is_ok());
        assert!(!report.get("ok").unwrap().diagnostics.is_empty());
        assert!(report.summary().contains("FAILED"));
    }

    #[test]
    fn partitioned_session_shares_the_cache_and_shrinks_the_chip() {
        let session = Session::builder(presets::tiny()).build();
        let full_arrays = session.arch().n_arrays();
        let half = session.partitioned(full_arrays / 2).unwrap();
        assert_eq!(half.arch().n_arrays(), full_arrays / 2);
        assert!(Arc::ptr_eq(session.cache(), half.cache()));
        assert!(session.partitioned(0).is_err());
        // Distinct fingerprints keep partition sizes from
        // cross-contaminating the shared cache; both compile fine.
        let p_full = session.compile_graph(&graph()).unwrap();
        let p_half = half.compile_graph(&graph()).unwrap();
        assert!(p_full.predicted_latency > 0.0);
        assert!(p_half.predicted_latency > 0.0);
    }

    #[test]
    fn partitioned_session_does_not_reread_the_alloc_snapshot() {
        // Regression: `partitioned` used to go through the builder, whose
        // L2 -> L1 promotion re-read and re-imported the snapshot into the
        // cache the parent had already promoted — once per tenant.
        let dir = std::env::temp_dir()
            .join(format!("cmswitch-session-partition-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        let session = Session::builder(presets::tiny())
            .store(Arc::clone(&store))
            .build();
        session.compile_graph(&graph()).unwrap();
        assert!(session.persist_alloc_snapshot().unwrap() > 0);
        let entries = session.cache().len();
        // A re-read would now trip over garbage and count it.
        std::fs::write(dir.join("alloc_cache.cmsart"), b"not a snapshot").unwrap();
        let half = session.partitioned(session.arch().n_arrays() / 2).unwrap();
        assert_eq!(store.stats().corrupt, 0, "partitioning must not touch the snapshot");
        assert_eq!(half.cache().len(), entries);
        assert!(half.store().is_some(), "the partition still shares the store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_debug_and_session_debug_render() {
        let b = Session::builder(presets::tiny()).workers(2);
        assert!(format!("{b:?}").contains("SessionBuilder"));
        let s = b.build();
        assert!(format!("{s:?}").contains("cmswitch"));
        assert!(s.workers() >= 1);
        assert_eq!(s.arch().name(), presets::tiny().name());
        assert_eq!(s.options(), &CompilerOptions::default());
    }
}
