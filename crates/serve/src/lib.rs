//! The serving front-end: a long-running compile server over a
//! [`Session`].
//!
//! The ROADMAP's north star is a compiler that serves model fleets the
//! way an inference service serves requests. This crate provides the
//! request side of that story:
//!
//! * [`CompileServer`] — a pool of worker threads draining a **bounded**
//!   request queue. Admission control is explicit: a full queue rejects
//!   at submit time ([`SubmitError::QueueFull`]) instead of buffering
//!   unboundedly, and every request carries a per-tenant deadline that
//!   is converted to a [`CancelToken`] *at admission* — time spent
//!   queued counts against the deadline, so a request that waits too
//!   long is dropped without ever touching the compiler.
//! * [`Ticket`] — the caller's handle on an in-flight request;
//!   [`Ticket::wait`] blocks until the reply is ready.
//! * Persistence comes from the session: build it with
//!   [`SessionBuilder::store`](cmswitch_core::SessionBuilder::store)
//!   and every request is served from the on-disk artifact store when
//!   possible (zero solver invocations after one priming run, across
//!   process restarts).
//!
//! The queue is deliberately `std::sync` (`Mutex` + `Condvar`): the
//! vendored `parking_lot` stand-in has no condition variables, and the
//! server's contention profile — a handful of workers parking on one
//! queue — is exactly what the std primitives are for.
//!
//! # Example
//!
//! ```
//! use cmswitch_arch::presets;
//! use cmswitch_core::Session;
//! use cmswitch_serve::{CompileServer, ServeRequest, ServerOptions};
//!
//! let session = Session::builder(presets::tiny()).build();
//! let server = CompileServer::start(session, ServerOptions::default());
//! let graph = cmswitch_models::mlp::mlp(2, &[128, 256, 128]).unwrap();
//! let ticket = server.submit(ServeRequest::new("demo", graph)).unwrap();
//! let reply = ticket.wait();
//! assert!(reply.outcome.is_ok());
//! ```

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cmswitch_core::{
    CancelToken, CompileError, CompileOutcome, CompileRequest, CompilerOptions, DiagnosticEvent,
    Session,
};
use cmswitch_graph::Graph;

/// Configuration of a [`CompileServer`].
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads draining the queue. `0` means auto: available
    /// parallelism, capped at 4.
    pub workers: usize,
    /// Maximum requests waiting in the queue (in-flight requests on
    /// workers do not count). Submissions beyond this are rejected with
    /// [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own;
    /// `None` (the default) means such requests never expire.
    pub default_deadline: Option<Duration>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 0,
            queue_capacity: 64,
            default_deadline: None,
        }
    }
}

impl ServerOptions {
    /// Sets the worker-thread count (`0` = auto).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded queue's capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the deadline applied to requests without their own.
    #[must_use]
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }
}

/// One compile request submitted to the server.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Label reported back in the reply.
    pub label: String,
    /// The graph to compile.
    pub graph: Graph,
    /// Tenant identifier (reported back; the unit deadlines are scoped
    /// to).
    pub tenant: String,
    /// Per-request deadline, measured from admission — queue wait
    /// counts. Falls back to [`ServerOptions::default_deadline`].
    pub deadline: Option<Duration>,
    /// Optional chip-share hint for multi-tenant co-scheduling: the
    /// fraction of the chip this tenant expects to own, in `(0, 1]`.
    /// Mapped onto
    /// [`CompilerOptions::with_partition_budget`] so a single
    /// partitioned sub-operator never claims more arrays than the
    /// tenant's partition holds — the compiled program then admits
    /// cleanly into a static partition of that share.
    pub chip_share: Option<f64>,
}

impl ServeRequest {
    /// A request compiling `graph` under `label` for the default tenant.
    pub fn new(label: impl Into<String>, graph: Graph) -> Self {
        ServeRequest {
            label: label.into(),
            graph,
            tenant: "default".into(),
            deadline: None,
            chip_share: None,
        }
    }

    /// Sets the tenant identifier.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Sets the admission-to-completion deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the tenant's expected chip share (clamped into `(0, 1]` at
    /// compile time).
    #[must_use]
    pub fn with_chip_share(mut self, share: f64) -> Self {
        self.chip_share = Some(share);
        self
    }
}

/// The server's answer to one request.
#[non_exhaustive]
#[derive(Debug)]
pub struct ServeReply {
    /// The request's label.
    pub label: String,
    /// The request's tenant.
    pub tenant: String,
    /// Time from admission until a worker picked the request up.
    pub queued: Duration,
    /// Time from admission until the reply was ready (queue + compile).
    pub wall: Duration,
    /// The compilation outcome, or the error — including
    /// [`CompileError::Cancelled`] for requests whose deadline fired
    /// while queued or mid-compile.
    pub outcome: Result<CompileOutcome, CompileError>,
}

impl ServeReply {
    /// Solver invocations this request cost (0 when served from cache
    /// or the persistent store).
    pub fn solver_invocations(&self) -> u64 {
        self.outcome
            .as_ref()
            .map(|o| o.stats().solver_invocations())
            .unwrap_or(0)
    }

    /// Whether the request was served from the persistent artifact
    /// store (a `StoreHit` diagnostic is present).
    pub fn store_served(&self) -> bool {
        self.outcome.as_ref().is_ok_and(|o| {
            o.diagnostics
                .events()
                .iter()
                .any(|e| matches!(e, DiagnosticEvent::StoreHit { .. }))
        })
    }
}

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity; retry later or shed load.
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The server is shutting down and accepts no new work.
    ShutDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            SubmitError::ShutDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Monotonic request counters since [`CompileServer::start`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Submissions rejected at admission (queue full or shutdown).
    pub rejected: u64,
    /// Requests that compiled successfully.
    pub served: u64,
    /// Requests whose compilation failed (excluding cancellations).
    pub failed: u64,
    /// Requests cancelled by their deadline or token — whether while
    /// queued or mid-compile.
    pub cancelled: u64,
}

/// Lifecycle of a ticket's reply slot: `Pending` until either the
/// worker installs a reply (`Ready`) or the waiting caller gives up on
/// an expired deadline (`Abandoned`). Exactly one side wins, decided
/// under the slot's mutex, which is what keeps the `cancelled` counter
/// single-fire for waiter-side and worker-side cancellations alike.
enum ReplySlot {
    Pending,
    Ready(Box<ServeReply>),
    Taken,
    Abandoned,
}

impl ReplySlot {
    fn take_ready(&mut self) -> Option<ServeReply> {
        if matches!(self, ReplySlot::Ready(_)) {
            match std::mem::replace(self, ReplySlot::Taken) {
                ReplySlot::Ready(reply) => Some(*reply),
                _ => unreachable!("matched Ready above"),
            }
        } else {
            None
        }
    }
}

struct TicketShared {
    reply: Mutex<ReplySlot>,
    done: Condvar,
    label: String,
    tenant: String,
    accepted: Instant,
    /// The armed admission deadline, if any — what `Ticket::wait` times
    /// out against while the request is still queued.
    deadline: Option<Instant>,
    /// The request's cancel token; fired by the waiter on expiry so a
    /// still-queued job is dropped (and an in-flight compile aborts) at
    /// the next poll.
    cancel: CancelToken,
    /// The server's `cancelled` counter, shared so the waiter can count
    /// a queue-expiry cancellation identically to a dequeue-time one.
    cancelled: Arc<AtomicU64>,
}

/// The caller's handle on an in-flight request.
pub struct Ticket {
    shared: Arc<TicketShared>,
}

impl Ticket {
    /// Blocks until the reply is ready and returns it.
    ///
    /// When the request carries a deadline, the wait itself honors it:
    /// if the deadline passes while the request is still queued (a
    /// saturated queue under few workers), `wait` returns a
    /// [`CompileError::Cancelled`] reply promptly instead of blocking
    /// until a worker finally dequeues the job. The cancellation is
    /// counted in [`ServerStats::cancelled`] exactly once.
    pub fn wait(self) -> ServeReply {
        let mut slot = self.shared.reply.lock().expect("ticket lock poisoned");
        loop {
            if let Some(reply) = slot.take_ready() {
                return reply;
            }
            match self.shared.deadline {
                None => {
                    slot = self.shared.done.wait(slot).expect("ticket lock poisoned");
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        // No reply and the deadline has passed: give up
                        // here. Marking the slot abandoned (under the
                        // lock) makes the worker skip both the install
                        // and the stats bump; firing the token makes it
                        // skip the compile too.
                        *slot = ReplySlot::Abandoned;
                        drop(slot);
                        self.shared.cancel.cancel();
                        self.shared.cancelled.fetch_add(1, Ordering::Relaxed);
                        let waited = self.shared.accepted.elapsed();
                        return ServeReply {
                            label: self.shared.label.clone(),
                            tenant: self.shared.tenant.clone(),
                            queued: waited,
                            wall: waited,
                            outcome: Err(CompileError::Cancelled),
                        };
                    }
                    let (guard, _) = self
                        .shared
                        .done
                        .wait_timeout(slot, deadline - now)
                        .expect("ticket lock poisoned");
                    slot = guard;
                }
            }
        }
    }

    /// Returns the reply if it is already ready, without blocking.
    pub fn try_take(&self) -> Option<ServeReply> {
        self.shared
            .reply
            .lock()
            .expect("ticket lock poisoned")
            .take_ready()
    }
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

struct Job {
    graph: Graph,
    options: Option<CompilerOptions>,
    ticket: Arc<TicketShared>,
}

struct QueueState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    session: Session,
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
    default_deadline: Option<Duration>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
    failed: AtomicU64,
    /// Arc'd (unlike its siblings) so tickets can count waiter-side
    /// queue-expiry cancellations into the same server statistic.
    cancelled: Arc<AtomicU64>,
}

/// A long-running compile server (see the [module docs](self)).
///
/// Dropping the server initiates shutdown: already-queued requests are
/// drained, new submissions are rejected, and the worker threads are
/// joined.
pub struct CompileServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl CompileServer {
    /// Starts the worker pool over `session`.
    pub fn start(session: Session, options: ServerOptions) -> CompileServer {
        let workers = if options.workers == 0 {
            thread::available_parallelism().map_or(1, |n| n.get().min(4))
        } else {
            options.workers
        };
        let shared = Arc::new(Shared {
            session,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            capacity: options.queue_capacity.max(1),
            default_deadline: options.default_deadline,
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            served: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: Arc::new(AtomicU64::new(0)),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        CompileServer {
            shared,
            workers: handles,
        }
    }

    /// Admits a request, returning a [`Ticket`] to wait on.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShutDown`] once shutdown has begun.
    pub fn submit(&self, request: ServeRequest) -> Result<Ticket, SubmitError> {
        let deadline = request.deadline.or(self.shared.default_deadline);
        let accepted = Instant::now();
        // The token starts ticking now: queue wait counts against the
        // tenant's deadline, which is what makes the bounded queue an
        // admission-control mechanism rather than just a buffer.
        let cancel = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        // A chip-share hint becomes a per-request partition budget: no
        // partitioned sub-operator may claim more of the chip than the
        // tenant's share, so the program admits into that partition.
        let options = request.chip_share.map(|share| {
            self.shared
                .session
                .options()
                .clone()
                .with_partition_budget(share.clamp(f64::MIN_POSITIVE, 1.0))
        });
        let ticket_shared = Arc::new(TicketShared {
            reply: Mutex::new(ReplySlot::Pending),
            done: Condvar::new(),
            label: request.label,
            tenant: request.tenant,
            accepted,
            deadline: deadline.and_then(|d| accepted.checked_add(d)),
            cancel,
            cancelled: Arc::clone(&self.shared.cancelled),
        });
        let job = Job {
            graph: request.graph,
            options,
            ticket: Arc::clone(&ticket_shared),
        };
        {
            let mut state = self.shared.state.lock().expect("queue lock poisoned");
            if state.shutdown {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::ShutDown);
            }
            if state.queue.len() >= self.shared.capacity {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull {
                    capacity: self.shared.capacity,
                });
            }
            state.queue.push_back(job);
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_one();
        Ok(Ticket {
            shared: ticket_shared,
        })
    }

    /// Requests currently waiting in the queue (excludes in-flight work).
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().expect("queue lock poisoned").queue.len()
    }

    /// Request counters since start.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            served: self.shared.served.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            cancelled: self.shared.cancelled.load(Ordering::Relaxed),
        }
    }

    /// The underlying session (cache, store and backend introspection).
    pub fn session(&self) -> &Session {
        &self.shared.session
    }

    /// Drains the queue, stops the workers and joins them. Equivalent
    /// to dropping the server, but explicit.
    pub fn shutdown(self) {}
}

impl Drop for CompileServer {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("queue lock poisoned");
            state.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for CompileServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileServer")
            .field("workers", &self.workers.len())
            .field("capacity", &self.shared.capacity)
            .field("queue_len", &self.queue_len())
            .field("stats", &self.stats())
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .expect("queue lock poisoned");
            }
        };
        let ticket = &job.ticket;
        let queued = ticket.accepted.elapsed();
        // A request whose deadline fired while queued is dropped here —
        // the whole point of counting queue wait against the deadline.
        let outcome = if ticket.cancel.is_cancelled() {
            Err(CompileError::Cancelled)
        } else {
            let mut request = CompileRequest::new(job.graph)
                .with_label(ticket.label.clone())
                .with_cancel(ticket.cancel.clone());
            if let Some(options) = job.options {
                request = request.with_options(options);
            }
            shared.session.compile(request)
        };
        // Install under the slot lock: if the waiter abandoned the
        // ticket on an expired deadline it already returned `Cancelled`
        // and counted itself, so the worker must neither install nor
        // count a second outcome for the same request.
        let mut slot = ticket.reply.lock().expect("ticket lock poisoned");
        if matches!(*slot, ReplySlot::Abandoned) {
            continue;
        }
        match &outcome {
            Ok(_) => shared.served.fetch_add(1, Ordering::Relaxed),
            Err(CompileError::Cancelled) => shared.cancelled.fetch_add(1, Ordering::Relaxed),
            Err(_) => shared.failed.fetch_add(1, Ordering::Relaxed),
        };
        *slot = ReplySlot::Ready(Box::new(ServeReply {
            label: ticket.label.clone(),
            tenant: ticket.tenant.clone(),
            queued,
            wall: ticket.accepted.elapsed(),
            outcome,
        }));
        drop(slot);
        ticket.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    use cmswitch_arch::presets;
    use cmswitch_core::{ArtifactStore, Backend, BackendKind, CompiledProgram, PipelineCx};
    use cmswitch_models::mlp::mlp;

    fn graph() -> Graph {
        mlp(2, &[128, 256, 128]).unwrap()
    }

    fn server(workers: usize) -> CompileServer {
        CompileServer::start(
            Session::builder(presets::tiny()).build(),
            ServerOptions::default().with_workers(workers),
        )
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let server = server(2);
        let ticket = server.submit(ServeRequest::new("m", graph())).unwrap();
        let reply = ticket.wait();
        assert_eq!(reply.label, "m");
        assert_eq!(reply.tenant, "default");
        let outcome = reply.outcome.unwrap();
        assert!(outcome.program.predicted_latency > 0.0);
        assert!(reply.wall >= reply.queued);
        assert_eq!(server.stats().served, 1);
    }

    #[test]
    fn many_requests_drain_in_parallel_and_share_the_cache() {
        let server = server(4);
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                server
                    .submit(ServeRequest::new(format!("m{i}"), graph()).with_tenant("t"))
                    .unwrap()
            })
            .collect();
        let replies: Vec<ServeReply> = tickets.into_iter().map(Ticket::wait).collect();
        assert!(replies.iter().all(|r| r.outcome.is_ok()));
        assert_eq!(server.stats().served, 8);
        // Identical graphs: the session cache makes later requests free.
        let total_solves: u64 = replies.iter().map(ServeReply::solver_invocations).sum();
        let first_solves = replies
            .iter()
            .map(ServeReply::solver_invocations)
            .max()
            .unwrap();
        assert!(
            total_solves <= first_solves * 2,
            "cache sharing failed: {total_solves} total vs {first_solves} max"
        );
    }

    #[test]
    fn bounded_queue_rejects_at_capacity() {
        // One worker wedged behind slow jobs, capacity 1: the third
        // submission must be rejected, not buffered.
        let server = CompileServer::start(
            Session::builder(presets::tiny()).build(),
            ServerOptions::default()
                .with_workers(1)
                .with_queue_capacity(1),
        );
        let big = mlp(4, &[512, 512, 512, 512, 512]).unwrap();
        let t1 = server.submit(ServeRequest::new("a", big.clone())).unwrap();
        // Fill the queue until the capacity check fires (the worker may
        // have already dequeued some).
        let mut tickets = vec![t1];
        let mut rejected = None;
        for i in 0..64 {
            match server.submit(ServeRequest::new(format!("b{i}"), big.clone())) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        assert_eq!(rejected, Some(SubmitError::QueueFull { capacity: 1 }));
        assert!(server.stats().rejected >= 1);
        for t in tickets {
            let _ = t.wait();
        }
    }

    #[test]
    fn expired_deadline_cancels_without_compiling() {
        let server = server(1);
        let ticket = server
            .submit(ServeRequest::new("late", graph()).with_deadline(Duration::ZERO))
            .unwrap();
        let reply = ticket.wait();
        assert_eq!(reply.solver_invocations(), 0);
        assert_eq!(reply.outcome.unwrap_err(), CompileError::Cancelled);
        assert_eq!(server.stats().cancelled, 1);
        assert_eq!(server.stats().failed, 0, "cancellation is not failure");
    }

    /// CMSwitch behind a latch: every compile blocks until the test
    /// drops the sender.
    struct Latched(Mutex<mpsc::Receiver<()>>);

    impl Backend for Latched {
        fn name(&self) -> &str {
            "latched"
        }

        fn compile_in(
            &self,
            cx: &mut PipelineCx<'_>,
            graph: &Graph,
        ) -> Result<CompiledProgram, CompileError> {
            // `recv` returns (with `Err`) once the sender is gone.
            let _ = self.0.lock().unwrap().recv();
            BackendKind::CmSwitch.compile_in(cx, graph)
        }
    }

    #[test]
    fn queued_deadline_expiry_unblocks_wait_promptly() {
        // One worker wedged behind a queue of latched compiles; a
        // request with a 1 ms deadline sits at the back. Its `wait` must
        // return `Cancelled` promptly (while the queue ahead of it is
        // still blocked), not block until the worker finally dequeues
        // it. The latch opens only after `wait` has returned, so the
        // backlog cannot drain first however fast the compiles are.
        let (latch, gate) = mpsc::channel();
        let server = CompileServer::start(
            Session::builder(presets::tiny())
                .backend(Box::new(Latched(Mutex::new(gate))))
                .build(),
            ServerOptions::default()
                .with_workers(1)
                .with_queue_capacity(8),
        );
        let slow: Vec<Ticket> = (0..5)
            .map(|i| {
                server
                    .submit(ServeRequest::new(format!("slow{i}"), graph()))
                    .unwrap()
            })
            .collect();
        let late = server
            .submit(
                ServeRequest::new("late", graph()).with_deadline(Duration::from_millis(1)),
            )
            .unwrap();
        let reply = late.wait();
        assert_eq!(reply.solver_invocations(), 0);
        assert_eq!(reply.outcome.unwrap_err(), CompileError::Cancelled);
        // Promptness: the queue ahead of the late request has not
        // drained — `wait` did not ride out the backlog.
        assert!(
            slow.last().unwrap().try_take().is_none(),
            "late.wait() returned only after the entire backlog drained"
        );
        drop(latch);
        for t in slow {
            assert!(t.wait().outcome.is_ok());
        }
        // The waiter-side cancellation is counted exactly once, and
        // identically to a dequeue-time cancellation.
        let stats = server.stats();
        assert_eq!(stats.served, 5);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.failed, 0, "cancellation is not failure");
    }

    #[test]
    fn chip_share_hint_caps_the_partition_budget() {
        let server = server(1);
        let full = server
            .submit(ServeRequest::new("full", graph()))
            .unwrap()
            .wait();
        let quarter = server
            .submit(ServeRequest::new("quarter", graph()).with_chip_share(0.25))
            .unwrap()
            .wait();
        let full = full.outcome.unwrap();
        let quarter = quarter.outcome.unwrap();
        // A quarter-chip tenant may never claim more arrays in one
        // sub-operator than its share allows, so its widest allocation
        // is no wider than the full-chip compile's.
        let widest = |o: &CompileOutcome| {
            o.program
                .segments
                .iter()
                .map(|s| s.alloc.arrays_used())
                .max()
                .unwrap_or(0)
        };
        assert!(widest(&quarter) <= widest(&full));
        assert!(quarter.program.predicted_latency > 0.0);
    }

    #[test]
    fn default_deadline_applies_to_unmarked_requests() {
        let server = CompileServer::start(
            Session::builder(presets::tiny()).build(),
            ServerOptions::default()
                .with_workers(1)
                .with_default_deadline(Duration::ZERO),
        );
        let reply = server
            .submit(ServeRequest::new("m", graph()))
            .unwrap()
            .wait();
        assert_eq!(reply.outcome.unwrap_err(), CompileError::Cancelled);
    }

    #[test]
    fn shutdown_drains_queued_work_then_rejects() {
        let server = server(2);
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| server.submit(ServeRequest::new(format!("m{i}"), graph())).unwrap())
            .collect();
        let replies: Vec<ServeReply> = tickets.into_iter().map(Ticket::wait).collect();
        assert!(replies.iter().all(|r| r.outcome.is_ok()));
        server.shutdown();
    }

    #[test]
    fn store_backed_server_serves_warm_requests_without_solves() {
        let dir = std::env::temp_dir().join(format!("cmswitch-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = ArtifactStore::open(&dir).unwrap();
            let server = CompileServer::start(
                Session::builder(presets::tiny()).store(store).build(),
                ServerOptions::default().with_workers(1),
            );
            let reply = server.submit(ServeRequest::new("prime", graph())).unwrap().wait();
            assert!(reply.outcome.is_ok());
            assert!(!reply.store_served());
            server.session().persist_alloc_snapshot().unwrap();
        }
        // A brand-new server over the same directory — the process
        // restart in miniature — serves from disk.
        let store = ArtifactStore::open(&dir).unwrap();
        let server = CompileServer::start(
            Session::builder(presets::tiny()).store(store).build(),
            ServerOptions::default().with_workers(1),
        );
        let reply = server.submit(ServeRequest::new("warm", graph())).unwrap().wait();
        assert!(reply.store_served());
        assert_eq!(reply.solver_invocations(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn try_take_is_nonblocking() {
        let server = server(1);
        let ticket = server.submit(ServeRequest::new("m", graph())).unwrap();
        // Eventually ready; poll without blocking.
        let reply = loop {
            if let Some(r) = ticket.try_take() {
                break r;
            }
            thread::yield_now();
        };
        assert!(reply.outcome.is_ok());
    }
}
