//! Bad days: a strategy that panics mid-compile fails its own request
//! and nothing else — the server answers the ticket and keeps its
//! worker, a batch keeps every other outcome.

use std::sync::mpsc;
use std::time::Duration;

use cmswitch::prelude::*;

/// CMSwitch, except that a graph named `"boom"` panics.
struct Tripwire;

impl Backend for Tripwire {
    fn name(&self) -> &str {
        "tripwire"
    }

    fn compile_in(
        &self,
        cx: &mut PipelineCx<'_>,
        graph: &Graph,
    ) -> Result<CompiledProgram, CompileError> {
        assert!(graph.name() != "boom", "tripped on {}", graph.name());
        BackendKind::CmSwitch.compile_in(cx, graph)
    }
}

fn session(workers: usize) -> Session {
    Session::builder(presets::tiny())
        .backend(Box::new(Tripwire))
        .workers(workers)
        .build()
}

fn good() -> Graph {
    cmswitch::models::mlp::mlp(2, &[64, 64, 64]).unwrap()
}

fn boom() -> Graph {
    Graph::from_nodes("boom", good().nodes().to_vec())
}

fn assert_panicked(err: &CompileError) {
    match err {
        CompileError::BackendPanicked { backend, message } => {
            assert_eq!(backend, "tripwire");
            assert!(message.contains("tripped on boom"), "{message}");
        }
        other => panic!("expected BackendPanicked, got {other:?}"),
    }
}

/// `Ticket::wait` under a guard: a hung ticket fails the test instead of
/// hanging the suite.
fn wait_within(ticket: Ticket, guard: Duration) -> ServeReply {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        // The receiver is gone only if the guard already fired.
        let _ = tx.send(ticket.wait());
    });
    rx.recv_timeout(guard)
        .expect("the server never answered the ticket")
}

#[test]
fn panicking_backend_fails_one_ticket_and_the_worker_keeps_serving() {
    let server = CompileServer::start(session(1), ServerOptions::default().with_workers(1));
    let guard = Duration::from_secs(2);

    let reply = wait_within(
        server.submit(ServeRequest::new("bad", boom())).unwrap(),
        guard,
    );
    assert_panicked(reply.outcome.as_ref().unwrap_err());

    // The only worker survived the panic.
    let reply = wait_within(
        server.submit(ServeRequest::new("good", good())).unwrap(),
        guard,
    );
    assert!(reply.outcome.is_ok(), "{:?}", reply.outcome);
    let stats = server.stats();
    assert_eq!((stats.failed, stats.served), (1, 1));
}

#[test]
fn panicking_backend_fails_one_batch_request_and_keeps_the_others() {
    let requests = [
        CompileRequest::new(good()).with_label("first"),
        CompileRequest::new(boom()),
        CompileRequest::new(good()).with_label("last"),
    ];
    let report = session(2).compile_batch(&requests);
    let names: Vec<&str> = report.outcomes.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(names, ["first", "boom", "last"]);
    assert!(report.outcomes[0].result.is_ok());
    assert_panicked(report.outcomes[1].result.as_ref().unwrap_err());
    assert!(report.outcomes[2].result.is_ok());
    assert_eq!((report.stats.compiled, report.stats.failed), (2, 1));
}
