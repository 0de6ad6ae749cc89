//! The traced run's recorder: spans and counters kept in memory, summed
//! into per-layer self times after the pass and written as Chrome-trace
//! JSON on request.
//!
//! Spans are recorded from the benchmark's side of every call into a
//! layer, never from inside the program. A span whose name holds a dot
//! (`core.segment`, `sim.engine`, `serve.queue`) is a layer; names
//! without one (`pass`, `client`, `op`, `replay`) are the benchmark's own
//! structure, and their self time is what the layers fail to explain.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation (request, model, sweep point) the span belongs to.
    pub op: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The recording thread.
    pub tid: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's recorder. Threads record into their own and the pass
/// merges them with [`Recorder::absorb`], so recording takes no lock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    /// Indices of the spans entered and not yet left, innermost last.
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Recorder {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the span open on
    /// this recorder (if any).
    pub fn span<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            tid: self.tid,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span whose ends were measured elsewhere (a server
    /// reports queue and service time only in its reply), as a child of
    /// the open span.
    pub fn record(&mut self, name: &'static str, op: u32, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            tid: self.tid,
        });
    }

    /// Adds to a counter, at the boundary where the work happens.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_insert(0.0) += by;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    /// Merges another thread's finished recorder into this one.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, value) in other.counters {
            self.count(name, value);
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in nanoseconds: its duration minus the part
    /// of its interval that its child spans cover (children that overlap
    /// one another are not subtracted twice).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Self time in seconds summed per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            *by_name.entry(span.name).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        by_name
    }

    /// Share of the root spans' time that layer spans account for.
    pub fn attributed_share(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        let layers: u64 = self
            .spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name.contains('.'))
            .map(|(_, ns)| ns)
            .sum();
        if roots == 0 {
            0.0
        } else {
            layers as f64 / roots as f64
        }
    }

    /// The spans as Chrome-trace "complete" events (load in
    /// `chrome://tracing` or Perfetto), one line.
    pub fn chrome_trace(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(f64::from(s.tid))),
                    ("args", Value::obj([("op", Value::Num(f64::from(s.op)))])),
                ])
            })
            .collect();
        Value::obj([("traceEvents", Value::Arr(events))]).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A recorder with hand-placed spans: (name, parent, start, end).
    fn recorder(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Recorder {
        let mut rec = Recorder::new(Instant::now(), 0);
        for &(name, parent, start_ns, end_ns) in spans {
            rec.spans.push(Span {
                name,
                op: 0,
                parent,
                start_ns,
                end_ns,
                tid: 0,
            });
        }
        rec
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let rec = recorder(&[
            ("pass", None, 0, 100),
            ("op", Some(0), 10, 60),         // child of pass
            ("core.lower", Some(1), 10, 20), // grandchild
            ("core.emit", Some(1), 30, 50),  // grandchild, sibling
            ("sim.engine", Some(0), 60, 90), // second child of pass
        ]);
        assert_eq!(rec.self_ns(), vec![20, 20, 10, 20, 30]);
        let by_name = rec.self_seconds();
        assert!((by_name["core.emit"] - 20e-9).abs() < 1e-15);
        // Layers explain 60 of the root's 100.
        assert!((rec.attributed_share() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_subtracted_twice() {
        let rec = recorder(&[
            ("pass", None, 0, 100),
            ("a.x", Some(0), 10, 50),
            ("a.y", Some(0), 40, 70),  // overlaps a.x by 10
            ("a.z", Some(0), 90, 130), // hangs over the parent's end by 30
        ]);
        // Covered: 10..70 and 90..100 = 70.
        assert_eq!(rec.self_ns()[0], 30);
    }

    #[test]
    fn live_spans_nest_under_the_open_span() {
        let mut rec = Recorder::new(Instant::now(), 3);
        let start = Instant::now();
        rec.span("pass", 0, |rec| {
            rec.span("op", 7, |rec| {
                rec.span("core.lower", 7, |_| {
                    std::thread::sleep(Duration::from_millis(2))
                });
                rec.record("serve.queue", 7, start, start + Duration::from_millis(1));
            });
            rec.count("core.lower.ops", 2.0);
            rec.count("core.lower.ops", 3.0);
        });
        let parents: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("pass", None),
                ("op", Some(0)),
                ("core.lower", Some(1)),
                ("serve.queue", Some(1)),
            ]
        );
        assert!(rec.spans().iter().all(|s| s.tid == 3));
        assert_eq!(rec.counter("core.lower.ops"), 5.0);
        assert!(rec.self_seconds()["core.lower"] >= 2e-3);
        assert!(rec
            .chrome_trace()
            .starts_with("{\"traceEvents\": [{\"name\": \"pass\""));
    }

    #[test]
    fn absorbing_a_thread_keeps_its_parent_links() {
        let mut main = recorder(&[("pass", None, 0, 10)]);
        let mut other = recorder(&[("client", None, 0, 10), ("serve.queue", Some(0), 2, 4)]);
        other.count("serve.served", 1.0);
        main.count("serve.served", 2.0);
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.counter("serve.served"), 3.0);
        assert_eq!(main.self_ns(), vec![10, 8, 2]);
    }
}
