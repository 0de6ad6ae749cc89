//! One run of one workload: set-up (repeated, the best kept), an untimed
//! warm-up pass, timed passes until the time budget is spent, the output
//! checks, and the metrics with their units.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::check;
use crate::json::Value;
use crate::rng::Rng;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartiles, upper_median};
use crate::trace::Recorder;
use crate::workload::{self, timed, Layers, Mode, Pass, Workload};

/// Set-up is run at least `MIN_SETUPS` times and the fastest reported (see
/// `best`), as one sample says nothing about its spread; a cheap set-up is
/// repeated until `SETUP_SECONDS` have gone, for more chances at a quiet
/// one.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 3.0;
/// Passes of each kind a run makes even when one pass outlasts the time
/// budget.
const MIN_PASSES: usize = 3;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rewrite `expected/<workload>.txt` instead of checking against it.
    pub bless: bool,
    /// Where to write the traced run's spans as Chrome-trace JSON.
    pub chrome: Option<PathBuf>,
}

/// One metric of a finished run. `q1`/`q3` are the quartiles of the
/// samples behind `value` (passes, or set-up repeats) — the run's own
/// spread, which `--compare` holds against the metric's bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Metric {
    fn of(name: &'static str, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
        let (q1, q3) = if samples.is_empty() {
            (value, value)
        } else {
            quartiles(samples)
        };
        Metric {
            name,
            unit,
            value,
            q1,
            q3,
            n: samples.len().max(1),
        }
    }
}

#[derive(Debug)]
pub struct Outcome {
    pub options: Options,
    pub timed_passes: usize,
    pub traced_passes: usize,
    pub ops_per_pass: usize,
    pub ops_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the reader.
    pub failures: Vec<String>,
    /// Operations whose best latency lies beyond the p95.
    pub p95_beyond: usize,
    pub end_to_end: Vec<Metric>,
    /// Filled by a traced run only.
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics the run was asked for: per-layer when traced,
    /// end-to-end otherwise.
    pub fn reported(&self) -> &[Metric] {
        if self.options.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The driver's result line.
    pub fn result_line(&self) -> String {
        let metrics = self.reported().iter().map(|m| {
            (
                m.name,
                Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_string()
    }

    /// The run as one entry of a result file's `results`.
    pub fn to_json(&self) -> Value {
        let metrics = self.end_to_end.iter().chain(&self.per_layer).map(|m| {
            (
                m.name,
                Value::obj([
                    ("value", Value::Num(m.value)),
                    ("unit", Value::str(m.unit)),
                    ("q1", Value::Num(m.q1)),
                    ("q3", Value::Num(m.q3)),
                    ("n", Value::Num(m.n as f64)),
                ]),
            )
        });
        Value::obj([
            ("workload", Value::str(&self.options.workload)),
            ("seed", Value::Num(self.options.seed as f64)),
            ("seconds", Value::Num(self.options.seconds)),
            ("trace", Value::Bool(self.options.trace)),
            ("passes", Value::Num(self.timed_passes as f64)),
            ("traced_passes", Value::Num(self.traced_passes as f64)),
            ("ops_per_pass", Value::Num(self.ops_per_pass as f64)),
            ("ops_hash", Value::str(format!("{:016x}", self.ops_hash))),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }
}

/// A directory removed again when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    /// Under the directory of the running executable, which is the build
    /// directory: inside the checkout and ignored by git already.
    fn create(workload: &str) -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join("scratch")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The best of one-sample-per-pass (or per-set-up) readings: the timing
/// metrics report the fastest pass and the fastest set-up, not the median
/// one.
///
/// On the 2-vCPU sandbox a pass is slowed by its neighbours most of the
/// time: over 556 consecutive `cold_cnn` passes the typical pass ran 10%
/// above the fastest, with bursts of +40-75% lasting seconds. Across
/// 10-second windows of that series the median pass wall spread 10.0%
/// (interquartile range over median) and the fastest 1.7%; what the
/// program costs when the machine lets it run is the steadier and the
/// more useful number. Set-up is hit harder still: the slow phases last
/// seconds (nine consecutive `dse_cold` set-ups read eight times 0.204-0.219 s
/// and once 0.136 s; a quiet run reads 0.121-0.125 s), so the median of a
/// run's three to nine set-ups moved 30-75% between a quiet and a busy
/// quarter of an hour and the fastest 7-12%. The best hides slowness that
/// strikes only some passes, which here cannot be told from the
/// neighbours' anyway; the quartiles of the samples are kept beside every
/// value.
fn best(samples: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    samples.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// What the passes of a run add up to.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, ops: usize, pass: &Pass) {
        self.attempted += ops as u64;
        self.failed += pass.failures.len() as u64;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures
            .extend(pass.failures.iter().take(room).cloned());
    }
}

/// Runs the workload as `options` say.
///
/// # Errors
///
/// Only what prevents measuring at all: an unknown workload, a set-up
/// that fails, a scratch directory that cannot be made. Failed operations
/// and failed checks are counted in the outcome instead.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let scratch = Scratch::create(&options.workload)?;
    eprintln!("checking the registry against tests/golden/sim_registry.txt ...");
    check::golden_registry()?;

    // Everything before the first pass, several times over; the last
    // instance is the one measured.
    let mut setup_s = Vec::new();
    let mut instance: Option<Box<dyn Workload>> = None;
    let started = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        // The previous instance goes first, so that no two servers or
        // stores are alive at once and peak memory is one instance's.
        drop(instance.take());
        let dir = scratch.0.join(format!("setup-{}", setup_s.len()));
        let (built, s) = timed(|| workload::setup(&options.workload, options.seed, &dir));
        instance = Some(built?);
        if let Some(previous) = setup_s.len().checked_sub(1) {
            let _ = std::fs::remove_dir_all(scratch.0.join(format!("setup-{previous}")));
        }
        setup_s.push(s);
    }
    let mut workload = instance.expect("MIN_SETUPS is at least one");
    let ops = workload.ops_per_pass();

    let mut tally = Tally::default();
    tally.add(ops, &workload.pass(Mode::Warmup));
    let exact = workload.reference().exact();
    if let Err(e) = check::check_expected(&options.workload, &exact, options.bless) {
        // Wrong exact metrics put every operation of the run in doubt.
        tally.failed = tally.attempted;
        tally.failures.insert(0, e);
    }

    let mut timed_passes: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < options.seconds
        || timed_passes.len() < MIN_PASSES
        || (options.trace && traced_passes.len() < MIN_PASSES)
    {
        let pass = workload.pass(Mode::Timed);
        tally.add(ops, &pass);
        timed_passes.push(pass);
        if options.trace {
            let pass = workload.pass(Mode::Traced);
            tally.add(ops, &pass);
            traced_passes.push(pass);
        }
    }

    // The wall of a run is its best pass's, the latency of an operation
    // its best over the passes (see `best`): every pass issues the same
    // operation list, so position `i` is the same operation in each.
    let walls: Vec<f64> = timed_passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = walls.iter().map(|w| ops as f64 / w).collect();
    let latencies: Vec<f64> = (0..ops)
        .map(|i| {
            let of_op = timed_passes.iter().filter_map(|p| p.latencies_ms.get(i));
            of_op.copied().fold(f64::INFINITY, f64::min)
        })
        // An operation that never completed has no latency.
        .filter(|best| best.is_finite())
        .collect();
    let p95 = percentile(&latencies, 0.95);
    let pass_p50: Vec<f64> = timed_passes
        .iter()
        .map(|p| upper_median(&p.latencies_ms))
        .collect();
    let pass_p95: Vec<f64> = timed_passes
        .iter()
        .map(|p| percentile(&p.latencies_ms, 0.95).value)
        .collect();
    let ok_share = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .map(|spec| {
            let (value, samples): (f64, &[f64]) = match spec.name {
                "setup_s" => (best(&setup_s, spec.better), &setup_s),
                "wall_s" => (best(&walls, spec.better), &walls),
                "ops_per_s" => (best(&rates, spec.better), &rates),
                "latency_p50_ms" => (upper_median(&latencies), &pass_p50),
                "latency_p95_ms" => (p95.value, &pass_p95),
                "sim_cycles" => (exact.sim_cycles, &[]),
                "sim_energy_pj" => (exact.sim_energy_pj, &[]),
                "speedup_vs_cimmlc" => (exact.speedup_vs_cimmlc, &[]),
                "ok_share" => (ok_share, &[]),
                other => unreachable!("end-to-end metric `{other}` has no measurement"),
            };
            Metric::of(spec.name, spec.unit, value, samples)
        })
        .collect();

    let mut per_layer = Vec::new();
    if options.trace {
        let layers = per_layer_values(
            workload.as_mut(),
            options.seed,
            &timed_passes,
            &traced_passes,
        );
        per_layer = PER_LAYER
            .iter()
            .map(|spec| {
                let (value, samples) = layers.get(spec.name).cloned().unwrap_or_default();
                Metric::of(spec.name, spec.unit, value, &samples)
            })
            .collect();
        if let Some(path) = &options.chrome {
            let spans = traced_passes.last().and_then(|p| p.recorder.as_ref());
            let text = spans.map(Recorder::chrome_trace).unwrap_or_default();
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    Ok(Outcome {
        options: options.clone(),
        timed_passes: timed_passes.len(),
        traced_passes: traced_passes.len(),
        ops_per_pass: ops,
        ops_hash: workload.ops_hash(),
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        p95_beyond: p95.beyond,
        end_to_end,
        per_layer,
    })
}

/// Every per-layer value of a traced run with the samples behind it:
/// what set-up measured, the median over traced passes of what each pass
/// counted and timed, the probes, and the two figures that need both
/// kinds of pass.
fn per_layer_values(
    workload: &mut dyn Workload,
    seed: u64,
    timed_passes: &[Pass],
    traced_passes: &[Pass],
) -> BTreeMap<&'static str, (f64, Vec<f64>)> {
    let mut out = BTreeMap::new();
    let single =
        |layers: &Layers| -> Vec<_> { layers.iter().map(|(k, v)| (*k, (*v, vec![]))).collect() };
    out.extend(single(workload.setup_layers()));
    out.extend(single(&workload.probes(&mut Rng::new(seed, 4))));
    let over = |passes: &[Pass]| {
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for pass in passes {
            for (name, value) in &pass.layers {
                samples.entry(name).or_default().push(*value);
            }
        }
        samples.into_iter().map(|(name, s)| (name, (median(&s), s)))
    };
    out.extend(over(traced_passes));
    // `core.session.compile_s` is timed around `Session::compile` on the
    // untraced passes; what the staged layers of the traced passes do not
    // add up to is the session's own overhead.
    out.extend(over(timed_passes));
    let value =
        |out: &BTreeMap<_, (f64, Vec<f64>)>, name: &str| out.get(name).map_or(0.0, |(v, _)| *v);
    let compile_s = value(&out, "core.session.compile_s");
    if compile_s > 0.0 {
        let staged: f64 = ["lower", "partition", "segment", "emit", "verify"]
            .iter()
            .map(|stage| value(&out, &format!("core.{stage}.busy_s")))
            .sum();
        out.insert("core.session.overhead_s", (compile_s - staged, vec![]));
    }
    out.insert("process.peak_rss_mb", (peak_rss_mb(), vec![]));
    let fastest = |passes: &[Pass]| {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        best(&walls, Better::Lower)
    };
    let (untraced, traced) = (fastest(timed_passes), fastest(traced_passes));
    out.insert(
        "trace.overhead_share",
        (workload::ratio(traced - untraced, untraced), vec![]),
    );
    out
}
