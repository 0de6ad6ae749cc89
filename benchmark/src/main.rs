//! The benchmark of record for the CMSwitch reproduction.
//!
//! One command runs one workload, checks its outputs and prints every
//! metric by name with its unit; see `README.md` beside this package for
//! what the workloads are and why. The benchmark measures the system from
//! outside only: it times calls into public functions and never reads a
//! clock the program under test set.

mod check;
mod compare;
mod json;
mod probe;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Value;
use run::{Metric, Options, Outcome};
use spec::{Better, PER_LAYER};

const USAGE: &str = "\
usage: cmswitch-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                          [--out FILE] [--chrome FILE] [--bless]
       cmswitch-benchmark --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       cmswitch-benchmark --compare A.json B.json
workloads: cold_cnn cold_llm cold_par warm_serve mixed_serve dse_cold dse_warm";

/// What the command line asks for.
#[derive(Debug)]
enum Request {
    Run {
        options: Options,
        out: Option<PathBuf>,
    },
    All {
        options: Options,
        out: Option<PathBuf>,
    },
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Request, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bless: false,
        chrome: None,
    };
    let (mut all, mut out) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = value()?.clone(),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds >= 0.0 && options.seconds <= 3600.0) {
                    return Err("--seconds must lie in 0..=3600".into());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--chrome" => options.chrome = Some(PathBuf::from(value()?)),
            "--bless" => options.bless = true,
            "--all" => all = true,
            "--compare" => {
                let (a, b) = (value()?.clone(), value()?.clone());
                return Ok(Request::Compare(a.into(), b.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (all, options.workload.is_empty()) {
        (true, true) => Ok(Request::All { options, out }),
        (false, false) if spec::workload_names().any(|w| w == options.workload) => {
            Ok(Request::Run { options, out })
        }
        (false, false) => Err(format!("unknown workload `{}`", options.workload)),
        _ => Err("give exactly one of --workload, --all and --compare".into()),
    }
}

/// The machine and build a result was measured on.
fn machine() -> Value {
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", Value::str(cpu)),
        ("rustc", Value::str(command("rustc", &["--version"]))),
        (
            "commit",
            Value::str(command("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

fn result_file(machine: Value, results: Vec<Value>) -> String {
    Value::obj([("machine", machine), ("results", Value::Arr(results))]).to_string() + "\n"
}

/// One line per metric: name, value, unit, which direction is better,
/// the bound if it has one, and the spread of the samples behind it.
fn print_metrics(title: &str, metrics: &[Metric], spec: impl Fn(&str) -> (Better, Option<f64>)) {
    println!("{title}:");
    for m in metrics {
        let (better, bound) = spec(m.name);
        let bound = bound.map_or(String::new(), |b| format!("  bound {:.1}%", b * 100.0));
        let spread = if m.n > 1 {
            format!("  [q1 {:.6}, q3 {:.6}, n {}]", m.q1, m.q3, m.n)
        } else {
            String::new()
        };
        println!(
            "  {:<34} {:>18.6} {:<7} {:<6} is better{bound}{spread}",
            m.name,
            m.value,
            m.unit,
            better.as_str()
        );
    }
}

fn print_outcome(outcome: &Outcome, machine: &Value) {
    let o = &outcome.options;
    println!(
        "workload {}  seed {}  seconds {}  trace {}  passes {} timed + {} traced  \
         ops/pass {}  ops_hash {:016x}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        outcome.timed_passes,
        outcome.traced_passes,
        outcome.ops_per_pass,
        outcome.ops_hash,
    );
    println!("machine {machine}");
    print_metrics("end-to-end", &outcome.end_to_end, |name| {
        let spec = spec::end_to_end(name).expect("outcomes hold end-to-end metrics");
        (spec.better, Some(spec.bound))
    });
    println!(
        "  wall and rate are those of the best of {} timed passes; latency percentiles run over \
         the {} operations of a pass, each at its best over the passes, and p95 has {} beyond it{}",
        outcome.timed_passes,
        outcome.ops_per_pass,
        outcome.p95_beyond,
        if outcome.p95_beyond < stats::MIN_BEYOND {
            " (fewer than ten: indicative)"
        } else {
            ""
        }
    );
    if o.trace {
        print_metrics("per-layer", &outcome.per_layer, |name| {
            let spec = PER_LAYER.iter().find(|s| s.name == name);
            (spec.expect("outcomes hold per-layer metrics").better, None)
        });
    }
    println!(
        "operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for failure in &outcome.failures {
        println!("  failed: {failure}");
    }
}

fn run_one(options: &Options, out: Option<&PathBuf>) -> Result<bool, String> {
    let outcome = run::run(options)?;
    let machine = machine();
    print_outcome(&outcome, &machine);
    if let Some(path) = out {
        std::fs::write(path, result_file(machine, vec![outcome.to_json()]))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The driver reads the last line of standard output; whether the run
    // was correct is in that line, not in the exit code.
    println!("{}", outcome.result_line());
    Ok(true)
}

/// Runs every workload in a process of its own, so that `peak_rss_mb` is
/// the workload's and not the maximum over those before it.
fn run_all(options: &Options, out: Option<&PathBuf>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let part = exe.with_extension(format!("all-{}.json", std::process::id()));
    let mut results = Vec::new();
    let mut correct = true;
    for workload in spec::workload_names() {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if options.bless {
            child.arg("--bless");
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("{workload} could not be measured ({status})"));
        }
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("{workload} left no result: {e}"))?;
        let _ = std::fs::remove_file(&part);
        let doc = json::parse(&text)?;
        let result = doc
            .get("results")
            .and_then(Value::as_array)
            .and_then(|r| r.first());
        let result = result
            .cloned()
            .ok_or_else(|| format!("{workload}: empty result file"))?;
        correct &= result.get("correct") == Some(&Value::Bool(true));
        results.push(result);
    }
    if let Some(path) = out {
        std::fs::write(path, result_file(machine(), results))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(correct)
}

fn compare_files(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let read = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let rows = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(!rows.iter().any(|r| r.verdict.fails()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = parse_args(&args).and_then(|request| match request {
        Request::Run { options, out } => run_one(&options, out.as_ref()),
        Request::All { options, out } => run_all(&options, out.as_ref()),
        Request::Compare(a, b) => compare_files(&a, &b),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, WORKLOADS};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let Request::Run { options, out } =
            parse_args(&args("--workload dse_warm --seed 42 --seconds 7 --trace 1")).unwrap()
        else {
            panic!("expected a single run");
        };
        assert_eq!(
            (options.workload.as_str(), options.seed, options.seconds),
            ("dse_warm", 42, 7.0)
        );
        assert!(options.trace && !options.bless && out.is_none());
        assert!(matches!(
            parse_args(&args("--all --out x.json")),
            Ok(Request::All { .. })
        ));
        assert!(matches!(
            parse_args(&args("--compare a b")),
            Ok(Request::Compare(..))
        ));
    }

    #[test]
    fn refuses_what_it_does_not_understand() {
        for bad in [
            "",
            "--workload nope",
            "--workload cold_cnn --all",
            "--workload cold_cnn --trace yes",
            "--workload cold_cnn --seed -1",
            "--workload cold_cnn --seconds inf",
            "--workload",
            "--compare a",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "`{bad}` must be refused");
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables in `spec.rs`
    /// are what the program prints. They must say the same.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str| doc.get(key).and_then(Value::as_array).unwrap().to_vec();
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<_> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let want: Vec<_> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let end_to_end: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, want);

        let per_layer: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(per_layer, want);
        assert!(per_layer.len() <= 128 && end_to_end.len() <= 16);

        let paths = list("paths");
        assert_eq!(paths, [Value::str("benchmark")]);
        assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(10.0));
    }
}
