//! `cold_cnn`, `cold_llm`, `cold_par`: every operation is one model
//! compiled by a fresh `Session` (cold caches, verify on) and simulated.

use std::time::Instant;

use cmswitch::arch::DualModeArch;
use cmswitch::compiler::{AllocationCache, CompileRequest, CompilerOptions, Session};
use cmswitch::graph::Graph;
use cmswitch::models::registry;
use cmswitch::models::transformer::decode_step;
use cmswitch::prelude::presets;

use super::{
    cimmlc_cycles, layers_of, simulate, staged_compile, timed, traced_simulate, Layers, Mode, Pass,
    Reference, Workload,
};
use crate::check::{self, check_program};
use crate::probe;
use crate::rng::{hash_labels, Rng};
use crate::trace::Recorder;

/// Which models a cold workload compiles.
#[derive(Debug, Clone, Copy)]
pub enum Set {
    /// Four CNNs: 4-19 segments found by hundreds of MIP solves each.
    Cnn,
    /// Five transformer prefills and three decode steps at 128 tokens:
    /// hundreds to thousands of segments, tens of solves.
    Llm,
    /// The whole registry at seq 32, with two solve workers.
    Registry,
}

const CNNS: &[&str] = &["mobilenetv2", "resnet18", "resnet50", "vgg16"];
const TRANSFORMERS: &[&str] = &[
    "bert-base",
    "bert-large",
    "llama2-7b",
    "opt-6.7b",
    "opt-13b",
];
const LLM_TOKENS: usize = 128;

fn graphs(set: Set) -> Result<Vec<(String, Graph)>, String> {
    let build = |name: &str, seq| {
        registry::build(name, 1, seq)
            .map(|g| (name.to_string(), g))
            .map_err(|e| e.to_string())
    };
    match set {
        Set::Cnn => CNNS.iter().map(|m| build(m, 0)).collect(),
        Set::Registry => registry::ALL_MODELS.iter().map(|m| build(m, 32)).collect(),
        Set::Llm => {
            let mut out: Vec<_> = TRANSFORMERS
                .iter()
                .map(|m| build(m, LLM_TOKENS))
                .collect::<Result<_, _>>()?;
            for &name in TRANSFORMERS.iter().filter(|m| registry::is_generative(m)) {
                let cfg = registry::transformer_config(name).expect("registered transformer");
                let graph = decode_step(&cfg, 1, LLM_TOKENS).map_err(|e| e.to_string())?;
                out.push((format!("{name}-decode"), graph));
            }
            Ok(out)
        }
    }
}

pub struct Cold {
    arch: DualModeArch,
    options: CompilerOptions,
    /// Models in their fixed order; the reference follows it.
    targets: Vec<(String, Graph)>,
    /// The seeded order a pass visits them in.
    order: Vec<usize>,
    reference: Reference,
    setup_layers: Layers,
}

impl Cold {
    pub fn setup(set: Set, seed: u64) -> Result<Self, String> {
        let arch = presets::dynaplasia();
        let solve_workers = if matches!(set, Set::Registry) { 2 } else { 1 };
        let options = check::options().with_solve_workers(solve_workers);
        let (targets, build_s) = timed(|| graphs(set));
        let targets = targets?;

        let mut reference = Reference::default();
        for (name, graph) in &targets {
            let program = session(&arch, &options)
                .compile_graph(graph)
                .map_err(|e| format!("reference compile of {name}: {e}"))?;
            reference
                .facts
                .push(check_program(&program, &arch).map_err(|e| format!("{name}: {e}"))?);
        }
        let (cimmlc, cimmlc_s) = timed(|| {
            targets
                .iter()
                .map(|(_, graph)| cimmlc_cycles(&arch, graph))
                .collect::<Result<Vec<_>, _>>()
        });
        reference.cimmlc_cycles = cimmlc?;

        let mut order: Vec<usize> = (0..targets.len()).collect();
        Rng::new(seed, 1).shuffle(&mut order);

        let mut setup_layers =
            super::setup_layers(build_s, targets.iter().map(|(_, g)| g), cimmlc_s);
        reference.plan_layers(&mut setup_layers);
        Ok(Cold {
            arch,
            options,
            targets,
            order,
            reference,
            setup_layers,
        })
    }

    /// One operation as a user issues it: a fresh session, one compile
    /// request, one simulation. Returns the compile's share of the time.
    fn plain_op(&self, target: usize, request: CompileRequest, mode: Mode) -> Result<f64, String> {
        let facts = &self.reference.facts[target];
        let start = Instant::now();
        let outcome = session(&self.arch, &self.options)
            .compile(request)
            .map_err(|e| e.to_string())?;
        let compile_s = start.elapsed().as_secs_f64();
        let sim = simulate(&outcome.program, &self.arch)?;
        let same = match mode {
            Mode::Warmup => facts.same_bytes(&outcome.program),
            _ => facts.same_plan(&outcome.program),
        };
        if !same || sim.total_cycles.to_bits() != facts.cycles.to_bits() {
            return Err("plan or makespan differs from the reference compile".into());
        }
        Ok(compile_s)
    }

    /// The same operation with the benchmark driving the stages itself.
    fn traced_op(&self, rec: &mut Recorder, op: u32, target: usize) -> Result<(), String> {
        let facts = &self.reference.facts[target];
        let graph = &self.targets[target].1;
        let cache = AllocationCache::new();
        let (program, _) = staged_compile(rec, op, &self.arch, &self.options, &cache, graph)?;
        let sim = traced_simulate(rec, op, &program, &self.arch)?;
        if !facts.same_plan(&program) || sim.total_cycles.to_bits() != facts.cycles.to_bits() {
            return Err("plan or makespan differs from the reference compile".into());
        }
        Ok(())
    }
}

fn session(arch: &DualModeArch, options: &CompilerOptions) -> Session {
    Session::builder(arch.clone())
        .options(options.clone())
        .workers(1)
        .build()
}

impl Workload for Cold {
    fn ops_per_pass(&self) -> usize {
        self.order.len()
    }

    fn ops_hash(&self) -> u64 {
        hash_labels(self.order.iter().map(|&i| self.targets[i].0.as_str()))
    }

    fn pass(&mut self, mode: Mode) -> Pass {
        // A request owns its graph; the clones are the caller's, made
        // before the clock starts.
        let requests: Vec<CompileRequest> = self
            .order
            .iter()
            .map(|&i| {
                let (name, graph) = &self.targets[i];
                CompileRequest::new(graph.clone()).with_label(name.clone())
            })
            .collect();
        let mut latencies_ms = Vec::with_capacity(requests.len());
        let mut failures = Vec::new();
        let mut layers = Layers::new();
        let mut recorder = (mode == Mode::Traced).then(|| Recorder::new(Instant::now(), 0));
        let start = Instant::now();
        match &mut recorder {
            Some(rec) => rec.span("pass", 0, |rec| {
                for (op, &target) in self.order.iter().enumerate() {
                    let op = op as u32;
                    let (result, s) =
                        timed(|| rec.span("op", op, |rec| self.traced_op(rec, op, target)));
                    latencies_ms.push(s * 1e3);
                    if let Err(e) = result {
                        failures.push(format!("{}: {e}", self.targets[target].0));
                    }
                }
            }),
            None => {
                let mut compile_s = 0.0;
                for (&target, request) in self.order.iter().zip(requests) {
                    let (result, s) = timed(|| self.plain_op(target, request, mode));
                    latencies_ms.push(s * 1e3);
                    match result {
                        Ok(s) => compile_s += s,
                        Err(e) => failures.push(format!("{}: {e}", self.targets[target].0)),
                    }
                }
                layers.insert("core.session.compile_s", compile_s);
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        if let Some(rec) = &recorder {
            layers = layers_of(rec);
        }
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
        let graphs: Vec<&Graph> = self.targets.iter().map(|(_, g)| g).collect();
        let mut layers = probe::solve_windows(&self.arch, &self.options, &graphs, rng);
        let archs = vec![&self.arch; self.targets.len()];
        layers.extend(probe::programs(&self.reference, &archs));
        layers
    }
}
