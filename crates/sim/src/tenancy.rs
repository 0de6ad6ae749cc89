//! Multi-tenant chip co-scheduling and continuous-decode simulation.
//!
//! One physical dual-mode chip is rarely saturated by a single model:
//! a decode-phase LLM touches a few arrays per step, and the mode
//! switches it requests often leave arrays exactly where the next
//! tenant wants them. This module admits several independently
//! compiled programs onto one [`DualModeArch`] under two policies:
//!
//! * **Time-sliced** ([`TenancyPolicy::TimeSliced`]): every tenant sees
//!   the whole chip and the tenants' statements interleave on its
//!   arrays, sparing each other some `CM.switch` requests (*amortized*)
//!   and paying to re-switch arrays a neighbour flipped (*injected*).
//! * **Partitioned** ([`TenancyPolicy::Partitioned`]): each tenant owns
//!   a disjoint contiguous array range. Programs are compiled against
//!   the shrunken sub-chip ([`DualModeArch::partition`]), re-verified
//!   against that smaller capacity, then relocated onto the physical
//!   arrays. The off-chip link and vector function unit remain shared.
//!
//! There is no scheduler here. Tenants are flows of the event engine's
//! one forward pass ([`crate::engine`], which defines the arbitration
//! rule, *amortized* and *injected*): a tenant's solo baseline is that
//! pass over its flow alone — [`crate::EventEngine::simulate_program`]'s
//! makespan to the bit — and the co-schedule is the same pass over all
//! of them. This module adds admission, relocation, and the per-tenant
//! accounting around it.
//!
//! Admission runs [`cmswitch_core::verify::admission`] on every program
//! by default: the verifier's dependence analysis, then its capacity
//! analysis, the same functions [`cmswitch_core::Verifier::run`] calls —
//! a co-scheduler that trusts `op_deps` blindly would happily overlap
//! tenants across a dropped edge. Rejections surface as
//! [`TenancyError::Admission`]. A flow that breaks
//! mode discipline on its own is rejected as the simulators reject it
//! ([`TenancyError::ModeViolation`]), never repaired.
//!
//! [`DecodeLoop`] drives the co-scheduler through continuous-batching
//! autoregressive decode: each step grows every tenant's KV cache,
//! inflating its memory-mode footprint, and when a plan no longer fits
//! its partition the loop *re-segments* mid-flight through a
//! [`Session`] sharing the parent's allocation cache and artifact
//! store — warm re-planning is solve-free.

use std::fmt;

use cmswitch_arch::{ArchError, ArrayId, DualModeArch};
use cmswitch_core::verify;
use cmswitch_core::{
    CompileError, CompileRequest, CompiledProgram, DiagnosticEvent, Diagnostics, Session,
    VerifyReport,
};
use cmswitch_graph::{Graph, GraphError};
use cmswitch_metaop::{Flow, MetaOpError};

use crate::energy::{EnergyModel, EnergyReport};
use crate::engine;
use crate::stats::SwitchAmortization;

/// One admitted tenant: a label plus its compiled program.
#[derive(Debug, Clone, Copy)]
pub struct TenantProgram<'a> {
    /// Tenant label, used in reports and diagnostics.
    pub name: &'a str,
    /// The program to co-schedule.
    pub program: &'a CompiledProgram,
}

impl<'a> TenantProgram<'a> {
    /// Pairs a label with a compiled program.
    pub fn new(name: &'a str, program: &'a CompiledProgram) -> Self {
        TenantProgram { name, program }
    }
}

/// How tenants divide the chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenancyPolicy {
    /// Every tenant sees the whole chip; their statements interleave.
    TimeSliced,
    /// Tenant `i` owns a contiguous range of `shares[i]` arrays;
    /// programs must have been compiled against the matching
    /// [`DualModeArch::partition`] sub-chip.
    Partitioned {
        /// Per-tenant array counts, in tenant order.
        shares: Vec<usize>,
    },
}

/// Options for [`ChipScheduler::co_simulate`].
#[derive(Debug, Clone)]
pub struct CoSimOptions {
    /// Chip-division policy.
    pub policy: TenancyPolicy,
    /// Run the verifier's admission analyses
    /// ([`cmswitch_core::verify::admission`]) on every admitted program
    /// (default `true`). Opting out is for programs already
    /// verified by the caller on the same architecture.
    pub verify_admission: bool,
    /// Energy coefficients for per-tenant attribution.
    pub energy_model: EnergyModel,
}

impl Default for CoSimOptions {
    fn default() -> Self {
        CoSimOptions {
            policy: TenancyPolicy::TimeSliced,
            verify_admission: true,
            energy_model: EnergyModel::default(),
        }
    }
}

/// Co-scheduling failures.
#[derive(Debug)]
pub enum TenancyError {
    /// `co_simulate` was called with an empty tenant slice.
    NoTenants,
    /// A partitioned policy listed a different number of shares than
    /// tenants.
    ShareMismatch {
        /// Tenants submitted.
        tenants: usize,
        /// Shares listed in the policy.
        shares: usize,
    },
    /// The per-tenant shares exceed the physical array count.
    PartitionOverflow {
        /// Sum of requested shares.
        requested: usize,
        /// Arrays physically present.
        available: usize,
    },
    /// A tenant's program failed admission verification.
    Admission {
        /// The rejected tenant.
        tenant: String,
        /// The verifier's findings.
        report: Box<VerifyReport>,
    },
    /// A tenant's flow names an array the physical chip does not have
    /// (checked on every program, verified at admission or not: flows
    /// are public input and relocation offsets every id they name).
    ArrayOutOfRange {
        /// The offending tenant.
        tenant: String,
        /// The array, as the tenant's flow names it.
        array: ArrayId,
        /// Physical arrays from the tenant's base upward (the whole
        /// chip when time-sliced).
        available: usize,
    },
    /// A tenant's flow violates mode discipline on its own — the
    /// error both simulators report for it (checked on every program,
    /// verified at admission or not: co-scheduling shares arrays, it
    /// does not repair flows).
    ModeViolation {
        /// The offending tenant.
        tenant: String,
        /// The violation, as [`crate::EventEngine`] reports it.
        source: MetaOpError,
    },
    /// Carving a partition sub-chip failed.
    Arch(ArchError),
    /// A decode tenant's graph builder failed.
    Graph {
        /// The failing tenant.
        tenant: String,
        /// The underlying graph error.
        source: GraphError,
    },
    /// A decode tenant's (re-)compilation failed.
    Compile {
        /// The failing tenant.
        tenant: String,
        /// The underlying compile error.
        source: Box<CompileError>,
    },
}

impl fmt::Display for TenancyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenancyError::NoTenants => write!(f, "no tenants to co-schedule"),
            TenancyError::ShareMismatch { tenants, shares } => write!(
                f,
                "partitioned policy lists {shares} shares for {tenants} tenants"
            ),
            TenancyError::PartitionOverflow {
                requested,
                available,
            } => write!(
                f,
                "partition shares claim {requested} arrays, chip has {available}"
            ),
            TenancyError::Admission { tenant, report } => write!(
                f,
                "tenant {tenant} rejected at admission: {} deny finding(s)",
                report.deny_count()
            ),
            TenancyError::ArrayOutOfRange {
                tenant,
                array,
                available,
            } => write!(
                f,
                "tenant {tenant} names array {array}, but the chip has only \
                 {available} arrays from the tenant's base"
            ),
            TenancyError::ModeViolation { tenant, source } => {
                write!(f, "tenant {tenant} breaks mode discipline: {source}")
            }
            TenancyError::Arch(e) => write!(f, "partitioning failed: {e}"),
            TenancyError::Graph { tenant, source } => {
                write!(f, "tenant {tenant} graph construction failed: {source}")
            }
            TenancyError::Compile { tenant, source } => {
                write!(f, "tenant {tenant} compilation failed: {source}")
            }
        }
    }
}

impl std::error::Error for TenancyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenancyError::ModeViolation { source, .. } => Some(source),
            TenancyError::Arch(e) => Some(e),
            TenancyError::Graph { source, .. } => Some(source),
            TenancyError::Compile { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<ArchError> for TenancyError {
    fn from(e: ArchError) -> Self {
        TenancyError::Arch(e)
    }
}

/// One tenant's share of a co-scheduled run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant label.
    pub name: String,
    /// Cycle at which the tenant's last event retired.
    pub finish_cycles: f64,
    /// What the tenant's statements cost serialized in this run: the
    /// sequential replay's total, less the switches it was spared
    /// (amortized), plus the re-switches charged to it (injected).
    pub busy_cycles: f64,
    /// Makespan the same program achieves alone on an idle chip: the
    /// event engine's, bit for bit.
    pub solo_cycles: f64,
    /// Energy attributed to this tenant (schedule-invariant).
    pub energy: EnergyReport,
}

/// Result of co-scheduling N tenants on one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyReport {
    /// Per-tenant outcomes, in submission order.
    pub tenants: Vec<TenantReport>,
    /// Makespan of the co-scheduled run.
    pub total_cycles: f64,
    /// Sum of the tenants' solo makespans — what running them
    /// back-to-back would cost.
    pub serialized_cycles: f64,
    /// Chip-level energy: the component-wise sum of tenant energies.
    pub energy: EnergyReport,
    /// Jain's fairness index over per-tenant slowdowns
    /// (`solo/finish`); `1.0` means every tenant was slowed equally.
    pub fairness: f64,
    /// Mode-switch amortization statistics.
    pub switches: SwitchAmortization,
}

impl TenancyReport {
    /// Chip throughput gain over running the tenants back-to-back.
    pub fn speedup(&self) -> f64 {
        if self.total_cycles > 0.0 {
            self.serialized_cycles / self.total_cycles
        } else {
            1.0
        }
    }
}

/// Jain's fairness index over per-tenant progress shares.
fn jain_fairness(shares: &[f64]) -> f64 {
    let n = shares.len() as f64;
    let sum: f64 = shares.iter().sum();
    let sq: f64 = shares.iter().map(|x| x * x).sum();
    if sq > 0.0 {
        (sum * sum) / (n * sq)
    } else {
        1.0
    }
}

/// Relocates a partition-relative flow onto the physical chip by
/// offsetting every array reference by the partition base.
fn offset_flow(flow: &Flow, base: u32) -> Flow {
    let mut out = flow.clone();
    for s in out.stmts_mut() {
        s.for_each_array_set_mut(&mut |arrays| {
            *arrays = arrays.iter().map(|a| ArrayId(a.0 + base)).collect();
        });
    }
    out
}

// ---------------------------------------------------------------------
// ChipScheduler
// ---------------------------------------------------------------------

/// Admits N compiled programs onto one chip and co-schedules them.
#[derive(Debug, Clone)]
pub struct ChipScheduler {
    arch: DualModeArch,
    options: CoSimOptions,
}

impl ChipScheduler {
    /// A scheduler for `arch` with default (time-sliced, verified)
    /// options.
    pub fn new(arch: DualModeArch) -> Self {
        ChipScheduler {
            arch,
            options: CoSimOptions::default(),
        }
    }

    /// Replaces the co-simulation options.
    pub fn with_options(mut self, options: CoSimOptions) -> Self {
        self.options = options;
        self
    }

    /// The chip being scheduled.
    pub fn arch(&self) -> &DualModeArch {
        &self.arch
    }

    /// Admits one program compiled for `arch` (the chip, or the
    /// tenant's partition of it, which starts at physical array `base`).
    fn admit(
        &self,
        name: &str,
        program: &CompiledProgram,
        arch: &DualModeArch,
        base: u32,
    ) -> Result<(), TenancyError> {
        if self.options.verify_admission {
            let report = verify::admission(program, arch);
            if report.deny_count() > 0 {
                return Err(TenancyError::Admission {
                    tenant: name.to_string(),
                    report: Box::new(report),
                });
            }
        }
        // Not part of the opt-out: the engine indexes per-array state by
        // every id the flow names, relocated by `base`. One check per
        // run, however many ids it claims.
        let available = self.arch.n_arrays() - base as usize;
        let mut stray = None;
        for stmt in program.flow.stmts() {
            stmt.for_each_array_set(&mut |arrays| {
                if stray.is_none() {
                    stray = arrays.runs().iter().find_map(|r| r.first_beyond(available));
                }
            });
        }
        match stray {
            Some(array) => Err(TenancyError::ArrayOutOfRange {
                tenant: name.to_string(),
                array,
                available,
            }),
            None => Ok(()),
        }
    }

    /// Co-schedules the tenants and reports per-tenant and chip-level
    /// results.
    ///
    /// # Errors
    ///
    /// [`TenancyError::NoTenants`] on an empty slice;
    /// [`TenancyError::Admission`] when a program fails the
    /// dependence/capacity analyses; [`TenancyError::ArrayOutOfRange`]
    /// when one names an array the chip lacks;
    /// [`TenancyError::ModeViolation`] when one breaks mode discipline;
    /// share-shape errors under the partitioned policy.
    pub fn co_simulate(&self, tenants: &[TenantProgram]) -> Result<TenancyReport, TenancyError> {
        if tenants.is_empty() {
            return Err(TenancyError::NoTenants);
        }

        // Admission, policy-dependent; a partitioned tenant's flow is
        // relocated onto its physical arrays.
        let mut relocated = Vec::new();
        match &self.options.policy {
            TenancyPolicy::TimeSliced => {
                for t in tenants {
                    self.admit(t.name, t.program, &self.arch, 0)?;
                }
            }
            TenancyPolicy::Partitioned { shares } => {
                if shares.len() != tenants.len() {
                    return Err(TenancyError::ShareMismatch {
                        tenants: tenants.len(),
                        shares: shares.len(),
                    });
                }
                let requested: usize = shares.iter().sum();
                if requested > self.arch.n_arrays() {
                    return Err(TenancyError::PartitionOverflow {
                        requested,
                        available: self.arch.n_arrays(),
                    });
                }
                let mut base = 0u32;
                for (t, &share) in tenants.iter().zip(shares) {
                    let sub = self.arch.partition(share)?;
                    // Verify against the *shrunken* capacity: a plan
                    // that fit the whole chip may not fit its slice.
                    self.admit(t.name, t.program, &sub, base)?;
                    relocated.push(offset_flow(&t.program.flow, base));
                    base += share as u32;
                }
            }
        }
        let programs = tenants.iter().map(|t| t.program);
        let seg_deps: Vec<_> = programs.map(engine::segment_deps).collect();
        let flows: Vec<engine::FlowInput> = (0..tenants.len())
            .map(|i| {
                let flow = relocated.get(i).unwrap_or(&tenants[i].program.flow);
                (flow, seg_deps[i].as_deref())
            })
            .collect();

        // One scheduler: each tenant alone on the idle chip (its solo
        // baseline, which is also where a flow that breaks mode
        // discipline is rejected), then all of them in one pass.
        let energy_model = &self.options.energy_model;
        let violation = |first: usize| {
            move |(flow, source): (usize, MetaOpError)| TenancyError::ModeViolation {
                tenant: tenants[first + flow].name.to_string(),
                source,
            }
        };
        let mut solos = Vec::with_capacity(flows.len());
        for (i, flow) in flows.iter().enumerate() {
            // Energy is schedule- and placement-invariant: what the
            // tenant's statements cost alone is what they cost shared.
            let solo = engine::schedule(std::slice::from_ref(flow), &self.arch, energy_model, None)
                .map_err(violation(i))?
                .report;
            solos.push((solo.total_cycles, solo.energy));
        }
        let shared =
            engine::schedule(&flows, &self.arch, energy_model, None).map_err(violation(0))?;

        let mut chip_energy = EnergyReport::default();
        let mut progress = Vec::with_capacity(tenants.len());
        let reports = tenants
            .iter()
            .zip(&shared.flows)
            .zip(&solos)
            .map(|((t, flow), &(solo_cycles, energy))| {
                chip_energy.absorb(&energy);
                progress.push(if flow.finish > 0.0 {
                    solo_cycles / flow.finish
                } else {
                    1.0
                });
                TenantReport {
                    name: t.name.to_string(),
                    finish_cycles: flow.finish,
                    busy_cycles: flow.busy,
                    solo_cycles,
                    energy,
                }
            })
            .collect();

        Ok(TenancyReport {
            tenants: reports,
            total_cycles: shared.report.total_cycles,
            serialized_cycles: solos.iter().map(|&(cycles, _)| cycles).sum(),
            energy: chip_energy,
            fairness: jain_fairness(&progress),
            switches: shared.switches,
        })
    }
}

// ---------------------------------------------------------------------
// DecodeLoop
// ---------------------------------------------------------------------

/// One autoregressive tenant of a [`DecodeLoop`].
pub struct DecodeTenant {
    name: String,
    batch: usize,
    kv_start: usize,
    kv_bytes_per_token: u64,
    build: Box<dyn Fn(usize) -> Result<Graph, GraphError> + Send + Sync>,
}

impl fmt::Debug for DecodeTenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodeTenant")
            .field("name", &self.name)
            .field("batch", &self.batch)
            .field("kv_start", &self.kv_start)
            .field("kv_bytes_per_token", &self.kv_bytes_per_token)
            .finish_non_exhaustive()
    }
}

impl DecodeTenant {
    /// A decode tenant: `build(kv_len)` constructs the step graph at a
    /// KV-cache length; `kv_bytes_per_token` is the per-step growth of
    /// the tenant's memory-mode footprint (per batch element).
    pub fn new(
        name: impl Into<String>,
        batch: usize,
        kv_start: usize,
        kv_bytes_per_token: u64,
        build: impl Fn(usize) -> Result<Graph, GraphError> + Send + Sync + 'static,
    ) -> Self {
        DecodeTenant {
            name: name.into(),
            batch: batch.max(1),
            kv_start,
            kv_bytes_per_token,
            build: Box::new(build),
        }
    }

    /// Tenant label.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Options for [`DecodeLoop::run`].
#[derive(Debug, Clone)]
pub struct DecodeOptions {
    /// Decode steps to simulate.
    pub steps: usize,
    /// Clock frequency used only to convert cycles into tokens/sec.
    pub clock_ghz: f64,
    /// Re-segment once a tenant's KV cache has grown by this many
    /// bytes since its last compile, even if the plan still fits the
    /// partition. `u64::MAX` (the default) leaves re-segmentation
    /// purely footprint-driven.
    pub kv_headroom_bytes: u64,
    /// Run the verifier's admission analyses in the co-scheduler
    /// (default `true`).
    pub verify_admission: bool,
    /// Energy coefficients.
    pub energy_model: EnergyModel,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            steps: 8,
            clock_ghz: 1.0,
            kv_headroom_bytes: u64::MAX,
            verify_admission: true,
            energy_model: EnergyModel::default(),
        }
    }
}

/// One tenant's decode-loop outcome.
#[derive(Debug, Clone)]
pub struct DecodeTenantReport {
    /// Tenant label.
    pub name: String,
    /// KV-cache length after the last step.
    pub final_kv: usize,
    /// Mid-flight re-segmentations performed.
    pub resegmentations: u64,
    /// Allocator solves this tenant's compiles cost (initial + all
    /// re-segmentations). Zero on a warm cache.
    pub solves: u64,
    /// The plan the tenant ended on — bit-identical to a cold compile
    /// of the same graph at `final_kv` against the same partition.
    pub final_program: CompiledProgram,
}

/// Result of a continuous-decode co-simulation.
#[derive(Debug, Clone)]
pub struct DecodeReport {
    /// Steps simulated.
    pub steps: usize,
    /// Tokens produced across all tenants.
    pub tokens: u64,
    /// Total chip cycles across all steps.
    pub total_cycles: f64,
    /// Chip-level decode throughput at [`DecodeOptions::clock_ghz`].
    pub tokens_per_sec: f64,
    /// Mid-flight re-segmentations across all tenants.
    pub resegmentations: u64,
    /// Allocator solves across all compiles (zero on a warm cache).
    pub solves: u64,
    /// Typed events, including one [`DiagnosticEvent::Resegmented`]
    /// per re-segmentation.
    pub diagnostics: Diagnostics,
    /// Per-tenant outcomes.
    pub tenants: Vec<DecodeTenantReport>,
    /// The co-scheduling report of the final program set.
    pub tenancy: TenancyReport,
}

/// Drives continuous-batching autoregressive decode over a
/// [`ChipScheduler`] with per-tenant static partitions.
///
/// Each step grows every tenant's KV cache by one token. A tenant's
/// program is re-segmented mid-flight — recompiled through a
/// [`Session::partitioned`] sub-session sharing the parent's
/// allocation cache and artifact store — when the grown memory-mode
/// footprint no longer fits beside the plan's widest segment, or when
/// the growth exceeds [`DecodeOptions::kv_headroom_bytes`].
pub struct DecodeLoop<'a> {
    session: &'a Session,
    tenants: Vec<DecodeTenant>,
    options: DecodeOptions,
}

impl<'a> DecodeLoop<'a> {
    /// A decode loop compiling through `session` (and re-segmenting
    /// through its partition sub-sessions).
    pub fn new(session: &'a Session) -> Self {
        DecodeLoop {
            session,
            tenants: Vec::new(),
            options: DecodeOptions::default(),
        }
    }

    /// Adds a tenant.
    pub fn tenant(mut self, tenant: DecodeTenant) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: DecodeOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the decode loop.
    ///
    /// # Errors
    ///
    /// Graph construction, compilation, partitioning and admission
    /// failures, each tagged with the offending tenant.
    pub fn run(&self) -> Result<DecodeReport, TenancyError> {
        if self.tenants.is_empty() {
            return Err(TenancyError::NoTenants);
        }
        let arch = self.session.arch();
        let n = self.tenants.len();
        let share = arch.n_arrays() / n;
        if share == 0 {
            return Err(TenancyError::PartitionOverflow {
                requested: n,
                available: arch.n_arrays(),
            });
        }

        struct TenantState {
            session: Session,
            program: CompiledProgram,
            kv_compiled: usize,
            kv: usize,
            resegmentations: u64,
            solves: u64,
        }

        let mut diagnostics = Diagnostics::new();
        let mut states = Vec::with_capacity(n);
        for t in &self.tenants {
            let psession = self.session.partitioned(share)?;
            let graph = (t.build)(t.kv_start).map_err(|source| TenancyError::Graph {
                tenant: t.name.clone(),
                source,
            })?;
            let outcome = psession
                .compile(CompileRequest::new(graph).with_label(&t.name))
                .map_err(|source| TenancyError::Compile {
                    tenant: t.name.clone(),
                    source: Box::new(source),
                })?;
            let solves = outcome.stats().solver_invocations();
            states.push(TenantState {
                session: psession,
                program: outcome.program,
                kv_compiled: t.kv_start,
                kv: t.kv_start,
                resegmentations: 0,
                solves,
            });
        }

        let scheduler = ChipScheduler::new(arch.clone()).with_options(CoSimOptions {
            policy: TenancyPolicy::Partitioned {
                shares: vec![share; n],
            },
            verify_admission: self.options.verify_admission,
            energy_model: self.options.energy_model.clone(),
        });

        let co_sim = |states: &[TenantState]| -> Result<TenancyReport, TenancyError> {
            let tenants: Vec<TenantProgram> = self
                .tenants
                .iter()
                .zip(states)
                .map(|(t, s)| TenantProgram::new(&t.name, &s.program))
                .collect();
            scheduler.co_simulate(&tenants)
        };

        let mut step_report = co_sim(&states)?;
        let mut total_cycles = 0.0f64;
        let mut tokens = 0u64;
        for _step in 1..=self.options.steps {
            let mut dirty = false;
            for (t, state) in self.tenants.iter().zip(&mut states) {
                state.kv += 1;
                let grown_bytes = (state.kv - state.kv_compiled) as u64
                    * t.kv_bytes_per_token
                    * t.batch as u64;
                let extra_arrays = grown_bytes.div_ceil(arch.array_bytes().max(1)) as usize;
                let widest = state
                    .program
                    .segments
                    .iter()
                    .map(|s| s.alloc.arrays_used())
                    .max()
                    .unwrap_or(0);
                if widest + extra_arrays > share || grown_bytes > self.options.kv_headroom_bytes {
                    let graph = (t.build)(state.kv).map_err(|source| TenancyError::Graph {
                        tenant: t.name.clone(),
                        source,
                    })?;
                    let outcome = state
                        .session
                        .compile(CompileRequest::new(graph).with_label(&t.name))
                        .map_err(|source| TenancyError::Compile {
                            tenant: t.name.clone(),
                            source: Box::new(source),
                        })?;
                    let solves = outcome.stats().solver_invocations();
                    diagnostics.push(DiagnosticEvent::Resegmented {
                        tenant: t.name.clone(),
                        kv_len: state.kv,
                        solves,
                    });
                    state.program = outcome.program;
                    state.kv_compiled = state.kv;
                    state.resegmentations += 1;
                    state.solves += solves;
                    dirty = true;
                }
            }
            if dirty {
                step_report = co_sim(&states)?;
            }
            total_cycles += step_report.total_cycles;
            tokens += self.tenants.iter().map(|t| t.batch as u64).sum::<u64>();
        }

        let seconds = total_cycles / (self.options.clock_ghz * 1e9);
        Ok(DecodeReport {
            steps: self.options.steps,
            tokens,
            tokens_per_sec: if seconds > 0.0 {
                tokens as f64 / seconds
            } else {
                0.0
            },
            total_cycles,
            resegmentations: states.iter().map(|s| s.resegmentations).sum(),
            solves: states.iter().map(|s| s.solves).sum(),
            diagnostics,
            tenants: self
                .tenants
                .iter()
                .zip(&states)
                .map(|(t, s)| DecodeTenantReport {
                    name: t.name.clone(),
                    final_kv: s.kv,
                    resegmentations: s.resegmentations,
                    solves: s.solves,
                    final_program: s.program.clone(),
                })
                .collect(),
            tenancy: step_report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;

    fn compiled(graph: Graph, arch: &DualModeArch) -> CompiledProgram {
        Session::builder(arch.clone())
            .build()
            .compile(CompileRequest::new(graph))
            .unwrap()
            .program
    }

    #[test]
    fn empty_tenancy_is_rejected() {
        let scheduler = ChipScheduler::new(presets::tiny());
        assert!(matches!(
            scheduler.co_simulate(&[]),
            Err(TenancyError::NoTenants)
        ));
    }

    #[test]
    fn solo_tenant_matches_its_serialized_baseline() {
        let arch = presets::tiny();
        let p = compiled(cmswitch_models::mlp::mlp(2, &[96, 128, 64]).unwrap(), &arch);
        let report = ChipScheduler::new(arch.clone())
            .co_simulate(&[TenantProgram::new("solo", &p)])
            .unwrap();
        assert_eq!(report.total_cycles, report.serialized_cycles);
        assert_eq!(report.speedup(), 1.0);
        assert_eq!(report.fairness, 1.0);
        assert_eq!(report.switches.injected, 0);
        assert_eq!(report.tenants[0].solo_cycles, report.total_cycles);
        // The baseline is the event engine's makespan, to the bit.
        let engine = crate::EventEngine::new();
        let alone = engine.simulate_program(&p, &arch).unwrap().total_cycles;
        assert_eq!(report.tenants[0].solo_cycles.to_bits(), alone.to_bits());
    }

    #[test]
    fn two_tenants_amortize_switches_and_beat_serialization() {
        let arch = presets::tiny();
        let a = compiled(cmswitch_models::mlp::mlp(2, &[96, 128, 64]).unwrap(), &arch);
        let b = compiled(cmswitch_models::mlp::mlp(2, &[64, 96, 32]).unwrap(), &arch);
        let report = ChipScheduler::new(arch)
            .co_simulate(&[TenantProgram::new("a", &a), TenantProgram::new("b", &b)])
            .unwrap();
        assert!(
            report.total_cycles < report.serialized_cycles,
            "co-scheduling {} must beat back-to-back {}",
            report.total_cycles,
            report.serialized_cycles
        );
        assert!(report.speedup() > 1.0);
        assert!(report.fairness > 0.0 && report.fairness <= 1.0);
        assert_eq!(
            report.switches.requested,
            report.switches.executed + report.switches.amortized
        );
    }

    #[test]
    fn partitioned_tenants_never_inject_cross_switches() {
        let arch = presets::tiny();
        let n = arch.n_arrays() / 2;
        let sub = arch.partition(n).unwrap();
        let a = compiled(cmswitch_models::mlp::mlp(2, &[96, 128, 64]).unwrap(), &sub);
        let b = compiled(cmswitch_models::mlp::mlp(2, &[64, 96, 32]).unwrap(), &sub);
        let report = ChipScheduler::new(arch)
            .with_options(CoSimOptions {
                policy: TenancyPolicy::Partitioned { shares: vec![n, n] },
                ..CoSimOptions::default()
            })
            .co_simulate(&[TenantProgram::new("a", &a), TenantProgram::new("b", &b)])
            .unwrap();
        // Disjoint arrays: no tenant can flip a neighbour's arrays, or
        // spare it a switch — sharing the bus and the vector unit only
        // ever delays a tenant.
        assert_eq!(report.switches.injected, 0);
        assert_eq!(report.switches.requested, report.switches.executed);
        assert!(report.total_cycles < report.serialized_cycles);
        for t in &report.tenants {
            assert!(t.finish_cycles >= t.solo_cycles, "{t:?}");
            assert!(t.solo_cycles <= report.total_cycles, "{t:?}");
        }
    }

    #[test]
    fn partition_share_shape_errors_are_typed() {
        let arch = presets::tiny();
        let p = compiled(cmswitch_models::mlp::mlp(2, &[96, 128, 64]).unwrap(), &arch);
        let tenants = [TenantProgram::new("a", &p)];
        let mismatch = ChipScheduler::new(arch.clone())
            .with_options(CoSimOptions {
                policy: TenancyPolicy::Partitioned {
                    shares: vec![1, 2],
                },
                ..CoSimOptions::default()
            })
            .co_simulate(&tenants);
        assert!(matches!(mismatch, Err(TenancyError::ShareMismatch { .. })));
        let overflow = ChipScheduler::new(arch.clone())
            .with_options(CoSimOptions {
                policy: TenancyPolicy::Partitioned {
                    shares: vec![arch.n_arrays() + 1],
                },
                ..CoSimOptions::default()
            })
            .co_simulate(&tenants);
        assert!(matches!(
            overflow,
            Err(TenancyError::PartitionOverflow { .. })
        ));
    }

    #[test]
    fn admission_rejects_a_program_with_a_dropped_dependence_edge() {
        use cmswitch_core::verify::mutate::Mutation;
        let arch = presets::dynaplasia();
        // Reuse edges only appear when the allocator plans buffer
        // reuse; probe a few shapes until the mutation applies.
        let (good, bad) = [
            cmswitch_models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap(),
            cmswitch_models::registry::build("resnet18", 1, 16).unwrap(),
            cmswitch_models::registry::build("bert-base", 1, 16).unwrap(),
        ]
        .into_iter()
        .find_map(|graph| {
            let p = compiled(graph, &arch);
            Mutation::DropReuseDepEdge.apply(&p).map(|bad| (p, bad))
        })
        .expect("some probe plan has a reuse edge to drop");
        let scheduler = ChipScheduler::new(arch);
        let err = scheduler
            .co_simulate(&[
                TenantProgram::new("good", &good),
                TenantProgram::new("bad", &bad),
            ])
            .unwrap_err();
        match err {
            TenancyError::Admission { tenant, report } => {
                assert_eq!(tenant, "bad");
                assert!(report.deny_count() > 0);
            }
            other => panic!("expected admission rejection, got {other}"),
        }
        // Opting out admits the mutant — the flag exists for programs
        // the caller already verified, and this proves it is the verifier
        // doing the rejecting.
        let lax = ChipScheduler::new(presets::dynaplasia()).with_options(CoSimOptions {
            verify_admission: false,
            ..CoSimOptions::default()
        });
        assert!(lax
            .co_simulate(&[TenantProgram::new("bad", &bad)])
            .is_ok());
    }

    #[test]
    fn offset_flow_relocates_every_array_reference() {
        let arch = presets::tiny();
        let sub = arch.partition(2).unwrap();
        let p = compiled(cmswitch_models::mlp::mlp(1, &[64, 32]).unwrap(), &sub);
        let shifted = offset_flow(&p.flow, 7);
        let min_array = |flow: &Flow| {
            let mut min = u32::MAX;
            for s in flow.stmts() {
                s.for_each_array(&mut |a| min = min.min(a.0));
            }
            min
        };
        assert_eq!(
            min_array(&shifted),
            min_array(&p.flow) + 7,
            "every reference moved up by the partition base"
        );
    }
}
