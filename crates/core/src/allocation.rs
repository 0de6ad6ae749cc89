//! Unified dual-mode allocation with scheduling (§4.3.2).
//!
//! For one candidate segment, decides how many arrays each operator gets
//! in compute mode (`Com_Oi`) and memory mode as input/output buffers
//! (`λ_min`/`λ_mout`), maximizing pipeline throughput:
//!
//! * **MIP path** (the paper's formulation, solved with the
//!   branch-and-bound substitute for Gurobi): integer array counts with
//!   the array-overlap (Eq. 5), dependency-reuse (Eq. 6), disjointness
//!   (Eq. 7) and resource-limit (Eq. 8) constraints, optimizing the
//!   min-max objective (Eq. 9) linearized as max-min throughput —
//!   minimizing `max_i OP_i/x_i` is equivalent to maximizing
//!   `min_i x_i/OP_i` since `t ↦ 1/t` is monotone.
//! * **Fast path**: the exact specialized binary-search allocator from
//!   `cmswitch-solver`, used as fallback and for compile-time ablation.
//!
//! Results are cached by segment *shape signature*: transformer layers
//! repeat identical segments, so one solve serves all layers — the
//! paper's §5.6 observation that "compilation results of a single block
//! are reused across all layers.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
// `Condvar` comes from std: the vendored `parking_lot` stand-in hands
// out plain `std::sync` guards, which is exactly what std's Condvar
// waits on.
use std::sync::{Arc, Condvar};

use parking_lot::{Mutex, RwLock};

use cmswitch_solver::{alloc as fast, stable_hash64, MipProblem, Relation};

use crate::artifact::PayloadStamp;
use crate::compiler::CompileStats;
use crate::cost::CostModel;
use crate::frontend::SegOp;
use crate::AllocatorKind;

/// Arrays assigned to one operator (the per-op aggregation of the λ
/// variables of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpAllocation {
    /// Compute-mode arrays (`Com_Oi`).
    pub compute: usize,
    /// Memory-mode arrays buffering inputs (`Σλ_min`).
    pub mem_in: usize,
    /// Memory-mode arrays buffering outputs (`Σλ_mout`).
    pub mem_out: usize,
}

/// Allocation decided for a whole segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentAllocation {
    /// Per-op allocations, in segment order.
    pub ops: Vec<OpAllocation>,
    /// Buffer reuse between dependent ops: `((producer, consumer),
    /// shared_arrays)` with local indices (the `H_{i,j}` of Eq. 8).
    pub reuse: Vec<((usize, usize), usize)>,
    /// Pipeline bottleneck latency (Eq. 9 objective, cycles).
    pub latency: f64,
}

impl SegmentAllocation {
    /// The allocation of an empty segment: no arrays, zero latency. Used
    /// as the "previous segment" when costing the first segment's mode
    /// switches (every array starts in memory mode).
    pub fn empty() -> Self {
        SegmentAllocation {
            ops: Vec::new(),
            reuse: Vec::new(),
            latency: 0.0,
        }
    }

    // The totals below saturate: a decoded allocation may claim any
    // count, and the verifier must report it, not overflow on it.

    /// Total compute arrays.
    pub fn total_compute(&self) -> usize {
        self.ops.iter().fold(0, |n, o| n.saturating_add(o.compute))
    }

    /// Total memory arrays (input + output buffers, reuse counted once).
    pub fn total_memory(&self) -> usize {
        let raw = self.ops.iter().fold(0, |n: usize, o| {
            n.saturating_add(o.mem_in).saturating_add(o.mem_out)
        });
        let shared = self
            .reuse
            .iter()
            .fold(0, |n: usize, &(_, r)| n.saturating_add(r));
        raw.saturating_sub(shared)
    }

    /// Physical arrays used (Eq. 8 left-hand side).
    pub fn arrays_used(&self) -> usize {
        self.total_compute().saturating_add(self.total_memory())
    }

    /// Fraction of used arrays that are in memory mode (the Fig. 16
    /// bottom-row metric).
    pub fn memory_ratio(&self) -> f64 {
        let used = self.arrays_used();
        if used == 0 {
            0.0
        } else {
            self.total_memory() as f64 / used as f64
        }
    }
}

/// Mean [`SegmentAllocation::memory_ratio`] over a sequence of
/// allocations (`0.0` for an empty sequence) — the Fig. 16 bottom-row
/// metric.
///
/// The one shared definition behind
/// [`crate::CompiledProgram::average_memory_ratio`].
pub fn mean_memory_ratio<'a, I>(allocs: I) -> f64
where
    I: ExactSizeIterator<Item = &'a SegmentAllocation>,
{
    let n = allocs.len();
    if n == 0 {
        return 0.0;
    }
    allocs.map(|a| a.memory_ratio()).sum::<f64>() / n as f64
}

/// The allocator's solver counters while it runs: one relaxed atomic
/// per allocator counter of [`CompileStats`], named and documented
/// there (solve-pool threads share one allocator).
/// [`AllocatorStats::add_to`] is the only reader.
#[derive(Debug, Default)]
pub struct AllocatorStats {
    mip_solves: AtomicU64,
    fast_solves: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    mip_fallbacks: AtomicU64,
    warm_accepted: AtomicU64,
    warm_rejected: AtomicU64,
    bnb_nodes: AtomicU64,
    lp_solves: AtomicU64,
    pivots: AtomicU64,
    budget_exhausted: AtomicU64,
    improved: AtomicU64,
}

impl AllocatorStats {
    /// Adds these counters into `stats`, the compile's one counter
    /// record (call once per allocator, after its last use).
    pub fn add_to(&self, stats: &mut CompileStats) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        stats.mip_solves += load(&self.mip_solves);
        stats.fast_solves += load(&self.fast_solves);
        stats.cache_hits += load(&self.cache_hits);
        stats.cache_misses += load(&self.cache_misses);
        stats.mip_fallbacks += load(&self.mip_fallbacks);
        stats.warm_accepted += load(&self.warm_accepted);
        stats.warm_rejected += load(&self.warm_rejected);
        stats.bnb_nodes += load(&self.bnb_nodes);
        stats.lp_solves += load(&self.lp_solves);
        stats.pivots += load(&self.pivots);
        stats.budget_exhausted += load(&self.budget_exhausted);
        stats.improved += load(&self.improved);
    }
}

/// A thread-safe cache of per-segment allocation results, shareable
/// across compilations, models and threads.
///
/// Entries are bucketed by a stable 64-bit hash of the full signature
/// `(ALLOC_KEY_SCHEMA, allocation fingerprint, allocator kind, segment
/// signature)` — see
/// [`cmswitch_arch::DualModeArch::allocation_fingerprint`] and
/// [`cmswitch_solver::stable_hash64`] — so:
///
/// * identical segments *within* one model (repeated transformer blocks),
///   *across* models (the same block shape in different networks) and
///   *across* chips that differ only in what the allocator never reads
///   (switch latency or mechanism, buffer capacity — a design sweep's
///   siblings) resolve to one entry and one solver invocation,
/// * architectures whose allocator inputs differ, and different
///   allocator kinds, never alias: changing any parameter the allocator
///   reads changes the allocation fingerprint, which effectively
///   invalidates every prior entry for that compiler.
///
/// The full signature word sequence is stored alongside each entry and
/// compared on lookup, so a 64-bit hash collision costs at worst a
/// redundant solve (the colliding signatures fight over one bucket,
/// last writer wins) — it can never return another segment's
/// allocation.
///
/// Infeasible segments (`None`) are cached too — re-proving infeasibility
/// costs a solver run just like a solve does.
///
/// It is the only memo of window allocations: the DP's batches do not
/// deduplicate (single-flight does), and MIP neighbour warm starts are
/// looked up here too. The cache keeps no counters; each
/// [`Allocator`] counts its own lookups.
///
/// # Cost contract
///
/// A hit — almost every lookup of a long plan — hashes the signature
/// once (built in the looking thread's reused buffer), takes the map's
/// read lock once, compares the stored signature and clones the
/// allocation it returns: no in-flight mutex, no write lock, no other
/// allocation. Only a miss takes the in-flight mutex (re-checking the
/// map under it), copies the signature out and, if it owns the solve,
/// takes the write lock to publish.
#[derive(Debug, Default)]
pub struct AllocationCache {
    map: RwLock<HashMap<u64, CacheEntry>>,
    /// Bucket hashes a solver is currently working on (single-flight):
    /// a concurrent lookup of an in-flight signature blocks on
    /// `inflight_done` instead of paying a redundant solve.
    inflight: Mutex<HashSet<u64>>,
    inflight_done: Condvar,
    /// Stamps of the allocation snapshots imported so far: importing
    /// one again would only re-insert what is already here.
    imported: Mutex<Vec<PayloadStamp>>,
}

/// One cache bucket: the full signature it belongs to (verified on
/// lookup) and the allocation result (`None` = proven infeasible).
type CacheEntry = (Vec<u64>, Option<SegmentAllocation>);

/// First word of every allocation signature, naming its layout. The
/// first layout had no schema word and began with the whole-chip
/// fingerprint, so an entry from it can never be looked up again; the
/// L2→L1 promotion ([`crate::ArtifactStore::load_alloc_snapshot`]) drops
/// every entry whose first word differs rather than carry it forever.
pub(crate) const ALLOC_KEY_SCHEMA: u64 = 2;

/// One exported cache entry: `(bucket hash, full signature, result)` —
/// the unit of the on-disk allocation snapshot
/// ([`AllocationCache::export_entries`] /
/// [`AllocationCache::import_entries`],
/// [`crate::artifact::encode_alloc_entries`]). The hash is carried
/// explicitly so importing never re-hashes a signature.
pub type AllocEntry = (u64, Vec<u64>, Option<SegmentAllocation>);

/// Outcome of [`AllocationCache::probe_or_begin`]: the cached answer,
/// or exclusive ownership of the solve for this signature.
enum Flight<'a> {
    /// The cache (possibly populated by a concurrent solver the probe
    /// waited out) answered — no solver run needed.
    Hit(Option<SegmentAllocation>),
    /// The caller owns this solve. Concurrent probes of the same bucket
    /// block until the guard drops.
    Solve(FlightGuard<'a>),
}

/// Exclusive in-flight mark for one cache bucket. Dropping it — after
/// the owner inserted its result, or during unwinding if the solve
/// panicked — clears the mark and wakes every waiter; waiters re-probe
/// the map, so an aborted solve is simply retried by the next claimant
/// rather than wedging them.
struct FlightGuard<'a> {
    cache: &'a AllocationCache,
    hash: u64,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.cache.inflight.lock().remove(&self.hash);
        self.cache.inflight_done.notify_all();
    }
}

impl AllocationCache {
    /// Creates an empty cache behind an [`Arc`], ready to be shared.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Number of cached segment allocations (feasible and infeasible).
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Drops every entry (and with them every snapshot imported).
    pub fn clear(&self) {
        self.map.write().clear();
        self.imported.lock().clear();
    }

    /// Single-flight lookup: either answers from the cache, or hands the
    /// caller exclusive responsibility for solving this signature. A hit
    /// takes only the map's read lock; a miss re-checks under the
    /// in-flight mutex before claiming the solve. While
    /// the returned [`FlightGuard`] lives, every concurrent probe of the
    /// same bucket blocks — when the owner inserts (or unwinds without
    /// inserting), waiters re-check the map, so two workers compiling
    /// identical graphs pay exactly one solve between them instead of
    /// racing miss/miss.
    ///
    /// Without `read`, the map is not asked: the caller owns the solve
    /// once no one else is solving the bucket — the in-flight mark alone,
    /// which a top-level solve without cache reuse takes so that a
    /// concurrent neighbour lookup of the same signature waits for it
    /// rather than solving it a second time. A batch's top-level solves
    /// get theirs from [`Allocator::reserve_window`] before the batch
    /// fans out.
    ///
    /// Deadlock safety: a solve that probes *nested* signatures (the
    /// MIP warm-start probing its window minus the trailing op) always
    /// waits on a strictly shorter window, so the waits-on relation is
    /// acyclic.
    fn probe_or_begin(&self, hash: u64, sig: &[u64], read: bool) -> Flight<'_> {
        let cached = || match read.then(|| self.map.read()).as_ref()?.get(&hash) {
            Some((stored, value)) if stored == sig => Some(value.clone()),
            // Empty bucket, or a collision with a different signature:
            // solve (last writer owns the bucket).
            _ => None,
        };
        // A hit — almost every lookup of a long plan — needs only the
        // map's read lock, never the in-flight mutex.
        if let Some(hit) = cached() {
            return Flight::Hit(hit);
        }
        let mut inflight = self.inflight.lock();
        loop {
            // Check the map again while holding the in-flight lock: an
            // owner publishes its result to the map *before* clearing
            // its mark, so this check can never miss a completed solve.
            if let Some(hit) = cached() {
                return Flight::Hit(hit);
            }
            if inflight.insert(hash) {
                return Flight::Solve(FlightGuard { cache: self, hash });
            }
            inflight = self
                .inflight_done
                .wait(inflight)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn insert_prehashed(&self, hash: u64, sig: Vec<u64>, value: Option<SegmentAllocation>) {
        debug_assert_eq!(hash, stable_hash64(&sig), "prehashed key out of sync");
        self.map.write().insert(hash, (sig, value));
    }

    /// Snapshots every entry as `(hash, signature, result)`, sorted by
    /// hash so the export (and hence the on-disk artifact bytes) is
    /// deterministic regardless of `HashMap` iteration order.
    pub fn export_entries(&self) -> Vec<AllocEntry> {
        let map = self.map.read();
        let mut entries: Vec<AllocEntry> = map
            .iter()
            .map(|(&hash, (sig, value))| (hash, sig.clone(), value.clone()))
            .collect();
        drop(map);
        entries.sort_by_key(|&(hash, _, _)| hash);
        entries
    }

    /// Bulk-inserts exported entries (the L2→L1 promotion at session
    /// build), trusting each carried hash — zero signatures are
    /// re-hashed no matter how many entries the snapshot holds. Safe to
    /// trust: lookups compare the full signature, so an entry whose
    /// hash lies can miss but can never serve a wrong allocation.
    /// Returns the number of entries inserted.
    pub fn import_entries(&self, entries: Vec<AllocEntry>) -> usize {
        let mut map = self.map.write();
        let mut inserted = 0;
        for (hash, sig, value) in entries {
            debug_assert_eq!(hash, stable_hash64(&sig), "imported entry hash mismatch");
            map.insert(hash, (sig, value));
            inserted += 1;
        }
        inserted
    }

    /// Whether the snapshot stamped `stamp` was imported here before.
    pub(crate) fn imported(&self, stamp: PayloadStamp) -> bool {
        self.imported.lock().contains(&stamp)
    }

    /// [`AllocationCache::import_entries`] for the snapshot stamped
    /// `stamp`, remembered so that [`AllocationCache::imported`] skips it
    /// next time.
    pub(crate) fn import_snapshot(&self, stamp: PayloadStamp, entries: Vec<AllocEntry>) -> usize {
        let inserted = self.import_entries(entries);
        self.imported.lock().push(stamp);
        inserted
    }
}

/// The per-segment allocator and the cache it publishes into.
pub struct Allocator<'a> {
    cm: CostModel<'a>,
    kind: AllocatorKind,
    /// Every solved window is published here: the caller's cache, or a
    /// private one that lives as long as the allocator. Also the source
    /// of MIP neighbour warm starts ([`Allocator::neighbor_extension`]).
    cache: Arc<AllocationCache>,
    /// Whether [`Allocator::allocate`] probes `cache` before solving.
    /// Without it the cache only answers neighbour warm-start lookups,
    /// which are then not counted as cache traffic.
    reuse: bool,
    /// Without `reuse`: the signature hashes whose in-flight marks
    /// [`Allocator::reserve_window`] claimed for the top-level solves of
    /// the batch being fanned out, each taken over by its solve.
    reserved: Mutex<Vec<u64>>,
    /// `(ALLOC_KEY_SCHEMA, allocation fingerprint, allocator kind)`
    /// prefix of every cache signature this allocator produces.
    sig_prefix: [u64; 3],
    /// Solve counters.
    pub stats: AllocatorStats,
}

impl<'a> Allocator<'a> {
    /// Creates an allocator for `arch` (via its cost model) with a
    /// private cache that lives as long as the allocator — one
    /// compilation, typically. `reuse_cache` decides whether
    /// [`Self::allocate`] reads it.
    pub fn new(cm: CostModel<'a>, kind: AllocatorKind, reuse_cache: bool) -> Self {
        Self::build(cm, kind, AllocationCache::new(), reuse_cache)
    }

    /// Creates an allocator whose results are read from and written to
    /// `cache`, which outlives the allocator and may be shared across
    /// compilations and threads ([`crate::Session::compile_batch`]).
    pub fn with_cache(cm: CostModel<'a>, kind: AllocatorKind, cache: Arc<AllocationCache>) -> Self {
        Self::build(cm, kind, cache, true)
    }

    fn build(
        cm: CostModel<'a>,
        kind: AllocatorKind,
        cache: Arc<AllocationCache>,
        reuse: bool,
    ) -> Self {
        let sig_prefix = [
            ALLOC_KEY_SCHEMA,
            cm.arch().allocation_fingerprint(),
            match kind {
                AllocatorKind::Mip => 0,
                AllocatorKind::Fast => 1,
            },
        ];
        Allocator {
            cm,
            kind,
            cache,
            reuse,
            reserved: Mutex::new(Vec::new()),
            sig_prefix,
            stats: AllocatorStats::default(),
        }
    }

    /// Whether [`Allocator::allocate`] probes the cache before solving.
    pub(crate) fn reuses_cache(&self) -> bool {
        self.reuse
    }

    /// Without cache reuse (the only case that calls it), claims the
    /// in-flight mark of the window `ops`'s signature on behalf of its
    /// top-level solve, which takes it over when it runs. The DP calls
    /// this on the submitting thread for every window of a solve batch
    /// before fanning the batch out, so a MIP neighbour lookup that
    /// reaches one of the batch's signatures first waits for that
    /// window's solve instead of solving it a second time: the solve
    /// counts are the same at any worker count by construction. The
    /// batch runs shortest window first, and a neighbour is one op
    /// shorter than its window, so a solve only ever waits on a mark
    /// whose solve was taken before it (and the one-worker loop never
    /// on its own). A mark already held — the same signature
    /// twice in a batch — is left to its solve's own probe.
    /// [`Allocator::release_reserved`] frees the marks no solve took.
    pub(crate) fn reserve_window(&self, ops: &[SegOp], local_deps: &[(usize, usize, u64)]) {
        let hash = SIGNATURE.with_borrow_mut(|sig| {
            write_signature(sig, &self.sig_prefix, ops, local_deps);
            stable_hash64(sig)
        });
        let claimed = self.cache.inflight.lock().insert(hash);
        if claimed {
            self.reserved.lock().push(hash);
        }
    }

    /// Frees the marks [`Allocator::reserve_window`] claimed that no
    /// solve took over (a cancelled batch's), waking whoever waits on
    /// them.
    pub(crate) fn release_reserved(&self) {
        let mut reserved = self.reserved.lock();
        if reserved.is_empty() {
            return;
        }
        let mut inflight = self.cache.inflight.lock();
        for hash in reserved.drain(..) {
            inflight.remove(&hash);
        }
        drop(inflight);
        self.cache.inflight_done.notify_all();
    }

    /// The mark [`Allocator::reserve_window`] claimed for `hash`, taken
    /// over by the solve that owns it from here on.
    fn adopt(&self, hash: u64) -> Option<FlightGuard<'_>> {
        let mut reserved = self.reserved.lock();
        let i = reserved.iter().position(|&h| h == hash)?;
        reserved.swap_remove(i);
        Some(FlightGuard {
            cache: &self.cache,
            hash,
        })
    }

    /// Allocates dual-mode arrays for the segment `ops` with intra-segment
    /// dependencies `local_deps` (`(producer, consumer, bytes)`, local
    /// indices). Returns `None` when the segment cannot fit the chip.
    pub fn allocate(
        &self,
        ops: &[SegOp],
        local_deps: &[(usize, usize, u64)],
    ) -> Option<SegmentAllocation> {
        if ops.is_empty() {
            return Some(SegmentAllocation::empty());
        }
        self.lookup(ops, local_deps, self.reuse)
    }

    /// The allocation of a non-empty window. With `probe`, the cache is
    /// asked first — single-flight: it answers (possibly after waiting
    /// out a concurrent solver of the same signature), or this call owns
    /// the solve and holds the in-flight mark until it has published the
    /// result. Without it the call solves, but still under the in-flight
    /// mark — the one [`Allocator::reserve_window`] claimed for it, if any.
    /// Every solve is published. Under `reuse` each probe counts
    /// as one hit or one miss, so the counts are a function of the
    /// windows asked for, never of which worker asked first.
    ///
    /// The signature is built into this thread's reused buffer and
    /// copied out only for a solve (the cache keeps it). The buffer is
    /// released before the solve, whose neighbour lookup reuses it.
    fn lookup(
        &self,
        ops: &[SegOp],
        local_deps: &[(usize, usize, u64)],
        probe: bool,
    ) -> Option<SegmentAllocation> {
        let traffic = |counter: &AtomicU64| {
            if self.reuse {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        };
        let probed = SIGNATURE.with_borrow_mut(|sig| {
            write_signature(sig, &self.sig_prefix, ops, local_deps);
            let hash = stable_hash64(sig);
            let reserved = if probe { None } else { self.adopt(hash) };
            let flight = match reserved {
                Some(guard) => guard,
                None => match self.cache.probe_or_begin(hash, sig, probe) {
                    Flight::Hit(hit) => return ControlFlow::Break(hit),
                    Flight::Solve(guard) => guard,
                },
            };
            ControlFlow::Continue((hash, sig.clone(), flight))
        });
        let (hash, sig, flight) = match probed {
            ControlFlow::Break(hit) => {
                traffic(&self.stats.cache_hits);
                return hit;
            }
            ControlFlow::Continue(solve) => solve,
        };
        if probe {
            traffic(&self.stats.cache_misses);
        }
        let result = match self.kind {
            AllocatorKind::Mip => self.solve_mip(ops, local_deps),
            AllocatorKind::Fast => self.solve_fast(ops, local_deps),
        };
        self.cache.insert_prehashed(hash, sig, result.clone());
        // Publish-then-release: waiters woken by this drop re-probe the
        // map and find the result just inserted.
        drop(flight);
        result
    }

    fn solve_mip(
        &self,
        ops: &[SegOp],
        local_deps: &[(usize, usize, u64)],
    ) -> Option<SegmentAllocation> {
        self.stats.mip_solves.fetch_add(1, Ordering::Relaxed);
        // Two warm-start candidates for the branch-and-bound incumbent:
        // the fast allocator's exact (uncoupled) solution, and the
        // neighbor window's solution extended by one op. With either as
        // the initial incumbent the search only explores nodes that
        // could beat it through the Eq. 6 reuse coupling.
        let warm = self.solve_fast(ops, local_deps);
        let neighbor = self.neighbor_extension(ops, local_deps);
        let arch = self.cm.arch();
        let n = arch.n_arrays() as f64;
        let op_cim = arch.op_cim();
        let d_cim = arch.d_cim();
        let d_main = arch.d_main();

        // Reference latency for scaling: every op at minimal allocation.
        let l0 = ops
            .iter()
            .map(|o| o.work / (o.min_tiles.max(1) as f64 * op_cim))
            .fold(0.0f64, f64::max)
            .max(1.0);

        let mut mip = MipProblem::new();
        // The warm start is already the exact optimum of the uncoupled
        // objective, so branch-and-bound only hunts for reuse-coupling
        // gains; its budget stays small (compile time is the paper's
        // Fig. 18 metric) and scales down with segment size. The 2% gap
        // is far below the latency model's fidelity.
        mip.set_node_limit((240 / ops.len().max(1)).max(30));
        mip.set_relative_gap(2e-2);
        let z = mip.add_var(0.0, f64::INFINITY, 1.0);
        let mut com = Vec::with_capacity(ops.len());
        let mut min_v = Vec::with_capacity(ops.len());
        let mut mout = Vec::with_capacity(ops.len());
        let mut xs = Vec::with_capacity(ops.len());
        for op in ops {
            let c = mip.add_int_var(op.min_tiles.max(1) as f64, n, 0.0);
            let mi = mip.add_int_var(0.0, n, 0.0);
            let mo = mip.add_int_var(0.0, n, 0.0);
            let x = mip.add_var(0.0, n * op_cim, 0.0);
            // x <= com * OP_cim.
            mip.add_constraint(vec![(x, 1.0), (c, -op_cim)], Relation::Le, 0.0)
                .ok()?;
            // x <= ((min+mout)*D_cim + D_main) * AI.
            let ai = op.ai();
            if ai.is_finite() {
                mip.add_constraint(
                    vec![(x, 1.0), (mi, -d_cim * ai), (mo, -d_cim * ai)],
                    Relation::Le,
                    d_main * ai,
                )
                .ok()?;
            }
            // z <= x * L0 / work  <=>  (work/L0) z - x <= 0.
            mip.add_constraint(vec![(z, op.work / l0), (x, -1.0)], Relation::Le, 0.0)
                .ok()?;
            com.push(c);
            min_v.push(mi);
            mout.push(mo);
            xs.push(x);
        }
        // Reuse variables per dependency (Eq. 6 coupling, Eq. 8 refund).
        let mut reuse_vars = Vec::with_capacity(local_deps.len());
        for &(p, c, bytes) in local_deps {
            let cap = (bytes.div_ceil(arch.array_bytes().max(1))).min(arch.n_arrays() as u64);
            let r = mip.add_int_var(0.0, cap as f64, 0.0);
            reuse_vars.push(((p, c), r));
        }
        // An output buffer can be lent to each consumer only once, and a
        // consumer's input buffer can absorb at most its own size:
        // Σ_{e out of p} r_e ≤ mout_p and Σ_{e into c} r_e ≤ min_c.
        for (i, _) in ops.iter().enumerate() {
            let outgoing: Vec<_> = reuse_vars
                .iter()
                .filter(|((p, _), _)| *p == i)
                .map(|&(_, r)| (r, 1.0))
                .collect();
            if !outgoing.is_empty() {
                let mut terms = outgoing;
                terms.push((mout[i], -1.0));
                mip.add_constraint(terms, Relation::Le, 0.0).ok()?;
            }
            let incoming: Vec<_> = reuse_vars
                .iter()
                .filter(|((_, c), _)| *c == i)
                .map(|&(_, r)| (r, 1.0))
                .collect();
            if !incoming.is_empty() {
                let mut terms = incoming;
                terms.push((min_v[i], -1.0));
                mip.add_constraint(terms, Relation::Le, 0.0).ok()?;
            }
        }
        // Capacity (Eq. 8): sum of all allocations minus reuse <= N.
        let mut terms: Vec<_> = Vec::new();
        for i in 0..ops.len() {
            terms.push((com[i], 1.0));
            terms.push((min_v[i], 1.0));
            terms.push((mout[i], 1.0));
        }
        for &(_, r) in &reuse_vars {
            terms.push((r, -1.0));
        }
        mip.add_constraint(terms, Relation::Le, n).ok()?;

        // Warm start: pick the better feasible candidate. Both
        // candidates are pure functions of the window signature and the
        // pick is a deterministic argmax (ties keep the fast solution),
        // so the seeded incumbent — and with it the returned solution —
        // never depends on solve order or thread timing. Infeasible
        // candidates (e.g. a neighbor extension that oversubscribes
        // Eq. 8) are discarded rather than set, counted as rejected.
        let n_vars = mip.n_vars();
        let build_warm = |alloc: &SegmentAllocation| -> Vec<f64> {
            let mut values = vec![0.0; n_vars];
            let mut z_val = f64::INFINITY;
            for (i, (op, a)) in ops.iter().zip(&alloc.ops).enumerate() {
                let mem_total = (a.mem_in + a.mem_out) as f64;
                let compute_rate = a.compute as f64 * op_cim;
                let mem_rate = if op.ai().is_finite() {
                    (mem_total * d_cim + d_main) * op.ai()
                } else {
                    f64::INFINITY
                };
                let x_val = compute_rate.min(mem_rate).min(n * op_cim);
                values[com[i].index()] = a.compute as f64;
                values[min_v[i].index()] = a.mem_in as f64;
                values[mout[i].index()] = a.mem_out as f64;
                values[xs[i].index()] = x_val;
                z_val = z_val.min(x_val * l0 / op.work);
            }
            values[z.index()] = z_val.max(0.0);
            for (((p, c), rvar), &(dp, dc, _)) in reuse_vars.iter().zip(local_deps) {
                debug_assert_eq!((*p, *c), (dp, dc));
                let r = alloc
                    .reuse
                    .iter()
                    .find(|((rp, rc), _)| (*rp, *rc) == (*p, *c))
                    .map(|&(_, r)| r)
                    .unwrap_or(0);
                values[rvar.index()] = r as f64;
            }
            values
        };
        let mut best_start: Option<(f64, Vec<f64>)> = None;
        for cand in [warm.as_ref(), neighbor.as_ref()].into_iter().flatten() {
            let values = build_warm(cand);
            match mip.check_feasible(&values) {
                Some(obj) => {
                    if best_start.as_ref().is_none_or(|(b, _)| obj > *b) {
                        best_start = Some((obj, values));
                    }
                }
                None => {
                    self.stats.warm_rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let start_objective = best_start.as_ref().map(|&(obj, _)| obj);
        let warm_set = if let Some((_, values)) = best_start {
            let accepted = mip.set_warm_start(values);
            debug_assert!(accepted, "warm start built against mip's own n_vars");
            accepted
        } else {
            false
        };

        let sol = match mip.solve() {
            Ok(sol) => sol,
            // Infeasible, node-limit or numerical trouble: the fast
            // solution (None when genuinely infeasible) stands.
            Err(_) => {
                if warm_set {
                    self.stats.warm_rejected.fetch_add(1, Ordering::Relaxed);
                }
                self.stats.mip_fallbacks.fetch_add(1, Ordering::Relaxed);
                return warm;
            }
        };
        if warm_set {
            if sol.used_warm_start {
                self.stats.warm_accepted.fetch_add(1, Ordering::Relaxed);
            } else {
                self.stats.warm_rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        let count = |counter: &AtomicU64, n: usize| counter.fetch_add(n as u64, Ordering::Relaxed);
        count(&self.stats.bnb_nodes, sol.nodes_explored);
        count(&self.stats.lp_solves, sol.lp_solves);
        count(&self.stats.pivots, sol.pivots);
        count(&self.stats.budget_exhausted, usize::from(!sol.proven_optimal));
        // The search displaces its incumbent only for a strictly better
        // objective, so "returned the warm start" is "returned its
        // objective".
        let improved = start_objective.is_none_or(|start| sol.objective > start);
        count(&self.stats.improved, usize::from(improved));
        let per_op: Vec<OpAllocation> = (0..ops.len())
            .map(|i| OpAllocation {
                compute: sol.int_value(com[i]) as usize,
                mem_in: sol.int_value(min_v[i]) as usize,
                mem_out: sol.int_value(mout[i]) as usize,
            })
            .collect();
        let reuse: Vec<((usize, usize), usize)> = reuse_vars
            .iter()
            .map(|&((p, c), r)| ((p, c), sol.int_value(r) as usize))
            .filter(|&(_, r)| r > 0)
            .collect();
        let mut alloc = SegmentAllocation {
            ops: per_op,
            reuse,
            latency: 0.0,
        };
        alloc.latency = self.cm.intra_latency(ops, &alloc);
        self.trim_compute(ops, &mut alloc);
        balance_reload(&self.cm, ops, &mut alloc);
        Some(alloc)
    }

    /// The warm-start candidate sourced from the *neighbor* window: the
    /// same ops minus the last one (with the deps it consumes dropped),
    /// whose allocation is near-identical in structure, extended by a
    /// minimal compute-only allocation for the appended op.
    ///
    /// The neighbor is probed in the allocator's cache like any other
    /// window and, on a miss, solved there recursively — so availability
    /// (and thus the warm start, and thus the MIP's returned solution)
    /// is purely signature-determined: identical windows get identical
    /// warm starts no matter which DP mode, batch order or worker
    /// schedule asked first.
    fn neighbor_extension(
        &self,
        ops: &[SegOp],
        local_deps: &[(usize, usize, u64)],
    ) -> Option<SegmentAllocation> {
        if ops.len() < 2 {
            return None;
        }
        let last = ops.len() - 1;
        let n_ops = &ops[..last];
        let n_deps: Vec<(usize, usize, u64)> = local_deps
            .iter()
            .copied()
            .filter(|&(p, c, _)| p < last && c < last)
            .collect();
        let base = self.lookup(n_ops, &n_deps, true)?;
        let mut ext_ops = base.ops;
        ext_ops.push(OpAllocation {
            compute: ops[last].min_tiles.max(1),
            mem_in: 0,
            mem_out: 0,
        });
        Some(SegmentAllocation {
            ops: ext_ops,
            // Local dep indices are unchanged by appending an op, and no
            // dep involving the new op carries reuse.
            reuse: base.reuse,
            // Never read by the warm-vector construction.
            latency: 0.0,
        })
    }

    /// Removes compute arrays that do not help the segment bottleneck.
    ///
    /// The Eq. 9 objective is indifferent to how many arrays
    /// *non-bottleneck* operators hold, but every compute array costs
    /// reload time at segment entry (Eq. 2), so excess compute
    /// allocations are trimmed back to the point where the segment
    /// bottleneck would grow. Memory arrays are kept: they carry live
    /// data across segment boundaries (reducing T_wb) and cost nothing
    /// to reload.
    fn trim_compute(&self, ops: &[SegOp], alloc: &mut SegmentAllocation) {
        let bottleneck = alloc.latency * (1.0 + 1e-9);
        for (i, op) in ops.iter().enumerate() {
            while alloc.ops[i].compute > op.min_tiles.max(1) {
                let mut trial = alloc.ops[i];
                trial.compute -= 1;
                if self.cm.op_latency(op, &trial) <= bottleneck {
                    alloc.ops[i] = trial;
                } else {
                    break;
                }
            }
        }
        alloc.latency = self.cm.intra_latency(ops, alloc);
    }

    fn solve_fast(
        &self,
        ops: &[SegOp],
        local_deps: &[(usize, usize, u64)],
    ) -> Option<SegmentAllocation> {
        self.stats.fast_solves.fetch_add(1, Ordering::Relaxed);
        let arch = self.cm.arch();
        let chip = &self.cm.chip;
        let fast_ops: Vec<fast::AllocOp> = ops.iter().map(|o| self.cm.alloc_op(o)).collect();
        // Conservative first (no reuse credit), optimistic if that fails.
        let credit: usize = local_deps
            .iter()
            .map(|&(_, _, b)| b.div_ceil(arch.array_bytes().max(1)) as usize)
            .sum();
        let solved = fast::solve(&fast_ops, chip, 0)
            .or_else(|_| fast::solve(&fast_ops, chip, credit))
            .ok()?;

        // Split each op's memory arrays into output/input buffers and
        // derive the realized reuse pairs.
        let mut per_op: Vec<OpAllocation> = solved
            .ops
            .iter()
            .zip(ops)
            .map(|(a, op)| {
                let want_out =
                    (op.out_bytes.div_ceil(arch.array_bytes().max(1)) as usize).max(1);
                let mem_out = a.memory.min(want_out);
                OpAllocation {
                    compute: a.compute,
                    mem_in: a.memory - mem_out,
                    mem_out,
                }
            })
            .collect();
        let mut reuse = compute_reuse(&per_op, local_deps, arch.array_bytes());
        // Enforce the physical capacity after the split; trim memory
        // arrays from the largest holders if reuse credit was over-used.
        let mut alloc = SegmentAllocation {
            ops: per_op.clone(),
            reuse: reuse.clone(),
            latency: 0.0,
        };
        while alloc.arrays_used() > arch.n_arrays() {
            let (idx, _) = per_op
                .iter()
                .enumerate()
                .filter(|(_, a)| a.mem_in + a.mem_out > 0)
                .max_by_key(|(_, a)| a.mem_in + a.mem_out)?;
            if per_op[idx].mem_in > 0 {
                per_op[idx].mem_in -= 1;
            } else {
                per_op[idx].mem_out -= 1;
            }
            reuse = compute_reuse(&per_op, local_deps, arch.array_bytes());
            alloc = SegmentAllocation {
                ops: per_op.clone(),
                reuse: reuse.clone(),
                latency: 0.0,
            };
        }
        alloc.latency = self.cm.intra_latency(ops, &alloc);
        self.trim_compute(ops, &mut alloc);
        balance_reload(&self.cm, ops, &mut alloc);
        Some(alloc)
    }
}

/// Trades intra-segment latency against the weight-reload cost the
/// allocation will trigger at segment entry (Eq. 2,
/// [`CostModel::reload_cost`]), then sets `alloc.latency`.
///
/// The paper's Eq. 9 objective alone is reload-blind: for
/// weight-streaming workloads it happily buys compute arrays whose tiny
/// bottleneck improvement is dwarfed by the extra reload time. This
/// descent shrinks the largest static-weight compute allocations while
/// `intra + reload` keeps improving. The dual-mode allocator and
/// [`all_compute_alloc`] both end with it, so CMSwitch-vs-baseline
/// comparisons isolate the dual-mode dimension rather than reload
/// awareness.
fn balance_reload(cm: &CostModel<'_>, ops: &[SegOp], alloc: &mut SegmentAllocation) {
    loop {
        let cur_total = cm.intra_latency(ops, alloc) + cm.reload_cost(ops, alloc);
        // Decrement every static op sitting at the current maximum
        // compute count (ties must shrink together to reduce the max).
        let max_com = ops
            .iter()
            .zip(&alloc.ops)
            .filter(|(op, _)| op.weight_static)
            .map(|(_, o)| o.compute)
            .max()
            .unwrap_or(0);
        if max_com == 0 {
            break;
        }
        let mut trial = alloc.clone();
        let mut changed = false;
        for (op, o) in ops.iter().zip(trial.ops.iter_mut()) {
            if op.weight_static && o.compute == max_com && o.compute > op.min_tiles.max(1) {
                o.compute -= 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let new_total = cm.intra_latency(ops, &trial) + cm.reload_cost(ops, &trial);
        if new_total < cur_total - 1e-9 {
            *alloc = trial;
        } else {
            break;
        }
    }
    alloc.latency = cm.intra_latency(ops, alloc);
}

/// The all-compute baselines' allocation for a slice of ops: every
/// operator gets its minimal weight tiles and no memory arrays. With
/// `duplicate`, leftover arrays go one at a time to the slowest operator
/// (weight duplication) and `balance_reload` trades them against
/// reload time. `None` when the minimal tiles overflow the chip.
pub fn all_compute_alloc(
    ops: &[SegOp],
    cm: &CostModel<'_>,
    duplicate: bool,
) -> Option<SegmentAllocation> {
    let n = cm.arch().n_arrays();
    let mut alloc = SegmentAllocation {
        ops: ops
            .iter()
            .map(|o| OpAllocation {
                compute: o.min_tiles.max(1),
                mem_in: 0,
                mem_out: 0,
            })
            .collect(),
        reuse: Vec::new(),
        latency: 0.0,
    };
    let used = alloc.total_compute();
    if used > n {
        return None;
    }
    if duplicate {
        let mut leftover = n - used;
        while leftover > 0 {
            let (worst, cur) = alloc
                .ops
                .iter()
                .enumerate()
                .map(|(i, a)| (i, cm.op_latency(&ops[i], a)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("comparable"))?;
            let mut trial = alloc.ops[worst];
            trial.compute += 1;
            if cm.op_latency(&ops[worst], &trial) < cur - 1e-12 {
                alloc.ops[worst] = trial;
                leftover -= 1;
            } else {
                break;
            }
        }
        balance_reload(cm, ops, &mut alloc);
    } else {
        alloc.latency = cm.intra_latency(ops, &alloc);
    }
    Some(alloc)
}

/// Greedy capacity-tracked reuse assignment: each producer's output
/// buffer is lent at most once, each consumer's input buffer absorbs at
/// most its own size (the aggregate form of Eq. 6).
fn compute_reuse(
    per_op: &[OpAllocation],
    local_deps: &[(usize, usize, u64)],
    array_bytes: u64,
) -> Vec<((usize, usize), usize)> {
    let mut out_left: Vec<usize> = per_op.iter().map(|a| a.mem_out).collect();
    let mut in_left: Vec<usize> = per_op.iter().map(|a| a.mem_in).collect();
    let mut reuse = Vec::new();
    for &(p, c, bytes) in local_deps {
        let cap = bytes.div_ceil(array_bytes.max(1)) as usize;
        let r = out_left[p].min(in_left[c]).min(cap);
        if r > 0 {
            out_left[p] -= r;
            in_left[c] -= r;
            reuse.push(((p, c), r));
        }
    }
    reuse
}

thread_local! {
    /// [`Allocator::lookup`]'s signature buffer: one per thread, grown to
    /// the longest window signature it has built and then reused.
    static SIGNATURE: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Writes the full cache signature into `sig` (replacing its contents):
/// the allocator's `(schema, allocation fingerprint, kind)` prefix
/// followed by everything about the segment that the allocators read —
/// per-op shapes, units, operand residency, data volumes and the local
/// dependency structure. Op *names* are excluded on purpose — that is
/// what lets layer 17's attention block reuse layer 3's allocation.
fn write_signature(
    sig: &mut Vec<u64>,
    prefix: &[u64; 3],
    ops: &[SegOp],
    local_deps: &[(usize, usize, u64)],
) {
    sig.clear();
    sig.reserve(prefix.len() + ops.len() * 8 + local_deps.len() * 3 + 1);
    sig.extend_from_slice(prefix);
    for op in ops {
        sig.extend_from_slice(&[
            op.m as u64,
            op.k as u64,
            op.n as u64,
            op.units as u64,
            op.weight_static as u64,
            op.in_bytes,
            op.out_bytes,
            op.aux_flops,
        ]);
    }
    sig.push(u64::MAX); // separator
    for &(p, c, b) in local_deps {
        sig.extend_from_slice(&[p as u64, c as u64, b]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;

    /// What `alloc` counted, as the compile's counter record.
    fn counted(alloc: &Allocator<'_>) -> CompileStats {
        let mut stats = CompileStats::default();
        alloc.stats.add_to(&mut stats);
        stats
    }

    /// What `cache` answers for `sig` without solving: the cached
    /// result, or `None` when the probe would own the solve.
    fn probe(cache: &AllocationCache, sig: &[u64]) -> Option<Option<SegmentAllocation>> {
        match cache.probe_or_begin(stable_hash64(sig), sig, true) {
            Flight::Hit(hit) => Some(hit),
            Flight::Solve(_) => None,
        }
    }

    fn shared<'a>(
        arch: &'a cmswitch_arch::DualModeArch,
        cache: &Arc<AllocationCache>,
    ) -> Allocator<'a> {
        Allocator::with_cache(CostModel::new(arch), AllocatorKind::Fast, Arc::clone(cache))
    }

    fn seg_op(name: &str, m: usize, k: usize, n: usize, stat: bool) -> SegOp {
        SegOp {
            source: 0,
            name: name.into(),
            m,
            k,
            n,
            units: 1,
            weight_static: stat,
            work: (m * k * n) as f64,
            in_bytes: (m * k) as u64,
            out_bytes: (m * n) as u64,
            weight_bytes: (k * n) as u64,
            aux_flops: 0,
            min_tiles: 1,
        }
    }

    #[test]
    fn mip_and_fast_agree_on_latency() {
        let arch = presets::tiny();
        let cm = CostModel::new(&arch);
        let ops = vec![seg_op("a", 64, 64, 64, true), seg_op("b", 64, 64, 64, true)];
        let deps = vec![(0usize, 1usize, 64 * 64u64)];
        let mip = Allocator::new(CostModel::new(&arch), AllocatorKind::Mip, false);
        let fast = Allocator::new(cm, AllocatorKind::Fast, false);
        let am = mip.allocate(&ops, &deps).unwrap();
        let af = fast.allocate(&ops, &deps).unwrap();
        // Both are optimal for the same objective (modulo the reuse
        // coupling which can only help the MIP), so MIP <= fast + eps.
        assert!(
            am.latency <= af.latency * 1.001 + 1e-9,
            "mip {} fast {}",
            am.latency,
            af.latency
        );
        assert!(am.arrays_used() <= arch.n_arrays());
        assert!(af.arrays_used() <= arch.n_arrays());
    }

    #[test]
    fn concurrent_identical_windows_pay_one_solve_and_always_hit() {
        // The latent race behind a flaky hit count: workers probing
        // the same signature before any of them inserted all counted
        // misses and all paid a solver run. Single-flight makes the
        // outcome exact under every interleaving — one thread owns the
        // solve, every other thread blocks briefly and is served a hit.
        let arch = presets::tiny();
        let cache = AllocationCache::new();
        let ops = vec![seg_op("a", 64, 64, 64, true), seg_op("b", 64, 64, 64, true)];
        let deps = vec![(0usize, 1usize, 64 * 64u64)];
        let mut total = CompileStats::default();
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let alloc = shared(&arch, &cache);
                        alloc.allocate(&ops, &deps).unwrap();
                        counted(&alloc)
                    })
                })
                .collect();
            for t in threads {
                total.absorb(&t.join().unwrap());
            }
        });
        assert_eq!(total.cache_misses, 1, "exactly one thread owns the solve");
        assert_eq!(total.fast_solves, 1);
        assert_eq!(total.cache_hits, 3, "every other thread is served a hit");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_solve_without_reuse_holds_the_mark_a_lookup_waits_on() {
        // A top-level solve without cache reuse never reads the map, but
        // marks its signature in flight: a neighbour lookup of it waits
        // for the result instead of solving it a second time.
        let cache = AllocationCache::new();
        let sig = [ALLOC_KEY_SCHEMA, 7, 11];
        let hash = stable_hash64(&sig);
        let Flight::Solve(guard) = cache.probe_or_begin(hash, &sig, false) else {
            panic!("an empty cache has nothing to answer");
        };
        std::thread::scope(|s| {
            let lookup = s.spawn(|| probe(&cache, &sig));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!lookup.is_finished(), "the lookup must wait for the mark");
            cache.insert_prehashed(hash, sig.to_vec(), None);
            drop(guard);
            assert_eq!(lookup.join().unwrap(), Some(None), "served the result");
        });
        // Present in the map or not, a solve without reuse owns its solve.
        assert!(matches!(
            cache.probe_or_begin(hash, &sig, false),
            Flight::Solve(_)
        ));
    }

    #[test]
    fn neighbour_lookups_are_counted_only_under_reuse() {
        let arch = presets::tiny();
        let ops: Vec<SegOp> = ["a", "b", "c"]
            .iter()
            .map(|n| seg_op(n, 64, 64, 64, true))
            .collect();
        let deps = vec![(0usize, 1usize, 64 * 64u64), (1, 2, 64 * 64)];
        // With reuse, a window and the neighbours its MIP warm start asks
        // for are each one counted lookup: `abc`, `ab` and `a` miss; the
        // later `ab` is a hit.
        let reused = Allocator::new(CostModel::new(&arch), AllocatorKind::Mip, true);
        let abc = reused.allocate(&ops, &deps);
        let ab = reused.allocate(&ops[..2], &deps[..1]);
        let stats = counted(&reused);
        assert_eq!(
            (stats.mip_solves, stats.cache_misses, stats.cache_hits),
            (3, 3, 1)
        );
        // Without reuse every `allocate` solves, yet the neighbour `a` of
        // the second `ab` solve is answered by the private cache; no
        // lookup is counted as cache traffic.
        let alone = Allocator::new(CostModel::new(&arch), AllocatorKind::Mip, false);
        assert_eq!(alone.allocate(&ops, &deps), abc);
        assert_eq!(alone.allocate(&ops[..2], &deps[..1]), ab);
        let stats = counted(&alone);
        assert_eq!(
            (stats.mip_solves, stats.cache_misses, stats.cache_hits),
            (4, 0, 0)
        );
    }

    #[test]
    fn infeasible_when_tiles_exceed_chip() {
        let arch = presets::tiny(); // 8 arrays
        let alloc = Allocator::new(CostModel::new(&arch), AllocatorKind::Mip, false);
        let mut op = seg_op("big", 64, 512, 512, true);
        op.min_tiles = 64;
        assert!(alloc.allocate(&[op], &[]).is_none());
    }

    #[test]
    fn memory_bound_op_gets_memory_arrays() {
        let arch = presets::dynaplasia();
        let alloc = Allocator::new(CostModel::new(&arch), AllocatorKind::Mip, false);
        // Low AI (n small): m huge, n=1 -> AI ~ 1.
        let op = seg_op("gemv", 1 << 20, 320, 1, true);
        let a = alloc.allocate(&[op], &[]).unwrap();
        assert!(
            a.ops[0].mem_in + a.ops[0].mem_out > 0,
            "memory-bound op should get memory arrays: {:?}",
            a.ops[0]
        );
    }

    #[test]
    fn compute_bound_op_prefers_compute_arrays() {
        let arch = presets::dynaplasia();
        let alloc = Allocator::new(CostModel::new(&arch), AllocatorKind::Mip, false);
        // Truly compute-bound: AI = n = 8192 MACs/byte, beyond the chip's
        // balance point D_main·AI vs N·OP_cim (= 2400 on DynaPlasia).
        let op = seg_op("mmm", 4096, 320, 8192, true);
        let a = alloc.allocate(&[op], &[]).unwrap();
        assert!(
            a.ops[0].compute > 2 * (a.ops[0].mem_in + a.ops[0].mem_out),
            "{:?}",
            a.ops[0]
        );
    }

    #[test]
    fn cache_hits_for_identical_segments() {
        let arch = presets::tiny();
        let alloc = Allocator::new(CostModel::new(&arch), AllocatorKind::Fast, true);
        let ops = vec![seg_op("a", 64, 64, 64, true)];
        let _ = alloc.allocate(&ops, &[]);
        let _ = alloc.allocate(&ops, &[]);
        let stats = counted(&alloc);
        assert_eq!(stats.fast_solves, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn shared_cache_spans_allocators_with_one_solve() {
        // Two allocators (e.g. two compilations of different models on
        // different threads) sharing one cache: the segment is solved
        // exactly once, and both get the identical allocation.
        let arch = presets::tiny();
        let cache = AllocationCache::new();
        let a1 = shared(&arch, &cache);
        let a2 = shared(&arch, &cache);
        let ops = vec![seg_op("block", 64, 64, 64, true)];
        let r1 = a1.allocate(&ops, &[]).unwrap();
        let r2 = a2.allocate(&ops, &[]).unwrap();
        assert_eq!(r1, r2);
        let (s1, s2) = (counted(&a1), counted(&a2));
        assert_eq!(
            s1.fast_solves + s2.fast_solves,
            1,
            "exactly one solver invocation"
        );
        assert_eq!((s1.cache_hits, s1.cache_misses), (0, 1));
        assert_eq!((s2.cache_hits, s2.cache_misses), (1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn arch_change_invalidates_shared_cache_entries() {
        // Same segment, same shared cache, different chip preset: the
        // fingerprint differs, so the second allocator must re-solve
        // rather than reuse an allocation sized for the other chip.
        let tiny = presets::tiny();
        let dyna = presets::dynaplasia();
        assert_ne!(tiny.fingerprint(), dyna.fingerprint());
        let cache = AllocationCache::new();
        let ops = vec![seg_op("block", 64, 64, 64, true)];
        let a_tiny = shared(&tiny, &cache);
        let a_dyna = shared(&dyna, &cache);
        let _ = a_tiny.allocate(&ops, &[]).unwrap();
        let _ = a_dyna.allocate(&ops, &[]).unwrap();
        assert_eq!(counted(&a_tiny).fast_solves, 1);
        assert_eq!(
            counted(&a_dyna).fast_solves,
            1,
            "different arch must not hit the other's entry"
        );
        assert_eq!(counted(&a_tiny).cache_hits + counted(&a_dyna).cache_hits, 0);
        assert_eq!(cache.len(), 2);
        // Re-running on either arch now hits.
        let a_again = shared(&dyna, &cache);
        let _ = a_again.allocate(&ops, &[]).unwrap();
        assert_eq!(counted(&a_again).cache_hits, 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn chips_differing_only_outside_the_allocator_share_entries() {
        // A slower switch and a smaller buffer move the whole-chip
        // fingerprint but not one allocator input: the sibling is served
        // the entry the base solved, and it is the one it would solve.
        let base = cmswitch_arch::DualModeArch::builder("base").build().unwrap();
        let sibling = cmswitch_arch::DualModeArch::builder("sibling")
            .switch_cycles(4, 2)
            .buffer_bytes(1024)
            .build()
            .unwrap();
        assert_ne!(base.fingerprint(), sibling.fingerprint());
        let cache = AllocationCache::new();
        let ops = vec![seg_op("a", 64, 64, 64, true), seg_op("b", 64, 64, 64, true)];
        let deps = vec![(0usize, 1usize, 64 * 64u64)];
        let solved = shared(&base, &cache).allocate(&ops, &deps);
        let served = shared(&sibling, &cache);
        assert_eq!(served.allocate(&ops, &deps), solved);
        let stats = counted(&served);
        assert_eq!(
            (stats.mip_solves, stats.fast_solves, stats.cache_hits),
            (0, 0, 1),
            "no solve, one hit"
        );
        let alone = Allocator::new(CostModel::new(&sibling), AllocatorKind::Fast, false);
        assert_eq!(alone.allocate(&ops, &deps), solved);
    }

    #[test]
    fn hash_collision_cannot_alias_signatures() {
        // Simulate the 2^-64 pathological case directly: a bucket whose
        // stored signature differs from the probe's. The lookup must
        // miss (and later re-solve) rather than return the alien entry.
        let cache = AllocationCache::new();
        let stored_sig = vec![1u64, 2, 3];
        let probe_sig = vec![4u64, 5, 6];
        cache.map.write().insert(
            stable_hash64(&probe_sig),
            (stored_sig.clone(), Some(SegmentAllocation::empty())),
        );
        assert!(probe(&cache, &probe_sig).is_none(), "collision must miss");
        // The genuine owner of the bucket's signature still hits.
        cache.insert_prehashed(stable_hash64(&stored_sig), stored_sig.clone(), None);
        assert_eq!(probe(&cache, &stored_sig), Some(None));
    }

    #[test]
    fn allocator_kind_separates_cache_entries() {
        let arch = presets::tiny();
        let cache = AllocationCache::new();
        let mip = Allocator::with_cache(CostModel::new(&arch), AllocatorKind::Mip, Arc::clone(&cache));
        let fast = Allocator::with_cache(CostModel::new(&arch), AllocatorKind::Fast, Arc::clone(&cache));
        let ops = vec![seg_op("a", 64, 64, 64, true)];
        let _ = mip.allocate(&ops, &[]);
        let _ = fast.allocate(&ops, &[]);
        assert_eq!(
            counted(&mip).cache_hits + counted(&fast).cache_hits,
            0,
            "Mip and Fast results must not alias"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn empty_segment_allocates_trivially() {
        let arch = presets::tiny();
        let alloc = Allocator::new(CostModel::new(&arch), AllocatorKind::Mip, false);
        let a = alloc.allocate(&[], &[]).unwrap();
        assert_eq!(a.latency, 0.0);
    }

    #[test]
    fn mean_memory_ratio_averages_and_handles_empty() {
        assert_eq!(mean_memory_ratio(std::iter::empty()), 0.0);
        let all_mem = SegmentAllocation {
            ops: vec![OpAllocation {
                compute: 0,
                mem_in: 2,
                mem_out: 2,
            }],
            reuse: Vec::new(),
            latency: 1.0,
        };
        let all_compute = SegmentAllocation {
            ops: vec![OpAllocation {
                compute: 4,
                mem_in: 0,
                mem_out: 0,
            }],
            reuse: Vec::new(),
            latency: 1.0,
        };
        let allocs = [all_mem, all_compute];
        assert!((mean_memory_ratio(allocs.iter()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn export_import_restores_entries_for_zero_solve_reuse() {
        // Solve once into a cache, snapshot it, import into a fresh
        // cache: the second allocator must hit without any solver run —
        // the in-memory form of the L2 disk promotion.
        let arch = presets::tiny();
        let warm = AllocationCache::new();
        let a1 = shared(&arch, &warm);
        let ops = vec![seg_op("block", 64, 64, 64, true)];
        let deps = [(0usize, 0usize, 0u64)];
        let _ = a1.allocate(&ops, &[]).unwrap();
        let _ = a1.allocate(&ops[..0], &deps[..0]); // empty segment, uncached
        let entries = warm.export_entries();
        assert_eq!(entries.len(), warm.len());
        assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0), "sorted");

        let fresh = AllocationCache::new();
        assert_eq!(fresh.import_entries(entries), warm.len());
        let a2 = shared(&arch, &fresh);
        let r = a2.allocate(&ops, &[]).unwrap();
        assert_eq!(r, a1.allocate(&ops, &[]).unwrap());
        let stats = counted(&a2);
        assert_eq!(
            stats.fast_solves, 0,
            "imported entry must satisfy the lookup"
        );
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn import_preserves_infeasible_entries() {
        let cache = AllocationCache::new();
        let sig = vec![9u64, 8, 7];
        cache.insert_prehashed(stable_hash64(&sig), sig.clone(), None);
        let fresh = AllocationCache::new();
        fresh.import_entries(cache.export_entries());
        assert_eq!(probe(&fresh, &sig), Some(None));
    }

    #[test]
    fn reuse_reduces_arrays_used() {
        let a = SegmentAllocation {
            ops: vec![
                OpAllocation {
                    compute: 2,
                    mem_in: 0,
                    mem_out: 2,
                },
                OpAllocation {
                    compute: 2,
                    mem_in: 2,
                    mem_out: 0,
                },
            ],
            reuse: vec![((0, 1), 2)],
            latency: 1.0,
        };
        assert_eq!(a.total_memory(), 2);
        assert_eq!(a.arrays_used(), 6);
        assert!((a.memory_ratio() - 2.0 / 6.0).abs() < 1e-9);
    }

    /// A small MLP's partitioned op list on the tiny chip.
    fn mlp_ops(arch: &cmswitch_arch::DualModeArch) -> Vec<SegOp> {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
        let l = crate::frontend::lower_graph(&g, arch).unwrap();
        crate::partition::partition(&l, arch, 1.0).unwrap().ops
    }

    #[test]
    fn all_compute_has_no_memory_arrays() {
        let arch = presets::tiny();
        let ops = mlp_ops(&arch);
        let cm = CostModel::new(&arch);
        let a = all_compute_alloc(&ops[0..1], &cm, true).unwrap();
        assert_eq!(a.total_memory(), 0);
        assert!(a.total_compute() >= 1);
    }

    #[test]
    fn duplication_improves_or_matches() {
        let arch = presets::tiny();
        let ops = mlp_ops(&arch);
        let cm = CostModel::new(&arch);
        let base = all_compute_alloc(&ops[0..1], &cm, false).unwrap();
        let dup = all_compute_alloc(&ops[0..1], &cm, true).unwrap();
        assert!(dup.latency <= base.latency + 1e-9);
    }
}
