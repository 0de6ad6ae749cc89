//! Facade-level integration tests for batch compilation: the whole
//! model registry through one `Session::compile_batch`, cold and warm.

use std::sync::Arc;

use cmswitch::arch::{presets, DualModeArch};
use cmswitch::compiler::{
    AllocationCache, AllocatorKind, CompileRequest, CompilerOptions, Session,
};
use cmswitch::models::registry;

fn registry_fleet() -> Vec<CompileRequest> {
    registry::build_all(1, 32)
        .unwrap()
        .into_iter()
        .map(|(name, graph)| CompileRequest::new(graph).with_label(name))
        .collect()
}

/// A session on `arch` over `cache`. The fast allocator keeps this
/// affordable in debug builds; caching semantics are identical to the
/// MIP path (the cache key embeds the allocator kind), so the cold/warm
/// invocation accounting is the same property the MIP path has.
fn fast_session(arch: DualModeArch, workers: usize, cache: Arc<AllocationCache>) -> Session {
    Session::builder(arch)
        .options(CompilerOptions::default().with_allocator(AllocatorKind::Fast))
        .workers(workers)
        .cache(cache)
        .build()
}

#[test]
fn warm_registry_batch_strictly_reduces_solver_invocations() {
    let jobs = registry_fleet();
    let session = fast_session(presets::dynaplasia(), 2, AllocationCache::new());

    let cold = session.compile_batch(&jobs);
    assert_eq!(cold.stats.compiled, jobs.len(), "{}", cold.summary());
    assert_eq!(cold.stats.failed, 0);
    assert!(cold.stats.programs.solver_invocations() > 0);
    // Even cold, intra-model block repetition hits the shared cache.
    assert!(cold.stats.cache_hits > 0);

    let warm = session.compile_batch(&jobs);
    assert_eq!(warm.stats.compiled, jobs.len());
    assert!(
        warm.stats.programs.solver_invocations() < cold.stats.programs.solver_invocations(),
        "warm batch must perform strictly fewer solves: warm {} vs cold {}",
        warm.stats.programs.solver_invocations(),
        cold.stats.programs.solver_invocations()
    );
    // Everything the DP asks for was cached by the cold pass.
    assert_eq!(warm.stats.programs.solver_invocations(), 0);
    assert!(warm.stats.hit_rate() > cold.stats.hit_rate());

    // Cache hits are exact: warm results are bit-identical to cold ones.
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.name, w.name);
        let (c, w) = (c.result.as_ref().unwrap(), w.result.as_ref().unwrap());
        assert_eq!(c.predicted_latency, w.predicted_latency, "{}", c.flow.name());
        assert_eq!(c.segments.len(), w.segments.len());
    }
}

#[test]
fn shared_cache_transfers_between_services_but_not_architectures() {
    // A small fleet is enough to exercise the transfer semantics.
    let jobs: Vec<CompileRequest> = registry_fleet()
        .into_iter()
        .filter(|j| matches!(j.display_name(), "bert-base" | "mobilenetv2"))
        .collect();
    assert_eq!(jobs.len(), 2);

    let donor = fast_session(presets::dynaplasia(), 1, AllocationCache::new());
    let cold = donor.compile_batch(&jobs);
    assert!(cold.stats.programs.solver_invocations() > 0);

    // Same arch, warm cache handed over: zero solves.
    let same_arch = fast_session(presets::dynaplasia(), 1, Arc::clone(donor.cache()));
    let transferred = same_arch.compile_batch(&jobs);
    assert_eq!(transferred.stats.programs.solver_invocations(), 0);

    // Different arch, same cache object: fingerprints differ, so every
    // prior entry is effectively invalidated and real solves happen.
    let other_arch = fast_session(presets::prime(), 1, Arc::clone(donor.cache()));
    let foreign = other_arch.compile_batch(&jobs);
    assert!(
        foreign.stats.programs.solver_invocations() > 0,
        "a different chip must not reuse allocations sized for another"
    );
}
