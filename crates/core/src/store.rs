//! Content-addressed on-disk artifact store — the persistent L2 behind
//! the in-memory [`AllocationCache`].
//!
//! A [`ArtifactStore`] is a directory holding two things:
//!
//! * `programs/<key>.cmsart` — one framed [`crate::artifact`] file per
//!   compiled program, addressed by a [`StoreKey`] over everything that
//!   determines the compiler's output: the architecture fingerprint,
//!   the backend, the compiler options and the graph itself. Same key
//!   ⇒ same plan, so a fetch can skip the entire pipeline.
//! * `alloc_cache.cmsart` — a snapshot of the allocation cache's
//!   entries, promoted into a fresh process's L1 at session build so
//!   even *novel* graphs that share segment signatures with prior runs
//!   compile without solver invocations.
//!
//! The store is a cache, never the source of truth: every read
//! validates the wire format (magic, version, kind, length) and
//! recomputes the payload checksum before a byte is interpreted, and
//! [`crate::Session`] additionally runs the static verifier over a
//! fetched program before serving it — once per distinct payload per
//! store handle. Any failure degrades to a cold compile that overwrites
//! the bad entry. Writes go through a temp file + atomic rename, so
//! concurrent processes sharing a store directory never observe
//! half-written artifacts.
//!
//! # Keys
//!
//! A [`StoreKey`] is `stable_hash64` over eleven words: the key schema
//! (currently 2), the architecture fingerprint, the backend name, the
//! six compiler options that shape a plan, whether the pipeline
//! verifies, and [`graph_signature`]. The signature hashes the graph's
//! fields directly — name, then per node its id, name, operator tag and
//! every operator parameter, inputs and shape — through
//! [`Graph::hash_fields`], which destructures every type exhaustively,
//! so a field or variant added to the IR cannot compile without entering
//! the key, and hashing words costs a warm request almost nothing. Any
//! change to the derivation bumps the schema: keys of the old schema are
//! then never probed again, and their files are dead weight that a
//! `--prime` of the new build does not read.
//!
//! # Trust model
//!
//! The verifier's verdict is a function of (program, architecture); the
//! program is a function of the payload bytes, and the architecture
//! fingerprint is part of the [`StoreKey`]. So the handle remembers, per
//! key, the length and checksum of the last payload that passed the
//! verifier with no `Deny` (and its warning count), and the session
//! skips re-verification exactly when the payload it has just read and
//! checksummed carries the same pair ([`StoreStats::verdicts_reused`]).
//! That trusts the checksum as far as decoding already does and no
//! further: a payload that differs in any way is verified afresh, a
//! `Deny` is never remembered, and a new handle starts with nothing
//! remembered. The directory is a cache the process trusts against rot,
//! torn writes and stale builds — not against an adversarial writer,
//! who could always forge a checksum, and against whom the verifier
//! (which checks a plan's structure, not that it is the plan of the
//! requested graph) never was a defence either.

use std::collections::HashMap;
use std::fs;
use std::hash::Hasher as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cmswitch_arch::DualModeArch;
use cmswitch_graph::Graph;
use cmswitch_solver::stable_hash64;
use parking_lot::Mutex;

use crate::allocation::{AllocationCache, ALLOC_KEY_SCHEMA};
use crate::artifact::{self, PayloadStamp};
use crate::compiler::CompiledProgram;
use crate::{AllocatorKind, CompilerOptions, DpMode};

/// Bumped whenever the key derivation below changes, so old store
/// entries become unreachable (a silent miss) instead of wrongly hit.
const KEY_SCHEMA_VERSION: u64 = 2;

/// FNV-1a over raw bytes — the byte-level sibling of
/// `cmswitch_solver::stable_hash64` (same constants). Hashes the backend
/// name into a [`StoreKey`]; artifacts have their own, word-wide checksum.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content address of a compiled program: `stable_hash64` over the
/// architecture fingerprint, the backend name, the compiler options
/// and a structural signature of the graph.
///
/// `solve_workers` is deliberately **excluded**: the solve pool is
/// deterministic, so plans are bit-identical at any worker count and
/// a store primed at one parallelism serves every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    hash: u64,
}

impl StoreKey {
    /// Derives the key for compiling `graph` with `backend_name` on
    /// `arch` under `options`.
    pub fn for_compile(
        arch: &DualModeArch,
        backend_name: &str,
        options: &CompilerOptions,
        graph: &Graph,
    ) -> StoreKey {
        let words = [
            KEY_SCHEMA_VERSION,
            arch.fingerprint(),
            fnv1a_bytes(backend_name.as_bytes()),
            options.max_segment_ops as u64,
            match options.allocator {
                AllocatorKind::Mip => 0,
                AllocatorKind::Fast => 1,
            },
            u64::from(options.reuse_cache),
            u64::from(options.switch_aware),
            options.partition_budget.to_bits(),
            match options.dp_mode {
                DpMode::Exhaustive => 0,
                DpMode::BoundPruned => 1,
            },
            u64::from(options.verify),
            graph_signature(graph),
        ];
        StoreKey {
            hash: stable_hash64(&words),
        }
    }

    /// The raw 64-bit address (also carried in store diagnostics).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The file stem used on disk: the address as 16 hex digits.
    pub fn file_stem(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// Structural signature of a graph: every field of the graph, its nodes
/// and their operators ([`Graph::hash_fields`], exhaustive by
/// construction), run through a word-wide stable hash. Two graphs share
/// a signature iff they describe the same computation (up to 64-bit
/// collisions).
pub fn graph_signature(graph: &Graph) -> u64 {
    let mut h = SignatureHasher::default();
    graph.hash_fields(&mut h);
    h.finish()
}

/// The stable hash behind [`graph_signature`]: one multiply-rotate step
/// per 64-bit word (`h = rotl((h ^ word) * P, 29)`, the FNV-1a prime,
/// from the FNV-1a offset basis) and a final `h ^ (h >> 32)`. Bytes are
/// taken as little-endian words, the last one zero-padded; the graph
/// length-prefixes every byte string it feeds, so padding is
/// unambiguous. Every step is a bijection of `h` for a fixed word, so
/// the state never collapses, and it costs one multiply per word where
/// byte-serial FNV-1a costs eight.
struct SignatureHasher {
    h: u64,
}

impl Default for SignatureHasher {
    fn default() -> Self {
        SignatureHasher {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl std::hash::Hasher for SignatureHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("chunks_exact(8)")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.h = (self.h ^ word)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    fn finish(&self) -> u64 {
        self.h ^ (self.h >> 32)
    }
}

/// Result of probing the store for a program.
#[derive(Debug)]
pub enum StoreFetch {
    /// A valid artifact was found and decoded.
    Hit(Box<CompiledProgram>),
    /// No artifact exists under the key.
    Miss,
    /// An artifact exists but failed to read or decode; the reason is
    /// human-readable. Callers recompile and overwrite.
    Corrupt(String),
}

/// Monotonic counters describing store traffic since [`ArtifactStore::open`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Programs served from disk.
    pub hits: u64,
    /// Probes that found no artifact.
    pub misses: u64,
    /// Artifacts rejected as corrupt (decode failure or post-decode
    /// verification failure).
    pub corrupt: u64,
    /// Programs written.
    pub writes: u64,
    /// Hits served without re-running the verifier, because this handle
    /// had already verified the very same payload under the same key
    /// (see the module docs' trust model).
    pub verdicts_reused: u64,
}

/// The last payload under a key that passed the verifier with no `Deny`.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    stamp: PayloadStamp,
    warn: u64,
}

/// A content-addressed artifact directory (see the module docs).
///
/// All methods take `&self`; the store is shared as an `Arc` between a
/// session and its owner, and counters are atomic.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
    verdicts_reused: AtomicU64,
    verdicts: Mutex<HashMap<StoreKey, Verdict>>,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory layout.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Arc<ArtifactStore>> {
        let root = root.into();
        fs::create_dir_all(root.join("programs"))?;
        Ok(Arc::new(ArtifactStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            verdicts_reused: AtomicU64::new(0),
            verdicts: Mutex::default(),
        }))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path for `key`'s program artifact.
    pub fn program_path(&self, key: StoreKey) -> PathBuf {
        self.root
            .join("programs")
            .join(format!("{}.cmsart", key.file_stem()))
    }

    fn alloc_path(&self) -> PathBuf {
        self.root.join("alloc_cache.cmsart")
    }

    /// Probes the store for the program at `key`, validating the wire
    /// format (magic, version, checksum) on the way in.
    pub fn fetch_program(&self, key: StoreKey) -> StoreFetch {
        self.fetch_program_stamped(key).0
    }

    /// [`ArtifactStore::fetch_program`], with the stamp of the payload a
    /// [`StoreFetch::Hit`] was decoded from (zero beside anything else).
    pub(crate) fn fetch_program_stamped(&self, key: StoreKey) -> (StoreFetch, PayloadStamp) {
        let path = self.program_path(key);
        let decoded = match fs::read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return (StoreFetch::Miss, PayloadStamp::default());
            }
            Err(e) => Err(format!("read {}: {e}", path.display())),
            Ok(bytes) => artifact::decode_program_stamped(&bytes).map_err(|e| e.to_string()),
        };
        match decoded {
            Ok((program, stamp)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (StoreFetch::Hit(Box::new(program)), stamp)
            }
            Err(reason) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                (StoreFetch::Corrupt(reason), PayloadStamp::default())
            }
        }
    }

    /// The warning count remembered for `key` if the payload stamped
    /// `stamp` is the one this handle last verified there; counts the
    /// reuse.
    pub(crate) fn reuse_verdict(&self, key: StoreKey, stamp: PayloadStamp) -> Option<u64> {
        let warn = self
            .verdicts
            .lock()
            .get(&key)
            .filter(|v| v.stamp == stamp)
            .map(|v| v.warn)?;
        self.verdicts_reused.fetch_add(1, Ordering::Relaxed);
        Some(warn)
    }

    /// Remembers that the payload stamped `stamp` under `key` passed the
    /// verifier with no `Deny` and `warn` warnings.
    pub(crate) fn remember_verdict(&self, key: StoreKey, stamp: PayloadStamp, warn: u64) {
        self.verdicts.lock().insert(key, Verdict { stamp, warn });
    }

    /// Writes (or overwrites) the program artifact at `key` via a temp
    /// file and atomic rename.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; encode itself is infallible.
    pub fn put_program(&self, key: StoreKey, program: &CompiledProgram) -> io::Result<()> {
        let bytes = artifact::encode_program(program);
        self.write_atomic(&self.program_path(key), &bytes)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reclassifies the probe that just returned [`StoreFetch::Hit`] as
    /// corrupt: the artifact decoded cleanly but was rejected downstream
    /// (the session's verify-before-serve gate), so nothing was served.
    /// Crate-private: any other caller would take back a hit that was
    /// never counted and wrap `hits`.
    pub(crate) fn record_corrupt(&self) {
        self.hits.fetch_sub(1, Ordering::Relaxed);
        self.corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots `cache`'s entries to disk, replacing any prior
    /// snapshot. Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_alloc_snapshot(&self, cache: &AllocationCache) -> io::Result<usize> {
        let entries = cache.export_entries();
        let bytes = artifact::encode_alloc_entries(&entries);
        self.write_atomic(&self.alloc_path(), &bytes)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(entries.len())
    }

    /// Promotes the on-disk snapshot (if any) into `cache`, returning
    /// the number of entries imported. A missing snapshot is 0; a
    /// corrupt one counts in [`StoreStats::corrupt`] and is ignored. So
    /// is a snapshot `cache` already imported (the same payload, by its
    /// stamp): it is read and checksummed, but not decoded again.
    /// Entries of an older signature layout (first word other than the
    /// current allocation-key schema) could never be looked up again, so
    /// they are dropped here — and with them from every later snapshot.
    pub fn load_alloc_snapshot(&self, cache: &AllocationCache) -> usize {
        let bytes = match fs::read(self.alloc_path()) {
            Ok(bytes) => bytes,
            Err(_) => return 0,
        };
        let decoded = artifact::alloc_snapshot_frame(&bytes).and_then(|(payload, stamp)| {
            if cache.imported(stamp) {
                return Ok(None);
            }
            Ok(Some((artifact::decode_alloc_payload(payload)?, stamp)))
        });
        match decoded {
            Ok(None) => 0,
            Ok(Some((mut entries, stamp))) => {
                entries.retain(|(_, sig, _)| sig.first() == Some(&ALLOC_KEY_SCHEMA));
                cache.import_snapshot(stamp, entries)
            }
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                0
            }
        }
    }

    /// Number of program artifacts currently on disk.
    pub fn program_count(&self) -> usize {
        fs::read_dir(self.root.join("programs"))
            .map(|dir| {
                dir.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "cmsart"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Traffic counters since this handle was opened.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            verdicts_reused: self.verdicts_reused.load(Ordering::Relaxed),
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // Unique per write, not per process: threads that write one key
        // concurrently must not truncate each other's temp file.
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        fs::write(&tmp, bytes)
            .and_then(|()| fs::rename(&tmp, path))
            .inspect_err(|_| {
                // A failed write must not leave its temp file behind:
                // nothing else would ever remove it.
                let _ = fs::remove_file(&tmp);
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use cmswitch_arch::presets;
    use std::collections::HashSet;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cmswitch-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let arch = presets::tiny();
        let options = CompilerOptions::default();
        let g1 = cmswitch_models::mlp::mlp(2, &[64, 64]).unwrap();
        let g2 = cmswitch_models::mlp::mlp(2, &[64, 128]).unwrap();
        let k1 = StoreKey::for_compile(&arch, "cmswitch", &options, &g1);
        assert_eq!(k1, StoreKey::for_compile(&arch, "cmswitch", &options, &g1));
        assert_ne!(k1, StoreKey::for_compile(&arch, "cmswitch", &options, &g2));
        assert_ne!(k1, StoreKey::for_compile(&arch, "occ", &options, &g1));
        let fast = CompilerOptions::default().with_allocator(AllocatorKind::Fast);
        assert_ne!(k1, StoreKey::for_compile(&arch, "cmswitch", &fast, &g1));
        // solve_workers must NOT perturb the key.
        let workers = CompilerOptions::default().with_solve_workers(7);
        assert_eq!(k1, StoreKey::for_compile(&arch, "cmswitch", &workers, &g1));
    }

    /// The values key schema 2 derives: `graph_signature` may change how
    /// it gets there, not where it lands — a moved key silently orphans
    /// every primed store, so moving one takes a schema bump.
    #[test]
    fn key_values_are_pinned() {
        let options = CompilerOptions::default();
        let mlp = cmswitch_models::mlp::mlp(2, &[64, 64]).unwrap();
        let tiny = StoreKey::for_compile(&presets::tiny(), "cmswitch", &options, &mlp);
        assert_eq!(tiny.hash(), 0xc768_4a97_7ad5_133a, "tiny: {:#018x}", tiny.hash());
        let arch = presets::dynaplasia();
        for (model, pinned) in [
            ("resnet18", 0x9b2b_e8c5_a353_27a2_u64),
            ("llama2-7b", 0xdd02_9e52_e735_9e6d),
        ] {
            let graph = cmswitch_models::registry::build(model, 1, 16).unwrap();
            let key = StoreKey::for_compile(&arch, "cmswitch", &options, &graph);
            assert_eq!(key.hash(), pinned, "{model}: {:#018x}", key.hash());
        }
    }

    /// Every operator parameter, and every node field, is part of the
    /// key: two graphs that differ in one number must never share a plan.
    #[test]
    fn every_operator_parameter_moves_the_key() {
        use cmswitch_graph::{Activation, Node, NodeId, OpKind};
        let (arch, options) = (presets::tiny(), CompilerOptions::default());
        let key = |name: &str, op: &OpKind, inputs: &[usize], shape: &[usize]| {
            let node = Node {
                id: NodeId(inputs.len()),
                name: name.into(),
                op: op.clone(),
                inputs: inputs.iter().map(|&i| NodeId(i)).collect(),
                shape: shape.to_vec(),
            };
            let graph = Graph::from_nodes("g", vec![node]);
            StoreKey::for_compile(&arch, "cmswitch", &options, &graph)
        };
        let conv = |out_channels, kernel, stride, padding, groups| OpKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
            groups,
        };
        let max_pool = |kernel, stride| OpKind::MaxPool2d { kernel, stride };
        let avg_pool = |kernel, stride| OpKind::AvgPool2d { kernel, stride };
        let base = conv(8, 3, 1, 1, 1);
        let pairs = [
            (base.clone(), conv(16, 3, 1, 1, 1)),
            (base.clone(), conv(8, 5, 1, 1, 1)),
            (base.clone(), conv(8, 3, 2, 1, 1)),
            (base.clone(), conv(8, 3, 1, 0, 1)),
            (base.clone(), conv(8, 3, 1, 1, 8)),
            // Parameters trading places must not cancel out.
            (conv(8, 3, 1, 2, 1), conv(8, 3, 2, 1, 1)),
            (
                OpKind::BatchMatMul { transpose_rhs: true },
                OpKind::BatchMatMul { transpose_rhs: false },
            ),
            (OpKind::Linear { out_features: 64 }, OpKind::Linear { out_features: 65 }),
            (OpKind::Input { shape: vec![1, 8] }, OpKind::Input { shape: vec![1, 8, 1] }),
            (OpKind::Reshape { shape: vec![8, 2] }, OpKind::Reshape { shape: vec![2, 8] }),
            (OpKind::Act(Activation::Relu), OpKind::Act(Activation::Gelu)),
            (OpKind::Act(Activation::Gelu), OpKind::Act(Activation::Silu)),
            (max_pool(2, 2), max_pool(2, 1)),
            (max_pool(2, 2), max_pool(3, 2)),
            (avg_pool(2, 2), avg_pool(2, 1)),
            (avg_pool(2, 2), max_pool(2, 2)),
            (OpKind::Embedding { vocab: 100, dim: 8 }, OpKind::Embedding { vocab: 101, dim: 8 }),
            (OpKind::Embedding { vocab: 100, dim: 8 }, OpKind::Embedding { vocab: 100, dim: 9 }),
        ];
        for (a, b) in &pairs {
            assert_ne!(key("n", a, &[], &[4]), key("n", b, &[], &[4]), "{a:?} vs {b:?}");
        }
        // Every parameterless operator is its own tag.
        let bare = [
            OpKind::Softmax,
            OpKind::LayerNorm,
            OpKind::Add,
            OpKind::Mul,
            OpKind::GlobalAvgPool,
            OpKind::Flatten,
        ];
        let keys: HashSet<StoreKey> = bare.iter().map(|op| key("n", op, &[], &[4])).collect();
        assert_eq!(keys.len(), bare.len());
        // And the node's own fields.
        let reference = key("n", &base, &[0], &[4]);
        assert_ne!(reference, key("m", &base, &[0], &[4]));
        assert_ne!(reference, key("n", &base, &[1], &[4]));
        assert_ne!(reference, key("n", &base, &[0], &[4, 1]));
        assert_ne!(reference, key("n", &base, &[0, 0], &[4]));
    }

    #[test]
    fn fetch_put_fetch_roundtrip() {
        let dir = tempdir("roundtrip");
        let store = ArtifactStore::open(&dir).unwrap();
        let arch = presets::tiny();
        let graph = cmswitch_models::mlp::mlp(2, &[64, 128, 64]).unwrap();
        let session = Session::builder(arch.clone()).build();
        let mut program = session.compile_graph(&graph).unwrap();
        let key = StoreKey::for_compile(&arch, "cmswitch", session.options(), &graph);

        assert!(matches!(store.fetch_program(key), StoreFetch::Miss));
        store.put_program(key, &program).unwrap();
        assert_eq!(store.program_count(), 1);
        // A read returns the plan; the run history is not persisted.
        program.stats = crate::CompileStats::default();
        match store.fetch_program(key) {
            StoreFetch::Hit(found) => assert_eq!(*found, program),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_reported_not_served() {
        let dir = tempdir("corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        let arch = presets::tiny();
        let graph = cmswitch_models::mlp::mlp(1, &[64, 64]).unwrap();
        let session = Session::builder(arch.clone()).build();
        let program = session.compile_graph(&graph).unwrap();
        let key = StoreKey::for_compile(&arch, "cmswitch", session.options(), &graph);
        store.put_program(key, &program).unwrap();

        let path = store.program_path(key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        assert!(matches!(store.fetch_program(key), StoreFetch::Corrupt(_)));
        assert_eq!(store.stats().corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_no_temp_file() {
        let dir = tempdir("tmp-leak");
        let store = ArtifactStore::open(&dir).unwrap();
        let arch = presets::tiny();
        let graph = cmswitch_models::mlp::mlp(1, &[64, 64]).unwrap();
        let session = Session::builder(arch.clone()).build();
        let program = session.compile_graph(&graph).unwrap();
        let key = StoreKey::for_compile(&arch, "cmswitch", session.options(), &graph);
        // A directory where the artifact belongs: the rename must fail.
        fs::create_dir(store.program_path(key)).unwrap();
        store.put_program(key, &program).unwrap_err();
        let listing: Vec<String> = fs::read_dir(dir.join("programs"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            !listing.iter().any(|name| name.contains("tmp.")),
            "temp file left behind: {listing:?}"
        );
        assert_eq!(store.stats().writes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn alloc_snapshot_roundtrips_through_disk() {
        let dir = tempdir("snapshot");
        let store = ArtifactStore::open(&dir).unwrap();
        let cache = AllocationCache::new();
        let session = Session::builder(presets::tiny())
            .cache(Arc::clone(&cache))
            .build();
        let graph = cmswitch_models::mlp::mlp(2, &[64, 128, 64]).unwrap();
        session.compile_graph(&graph).unwrap();
        assert!(!cache.is_empty());
        let written = store.save_alloc_snapshot(&cache).unwrap();
        assert_eq!(written, cache.len());

        let fresh = AllocationCache::new();
        assert_eq!(store.load_alloc_snapshot(&fresh), written);
        assert_eq!(fresh.len(), cache.len());
        assert_eq!(fresh.export_entries(), cache.export_entries());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cache_imports_each_snapshot_once() {
        let dir = tempdir("snapshot-once");
        let store = ArtifactStore::open(&dir).unwrap();
        let cache = AllocationCache::new();
        let graph = |dims: &[usize]| cmswitch_models::mlp::mlp(2, dims).unwrap();
        let session = |cache: &Arc<AllocationCache>| {
            Session::builder(presets::tiny())
                .cache(Arc::clone(cache))
                .store(Arc::clone(&store))
                .build()
        };
        session(&cache)
            .compile_graph(&graph(&[64, 128, 64]))
            .unwrap();
        let written = store.save_alloc_snapshot(&cache).unwrap();

        // Sessions built over the cache the snapshot was imported into
        // find its stamp and import nothing; a fresh cache imports all.
        let shared = AllocationCache::new();
        assert_eq!(store.load_alloc_snapshot(&shared), written);
        for _ in 0..3 {
            let _ = session(&shared);
        }
        assert_eq!(store.load_alloc_snapshot(&shared), 0);
        assert_eq!(shared.export_entries(), cache.export_entries());
        assert_eq!(store.load_alloc_snapshot(&AllocationCache::new()), written);

        // A new snapshot is a new stamp: imported once more.
        session(&cache)
            .compile_graph(&graph(&[64, 256, 32]))
            .unwrap();
        let grown = store.save_alloc_snapshot(&cache).unwrap();
        assert!(grown > written);
        assert_eq!(store.load_alloc_snapshot(&shared), grown);
        assert_eq!(store.load_alloc_snapshot(&shared), 0);
        assert_eq!(store.stats().corrupt, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
