//! Versioned binary wire format for compiled artifacts.
//!
//! The vendored `serde` is a no-op stand-in, so persistence is a small
//! explicit codec instead of a derive: every value is written in
//! little-endian with length-prefixed sequences, wrapped in a fixed
//! header carrying a magic, a format version, an artifact kind, the
//! payload length and a word-wide checksum of the payload. Three
//! artifact kinds exist:
//!
//! * **Program** ([`encode_program`] / [`decode_program`]) — the plan
//!   of a [`CompiledProgram`]: operators, flow, dependencies, segments
//!   and predicted latency, bit-identical through a round trip
//!   (`decode(encode(p))` equals `p` with its `stats` cleared, and
//!   re-encoding yields the same bytes). Run history — the wall clock,
//!   stage timings and solver counters of [`crate::CompileStats`] — is
//!   never persisted: a decoded program's stats are the default.
//! * **Allocation snapshot** ([`encode_alloc_entries`] /
//!   [`decode_alloc_entries`]) — the entries of an
//!   [`crate::AllocationCache`], each carrying its precomputed bucket
//!   hash so importing a snapshot never re-hashes a signature.
//! * **Report** — a [`StoredReport`] the store keeps beside a program
//!   (see [`crate::store`]): eleven `f64`s of an engine report and the
//!   binding that says which payload, under which key and for which
//!   energy model, they were computed from.
//!
//! # Wire layout
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"CMSWART\0"
//!      8     4  format version, u32 LE   (currently 6)
//!     12     4  artifact kind, u32 LE    (1 = program, 2 = alloc snapshot,
//!                                         3 = report)
//!     16     8  payload length, u64 LE
//!     24     8  checksum, u64 LE         (see "Checksum" below)
//!     32     …  payload
//! ```
//!
//! # Checksum
//!
//! Every read recomputes the checksum before a payload byte is
//! interpreted, so its cost is part of every warm request. The payload
//! is cut into 32-byte blocks of four little-endian `u64` words; word
//! `i` of each block goes into lane `i` by `lane = rotl((lane ^ word) *
//! P, 29)`, with the FNV-1a prime `P` and every lane starting from the
//! FNV-1a offset basis. The last block is the 0–31 tail bytes padded
//! with zeros (an empty tail still contributes one all-zero block); the
//! four lanes are then folded, in order and by the same step, into the
//! payload length — which is what tells padding from data — and the
//! result is `h ^ (h >> 32)`. Every step is a bijection of the lane for
//! a fixed word and of the word for a fixed lane, so a change confined
//! to one word (any single-bit flip in particular) always changes the
//! result. Word-wide because the byte-serial FNV-1a of format 1 is one
//! dependent multiply per *byte* (~0.9 GB/s, 40% of a warm request);
//! four independent lanes retire 32 bytes per multiply latency
//! (~18 GB/s), which makes a read cost about what moving its bytes
//! costs. It guards against rot and torn or stale files, not against an
//! adversary.
//!
//! Primitive encodings inside the payload: `u8`/`u32`/`u64` are
//! little-endian; `usize` is widened to `u64`; `bool` is one byte (0/1);
//! `f64` is its IEEE-754 bit pattern as `u64` (NaN-safe, bit-exact);
//! strings and sequences are a `u64` element count followed by the
//! elements. Enum variants are a one-byte tag in declaration order.
//!
//! # Program payload
//!
//! Fields in order; `x*` is a `u64` count, then that many `x`:
//!
//! ```text
//! program := str flow_name, seg_op*, stmt*,
//!            (usize producer, usize consumer)*,
//!            segment*, f64 predicted_latency
//! seg_op  := usize source, str name, usize m, k, n, units,
//!            bool weight_static, f64 work,
//!            u64 in_bytes, out_bytes, weight_bytes, aux_flops,
//!            usize min_tiles
//! segment := usize first, usize last, alloc, f64 inter_before
//! alloc   := (usize compute, mem_in, mem_out)*,
//!            (usize producer, usize consumer, usize arrays)*,
//!            f64 latency
//! ```
//!
//! The ops are written once and serve twice: they are the program's
//! [`CompiledProgram::ops`], and the flow's op table is derived from
//! them ([`SegOp::flow_op`]), each entry sharing its op's name — a
//! decoded program holds each name once. The table is not written
//! again, so a program whose flow table is not its ops' does not
//! survive a round trip (the compiler never builds one).
//!
//! A dependency's producer and consumer are `source` values, not op
//! positions. The first op's `source` is 0 and each next one repeats
//! it or adds 1, so every source is one span of ops; any other step is
//! [`ArtifactError::Malformed`]. An edge naming a source no op has
//! decodes, and is the verifier's `dep-order` finding.
//!
//! # Statements
//!
//! A statement is a one-byte tag and its fields; `op` is a `u32` index
//! into the op table and `list` an array list (below):
//!
//! ```text
//! tag  statement   fields
//!   0  switch      u8 kind (0 = TOM, 1 = TOC), list
//!   1  compute     u32 op, list compute, list mem_in, list mem_out
//!   2  loadw       u32 op, list, u64 bytes
//!   3  mem         u8 loc (0 = main, 1 = buffer, 2 = cim + list),
//!                  u8 direction (0 = read, 1 = write), u64 bytes,
//!                  u8 kind (0 = write-back + u32 segment,
//!                           1 = final output, 2 = transfer)
//!   4  vector      u32 op, u64 flops
//!   5  parallel    u64 count, stmt*
//! ```
//!
//! An op index at or past the op table is [`ArtifactError::Malformed`],
//! so every decoded statement names an op the program has. Version 5
//! carried a name per compute, weight-load and vector statement, seven
//! shape fields per compute and a free label per memory statement:
//! 375 124 bytes for llama2-7b at seq 32 on DynaPlasia, against 268 175
//! now, and its decode made 5 734 allocator calls, against 2 623 now —
//! most of a store-served request's decode time went to those
//! per-statement strings. An allocation snapshot is `(u64 hash, u64
//! word*, u8 tag, alloc if the tag is 1)*`. A report is
//!
//! ```text
//! report := u32 schema, u64 key, u64 energy model,
//!           u64 program payload length, u64 program payload checksum,
//!           f64 total_cycles, f64 energy_pj[6], f64 busy[4]
//! ```
//!
//! 124 bytes of payload, whatever the size of the program it describes.
//!
//! # Array lists
//!
//! The allocator hands each operator contiguous blocks of arrays, so
//! every array list of a flow — a switch's arrays, a compute's three
//! lists, a weight load's arrays, a scratchpad location — is written as
//! the canonical runs of its [`ArraySet`], not id by id:
//!
//! ```text
//! list := u32 run count, run*
//! run  := u32 first id, u32 len, u8 step   (0 = +1, 1 = -1)
//! ```
//!
//! A run holds the `len` ids `first`, `first ± 1`, …; a list is the
//! concatenation of its runs, in order, duplicates kept. The decoder
//! accepts only the canonical form, so decoding and encoding are
//! inverse bijections: a run count whose runs would not fit in the
//! payload, a zero-length run, a run stepping past `0` or `u32::MAX`, a
//! descending one-id run, and a run that continues the one before it
//! (two runs the encoder would have written as one) are all
//! [`ArtifactError::Malformed`]. Decoding writes runs straight into the
//! set's inline storage — a list of at most three runs costs no
//! allocation — and nothing in the decoder scales with a run's length:
//! a forged run of four billion ids is nine bytes in and eight bytes
//! out, and the checkers downstream walk it clipped to the chip
//! ([`cmswitch_metaop::ArraySet::clipped_runs`]).
//!
//! # Nesting
//!
//! `Parallel` blocks nest at most two deep on the wire (a block inside
//! a block); a third level is `Malformed`. The compiler never nests
//! them at all (`race-nested` denies it), so the bound only has to keep
//! that finding reachable through the decoder; without one a forged
//! file turns the recursive statement decoder into a stack overflow,
//! which no `catch_unwind` contains.
//!
//! # Versioning policy
//!
//! The format version is bumped on **any** layout change; decoders
//! refuse other versions with [`ArtifactError::UnsupportedVersion`]
//! rather than guessing — a stale store entry then degrades to a cold
//! compile (the [`crate::store::ArtifactStore`] treats every decode
//! error as a miss-with-corruption). There is deliberately no
//! cross-version migration: artifacts are a cache, never the source of
//! truth.

use std::fmt;
use std::sync::Arc;

use cmswitch_arch::ArrayId;
use cmswitch_metaop::{
    ArrayRun, ArraySet, ComputeStmt, Flow, MemDirection, MemKind, MemLoc, MemStmt, Stmt,
    SwitchKind, VectorStmt, WeightLoadStmt,
};

use crate::allocation::{AllocEntry, OpAllocation, SegmentAllocation};
use crate::compiler::{CompiledProgram, CompileStats};
use crate::frontend::SegOp;
use crate::segment::Segment;
use crate::store::StoredReport;

/// The 8-byte artifact magic.
pub const MAGIC: [u8; 8] = *b"CMSWART\0";

/// The current wire-format version (see the module docs for the bump
/// policy).
pub const FORMAT_VERSION: u32 = 6;

/// Artifact kind tag: a serialized [`CompiledProgram`].
pub const KIND_PROGRAM: u32 = 1;

/// Artifact kind tag: an allocation-cache snapshot.
pub const KIND_ALLOC_SNAPSHOT: u32 = 2;

/// Artifact kind tag: an engine report kept beside a program.
pub const KIND_REPORT: u32 = 3;

const HEADER_LEN: usize = 32;

/// How deep `Parallel` blocks may nest in a decoded flow: a block inside
/// a block, and no further (see the module docs).
const MAX_PARALLEL_DEPTH: usize = 2;

/// Encoded size of one array run: first id, length, step.
const RUN_BYTES: usize = 9;

/// The shortest encoded statement: a switch of an empty list (tag,
/// kind, run count). Statement counts are checked against it, so a
/// forged count reserves at most the statements the payload can hold.
const MIN_STMT_BYTES: usize = 6;

/// Why a byte slice failed to decode as an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The input ended before the decoder was done (`needed` more bytes
    /// than `available` at the failure point).
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// The first 8 bytes are not [`MAGIC`] — not an artifact at all.
    BadMagic,
    /// The artifact was written by a different format version.
    UnsupportedVersion(u32),
    /// The artifact is valid but of a different kind than requested
    /// (e.g. an allocation snapshot fed to [`decode_program`]).
    WrongKind {
        /// The kind the decoder expected.
        expected: u32,
        /// The kind found in the header.
        found: u32,
    },
    /// The payload checksum does not match the header — the file was
    /// corrupted after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
    /// The payload passed the checksum but violated the grammar (an
    /// unknown enum tag, trailing bytes, an out-of-range length) — this
    /// indicates a encoder/decoder bug, not disk corruption.
    Malformed(&'static str),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated { needed, available } => {
                write!(f, "truncated artifact: needed {needed} bytes, had {available}")
            }
            ArtifactError::BadMagic => write!(f, "bad artifact magic"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact format version {v} (this build reads {FORMAT_VERSION})")
            }
            ArtifactError::WrongKind { expected, found } => {
                write!(f, "wrong artifact kind: expected {expected}, found {found}")
            }
            ArtifactError::ChecksumMismatch { expected, found } => write!(
                f,
                "artifact checksum mismatch: header {expected:#018x}, payload {found:#018x}"
            ),
            ArtifactError::Malformed(what) => write!(f, "malformed artifact payload: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// What identifies a payload once its artifact decoded: the header's
/// length and checksum fields, which `unframe` has just recomputed
/// and matched. Two payloads with equal stamps are the same bytes as far
/// as any read of this format can tell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PayloadStamp {
    len: u64,
    checksum: u64,
}

impl PayloadStamp {
    /// The stamp of an artifact [`frame`] has just written, read back
    /// from its header.
    pub(crate) fn of_framed(bytes: &[u8]) -> PayloadStamp {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        PayloadStamp {
            len: word(16),
            checksum: word(24),
        }
    }
}

/// What a report record was computed from: its layout, the program's
/// key, the energy model and the stamp of the program payload. A record
/// is trusted only when all four equal what the reader expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReportBinding {
    pub(crate) schema: u32,
    pub(crate) key: u64,
    pub(crate) model: u64,
    pub(crate) program: PayloadStamp,
}

/// The payload checksum of the wire format (definition and rationale in
/// the module docs): four multiply lanes over little-endian 64-bit
/// words, the zero-padded tail as a last block, the length folded in.
fn payload_checksum(payload: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn step(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(PRIME).rotate_left(29)
    }
    fn absorb(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            *lane = step(*lane, word);
        }
    }
    // The final fold is ordered, so lanes need no seeds of their own.
    let mut lanes = [0xcbf2_9ce4_8422_2325_u64; 4];
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        absorb(&mut lanes, block);
    }
    let tail = blocks.remainder();
    let mut last = [0u8; 32];
    last[..tail.len()].copy_from_slice(tail);
    absorb(&mut lanes, &last);
    let h = lanes.iter().fold(payload.len() as u64, |h, &lane| step(h, lane));
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Accumulates one artifact: the header's 32 bytes are reserved up
/// front and filled in by [`frame`], so the payload is never copied.
/// (Sizing the buffer from the program first was measured and lost: the
/// walk costs more than the amortised growth it saves.)
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: vec![0; HEADER_LEN],
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn boolean(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, ArtifactError> {
        usize::try_from(self.u64()?).map_err(|_| ArtifactError::Malformed("usize overflow"))
    }

    fn boolean(&mut self) -> Result<bool, ArtifactError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ArtifactError::Malformed("bool tag")),
        }
    }

    fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<&'a str, ArtifactError> {
        let len = self.usize()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| ArtifactError::Malformed("utf-8 string"))
    }

    /// An op-table index, checked against a table of `n_ops` entries.
    fn op(&mut self, n_ops: usize) -> Result<u32, ArtifactError> {
        let op = self.u32()?;
        if op as usize >= n_ops {
            return Err(ArtifactError::Malformed("op index past the op table"));
        }
        Ok(op)
    }

    /// Reads a sequence length and guards it against the bytes actually
    /// left (`min_elem` = minimum encoded size of one element), so a
    /// garbage length can never trigger a huge allocation.
    fn seq_len(&mut self, min_elem: usize) -> Result<usize, ArtifactError> {
        let len = self.usize()?;
        if len.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(ArtifactError::Truncated {
                needed: len.saturating_mul(min_elem.max(1)),
                available: self.remaining(),
            });
        }
        Ok(len)
    }

    fn finish(&self) -> Result<(), ArtifactError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ArtifactError::Malformed("trailing payload bytes"))
        }
    }
}

// ---------------------------------------------------------------------------
// Header framing
// ---------------------------------------------------------------------------

fn frame(kind: u32, w: Writer) -> Vec<u8> {
    let mut out = w.buf;
    let (header, payload) = out.split_at_mut(HEADER_LEN);
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&kind.to_le_bytes());
    header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&payload_checksum(payload).to_le_bytes());
    out
}

/// Validates the header and the checksum; returns the payload with its
/// stamp.
fn unframe(bytes: &[u8], expected_kind: u32) -> Result<(&[u8], PayloadStamp), ArtifactError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion(version));
    }
    let kind = r.u32()?;
    if kind != expected_kind {
        return Err(ArtifactError::WrongKind {
            expected: expected_kind,
            found: kind,
        });
    }
    let payload_len = r.usize()?;
    let checksum = r.u64()?;
    let payload = r.take(payload_len)?;
    if r.remaining() != 0 {
        return Err(ArtifactError::Malformed("bytes after payload"));
    }
    let found = payload_checksum(payload);
    if found != checksum {
        return Err(ArtifactError::ChecksumMismatch {
            expected: checksum,
            found,
        });
    }
    let stamp = PayloadStamp {
        len: payload.len() as u64,
        checksum,
    };
    Ok((payload, stamp))
}

// ---------------------------------------------------------------------------
// Domain encoders / decoders
// ---------------------------------------------------------------------------

// Array lists as runs (grammar in the module docs).
fn put_array_set(w: &mut Writer, set: &ArraySet) {
    let runs = set.runs();
    // A list of 2^32 runs would be 32 GiB in memory.
    w.u32(u32::try_from(runs.len()).expect("fewer than 2^32 runs per list"));
    for run in runs {
        w.u32(run.first().0);
        w.u32(run.count());
        w.u8(u8::from(!run.ascending()));
    }
}

fn get_array_set(r: &mut Reader<'_>) -> Result<ArraySet, ArtifactError> {
    let n_runs = r.u32()? as usize;
    if n_runs.saturating_mul(RUN_BYTES) > r.remaining() {
        return Err(ArtifactError::Malformed("array run count past the payload"));
    }
    let mut set = ArraySet::new();
    for run in r.take(n_runs * RUN_BYTES)?.chunks_exact(RUN_BYTES) {
        let first = u32::from_le_bytes([run[0], run[1], run[2], run[3]]);
        let len = u32::from_le_bytes([run[4], run[5], run[6], run[7]]);
        let ascending = match run[8] {
            0 => true,
            1 if len > 1 => false,
            _ => return Err(ArtifactError::Malformed("array run step")),
        };
        let run = ArrayRun::new(ArrayId(first), len, ascending)
            .ok_or(ArtifactError::Malformed("array run empty or past the id range"))?;
        if !set.push_run(run) {
            return Err(ArtifactError::Malformed("array runs not canonical"));
        }
    }
    Ok(set)
}

fn put_stmt(w: &mut Writer, stmt: &Stmt) {
    match stmt {
        Stmt::Switch { kind, arrays } => {
            w.u8(0);
            w.u8(match kind {
                SwitchKind::ToMemory => 0,
                SwitchKind::ToCompute => 1,
            });
            put_array_set(w, arrays);
        }
        Stmt::Compute(c) => {
            w.u8(1);
            w.u32(c.op);
            put_array_set(w, &c.compute_arrays);
            put_array_set(w, &c.mem_in_arrays);
            put_array_set(w, &c.mem_out_arrays);
        }
        Stmt::LoadWeights(l) => {
            w.u8(2);
            w.u32(l.op);
            put_array_set(w, &l.arrays);
            w.u64(l.bytes);
        }
        Stmt::Mem(m) => {
            w.u8(3);
            match &m.loc {
                MemLoc::Main => w.u8(0),
                MemLoc::Buffer => w.u8(1),
                MemLoc::CimArrays(ids) => {
                    w.u8(2);
                    put_array_set(w, ids);
                }
            }
            w.u8(match m.direction {
                MemDirection::Read => 0,
                MemDirection::Write => 1,
            });
            w.u64(m.bytes);
            match m.kind {
                MemKind::Writeback { segment } => {
                    w.u8(0);
                    w.u32(segment);
                }
                MemKind::FinalOutput => w.u8(1),
                MemKind::Transfer => w.u8(2),
            }
        }
        Stmt::Vector(v) => {
            w.u8(4);
            w.u32(v.op);
            w.u64(v.flops);
        }
        Stmt::Parallel(body) => {
            w.u8(5);
            w.usize(body.len());
            for s in body {
                put_stmt(w, s);
            }
        }
    }
}

/// `depth` is the number of `Parallel` blocks around the statement;
/// `n_ops` the size of the op table its indices must fall in.
fn get_stmt(r: &mut Reader<'_>, n_ops: usize, depth: usize) -> Result<Stmt, ArtifactError> {
    Ok(match r.u8()? {
        0 => Stmt::Switch {
            kind: match r.u8()? {
                0 => SwitchKind::ToMemory,
                1 => SwitchKind::ToCompute,
                _ => return Err(ArtifactError::Malformed("switch kind tag")),
            },
            arrays: get_array_set(r)?,
        },
        1 => Stmt::Compute(ComputeStmt {
            op: r.op(n_ops)?,
            compute_arrays: get_array_set(r)?,
            mem_in_arrays: get_array_set(r)?,
            mem_out_arrays: get_array_set(r)?,
        }),
        2 => Stmt::LoadWeights(WeightLoadStmt {
            op: r.op(n_ops)?,
            arrays: get_array_set(r)?,
            bytes: r.u64()?,
        }),
        3 => Stmt::Mem(MemStmt {
            loc: match r.u8()? {
                0 => MemLoc::Main,
                1 => MemLoc::Buffer,
                2 => MemLoc::CimArrays(get_array_set(r)?),
                _ => return Err(ArtifactError::Malformed("mem loc tag")),
            },
            direction: match r.u8()? {
                0 => MemDirection::Read,
                1 => MemDirection::Write,
                _ => return Err(ArtifactError::Malformed("mem direction tag")),
            },
            bytes: r.u64()?,
            kind: match r.u8()? {
                0 => MemKind::Writeback { segment: r.u32()? },
                1 => MemKind::FinalOutput,
                2 => MemKind::Transfer,
                _ => return Err(ArtifactError::Malformed("mem kind tag")),
            },
        }),
        4 => Stmt::Vector(VectorStmt {
            op: r.op(n_ops)?,
            flops: r.u64()?,
        }),
        5 => {
            if depth == MAX_PARALLEL_DEPTH {
                return Err(ArtifactError::Malformed("parallel nesting too deep"));
            }
            let len = r.seq_len(MIN_STMT_BYTES)?;
            let mut body = Vec::with_capacity(len);
            for _ in 0..len {
                body.push(get_stmt(r, n_ops, depth + 1)?);
            }
            Stmt::Parallel(body)
        }
        _ => return Err(ArtifactError::Malformed("stmt tag")),
    })
}

/// The flow's statements (its name and op table are written apart).
fn put_stmts(w: &mut Writer, flow: &Flow) {
    w.usize(flow.stmts().len());
    for stmt in flow.stmts() {
        put_stmt(w, stmt);
    }
}

/// The statements of a flow named `name` over the op table of `ops`.
fn get_flow(r: &mut Reader<'_>, name: &str, ops: &[SegOp]) -> Result<Flow, ArtifactError> {
    let mut flow = Flow::with_ops(name, ops.iter().map(SegOp::flow_op).collect());
    let len = r.seq_len(MIN_STMT_BYTES)?;
    flow.stmts_mut().reserve_exact(len);
    for _ in 0..len {
        flow.push(get_stmt(r, ops.len(), 0)?);
    }
    Ok(flow)
}

fn put_seg_op(w: &mut Writer, op: &SegOp) {
    w.usize(op.source);
    w.str(&op.name);
    w.usize(op.m);
    w.usize(op.k);
    w.usize(op.n);
    w.usize(op.units);
    w.boolean(op.weight_static);
    w.f64(op.work);
    w.u64(op.in_bytes);
    w.u64(op.out_bytes);
    w.u64(op.weight_bytes);
    w.u64(op.aux_flops);
    w.usize(op.min_tiles);
}

fn get_seg_op(r: &mut Reader<'_>) -> Result<SegOp, ArtifactError> {
    Ok(SegOp {
        source: r.usize()?,
        name: Arc::from(r.str()?),
        m: r.usize()?,
        k: r.usize()?,
        n: r.usize()?,
        units: r.usize()?,
        weight_static: r.boolean()?,
        work: r.f64()?,
        in_bytes: r.u64()?,
        out_bytes: r.u64()?,
        weight_bytes: r.u64()?,
        aux_flops: r.u64()?,
        min_tiles: r.usize()?,
    })
}

fn put_alloc(w: &mut Writer, alloc: &SegmentAllocation) {
    w.usize(alloc.ops.len());
    for o in &alloc.ops {
        w.usize(o.compute);
        w.usize(o.mem_in);
        w.usize(o.mem_out);
    }
    w.usize(alloc.reuse.len());
    for &((p, c), n) in &alloc.reuse {
        w.usize(p);
        w.usize(c);
        w.usize(n);
    }
    w.f64(alloc.latency);
}

fn get_alloc(r: &mut Reader<'_>) -> Result<SegmentAllocation, ArtifactError> {
    let n_ops = r.seq_len(24)?;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        ops.push(OpAllocation {
            compute: r.usize()?,
            mem_in: r.usize()?,
            mem_out: r.usize()?,
        });
    }
    let n_reuse = r.seq_len(24)?;
    let mut reuse = Vec::with_capacity(n_reuse);
    for _ in 0..n_reuse {
        reuse.push(((r.usize()?, r.usize()?), r.usize()?));
    }
    Ok(SegmentAllocation {
        ops,
        reuse,
        latency: r.f64()?,
    })
}

fn put_segment(w: &mut Writer, segment: &Segment) {
    w.usize(segment.range.0);
    w.usize(segment.range.1);
    put_alloc(w, &segment.alloc);
    w.f64(segment.inter_before);
}

fn get_segment(r: &mut Reader<'_>) -> Result<Segment, ArtifactError> {
    Ok(Segment {
        range: (r.usize()?, r.usize()?),
        alloc: get_alloc(r)?,
        inter_before: r.f64()?,
    })
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Serializes a compiled program's plan (everything but its `stats`)
/// into a framed, checksummed artifact.
pub fn encode_program(program: &CompiledProgram) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(program.flow.name());
    w.usize(program.ops.len());
    for op in &program.ops {
        put_seg_op(&mut w, op);
    }
    put_stmts(&mut w, &program.flow);
    w.usize(program.op_deps.len());
    for &(p, c) in &program.op_deps {
        w.usize(p);
        w.usize(c);
    }
    w.usize(program.segments.len());
    for segment in &program.segments {
        put_segment(&mut w, segment);
    }
    w.f64(program.predicted_latency);
    frame(KIND_PROGRAM, w)
}

/// Decodes a framed program artifact produced by [`encode_program`],
/// with [`CompileStats::default`] for the run history it does not hold.
///
/// # Errors
///
/// Every [`ArtifactError`] variant: truncation, a foreign magic, a
/// version from another build, a kind mismatch, a checksum failure, or
/// a grammar violation in the payload.
pub fn decode_program(bytes: &[u8]) -> Result<CompiledProgram, ArtifactError> {
    decode_program_stamped(bytes).map(|(program, _)| program)
}

/// [`decode_program`], also returning the stamp of the payload it
/// checksummed — what the store's verdict memo compares.
pub(crate) fn decode_program_stamped(
    bytes: &[u8],
) -> Result<(CompiledProgram, PayloadStamp), ArtifactError> {
    let (payload, stamp) = unframe(bytes, KIND_PROGRAM)?;
    let mut r = Reader::new(payload);
    let name = r.str()?;
    let n_ops = r.seq_len(8)?;
    let mut ops: Vec<SegOp> = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let op = get_seg_op(&mut r)?;
        // Every `op_deps` reader relies on one span of ops per source.
        let next = ops
            .last()
            .map_or(0..=0, |prev| prev.source..=prev.source + 1);
        if !next.contains(&op.source) {
            return Err(ArtifactError::Malformed("op sources not contiguous from 0"));
        }
        ops.push(op);
    }
    let flow = get_flow(&mut r, name, &ops)?;
    let n_deps = r.seq_len(16)?;
    let mut op_deps = Vec::with_capacity(n_deps);
    for _ in 0..n_deps {
        op_deps.push((r.usize()?, r.usize()?));
    }
    let n_segments = r.seq_len(8)?;
    let mut segments = Vec::with_capacity(n_segments);
    for _ in 0..n_segments {
        segments.push(get_segment(&mut r)?);
    }
    let predicted_latency = r.f64()?;
    r.finish()?;
    let program = CompiledProgram {
        flow,
        ops,
        op_deps,
        segments,
        predicted_latency,
        stats: CompileStats::default(),
    };
    Ok((program, stamp))
}

/// Serializes allocation-cache entries (hash, signature, result) into a
/// framed, checksummed snapshot artifact.
pub fn encode_alloc_entries(entries: &[AllocEntry]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(entries.len());
    for (hash, sig, value) in entries {
        w.u64(*hash);
        w.usize(sig.len());
        for &word in sig {
            w.u64(word);
        }
        match value {
            None => w.u8(0),
            Some(alloc) => {
                w.u8(1);
                put_alloc(&mut w, alloc);
            }
        }
    }
    frame(KIND_ALLOC_SNAPSHOT, w)
}

/// Decodes a snapshot artifact produced by [`encode_alloc_entries`].
///
/// # Errors
///
/// Same contract as [`decode_program`].
pub fn decode_alloc_entries(bytes: &[u8]) -> Result<Vec<AllocEntry>, ArtifactError> {
    decode_alloc_payload(alloc_snapshot_frame(bytes)?.0)
}

/// The checked payload of an allocation snapshot and its stamp — what
/// tells a cache whether it imported these entries before, without
/// decoding them.
pub(crate) fn alloc_snapshot_frame(bytes: &[u8]) -> Result<(&[u8], PayloadStamp), ArtifactError> {
    unframe(bytes, KIND_ALLOC_SNAPSHOT)
}

/// The entries of an allocation snapshot's payload.
pub(crate) fn decode_alloc_payload(payload: &[u8]) -> Result<Vec<AllocEntry>, ArtifactError> {
    let mut r = Reader::new(payload);
    let n = r.seq_len(17)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let hash = r.u64()?;
        let sig_len = r.seq_len(8)?;
        let mut sig = Vec::with_capacity(sig_len);
        for _ in 0..sig_len {
            sig.push(r.u64()?);
        }
        let value = match r.u8()? {
            0 => None,
            1 => Some(get_alloc(&mut r)?),
            _ => return Err(ArtifactError::Malformed("alloc option tag")),
        };
        entries.push((hash, sig, value));
    }
    r.finish()?;
    Ok(entries)
}

/// Serializes a report record and its binding (layout in the module
/// docs) into a framed, checksummed artifact.
pub(crate) fn encode_report(binding: &ReportBinding, report: &StoredReport) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(binding.schema);
    w.u64(binding.key);
    w.u64(binding.model);
    w.u64(binding.program.len);
    w.u64(binding.program.checksum);
    w.f64(report.total_cycles);
    for &v in report.energy_pj.iter().chain(&report.busy) {
        w.f64(v);
    }
    frame(KIND_REPORT, w)
}

/// Decodes a report artifact produced by [`encode_report`].
pub(crate) fn decode_report(bytes: &[u8]) -> Result<(ReportBinding, StoredReport), ArtifactError> {
    let mut r = Reader::new(unframe(bytes, KIND_REPORT)?.0);
    let binding = ReportBinding {
        schema: r.u32()?,
        key: r.u64()?,
        model: r.u64()?,
        program: PayloadStamp {
            len: r.u64()?,
            checksum: r.u64()?,
        },
    };
    let mut report = StoredReport {
        total_cycles: r.f64()?,
        ..StoredReport::default()
    };
    for v in report.energy_pj.iter_mut().chain(&mut report.busy) {
        *v = r.f64()?;
    }
    r.finish()?;
    Ok((binding, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;
    use crate::session::Session;

    fn compile_mlp(widths: &[usize]) -> CompiledProgram {
        let graph = cmswitch_models::mlp::mlp(2, widths).unwrap();
        Session::builder(presets::tiny())
            .build()
            .compile_graph(&graph)
            .unwrap()
    }

    fn program() -> CompiledProgram {
        compile_mlp(&[128, 256, 128])
    }

    #[test]
    fn program_roundtrip_is_bit_identical() {
        let mut p = program();
        let bytes = encode_program(&p);
        let decoded = decode_program(&bytes).unwrap();
        // The plan survives; the run history is not persisted.
        assert_eq!(decoded.stats, CompileStats::default());
        p.stats = CompileStats::default();
        assert_eq!(decoded, p);
        // Canonical form: re-encoding reproduces the same bytes.
        assert_eq!(encode_program(&decoded), bytes);
    }

    /// A report round-trips bit for bit, is 124 bytes of payload, and
    /// the stamp read back from a freshly framed program is the one its
    /// decode recomputes.
    #[test]
    fn report_roundtrip_and_framed_stamp() {
        let program = encode_program(&program());
        let stamp = PayloadStamp::of_framed(&program);
        assert_eq!(decode_program_stamped(&program).unwrap().1, stamp);
        let binding = ReportBinding {
            schema: 1,
            key: 0xfeed,
            model: 0xbeef,
            program: stamp,
        };
        let report = StoredReport {
            total_cycles: 1234.5,
            energy_pj: [1.0, 2.0, 3.0, f64::MIN_POSITIVE, -0.0, 6.0],
            busy: [7.0, 8.0, 9.0, 10.0],
        };
        let bytes = encode_report(&binding, &report);
        assert_eq!(bytes.len(), HEADER_LEN + 124);
        let (b, r) = decode_report(&bytes).unwrap();
        assert_eq!(b, binding);
        assert_eq!(r.energy_pj[4].to_bits(), (-0.0_f64).to_bits());
        assert_eq!(r, report);
        assert!(matches!(
            decode_report(&program).unwrap_err(),
            ArtifactError::WrongKind { .. }
        ));
        assert!(decode_report(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn alloc_entries_roundtrip() {
        let entries: Vec<AllocEntry> = vec![
            (7, vec![1, 2, 3], None),
            (
                9,
                vec![4, 5],
                Some(SegmentAllocation {
                    ops: vec![OpAllocation {
                        compute: 2,
                        mem_in: 1,
                        mem_out: 0,
                    }],
                    reuse: vec![((0, 1), 1)],
                    latency: 3.5,
                }),
            ),
        ];
        let bytes = encode_alloc_entries(&entries);
        assert_eq!(decode_alloc_entries(&bytes).unwrap(), entries);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = encode_program(&program());
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            let err = decode_program(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ArtifactError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        let mut bytes = encode_program(&program());
        bytes[8] = 0xFF; // version low byte
        assert!(matches!(
            decode_program(&bytes).unwrap_err(),
            ArtifactError::UnsupportedVersion(_)
        ));
        let mut bytes = encode_program(&program());
        bytes[0] = b'X';
        assert_eq!(decode_program(&bytes).unwrap_err(), ArtifactError::BadMagic);
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let snapshot = encode_alloc_entries(&[]);
        assert!(matches!(
            decode_program(&snapshot).unwrap_err(),
            ArtifactError::WrongKind {
                expected: KIND_PROGRAM,
                found: KIND_ALLOC_SNAPSHOT,
            }
        ));
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut bytes = encode_program(&program());
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x5A;
        assert!(matches!(
            decode_program(&bytes).unwrap_err(),
            ArtifactError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn every_single_bit_flip_of_the_payload_fails_the_checksum() {
        let clean = encode_program(&compile_mlp(&[128; 24]));
        decode_program(&clean).expect("the unflipped artifact decodes");
        let payload = HEADER_LEN..clean.len();
        assert!(payload.len() > 4096 + 97, "sample too small: {} bytes", payload.len());
        // Exhaustive over the first 4 KiB, every 97th byte after that.
        let bytes = (payload.start..payload.start + 4096)
            .chain((payload.start + 4096..payload.end).step_by(97));
        let mut flipped = clean;
        for i in bytes {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                assert!(
                    matches!(
                        decode_program(&flipped),
                        Err(ArtifactError::ChecksumMismatch { .. })
                    ),
                    "bit {bit} of byte {i} flipped unnoticed"
                );
                flipped[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn checksum_tells_trailing_zeros_from_padding() {
        // Every tail length around two 32-byte blocks: payloads that
        // differ only by trailing zero bytes pad to the same words, so
        // only the folded-in length separates them.
        for fill in [0u8, 0xA7] {
            let mut seen = std::collections::HashMap::new();
            for len in 0..=72usize {
                let mut payload = vec![fill; len.min(40)];
                payload.resize(len, 0);
                if let Some(other) = seen.insert(payload_checksum(&payload), len) {
                    panic!("fill {fill:#x}: lengths {other} and {len} collide");
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_program(&program());
        bytes.push(0);
        assert!(matches!(
            decode_program(&bytes).unwrap_err(),
            ArtifactError::Malformed(_)
        ));
    }
}
