//! Crash-safe simulation checkpoints: the `swckpt-v1` binary format.
//!
//! A [`Checkpoint`] captures the complete mid-run state of a simulation at
//! a kernel-launch boundary — every warp context (PC, active mask,
//! divergence stack, registers, scoreboard), the cache arrays and port
//! clocks, the Weaver/EGHW unit state, device and scratchpad memory
//! contents, the fault injector's RNG cursor, the tracer and profiler
//! accumulators, and the host-side runtime state (allocator cursor,
//! accumulated statistics, and the ordered log of host/device
//! interactions needed to fast-replay the algorithm driver).
//!
//! `swsim resume <path>` restores a checkpoint and continues the run; the
//! resumed run is bit-identical to an uninterrupted one (same stats, same
//! `metrics.json`, same trace bytes). See `docs/robustness.md`.
//!
//! # Wire format
//!
//! Little-endian binary with no self-description (the vendored `serde` is
//! a no-op marker stub, so nothing here derives from it):
//!
//! ```text
//! magic   b"swckpt-v1"          9 bytes
//! version u32                   currently 1
//! payload a `Checkpoint`        its fields, in `wire_struct!` order
//! ```
//!
//! One private `Wire` trait both writes and reads every type, so the two
//! directions cannot drift. Integers are fixed-width; `usize` travels as
//! `u64`. `Vec<T>` is a `u64` length followed by the items; `Option<T>` is
//! a presence byte (0/1) followed by the payload; strings are
//! length-prefixed UTF-8; fixed-size arrays and tuples carry no prefix.
//! Each struct is its fields in the order the `wire_struct!` list names
//! them, and that list is the format spec. Enums are a one-byte stable id
//! or variant tag, then the variant's fields in order.
//!
//! The decoder verifies that the payload is consumed exactly and bounds
//! every sequence length by the smallest encoding of its item type before
//! allocating; corrupt or truncated inputs yield a typed
//! [`CheckpointError`] that names the payload offset, never a panic.
//!
//! The payload embeds the FNV-1a fingerprints of the effective GPU
//! configuration and the input graph (the same fingerprints `swprof`
//! stamps into `metrics.json`); [`Checkpoint::verify`] refuses to restore
//! into a mismatched machine or graph.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use sparseweaver_fault::{FaultCounts, FaultInjectorState};
use sparseweaver_mem::{CacheState, CacheStats, HierarchyState, LevelStats, LineState, PortState};
use sparseweaver_sim::core::CoreStats;
use sparseweaver_sim::warp::SimtEntry;
use sparseweaver_sim::{CoreState, GpuState, KernelStats, Occupancy, StallBreakdown, WarpSnapshot};
use sparseweaver_trace::{
    CounterSnapshot, EventData, KernelSpan, LatencyHistogram, MemLevel, MetricSample, Phase,
    ProfileReport, SinkState, StallCause, TableOp, TraceEvent, TracerState, WeaverState,
};
use sparseweaver_weaver::eghw::{EghwLayout, EghwState};
use sparseweaver_weaver::{CedState, FsmSnapshot, StEntry, WeaverUnitState};

use crate::schedule::Schedule;

/// File magic, leading every checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 9] = b"swckpt-v1";

/// Current format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// One host-side interaction recorded for deterministic resume.
///
/// The algorithm drivers are host loops: they launch kernels and read
/// device memory (convergence flags, frontier counts) to decide control
/// flow. A resumed run re-executes the driver from its start in *replay*
/// mode — reads pop from this log, writes are suppressed (device memory
/// already holds the checkpointed contents), and launches return their
/// logged statistics without simulating — until the log drains at the
/// checkpoint boundary and the runtime switches back to live execution.
// The size skew between the variants is fine: the host log holds one
// `LaunchDone` per kernel launch and the stats payload is what resume
// replays — boxing it would only add indirection to the hot replay path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum HostEvent {
    /// A host read of device memory, as raw little-endian bits.
    Read(u64),
    /// A completed kernel launch and the statistics it returned.
    LaunchDone(KernelStats),
}

/// A complete simulator state snapshot at a kernel-launch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// FNV-1a fingerprint of the effective `GpuConfig` (its `Debug`
    /// rendering), as stamped into `metrics.json`.
    pub config_fp: u64,
    /// FNV-1a fingerprint of the input graph's CSR arrays.
    pub graph_fp: u64,
    /// The original `swsim run` argument vector (after the subcommand),
    /// embedded so `swsim resume` can rebuild the graph, algorithm and
    /// session without re-stating flags.
    pub argv: Vec<String>,
    /// The schedule the checkpointed machine is executing.
    pub schedule: Schedule,
    /// When the session fell back to `S_wm` after Weaver retry
    /// exhaustion: the original schedule and the kernel that timed out.
    pub fell_back_from: Option<(Schedule, String)>,
    /// Kernel launches completed so far (the checkpoint cadence counter).
    pub launches: u64,
    /// The runtime's bump-allocator cursor.
    pub next_alloc: u64,
    /// Launch retries performed after Weaver timeouts.
    pub weaver_retries: u64,
    /// Accumulated whole-run statistics.
    pub total: KernelStats,
    /// Accumulated per-kernel statistics, in first-launch order.
    pub per_kernel: Vec<(String, KernelStats)>,
    /// The ordered host-interaction log up to this checkpoint.
    pub host_log: Vec<HostEvent>,
    /// The complete GPU machine state.
    pub gpu: GpuState,
    /// Tracer accumulators and sink position, when tracing is on.
    pub tracer: Option<TracerState>,
    /// Profiler report, when profiling is on.
    pub profile: Option<ProfileReport>,
    /// Fault-injector RNG cursor and counters, when injection is on.
    pub fault: Option<FaultInjectorState>,
}

/// Why a checkpoint could not be written, read, or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// An I/O operation failed.
    Io {
        /// What failed and the OS error.
        what: String,
    },
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file's format version is not [`CHECKPOINT_VERSION`].
    BadVersion {
        /// The version the file declared.
        found: u32,
    },
    /// The payload ended before a field was fully read.
    Truncated {
        /// Byte offset (within the payload) at which decoding stopped.
        offset: usize,
    },
    /// The payload is structurally invalid (bad tag, bad UTF-8, trailing
    /// bytes, out-of-range id).
    Corrupt {
        /// What was wrong, and the payload offset where it was found.
        what: String,
    },
    /// The checkpoint was taken under a different GPU configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration being restored into.
        expected: u64,
        /// Fingerprint embedded in the checkpoint.
        found: u64,
    },
    /// The checkpoint was taken against a different graph.
    GraphMismatch {
        /// Fingerprint of the graph being restored into.
        expected: u64,
        /// Fingerprint embedded in the checkpoint.
        found: u64,
    },
    /// The decoded machine state does not fit the rebuilt machine
    /// (wrong core count, warp width, table capacity, ...).
    Restore {
        /// The layered restore error (`"core 3: warp 1: ..."`).
        what: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { what } => write!(f, "checkpoint I/O error: {what}"),
            CheckpointError::BadMagic => {
                write!(f, "not a SparseWeaver checkpoint (bad magic; expected `swckpt-v1`)")
            }
            CheckpointError::BadVersion { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {CHECKPOINT_VERSION})"
            ),
            CheckpointError::Truncated { offset } => {
                write!(f, "checkpoint truncated at payload offset {offset}")
            }
            CheckpointError::Corrupt { what } => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different GPU configuration \
                 (fingerprint {found:#018x}, this run is {expected:#018x}); \
                 resume with the original flags"
            ),
            CheckpointError::GraphMismatch { expected, found } => write!(
                f,
                "checkpoint was taken against a different graph \
                 (fingerprint {found:#018x}, this run is {expected:#018x}); \
                 resume with the original graph"
            ),
            CheckpointError::Restore { what } => {
                write!(f, "checkpoint does not fit the rebuilt machine: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Writes `bytes` to `path` atomically: the data lands in a same-directory
/// temporary file, is flushed to disk, and is then renamed over the
/// destination. A reader (or a crash) never observes a half-written file.
///
/// All artifact writers in the workspace (`metrics.json`, `profile.json`,
/// checkpoints, campaign summaries, ...) share this helper; `-` stdout
/// streaming is handled by callers and never routed here.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best effort: do not leave the temporary behind on failure.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The sibling temporary path used by [`write_atomic`] for `path`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

impl Checkpoint {
    /// Serializes the checkpoint to the `swckpt-v1` wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.buf.extend_from_slice(CHECKPOINT_MAGIC);
        CHECKPOINT_VERSION.put(&mut e);
        self.put(&mut e);
        e.buf
    }

    /// Decodes a checkpoint from `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.get(..CHECKPOINT_MAGIC.len()) != Some(&CHECKPOINT_MAGIC[..]) {
            return Err(CheckpointError::BadMagic);
        }
        let mut d = Dec {
            buf: &bytes[CHECKPOINT_MAGIC.len()..],
            pos: 0,
        };
        let version = u32::get(&mut d)?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        let ck = Checkpoint::get(&mut d)?;
        if d.pos != d.buf.len() {
            return Err(corrupt_at(
                d.pos,
                format!("{} trailing bytes after payload", d.buf.len() - d.pos),
            ));
        }
        Ok(ck)
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename),
    /// so an interrupted write never clobbers a previous good checkpoint.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic(path, &self.encode()).map_err(|e| CheckpointError::Io {
            what: format!("writing checkpoint {}: {e}", path.display()),
        })
    }

    /// Reads and decodes a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = fs::read(path).map_err(|e| CheckpointError::Io {
            what: format!("reading checkpoint {}: {e}", path.display()),
        })?;
        Checkpoint::decode(&bytes)
    }

    /// Refuses the checkpoint unless it was taken under exactly this GPU
    /// configuration and graph (by FNV-1a fingerprint).
    pub fn verify(&self, config_fp: u64, graph_fp: u64) -> Result<(), CheckpointError> {
        if self.config_fp != config_fp {
            return Err(CheckpointError::ConfigMismatch {
                expected: config_fp,
                found: self.config_fp,
            });
        }
        if self.graph_fp != graph_fp {
            return Err(CheckpointError::GraphMismatch {
                expected: graph_fp,
                found: self.graph_fp,
            });
        }
        Ok(())
    }
}

/// A `Corrupt` error located at payload offset `at`.
fn corrupt_at(at: usize, what: impl fmt::Display) -> CheckpointError {
    CheckpointError::Corrupt {
        what: format!("{what} at offset {at}"),
    }
}

// ---------------------------------------------------------------------------
// The codec: one `Wire` impl per type, each writing its field order once
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Enc {
    buf: Vec<u8>,
}

#[derive(Debug)]
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The error for a one-byte tag, id, flag or presence byte `b` that
    /// was just read.
    fn bad_byte(&self, what: &str, b: u8) -> CheckpointError {
        corrupt_at(self.pos - 1, format!("{what} {b}"))
    }

    /// Reads a one-byte id and maps it through `from`.
    fn id<T>(&mut self, what: &str, from: fn(u8) -> Option<T>) -> Result<T, CheckpointError> {
        let id = self.take(1)?[0];
        from(id).ok_or_else(|| self.bad_byte(what, id))
    }

    /// Reads a sequence length and sanity-checks it against the remaining
    /// payload (each item occupies at least `min_item_bytes`), so a
    /// corrupt length cannot drive a huge allocation.
    fn seq_len(&mut self, min_item_bytes: usize) -> Result<usize, CheckpointError> {
        let at = self.pos;
        let len = u64::get(self)?;
        let remaining = (self.buf.len() - self.pos) as u64;
        match len.checked_mul(min_item_bytes.max(1) as u64) {
            Some(need) if need <= remaining => Ok(len as usize),
            _ => Err(corrupt_at(at, format!("implausible sequence length {len}"))),
        }
    }
}

/// A value with a `swckpt-v1` encoding.
trait Wire: Sized {
    /// The fewest bytes one encoded value occupies; bounds sequence
    /// lengths before anything is allocated.
    const MIN_LEN: usize;

    fn put(&self, e: &mut Enc);

    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError>;

    /// Encodes `items` back to back, with no length prefix.
    fn put_slice(items: &[Self], e: &mut Enc) {
        for x in items {
            x.put(e);
        }
    }

    /// Decodes `len` items written by [`Wire::put_slice`].
    fn get_vec(d: &mut Dec<'_>, len: usize) -> Result<Vec<Self>, CheckpointError> {
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(Self::get(d)?);
        }
        Ok(v)
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
                let raw = d.take(Self::MIN_LEN)?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("take returns MIN_LEN bytes")))
            }
        }
    )*};
}

wire_int!(u32, u64, i64);

/// Bytes: byte vectors (memory images, the FSM trace) copy in bulk.
impl Wire for u8 {
    const MIN_LEN: usize = 1;
    fn put(&self, e: &mut Enc) {
        e.buf.push(*self);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        Ok(d.take(1)?[0])
    }
    fn put_slice(items: &[u8], e: &mut Enc) {
        e.buf.extend_from_slice(items);
    }
    fn get_vec(d: &mut Dec<'_>, len: usize) -> Result<Vec<u8>, CheckpointError> {
        Ok(d.take(len)?.to_vec())
    }
}

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, e: &mut Enc) {
        u8::from(*self).put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        match u8::get(d)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(d.bad_byte("bad bool byte", b)),
        }
    }
}

/// `usize` travels as `u64`.
impl Wire for usize {
    const MIN_LEN: usize = 8;
    fn put(&self, e: &mut Enc) {
        (*self as u64).put(e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        Ok(u64::get(d)? as usize)
    }
}

/// A `u64` length, then the items.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 8;
    fn put(&self, e: &mut Enc) {
        self.len().put(e);
        T::put_slice(self, e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let len = d.seq_len(T::MIN_LEN)?;
        T::get_vec(d, len)
    }
}

/// Length-prefixed UTF-8.
impl Wire for String {
    const MIN_LEN: usize = 8;
    fn put(&self, e: &mut Enc) {
        self.len().put(e);
        u8::put_slice(self.as_bytes(), e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let at = d.pos;
        String::from_utf8(Vec::get(d)?).map_err(|_| corrupt_at(at, "invalid UTF-8 string"))
    }
}

/// A presence byte (0/1), then the payload.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, e: &mut Enc) {
        match self {
            None => 0u8.put(e),
            Some(v) => {
                1u8.put(e);
                v.put(e);
            }
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            b => Err(d.bad_byte("bad presence byte", b)),
        }
    }
}

/// Fixed-size arrays carry no length prefix.
impl<T: Wire + Default, const N: usize> Wire for [T; N] {
    const MIN_LEN: usize = N * T::MIN_LEN;
    fn put(&self, e: &mut Enc) {
        T::put_slice(self, e);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let mut out: [T; N] = std::array::from_fn(|_| T::default());
        for x in &mut out {
            *x = T::get(d)?;
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($($t:ident $i:tt),*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)*;
            fn put(&self, e: &mut Enc) {
                $(self.$i.put(e);)*
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
                Ok(($($t::get(d)?,)*))
            }
        }
    };
}

wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// The `MIN_LEN` of the field that `_field` projects out of an `S`, so
/// `wire_struct!` can sum its fields' floors without naming their types.
const fn field_min<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN_LEN
}

/// Implements [`Wire`] for structs: the fields, in the order listed, each
/// in its own encoding. This list *is* the format of the struct.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = 0 $(+ field_min::<$ty, _>(|s| &s.$field))*;
            fn put(&self, e: &mut Enc) {
                $(self.$field.put(e);)*
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
                Ok($ty { $($field: Wire::get(d)?),* })
            }
        }
    )*};
}

wire_struct! {
    Checkpoint {
        config_fp, graph_fp, argv, schedule, fell_back_from, launches, next_alloc,
        weaver_retries, total, per_kernel, host_log, gpu, tracer, profile, fault,
    }

    // Statistics.
    StallBreakdown { memory, shared, exec_dep, l1_queue, barrier, weaver }
    CacheStats { accesses, hits, misses, writebacks }
    LevelStats { l1, l2, l3, dram_accesses }
    KernelStats {
        cycles, instructions, thread_instructions, stalls, phase_cycles, mem,
        weaver_counters, warp_cycles, launches,
    }
    CounterSnapshot {
        instructions, thread_instructions, stall_memory, stall_shared, stall_exec_dep,
        stall_l1_queue, stall_barrier, stall_weaver, phase_cycles, l1_accesses, l1_hits,
        l2_accesses, l2_hits, l3_accesses, l3_hits, dram_accesses, shared_reads,
        shared_writes, mem_reads, mem_writes, weaver_st_fetches, weaver_dec_requests,
        weaver_registrations, faults_injected, weaver_drops, weaver_retries,
        weaver_fallbacks, kernel_high_water, occupancy_cap, warps_resident,
        warps_configured,
    }
    FaultCounts { reg_flips, mem_flips, fetch_flips, weaver_drops, weaver_delays }
    FaultInjectorState { rng, counts, weaver_faulty }

    // Tracer and profiler.
    TraceEvent { cycle, core, data }
    MetricSample { cycle, counters }
    KernelSpan { name, start, cycles }
    TracerState { base, committed, samples, kernels, sink }
    LatencyHistogram { buckets, count, sum, min, max }
    ProfileReport { mem, weaver, gather_iteration, core_issues, warp_issues }

    // Machine state.
    GpuState { cores, hierarchy, mem_data, mem_traffic, occupancy }
    Occupancy { kernel_high_water, cap, resident, configured }
    CoreState {
        warps, shared_data, shared_traffic, weaver, eghw, eghw_dt, next_warp, resident,
        active_warps, stats,
    }
    CoreStats { instructions, thread_instructions, stalls, phase_cycles, finish_cycle }
    WarpSnapshot { pc, active, state_id, simt, phase_id, regs, ready, pend }
    SimtEntry { saved_mask, else_mask, else_pc, end_pc, in_else }
    StEntry { vid, loc, deg }
    CedState { vid, next_eid, remaining }
    WeaverUnitState {
        fsm, dt, staging, in_registration, busy_until, st_fetches, dec_requests,
        registrations,
    }
    FsmSnapshot { st, st_pos, ced, skip, state_id, trace }
    EghwLayout { offsets_base, edges_base, weights_base }
    EghwState {
        layout, slots, cursor, current, in_registration, busy_until, line_buf, total_reads,
    }
    LineState { valid, dirty, tag, last_use }
    CacheState { lines, tick, stats }
    PortState { cycle, used }
    HierarchyState { l1, l2, l3, l1_ports, l2_port, dram_port, atomic_port, dram_accesses }
}

/// Implements [`Wire`] for enums that travel as a one-byte stable id.
macro_rules! wire_id {
    ($($ty:ident: $what:literal, $to:expr, $from:expr;)*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = 1;
            fn put(&self, e: &mut Enc) {
                let to: fn(&$ty) -> u8 = $to;
                to(self).put(e);
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
                d.id(concat!("unknown ", $what, " id"), $from)
            }
        }
    )*};
}

wire_id! {
    Schedule: "schedule", |s| s.stable_id(), Schedule::from_stable_id;
    Phase: "phase", |p| *p as u8, |id| Phase::ALL.get(id as usize).copied();
    StallCause: "stall cause", |c| c.cause_id(), StallCause::from_id;
    MemLevel: "memory level", |l| l.level_id(), MemLevel::from_id;
    WeaverState: "weaver state", |s| *s as u8, WeaverState::try_from_id;
    TableOp: "table op", |o| o.op_id(), TableOp::from_id;
}

// Tagged enums: a one-byte variant tag, then the variant's fields in order.

/// Writes variant tag `tag`, then `fields` in order.
macro_rules! put_tagged {
    ($e:ident, $tag:literal $(, $field:expr)*) => {{
        ($tag as u8).put($e);
        $($field.put($e);)*
    }};
}

impl Wire for HostEvent {
    // `Read`: tag + u64.
    const MIN_LEN: usize = 1 + u64::MIN_LEN;
    fn put(&self, e: &mut Enc) {
        match self {
            HostEvent::Read(bits) => put_tagged!(e, 0, bits),
            HostEvent::LaunchDone(stats) => put_tagged!(e, 1, stats),
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        Ok(match u8::get(d)? {
            0 => HostEvent::Read(Wire::get(d)?),
            1 => HostEvent::LaunchDone(Wire::get(d)?),
            t => return Err(d.bad_byte("bad host-event tag", t)),
        })
    }
}

impl Wire for SinkState {
    // `File`: tag + two u64s.
    const MIN_LEN: usize = 1 + 2 * u64::MIN_LEN;
    fn put(&self, e: &mut Enc) {
        match self {
            SinkState::Ring { events, dropped } => put_tagged!(e, 0, events, dropped),
            SinkState::File { written, bytes } => put_tagged!(e, 1, written, bytes),
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        Ok(match u8::get(d)? {
            0 => SinkState::Ring {
                events: Wire::get(d)?,
                dropped: Wire::get(d)?,
            },
            1 => SinkState::File {
                written: Wire::get(d)?,
                bytes: Wire::get(d)?,
            },
            t => return Err(d.bad_byte("unknown sink-state tag", t)),
        })
    }
}

impl Wire for EventData {
    // `DramTransaction`: tag + bool.
    const MIN_LEN: usize = 1 + bool::MIN_LEN;
    fn put(&self, e: &mut Enc) {
        use EventData as E;
        match self {
            E::KernelLaunch { name } => put_tagged!(e, 0, name),
            E::KernelEnd { name, cycles } => put_tagged!(e, 1, name, cycles),
            E::PhaseBegin { warp, phase } => put_tagged!(e, 2, warp, phase),
            E::WarpIssue { warp, pc, active } => put_tagged!(e, 3, warp, pc, active),
            E::WarpStall {
                cause,
                phase,
                cycles,
            } => put_tagged!(e, 4, cause, phase, cycles),
            E::Divergence {
                warp,
                pc,
                taken,
                not_taken,
            } => put_tagged!(e, 5, warp, pc, taken, not_taken),
            E::CacheAccess {
                level,
                write,
                queue_delay,
            } => put_tagged!(e, 6, level, write, queue_delay),
            E::DramTransaction { write } => put_tagged!(e, 7, write),
            E::WeaverTransition { from, to } => put_tagged!(e, 8, from, to),
            E::WeaverTable { op, count } => put_tagged!(e, 9, op, count),
            E::WeaverRetry { kernel, attempt } => put_tagged!(e, 10, kernel, attempt),
            E::WeaverFallback { kernel, schedule } => put_tagged!(e, 11, kernel, schedule),
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        use EventData as E;
        Ok(match u8::get(d)? {
            0 => E::KernelLaunch {
                name: Wire::get(d)?,
            },
            1 => E::KernelEnd {
                name: Wire::get(d)?,
                cycles: Wire::get(d)?,
            },
            2 => E::PhaseBegin {
                warp: Wire::get(d)?,
                phase: Wire::get(d)?,
            },
            3 => E::WarpIssue {
                warp: Wire::get(d)?,
                pc: Wire::get(d)?,
                active: Wire::get(d)?,
            },
            4 => E::WarpStall {
                cause: Wire::get(d)?,
                phase: Wire::get(d)?,
                cycles: Wire::get(d)?,
            },
            5 => E::Divergence {
                warp: Wire::get(d)?,
                pc: Wire::get(d)?,
                taken: Wire::get(d)?,
                not_taken: Wire::get(d)?,
            },
            6 => E::CacheAccess {
                level: Wire::get(d)?,
                write: Wire::get(d)?,
                queue_delay: Wire::get(d)?,
            },
            7 => E::DramTransaction {
                write: Wire::get(d)?,
            },
            8 => E::WeaverTransition {
                from: Wire::get(d)?,
                to: Wire::get(d)?,
            },
            9 => E::WeaverTable {
                op: Wire::get(d)?,
                count: Wire::get(d)?,
            },
            10 => E::WeaverRetry {
                kernel: Wire::get(d)?,
                attempt: Wire::get(d)?,
            },
            11 => E::WeaverFallback {
                kernel: Wire::get(d)?,
                schedule: Wire::get(d)?,
            },
            t => return Err(d.bad_byte("unknown trace-event tag", t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint exercising every codec branch: both `Option` arms,
    /// every `EventData` variant, both sink kinds (via two checkpoints),
    /// non-empty divergence stacks, tables and histograms.
    fn sample() -> Checkpoint {
        let warp = WarpSnapshot {
            pc: 17,
            active: 0b1011,
            state_id: 1,
            simt: vec![SimtEntry {
                saved_mask: 0b1111,
                else_mask: 0b0100,
                else_pc: 21,
                end_pc: 30,
                in_else: true,
            }],
            phase_id: 4,
            regs: vec![1, 2, 3, u64::MAX],
            ready: vec![0, 9],
            pend: vec![0, 3],
        };
        let weaver = WeaverUnitState {
            fsm: FsmSnapshot {
                st: vec![
                    Some(StEntry {
                        vid: 5,
                        loc: 9,
                        deg: 2,
                    }),
                    None,
                ],
                st_pos: 1,
                ced: Some(CedState {
                    vid: 5,
                    next_eid: 10,
                    remaining: 1,
                }),
                skip: vec![3, 8],
                state_id: 2,
                trace: vec![0, 1, 2],
            },
            dt: vec![vec![-1, 7], vec![]],
            staging: vec![
                None,
                Some(StEntry {
                    vid: 1,
                    loc: 0,
                    deg: 4,
                }),
            ],
            in_registration: true,
            busy_until: 99,
            st_fetches: 4,
            dec_requests: 3,
            registrations: 2,
        };
        let eghw = EghwState {
            layout: EghwLayout {
                offsets_base: 64,
                edges_base: 128,
                weights_base: 256,
            },
            slots: vec![Some(7), None],
            cursor: 1,
            current: Some((7, 2, 5)),
            in_registration: false,
            busy_until: 11,
            line_buf: [Some(64), None, Some(192)],
            total_reads: 6,
        };
        let core = CoreState {
            warps: vec![warp],
            shared_data: vec![0xAB; 16],
            shared_traffic: (3, 4),
            weaver,
            eghw,
            eghw_dt: vec![vec![1, -2]],
            next_warp: 1,
            resident: 1,
            active_warps: 1,
            stats: CoreStats {
                instructions: 10,
                thread_instructions: 40,
                stalls: StallBreakdown {
                    memory: 1,
                    shared: 2,
                    exec_dep: 3,
                    l1_queue: 4,
                    barrier: 5,
                    weaver: 6,
                },
                phase_cycles: [1, 2, 3, 4, 5, 6],
                finish_cycle: 123,
            },
        };
        let cache = CacheState {
            lines: vec![
                LineState {
                    valid: true,
                    dirty: false,
                    tag: 0x40,
                    last_use: 7,
                },
                LineState {
                    valid: false,
                    dirty: false,
                    tag: 0,
                    last_use: 0,
                },
            ],
            tick: 9,
            stats: CacheStats {
                accesses: 5,
                hits: 3,
                misses: 2,
                writebacks: 1,
            },
        };
        let hierarchy = HierarchyState {
            l1: vec![cache.clone()],
            l2: cache.clone(),
            l3: None,
            l1_ports: vec![PortState { cycle: 3, used: 1 }],
            l2_port: PortState { cycle: 4, used: 2 },
            dram_port: PortState { cycle: 5, used: 0 },
            atomic_port: PortState { cycle: 0, used: 0 },
            dram_accesses: 17,
        };
        let gpu = GpuState {
            cores: vec![core],
            hierarchy,
            mem_data: (0u8..64).collect(),
            mem_traffic: (100, 50),
            occupancy: Occupancy {
                kernel_high_water: 8,
                cap: 6,
                resident: 4,
                configured: 8,
            },
        };
        let stats = KernelStats {
            cycles: 1000,
            instructions: 500,
            thread_instructions: 2000,
            stalls: StallBreakdown {
                memory: 10,
                shared: 20,
                exec_dep: 30,
                l1_queue: 40,
                barrier: 50,
                weaver: 60,
            },
            phase_cycles: [9, 8, 7, 6, 5, 4],
            mem: LevelStats {
                l1: CacheStats {
                    accesses: 1,
                    hits: 1,
                    misses: 0,
                    writebacks: 0,
                },
                l2: CacheStats {
                    accesses: 2,
                    hits: 0,
                    misses: 2,
                    writebacks: 1,
                },
                l3: Some(CacheStats {
                    accesses: 3,
                    hits: 2,
                    misses: 1,
                    writebacks: 0,
                }),
                dram_accesses: 4,
            },
            weaver_counters: (11, 12, 13),
            warp_cycles: 777,
            launches: 2,
        };
        let events = vec![
            TraceEvent {
                cycle: 0,
                core: 0,
                data: EventData::KernelLaunch { name: "k".into() },
            },
            TraceEvent {
                cycle: 1,
                core: 1,
                data: EventData::PhaseBegin {
                    warp: 0,
                    phase: Phase::GatherSum,
                },
            },
            TraceEvent {
                cycle: 2,
                core: 0,
                data: EventData::WarpIssue {
                    warp: 1,
                    pc: 2,
                    active: 3,
                },
            },
            TraceEvent {
                cycle: 3,
                core: 0,
                data: EventData::WarpStall {
                    cause: StallCause::Memory,
                    phase: Phase::Init,
                    cycles: 4,
                },
            },
            TraceEvent {
                cycle: 4,
                core: 1,
                data: EventData::Divergence {
                    warp: 0,
                    pc: 9,
                    taken: 2,
                    not_taken: 2,
                },
            },
            TraceEvent {
                cycle: 5,
                core: 0,
                data: EventData::CacheAccess {
                    level: MemLevel::L2,
                    write: true,
                    queue_delay: 1,
                },
            },
            TraceEvent {
                cycle: 6,
                core: 0,
                data: EventData::DramTransaction { write: false },
            },
            TraceEvent {
                cycle: 7,
                core: 0,
                data: EventData::WeaverTransition {
                    from: WeaverState::from_id(0),
                    to: WeaverState::from_id(1),
                },
            },
            TraceEvent {
                cycle: 8,
                core: 0,
                data: EventData::WeaverTable {
                    op: TableOp::StFetch,
                    count: 4,
                },
            },
            TraceEvent {
                cycle: 9,
                core: 0,
                data: EventData::WeaverRetry {
                    kernel: "k".into(),
                    attempt: 1,
                },
            },
            TraceEvent {
                cycle: 10,
                core: 0,
                data: EventData::WeaverFallback {
                    kernel: "k".into(),
                    schedule: "S_wm".into(),
                },
            },
            TraceEvent {
                cycle: 11,
                core: 0,
                data: EventData::KernelEnd {
                    name: "k".into(),
                    cycles: 11,
                },
            },
        ];
        let committed = CounterSnapshot {
            instructions: 500,
            warps_resident: 4,
            ..CounterSnapshot::default()
        };
        let tracer = TracerState {
            base: 1000,
            committed,
            samples: vec![MetricSample {
                cycle: 100,
                counters: CounterSnapshot::default(),
            }],
            kernels: vec![KernelSpan {
                name: "k".into(),
                start: 0,
                cycles: 11,
            }],
            sink: SinkState::Ring { events, dropped: 3 },
        };
        let mut hist = LatencyHistogram::default();
        hist.record(12);
        hist.record(90);
        let mut profile = ProfileReport::default();
        profile.mem[0] = hist.clone();
        profile.weaver = hist.clone();
        profile.gather_iteration = hist;
        profile.core_issues = vec![10, 20];
        profile.warp_issues = vec![vec![5, 5], vec![12, 8]];
        Checkpoint {
            config_fp: 0xDEAD_BEEF_CAFE_F00D,
            graph_fp: 0x0123_4567_89AB_CDEF,
            argv: vec![
                "--algo".into(),
                "bfs".into(),
                "--schedule".into(),
                "sw".into(),
            ],
            schedule: Schedule::SparseWeaver,
            fell_back_from: Some((Schedule::SparseWeaver, "scatter".into())),
            launches: 7,
            next_alloc: 4096,
            weaver_retries: 1,
            total: stats.clone(),
            per_kernel: vec![("k".into(), stats.clone())],
            host_log: vec![
                HostEvent::Read(42),
                HostEvent::LaunchDone(stats),
                HostEvent::Read(u64::MAX),
            ],
            gpu,
            tracer: Some(tracer),
            profile: Some(profile),
            fault: Some(FaultInjectorState {
                rng: 0x9E37_79B9_7F4A_7C15,
                counts: FaultCounts {
                    reg_flips: 1,
                    mem_flips: 2,
                    fetch_flips: 3,
                    weaver_drops: 4,
                    weaver_delays: 5,
                },
                weaver_faulty: true,
            }),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let ck = sample();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).expect("decode");
        assert_eq!(back, ck);
    }

    /// [`sample`] with every `Option` absent, a file sink and an L3.
    fn sample_file_sink() -> Checkpoint {
        let mut ck = sample();
        ck.fell_back_from = None;
        ck.profile = None;
        ck.fault = None;
        ck.tracer = Some(TracerState {
            base: 0,
            committed: CounterSnapshot::default(),
            samples: vec![],
            kernels: vec![],
            sink: SinkState::File {
                written: 12,
                bytes: 340,
            },
        });
        ck.gpu.hierarchy.l3 = Some(CacheState {
            lines: vec![],
            tick: 0,
            stats: CacheStats::default(),
        });
        ck
    }

    #[test]
    fn round_trip_with_absent_options_and_file_sink() {
        let ck = sample_file_sink();
        let back = Checkpoint::decode(&ck.encode()).expect("decode");
        assert_eq!(back, ck);
    }

    /// Pins the `swckpt-v1` bytes themselves: a round trip alone still
    /// passes if encoder and decoder change the format in step.
    #[test]
    fn encoded_bytes_are_pinned() {
        let fnv = |bytes: &[u8]| {
            let mut h = crate::profile::Fnv64::default();
            h.write(bytes);
            h.finish()
        };
        let full = sample().encode();
        let file_sink = sample_file_sink().encode();
        assert_eq!(
            (full.len(), fnv(&full)),
            (4797, 0x4ba0_9b83_e6bc_20ef),
            "sample() encoding changed"
        );
        assert_eq!(
            (file_sink.len(), fnv(&file_sink)),
            (2326, 0xb0bf_674c_aa87_486e),
            "sample_file_sink() encoding changed"
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::BadMagic)
        ));
        assert!(matches!(
            Checkpoint::decode(b"sw"),
            Err(CheckpointError::BadMagic)
        ));
        assert!(matches!(
            Checkpoint::decode(b""),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = sample().encode();
        let at = CHECKPOINT_MAGIC.len();
        bytes[at..at + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        let bytes = sample().encode();
        // Every strict prefix must fail loudly — never panic, never
        // succeed. Step through all lengths; this also covers mid-field
        // cuts.
        for len in 0..bytes.len() {
            match Checkpoint::decode(&bytes[..len]) {
                Err(
                    CheckpointError::BadMagic
                    | CheckpointError::Truncated { .. }
                    | CheckpointError::Corrupt { .. },
                ) => {}
                other => panic!("prefix of {len} bytes: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_implausible_sequence_length() {
        let ck = sample();
        let mut bytes = ck.encode();
        // The argv length is the first u64 after magic+version+fps.
        let at = CHECKPOINT_MAGIC.len() + 4 + 8 + 8;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn rejects_unknown_tag_naming_its_offset() {
        let ck = sample();
        let mut bytes = ck.encode();
        // The schedule id follows the fingerprints and the argv strings.
        let at = 4 + 8 + 8 + 8 + ck.argv.iter().map(|a| 8 + a.len()).sum::<usize>();
        bytes[CHECKPOINT_MAGIC.len() + at] = 0xEE;
        match Checkpoint::decode(&bytes) {
            Err(CheckpointError::Corrupt { what }) => {
                assert_eq!(what, format!("unknown schedule id 238 at offset {at}"))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn encoded_len<T: Wire>(v: &T) -> usize {
        let mut e = Enc::default();
        v.put(&mut e);
        e.buf.len()
    }

    /// The hand-written enum floors are exact minima over their variants,
    /// and the derived floors are no looser than the per-site constants
    /// the decoder used before they were derived.
    #[test]
    fn min_len_is_a_tight_floor() {
        let ck = sample();
        let Some(TracerState {
            sink: SinkState::Ring { events, .. },
            ..
        }) = &ck.tracer
        else {
            panic!("sample() has a ring sink");
        };
        let data_min = events.iter().map(|ev| encoded_len(&ev.data)).min();
        assert_eq!(data_min, Some(EventData::MIN_LEN));
        let host_min = ck.host_log.iter().map(encoded_len).min();
        assert_eq!(host_min, Some(HostEvent::MIN_LEN));
        let file_sink = sample_file_sink().tracer.unwrap().sink;
        assert_eq!(encoded_len(&file_sink), SinkState::MIN_LEN);
        for c in [&ck, &sample_file_sink()] {
            assert!(encoded_len(c) >= Checkpoint::MIN_LEN);
        }
        const { assert!(TraceEvent::MIN_LEN >= 13) };
        assert_eq!(SimtEntry::MIN_LEN, 25);
        assert_eq!(LineState::MIN_LEN, 18);
        assert_eq!(PortState::MIN_LEN, 16);
        assert_eq!(<Vec<u64>>::MIN_LEN, 8);
        assert_eq!(<Option<StEntry>>::MIN_LEN, 1);
    }

    #[test]
    fn verify_refuses_mismatched_fingerprints() {
        let ck = sample();
        assert!(ck.verify(ck.config_fp, ck.graph_fp).is_ok());
        assert!(matches!(
            ck.verify(ck.config_fp ^ 1, ck.graph_fp),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        assert!(matches!(
            ck.verify(ck.config_fp, ck.graph_fp ^ 1),
            Err(CheckpointError::GraphMismatch { .. })
        ));
    }

    #[test]
    fn save_load_round_trip_and_no_temp_left_behind() {
        let dir = std::env::temp_dir().join(format!("swckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.swckpt");
        let ck = sample();
        ck.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(back, ck);
        // Overwrite goes through the same atomic path.
        ck.save(&path).expect("second save");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let missing = Path::new("/nonexistent/definitely/not/here.swckpt");
        assert!(matches!(
            Checkpoint::load(missing),
            Err(CheckpointError::Io { .. })
        ));
    }
}
