//! The two workloads and the pass each of them times.
//!
//! A pass is one complete request: build the R-MAT graph and its
//! direction view from the seed (set-up), simulate the algorithm, compile
//! its kernels once more to time the compiler, check the output against
//! a host reference, and — for the study workload only — exercise the
//! observer, trace, replay and checkpoint paths on the same run. Every
//! `Session::run` builds a fresh GPU, so each pass starts with empty
//! modelled caches.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};

use sparseweaver::core::algorithms::{Algorithm, Bfs, PageRank};
use sparseweaver::core::compiler::Compiler;
use sparseweaver::core::replay::{sweep, trace_fingerprint, SweepSpec};
use sparseweaver::core::runtime::CheckpointCtl;
use sparseweaver::core::{
    profile, AlgoOutput, Checkpoint, FrameworkError, RunReport, Schedule, Session,
};
use sparseweaver::graph::{generators, Csr, Direction};
use sparseweaver::lint::LintLevel;
use sparseweaver::mem::{mtrace, replay, MemRecorderHandle};
use sparseweaver::sim::{GpuConfig, Phase};
use sparseweaver::trace::{json, ProfileHandle};
use sparseweaver::weaver::WeaverUnit;

use crate::checks;
use crate::spans::Spans;

/// PageRank supersteps of the study workload.
const PR_ITERATIONS: u32 = 3;
/// BFS root.
const BFS_SOURCE: u32 = 0;
/// The L1 geometries the study pass sweeps its own trace over, one
/// replay each on top of the capture-config self-check.
const SWEEP_L1_SIZES: [u64; 2] = [4 * 1024, 16 * 1024];
const SWEEP_WAYS: u32 = 4;

#[derive(Debug, Clone, Copy)]
enum Algo {
    Bfs,
    PageRank(Direction),
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// R-MAT scale (2^scale vertices) and sampled edge count before
    /// symmetrisation.
    scale: u32,
    sampled_edges: usize,
    algo: Algo,
    schedule: Schedule,
    /// Whether the pass also runs the observer/trace/replay/checkpoint
    /// steps.
    pub study: bool,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "bfs-sw-rmat16",
        scale: 16,
        sampled_edges: 600_000,
        algo: Algo::Bfs,
        schedule: Schedule::SparseWeaver,
        study: false,
    },
    Workload {
        name: "study-prpush-sw-rmat15",
        scale: 15,
        sampled_edges: 300_000,
        algo: Algo::PageRank(Direction::Push),
        schedule: Schedule::SparseWeaver,
        study: true,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn algorithm(&self) -> Box<dyn Algorithm> {
        match self.algo {
            Algo::Bfs => Box::new(Bfs::new(BFS_SOURCE)),
            Algo::PageRank(d) => Box::new(PageRank::new(PR_ITERATIONS).with_direction(d)),
        }
    }

    fn graph(&self, seed: u64) -> Csr {
        generators::rmat(self.scale, self.sampled_edges, 0.57, 0.19, 0.19, seed)
    }
}

/// Exact counts a pass observed, in a fixed order. Every pass of a run
/// (same seed, same graph) must report the same list.
pub type Counts = Vec<(&'static str, u64)>;

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    pub run_s: f64,
    pub request_s: f64,
    /// Peak resident set of the process so far, read after the pass, in
    /// MiB.
    pub peak_rss_mb: f64,
    pub counts: Counts,
    pub failures: Vec<String>,
}

/// The value of count `name` in `counts`.
pub fn count(counts: &Counts, name: &str) -> Option<u64> {
    counts.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// The counts in `got` whose value differs from the same count in
/// `want`, one message each.
pub fn mismatches(want: &Counts, got: &Counts) -> Vec<String> {
    got.iter()
        .filter(|&&(name, v)| count(want, name) != Some(v))
        .map(|&(name, v)| format!("{name} is {v}, the passes have {:?}", count(want, name)))
        .collect()
}

/// Where a pass may write files (the checkpoint of the study steps and
/// the swmtrace of the reference run).
pub struct Ctx<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    pub scratch: &'a Path,
}

impl Ctx<'_> {
    /// This process's file with extension `ext` in the scratch
    /// directory; removed when the run ends.
    pub fn scratch_file(&self, ext: &str) -> PathBuf {
        self.scratch.join(format!(
            "{}-{}.{ext}",
            self.workload.name,
            std::process::id()
        ))
    }
}

fn session() -> Session {
    Session::new(GpuConfig::evaluation_default())
}

/// Runs one pass, timing every layer call through `spans`.
pub fn run_pass(ctx: &Ctx<'_>, spans: &mut Spans) -> Pass {
    let mut pass = Pass::default();
    let w = ctx.workload;
    let algo = w.algorithm();
    let ((), request_s) = spans.time("pass", |s| {
        let ((graph, view), setup_s) = s.time("setup", |s| {
            let (graph, _) = s.time("graph.build", |_| w.graph(ctx.seed));
            let (view, _) = s.time("graph.view", |_| graph.view(algo.direction()));
            (graph, view)
        });
        pass.setup_s = setup_s;
        pass.counts.push(("graph.edges", graph.num_edges() as u64));
        let (main, run_s) = s.time("sim.run", |_| {
            if w.study {
                observed_run(&graph, &*algo, w.schedule).map(|(r, c)| (r, Some(c)))
            } else {
                session().run(&graph, &*algo, w.schedule).map(|r| (r, None))
            }
        });
        pass.run_s = run_s;
        let (report, capture) = match main {
            Ok(m) => m,
            Err(e) => {
                pass.failures.push(format!("simulation failed: {e}"));
                return;
            }
        };
        pass.counts.extend(report_counts(&report));
        if let Err(e) = compile(s, w, &*algo, &mut pass.counts) {
            pass.failures.push(e);
        }
        let (mismatch, _) = s.time("check.output", |_| {
            check_output(w, &graph, &view, &report.output)
        });
        pass.failures.extend(mismatch);
        if let Some(capture) = capture {
            if let Err(e) = study_steps(s, ctx, &graph, &*algo, &report, &capture, &mut pass) {
                pass.failures.push(e);
            }
        }
    });
    pass.request_s = request_s;
    pass
}

/// Re-emits and re-processes the workload's kernels the way a run does
/// before launching them, so the compiler layer has a time of its own.
fn compile(
    s: &mut Spans,
    w: &Workload,
    algo: &dyn Algorithm,
    counts: &mut Counts,
) -> Result<(), String> {
    let cfg = session().config_for(w.schedule);
    let (kernels, _) = s.time("compiler.emit", |_| algo.kernels(w.schedule, &cfg));
    let (processed, _) = s.time("compiler.process", |_| {
        let mut compiler = Compiler::new(LintLevel::Deny);
        kernels
            .iter()
            .map(|k| compiler.process(k).map(|p| p.len() as u64))
            .sum::<Result<u64, _>>()
    });
    counts.push(("compiler.kernels", kernels.len() as u64));
    counts.push((
        "compiler.instrs",
        processed.map_err(|e| format!("kernel compilation failed: {e}"))?,
    ));
    Ok(())
}

fn check_output(w: &Workload, graph: &Csr, view: &Csr, out: &AlgoOutput) -> Option<String> {
    match (w.algo, out) {
        (Algo::Bfs, AlgoOutput::U64(levels)) => {
            checks::levels_match(levels, &checks::bfs_levels(graph, BFS_SOURCE))
        }
        (Algo::PageRank(dir), AlgoOutput::F64(ranks)) => {
            let damping = PageRank::new(PR_ITERATIONS).damping;
            let want = checks::pagerank(graph, view, dir, PR_ITERATIONS, damping);
            checks::ranks_match(ranks, &want)
        }
        _ => Some("output has the wrong value type".to_string()),
    }
    .map(|m| format!("{} output differs from the host reference: {m}", w.name))
}

/// The exact counts of a simulated run: its `KernelStats` and an FNV-1a
/// fingerprint of its output.
fn report_counts(report: &RunReport) -> Counts {
    let s = &report.stats;
    let phase = |p: Phase| s.phase_cycles[p as usize];
    let (st_fetches, dec_requests, registrations) = s.weaver_counters;
    let output: Vec<u8> = match &report.output {
        AlgoOutput::U64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        AlgoOutput::F64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
    };
    vec![
        ("sim.cycles", s.cycles),
        ("sim.warp_instrs", s.instructions),
        ("sim.thread_instrs", s.thread_instructions),
        ("sim.launches", s.launches),
        ("sim.stall_memory", s.stalls.memory),
        ("sim.stall_shared", s.stalls.shared),
        ("sim.stall_exec_dep", s.stalls.exec_dep),
        ("sim.stall_l1_queue", s.stalls.l1_queue),
        ("sim.stall_barrier", s.stalls.barrier),
        ("sim.stall_weaver", s.stalls.weaver),
        ("sim.phase_registration", phase(Phase::Registration)),
        ("sim.phase_edge_schedule", phase(Phase::EdgeSchedule)),
        ("sim.phase_edge_info", phase(Phase::EdgeInfoAccess)),
        ("sim.phase_gather_sum", phase(Phase::GatherSum)),
        ("mem.accesses", s.mem.l1.accesses),
        ("mem.l1_hits", s.mem.l1.hits),
        ("mem.l2_accesses", s.mem.l2.accesses),
        ("mem.l2_hits", s.mem.l2.hits),
        ("mem.dram_accesses", s.mem.dram_accesses),
        ("weaver.registrations", registrations),
        ("weaver.dec_requests", dec_requests),
        ("weaver.st_fetches", st_fetches),
        ("sim.output_fnv", trace_fingerprint(&output)),
    ]
}

/// The swmtrace of an observed run and the configuration it ran under.
struct Capture {
    cfg: GpuConfig,
    trace: Vec<u8>,
}

/// Simulates like [`Session::run`] with observers on. The session only
/// captures a swmtrace into a file, whose finalize syncs it to disk; the
/// runtime is driven directly instead, so the capture stays in memory and
/// no disk flush lands in the timed run. Every study run checks this copy
/// against the program's own observed `Session::run`
/// ([`session_reference`]); every traced run also checks it against an
/// observers-off `Session::run` ([`counterpart`]).
fn observed_run(
    graph: &Csr,
    algo: &dyn Algorithm,
    schedule: Schedule,
) -> Result<(RunReport, Capture), FrameworkError> {
    let session = session();
    let cfg = session.config_for(schedule);
    let mut rt = session.runtime(graph, algo.direction(), schedule)?;
    let profiler = ProfileHandle::new();
    rt.set_profiler(Some(profiler.clone()));
    let recorder = MemRecorderHandle::in_memory(&cfg.hierarchy);
    rt.set_mem_recorder(Some(recorder.clone()));
    let output = algo.run(&mut rt)?;
    let occupancy = rt.gpu().occupancy();
    let summary = recorder.finalize(&rt.gpu().mem_stats());
    let weaver_retries = rt.weaver_retries();
    let (stats, per_kernel) = rt.into_stats();
    let report = RunReport {
        schedule,
        algorithm: algo.name().to_string(),
        cycles: stats.cycles,
        stats,
        per_kernel,
        output,
        trace: None,
        profile: Some(profiler.report()),
        sink_error: None,
        lint: session.lint,
        occupancy,
        weaver_retries,
        fell_back_from: None,
        faults: None,
        mem_trace: Some(summary),
    };
    let trace = recorder
        .take_bytes()
        .expect("an in-memory recorder holds its bytes");
    Ok((report, Capture { cfg, trace }))
}

/// Steps 2–5 of the study workload on an observed run: render and parse
/// `profile.json`, parse the swmtrace, verify its replay, sweep L1
/// geometries, stop a checkpointed run half way, round-trip and resume
/// it. Failed checks go to `pass.failures`; an error that makes the
/// remaining steps impossible is returned.
fn study_steps(
    s: &mut Spans,
    ctx: &Ctx<'_>,
    graph: &Csr,
    algo: &dyn Algorithm,
    report: &RunReport,
    obs: &Capture,
    pass: &mut Pass,
) -> Result<(), String> {
    let w = ctx.workload;

    let (text, _) = s.time("obs.profile_render", |_| {
        profile::render(report, &obs.cfg, graph)
    });
    let (doc, _) = s.time("obs.profile_parse", |_| json::parse(&text));
    let doc = doc.map_err(|e| format!("profile.json does not parse: {e}"))?;
    let cycles = doc
        .get("totals")
        .and_then(|t| t.get("cycles"))
        .and_then(|c| c.as_num());
    if cycles != Some(report.cycles as f64) {
        pass.failures.push(format!(
            "profile.json carries cycles {cycles:?}, the run took {}",
            report.cycles
        ));
    }
    pass.counts.push(("obs.profile_bytes", text.len() as u64));
    pass.counts
        .push(("obs.profile_fnv", trace_fingerprint(text.as_bytes())));

    pass.counts
        .push(("mem.mtrace_bytes", obs.trace.len() as u64));
    let (fingerprint, _) = s.time("mem.mtrace_fnv", |_| trace_fingerprint(&obs.trace));
    pass.counts.push(("mem.mtrace_fnv", fingerprint));
    let (trace, _) = s.time("mem.mtrace_parse", |_| mtrace::parse(&obs.trace));
    let trace = trace.map_err(|e| format!("swmtrace does not parse: {e}"))?;
    let (kernels, accesses, unqueued, atomics, _) = trace.counts();
    pass.counts.push(("mem.mtrace_kernels", kernels));
    pass.counts
        .push(("mem.mtrace_accesses", accesses + unqueued + atomics));
    let (verify, _) = s.time("mem.replay", |_| replay::verify(&trace));
    match verify {
        Ok(v) if v.matches() => {}
        Ok(_) => pass
            .failures
            .push("replay of the swmtrace differs from its footer".to_string()),
        Err(e) => pass.failures.push(format!("swmtrace replay failed: {e}")),
    }
    let spec = SweepSpec {
        l1_sizes: SWEEP_L1_SIZES.to_vec(),
        ways: vec![SWEEP_WAYS],
        jobs: 1,
    };
    let (swept, _) = s.time("mem.sweep", |_| sweep(&trace, fingerprint, &spec));
    let swept = swept.map_err(|e| format!("L1 sweep failed: {e}"))?;
    if !swept.verified() {
        pass.failures
            .push("sweep self-check differs from the footer".to_string());
    }
    pass.counts.push((
        "mem.sweep_l1_hits",
        swept.entries.iter().map(|e| e.stats.l1.hits).sum(),
    ));
    drop(trace);

    let path = ctx.scratch_file("swckpt");
    let stop_at = (report.stats.launches / 2).max(1);
    let mut session = session();
    session.checkpoint = Some(CheckpointCtl {
        out: Some(path.clone()),
        stop_after_launches: Some(stop_at),
        ..CheckpointCtl::default()
    });
    let (stopped, _) = s.time("ckpt.stop_run", |_| session.run(graph, algo, w.schedule));
    match stopped {
        Err(FrameworkError::Interrupted { .. }) => {}
        Ok(_) => return Err(format!("run did not stop after {stop_at} launches")),
        Err(e) => return Err(format!("checkpointed run failed: {e}")),
    }
    let (bytes, _) = s.time("ckpt.read", |_| fs::read(&path));
    let bytes = bytes.map_err(|e| format!("reading {}: {e}", path.display()))?;
    pass.counts.push(("ckpt.bytes", bytes.len() as u64));
    let (ck, _) = s.time("ckpt.decode", |_| Checkpoint::decode(&bytes));
    let ck = ck.map_err(|e| format!("checkpoint does not decode: {e}"))?;
    let (encoded, _) = s.time("ckpt.encode", |_| ck.encode());
    if encoded != bytes {
        pass.failures
            .push("encode(decode(checkpoint)) differs from the checkpoint".to_string());
    }
    session.checkpoint = None;
    let (resumed, _) = s.time("ckpt.resume", |_| session.resume(graph, algo, &ck));
    let resumed = resumed.map_err(|e| format!("resume failed: {e}"))?;
    if resumed.cycles != report.cycles || resumed.output != report.output {
        pass.failures.push(format!(
            "resumed run ({} cycles) differs from the uninterrupted run ({} cycles)",
            resumed.cycles, report.cycles
        ));
    }
    Ok(())
}

/// The other half of a traced pass's observer pair, run right after the
/// pass under its pass id: an observers-off `Session::run` on the study
/// workload, an observed run on the others. `obs.overhead_s` is the
/// median of the pairs' differences. Returns the run's exact counts,
/// which must equal the pass's.
pub fn counterpart(ctx: &Ctx<'_>, spans: &mut Spans) -> Result<Counts, String> {
    let w = ctx.workload;
    let algo = w.algorithm();
    let graph = w.graph(ctx.seed);
    let report = if w.study {
        spans
            .time("obs.plain_run", |_| {
                session().run(&graph, &*algo, w.schedule)
            })
            .0
    } else {
        spans
            .time("obs.observed_run", |_| {
                observed_run(&graph, &*algo, w.schedule)
            })
            .0
            .map(|(r, _)| r)
    };
    report
        .map(|r| report_counts(&r))
        .map_err(|e| format!("{}: {e}", w.name))
}

/// The program's own observed `Session::run` — profiler on, swmtrace
/// captured to a file — untimed. The study passes simulate through
/// [`observed_run`], a copy of that path; this run's exact counts,
/// trace bytes and rendered profile must equal theirs.
pub fn session_reference(ctx: &Ctx<'_>) -> Result<Counts, String> {
    let w = ctx.workload;
    let algo = w.algorithm();
    let graph = w.graph(ctx.seed);
    let path = ctx.scratch_file("swmtrace");
    let mut session = session();
    session.profile = true;
    session.mem_trace_out = Some(path.clone());
    let report = session.run(&graph, &*algo, w.schedule);
    let trace = fs::read(&path);
    let _ = fs::remove_file(&path);
    let report = report.map_err(|e| format!("reference Session::run failed: {e}"))?;
    let trace = trace.map_err(|e| format!("reading {}: {e}", path.display()))?;
    let text = profile::render(&report, &session.config_for(w.schedule), &graph);
    let mut counts = report_counts(&report);
    counts.extend([
        ("mem.mtrace_bytes", trace.len() as u64),
        ("mem.mtrace_fnv", trace_fingerprint(&trace)),
        ("obs.profile_fnv", trace_fingerprint(text.as_bytes())),
    ]);
    Ok(counts)
}

/// What the once-per-traced-run probe measured beyond the passes.
#[derive(Debug, Default)]
pub struct Probe {
    /// Exact counts of the probe's observed run; must equal the passes'.
    pub run_counts: Counts,
    /// Counts of the study steps the probe ran.
    pub counts: Counts,
    pub failures: Vec<String>,
    /// Seconds per full Weaver-unit sweep over the graph, one per repeat.
    pub weaver_sweep_s: Vec<f64>,
    /// Decode requests one sweep makes.
    pub weaver_decs: u64,
}

/// Layers a workload's passes do not reach, measured once per traced
/// run: on workloads without study steps, an observed run followed by
/// the study steps; on every workload, the Weaver unit alone, driven
/// with the graph's degrees, `repeats` times.
pub fn run_probe(ctx: &Ctx<'_>, spans: &mut Spans, repeats: usize) -> Probe {
    let w = ctx.workload;
    let algo = w.algorithm();
    let graph = w.graph(ctx.seed);
    let mut probe = Probe::default();
    if !w.study {
        let (obs, _) = spans.time("obs.observed_run", |_| {
            observed_run(&graph, &*algo, w.schedule)
        });
        match obs {
            Ok((report, capture)) => {
                probe.run_counts = report_counts(&report);
                let mut pass = Pass::default();
                let r = study_steps(spans, ctx, &graph, &*algo, &report, &capture, &mut pass);
                probe.counts = pass.counts;
                probe.failures = pass.failures;
                probe.failures.extend(r.err());
            }
            Err(e) => probe.failures.push(e.to_string()),
        }
    }
    let cfg = GpuConfig::evaluation_default();
    for _ in 0..repeats {
        let (decs, secs) = spans.time("weaver.fsm", |_| weaver_sweep(&graph, &cfg));
        match decs {
            Ok(d) => probe.weaver_decs = d,
            Err(e) => probe.failures.push(e),
        }
        probe.weaver_sweep_s.push(secs);
    }
    probe
}

/// Drives one core's Weaver unit over every vertex of `graph`: each
/// round registers as many vertices as the ST holds (one warp's lanes at
/// a time), then decodes until the FSM is exhausted. Returns the number
/// of decode requests, after checking every edge was handed out once.
fn weaver_sweep(graph: &Csr, cfg: &GpuConfig) -> Result<u64, String> {
    let lanes = cfg.threads_per_warp;
    let warps = (cfg.weaver.st_capacity / lanes).max(1);
    let mut unit = WeaverUnit::new(cfg.weaver, cfg.warps_per_core, lanes);
    let offsets = graph.offsets();
    let vertices: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let (mut now, mut decs) = (0u64, 0u64);
    let mut records = Vec::with_capacity(lanes);
    for round in vertices.chunks(warps * lanes) {
        let mut expected = 0u64;
        for (warp, group) in round.chunks(lanes).enumerate() {
            records.clear();
            for (lane, &v) in group.iter().enumerate() {
                let deg = graph.degree(v) as u32;
                expected += deg as u64;
                records.push((lane, v, offsets[v as usize], deg));
            }
            now = unit.reg(warp, &records, now).map_err(|e| e.to_string())?;
        }
        let mut handed_out = 0u64;
        for warp in (0..warps).cycle() {
            let resp = unit.dec_id(warp, now);
            decs += 1;
            if resp.batch.exhausted {
                break;
            }
            handed_out += resp.batch.filled() as u64;
            now = resp.ready_at;
        }
        if handed_out != expected {
            return Err(format!(
                "Weaver unit handed out {handed_out} edges for a round of {expected}"
            ));
        }
    }
    Ok(black_box(decs))
}
