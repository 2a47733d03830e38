//! SparseWeaver end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload's pass for `--seconds` seconds (at least
//! [`MIN_PASSES`] times) in this one single-threaded process and prints,
//! as the last line of standard output, one JSON object with the checked
//! pass counts and the metrics: the end-to-end metrics with `--trace 0`
//! (each time that of the run's fastest pass), the per-layer metrics
//! with `--trace 1`. Earlier lines starting with
//! `#` describe the host, every pass and the exact counts. See
//! `perfbench/README.md`.

mod checks;
mod host;
mod metrics;
mod spans;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use metrics::median;
use spans::Spans;
use workload::{count, run_pass, run_probe, Counts, Ctx, Pass, Workload, WORKLOADS};

/// Fewest passes a run measures, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Weaver-unit sweeps the traced run's probe times.
const WEAVER_REPEATS: usize = 25;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::find(&name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .expect("the benchmark lives inside the repository");
    let scratch = bench_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: creating {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let w = args.workload;
    println!(
        "# host {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{},\"loadavg\":\"{}\",\
         \"commit\":\"{}\"}}",
        w.name,
        args.seed,
        args.trace as u8,
        host::nproc(),
        host::loadavg(),
        host::commit(root)
    );
    let ctx = Ctx {
        workload: w,
        seed: args.seed,
        scratch: &scratch,
    };
    let result = if args.trace {
        traced_run(&ctx, args.seconds)
    } else {
        untraced_run(&ctx, args.seconds)
    };
    let _ = std::fs::remove_file(ctx.scratch_file("swckpt"));
    println!("# loadavg-after \"{}\"", host::loadavg());
    println!("{result}");
    ExitCode::SUCCESS
}

/// Repeats passes until `seconds` have passed and at least `min` ran.
/// When `cpus` is not empty, pass `i` (numbered from 1) runs pinned to
/// `cpus[(i - 1) % cpus.len()]`, so the passes take turns on the CPUs.
/// `traced(i)` says whether pass `i` records spans; `after` runs right
/// after each pass, outside its timed region, and may add failed checks
/// to it.
fn repeat(
    ctx: &Ctx<'_>,
    spans: &mut Spans,
    seconds: f64,
    min: usize,
    cpus: &[usize],
    traced: impl Fn(u32) -> bool,
    mut after: impl FnMut(&mut Spans, u32, &mut Pass),
) -> Vec<(u32, bool, Pass)> {
    let start = Instant::now();
    let mut passes = Vec::new();
    for id in 1.. {
        if passes.len() >= min && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let cpu = (!cpus.is_empty()).then(|| cpus[(id as usize - 1) % cpus.len()]);
        if let Some(c) = cpu {
            host::pin(&[c]);
        }
        let on = traced(id);
        spans.record(on);
        spans.set_pass(id);
        let mut pass = run_pass(ctx, spans);
        pass.peak_rss_mb = host::peak_rss_mb();
        after(spans, id, &mut pass);
        println!(
            "# pass {id} traced={} cpu={} setup_s={:.6} run_s={:.6} request_s={:.6} peak_rss_mb={:.2} failures={:?}",
            on as u8,
            cpu.map_or("any".to_string(), |c| c.to_string()),
            pass.setup_s,
            pass.run_s,
            pass.request_s,
            pass.peak_rss_mb,
            pass.failures
        );
        passes.push((id, on, pass));
    }
    if !cpus.is_empty() {
        host::pin(cpus);
    }
    spans.record(false);
    passes
}

/// Counts every pass that failed a check, including one whose exact
/// counts differ from the first pass's (same seed, so they must repeat).
fn failed_passes<'a>(passes: impl Iterator<Item = &'a Pass>) -> (usize, usize, Option<&'a Counts>) {
    let (mut attempted, mut failed) = (0, 0);
    let mut reference: Option<&Counts> = None;
    for p in passes {
        attempted += 1;
        let drift = match reference {
            Some(r) => *r != p.counts,
            None => {
                reference = Some(&p.counts);
                false
            }
        };
        if drift {
            println!("# count drift: {:?}", p.counts);
        }
        if drift || !p.failures.is_empty() {
            failed += 1;
        }
    }
    (attempted, failed, reference)
}

fn print_counts(counts: Option<&Counts>) {
    if let Some(c) = counts {
        let body: Vec<String> = c.iter().map(|(n, v)| format!("\"{n}\":{v}")).collect();
        println!("# counts {{{}}}", body.join(","));
    }
}

/// On the study workload, whose passes simulate through a copy of
/// `Session::run`, runs the program's own `Session::run` once, untimed,
/// after the passes. Counted as one more attempt, failed when its exact
/// counts differ from the passes'. Returns `(attempted, failed)`.
fn check_session_reference(ctx: &Ctx<'_>, counts: Option<&Counts>) -> (usize, usize) {
    if !ctx.workload.study {
        return (0, 0);
    }
    let failures = match (workload::session_reference(ctx), counts) {
        (Ok(got), Some(want)) => workload::mismatches(want, &got),
        (Ok(_), None) => vec!["no pass to compare with".to_string()],
        (Err(e), _) => vec![e],
    };
    println!("# session reference failures={failures:?}");
    (1, usize::from(!failures.is_empty()))
}

fn untraced_run(ctx: &Ctx<'_>, seconds: f64) -> String {
    let mut spans = Spans::new();
    // The host's CPUs slow down in phases that other tenants cause, at
    // times one CPU at a time, and a process left alone stays on one CPU.
    // Taking turns lets the fastest pass come from whichever CPU was
    // slowed least.
    let cpus = host::allowed_cpus();
    let cpus = if cpus.len() > 1 { cpus } else { Vec::new() };
    let passes = repeat(
        ctx,
        &mut spans,
        seconds,
        MIN_PASSES,
        &cpus,
        |_| false,
        |_, _, _| {},
    );
    let (mut attempted, mut failed, counts) = failed_passes(passes.iter().map(|(_, _, p)| p));
    print_counts(counts);
    let (ref_attempted, ref_failed) = check_session_reference(ctx, counts);
    attempted += ref_attempted;
    failed += ref_failed;
    let ok: Vec<&Pass> = passes
        .iter()
        .map(|(_, _, p)| p)
        .filter(|p| p.failures.is_empty())
        .collect();
    // Other load on the host only ever adds time to a pass, in phases of
    // seconds to minutes, so each time is the run's fastest pass: the one
    // that load slowed least. The medians are printed for diagnosis.
    let times = |f: fn(&Pass) -> f64| ok.iter().map(|p| f(p)).collect::<Vec<_>>();
    let fastest = |f| metrics::minimum(&times(f));
    println!(
        "# medians setup_s={:.6} run_s={:.6} request_s={:.6}",
        median(&times(|p| p.setup_s)),
        median(&times(|p| p.run_s)),
        median(&times(|p| p.request_s))
    );
    let run_s = fastest(|p| p.run_s);
    let instrs = counts
        .and_then(|c| count(c, "sim.warp_instrs"))
        .unwrap_or(0);
    let mut m = Metrics::default();
    m.put("setup_s", fastest(|p| p.setup_s), "s");
    m.put("run_s", run_s, "s");
    m.put("request_s", fastest(|p| p.request_s), "s");
    m.put(
        "sim_kinstr_per_s",
        metrics::rate(instrs, run_s, 1000.0),
        "kinstr/s",
    );
    // The first pass runs in a fresh process, as a single request does.
    // Later passes reuse a heap whose retained size depends on how
    // earlier passes fragmented it, so their peaks are not a property of
    // the request.
    let first_rss = passes.first().map_or(f64::NAN, |(_, _, p)| p.peak_rss_mb);
    m.put("peak_rss_mb", first_rss, "MB");
    m.result(attempted, failed)
}

fn traced_run(ctx: &Ctx<'_>, seconds: f64) -> String {
    let w = ctx.workload;
    let mut spans = Spans::new();
    let mut probe = None;
    // Untraced and traced passes alternate, so host drift hits both. Each
    // traced pass is followed by its observer counterpart, and the probe
    // runs once after the first (warm-up) pass.
    let passes = repeat(
        ctx,
        &mut spans,
        seconds,
        2 * MIN_PASSES,
        &[],
        |id| id % 2 == 0,
        |spans, id, pass| {
            if id % 2 == 0 {
                match workload::counterpart(ctx, spans) {
                    Ok(got) => pass
                        .failures
                        .extend(workload::mismatches(&pass.counts, &got)),
                    Err(e) => pass.failures.push(e),
                }
            }
            if id == 1 {
                spans.record(true);
                spans.set_pass(0);
                probe = Some(run_probe(ctx, spans, WEAVER_REPEATS));
                spans.record(false);
            }
        },
    );
    let probe = probe.expect("a run has at least one pass");
    let (mut attempted, mut failed, counts) = failed_passes(passes.iter().map(|(_, _, p)| p));
    print_counts(counts);
    let (ref_attempted, ref_failed) = check_session_reference(ctx, counts);
    attempted += ref_attempted + 1;
    failed += ref_failed;
    let mut probe_failures = probe.failures.clone();
    if let Some(c) = counts {
        probe_failures.extend(workload::mismatches(c, &probe.run_counts));
    }
    println!(
        "# probe counts {:?} failures {:?}",
        probe.counts, probe_failures
    );
    if !probe_failures.is_empty() {
        failed += 1;
    }

    let trace_path = ctx
        .scratch
        .join(format!("spans-{}-seed{}.json", w.name, ctx.seed));
    match spans.write_chrome_trace(&trace_path) {
        Ok(()) => println!("# spans written to {}", trace_path.display()),
        Err(e) => println!("# spans not written ({}): {e}", trace_path.display()),
    }

    // Layer times come from the traced passes and the probe (pass 0).
    let traced_ids: Vec<u32> = passes
        .iter()
        .filter(|(_, on, _)| *on)
        .map(|(id, _, _)| *id)
        .collect();
    let layer_ids: Vec<u32> = traced_ids.iter().copied().chain([0]).collect();
    let totals = spans.per_pass_totals(&layer_ids);
    for (name, per_pass) in &totals {
        let dur: Vec<f64> = per_pass.values().map(|x| x.0).collect();
        let own: Vec<f64> = per_pass.values().map(|x| x.1).collect();
        println!(
            "# span {name:<20} passes={} median_ms={:.3} self_median_ms={:.3}",
            per_pass.len(),
            median(&dur) * 1e3,
            median(&own) * 1e3
        );
    }
    // Median over the passes that have the span of its per-pass total.
    let span_s = |name: &str| {
        totals.get(name).map_or(f64::NAN, |v| {
            median(&v.values().map(|x| x.0).collect::<Vec<_>>())
        })
    };
    // Per traced pass, the span's total.
    let traced_s = |name: &str| -> Vec<(u32, f64)> {
        totals.get(name).map_or(Vec::new(), |v| {
            v.iter()
                .filter(|(id, _)| traced_ids.contains(id))
                .map(|(&id, x)| (id, x.0))
                .collect()
        })
    };
    let unspanned_s = totals.get("pass").map_or(f64::NAN, |v| {
        median(&v.values().map(|x| x.1).collect::<Vec<_>>())
    });

    let request = |on: bool| {
        median(
            &passes
                .iter()
                .filter(|(_, t, p)| *t == on && p.failures.is_empty())
                .map(|(_, _, p)| p.request_s)
                .collect::<Vec<_>>(),
        )
    };
    let c = |name: &str| {
        counts
            .and_then(|c| count(c, name))
            .or_else(|| count(&probe.counts, name))
            .unwrap_or(0)
    };

    let mut m = Metrics::default();
    m.put("graph.build_s", span_s("graph.build"), "s");
    m.put("graph.view_s", span_s("graph.view"), "s");
    m.put("graph.edges", c("graph.edges") as f64, "count");
    m.put("compiler.emit_ms", span_s("compiler.emit") * 1e3, "ms");
    m.put(
        "compiler.process_ms",
        span_s("compiler.process") * 1e3,
        "ms",
    );
    for name in [
        "sim.cycles",
        "sim.warp_instrs",
        "sim.launches",
        "sim.stall_memory",
        "sim.stall_shared",
        "sim.stall_exec_dep",
        "sim.stall_l1_queue",
        "sim.stall_barrier",
        "sim.stall_weaver",
        "sim.phase_registration",
        "sim.phase_edge_schedule",
        "sim.phase_edge_info",
        "sim.phase_gather_sum",
    ] {
        m.put(name, c(name) as f64, "count");
    }
    let cores = sparseweaver::sim::GpuConfig::evaluation_default().num_cores as u64;
    m.put(
        "sim.ipc",
        metrics::ratio(c("sim.warp_instrs"), c("sim.cycles") * cores),
        "instr/cycle",
    );
    m.put(
        "sim.ns_per_warp_instr",
        metrics::ns_per(span_s("sim.run"), c("sim.warp_instrs")),
        "ns",
    );
    m.put("mem.accesses", c("mem.accesses") as f64, "count");
    m.put(
        "mem.l1_hit_rate",
        metrics::ratio(c("mem.l1_hits"), c("mem.accesses")),
        "ratio",
    );
    m.put(
        "mem.l2_hit_rate",
        metrics::ratio(c("mem.l2_hits"), c("mem.l2_accesses")),
        "ratio",
    );
    m.put("mem.dram_accesses", c("mem.dram_accesses") as f64, "count");
    m.put("mem.replay_s", span_s("mem.replay"), "s");
    m.put(
        "mem.ns_per_access",
        metrics::ns_per(span_s("mem.replay"), c("mem.mtrace_accesses")),
        "ns",
    );
    m.put("mem.mtrace_bytes", c("mem.mtrace_bytes") as f64, "B");
    m.put("mem.mtrace_parse_s", span_s("mem.mtrace_parse"), "s");
    m.put("mem.sweep_s", span_s("mem.sweep"), "s");
    for name in [
        "weaver.registrations",
        "weaver.dec_requests",
        "weaver.st_fetches",
    ] {
        m.put(name, c(name) as f64, "count");
    }
    m.put(
        "weaver.fsm_ns_per_dec",
        metrics::ns_per(median(&probe.weaver_sweep_s), probe.weaver_decs),
        "ns",
    );
    let (observed, plain) = if w.study {
        ("sim.run", "obs.plain_run")
    } else {
        ("obs.observed_run", "sim.run")
    };
    m.put(
        "obs.overhead_s",
        median(&metrics::paired_differences(
            &traced_s(observed),
            &traced_s(plain),
        )),
        "s",
    );
    m.put(
        "obs.profile_render_ms",
        span_s("obs.profile_render") * 1e3,
        "ms",
    );
    m.put(
        "obs.profile_parse_ms",
        span_s("obs.profile_parse") * 1e3,
        "ms",
    );
    m.put("ckpt.bytes", c("ckpt.bytes") as f64, "B");
    m.put("ckpt.encode_ms", span_s("ckpt.encode") * 1e3, "ms");
    m.put("ckpt.decode_ms", span_s("ckpt.decode") * 1e3, "ms");
    m.put("ckpt.resume_s", span_s("ckpt.resume"), "s");
    m.put(
        "bench.trace_overhead_pct",
        metrics::overhead_pct(request(true), request(false)),
        "%",
    );
    m.put("bench.unspanned_ms", unspanned_s * 1e3, "ms");
    m.result(attempted, failed)
}

/// The metrics object of the result line, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|m| m.0 != name),
            "metric {name} reported twice"
        );
        self.0.push((name, value, unit));
    }

    /// The result line. A metric that could not be measured (a failed
    /// pass left nothing to take a median of) makes the run incorrect.
    fn result(&self, attempted: usize, mut failed: usize) -> String {
        let mut body = Vec::new();
        for &(name, value, unit) in &self.0 {
            if !value.is_finite() {
                println!("# metric {name} was not measured");
                failed = failed.max(1);
                continue;
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            body.join(", ")
        )
    }
}
