//! `tsvc-search`: the paper's TSVC experiment (§V-C) run the way
//! `rolag-opt` runs it. All 151 kernels are unrolled ×8 + cse + cleanup
//! during set-up and kept as text; the measured region takes one module
//! at a time through parse → verify → the `rolag` pass (validated, beam
//! search of width 4) → print → measure, in a closed loop with no state
//! carried between modules, for as many whole shuffled rounds as fit.
//! Beam search, translation validation and the lowered-size cost model
//! carry most of the time here.

use std::time::Instant;

use rolag::{RolagOptions, RolagStats, SearchConfig, StageTimings};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_lower::measure_module;
use rolag_passes::{
    AnalysisCacheStats, AnalysisManager, PassContext, PassManager, RolagEngine, RolagPass,
    TargetKind,
};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

use crate::check::{compare, defined_functions, Digest};
use crate::report::Outcome;
use crate::stats::{geomean, median, nearest_rank, sorted, Summary};
use crate::trace::{self_times, SpanId, Tracer};
use crate::workload::{
    overhead_pct, peak_rss_mib, per_op_ms, ratio, reduction_pct, repeated_setup, rolag_layers,
    shuffle, Config,
};

/// The paper's TSVC unroll factor (§V-C).
const UNROLL: u32 = 8;

/// Rounds measured at least, so the tail latency has 1000+ samples.
const MIN_ROUNDS: usize = 7;

/// Per-module latency limit for `goodput_rps`: several times the slowest
/// module's latency on the seed commit.
const LIMIT_MS: f64 = 100.0;

/// One unrolled kernel, as the text the measured region parses.
pub struct Kernel {
    /// Kernel (and entry function) name.
    pub name: &'static str,
    /// The unrolled module, printed.
    pub text: String,
    /// Function definitions in the module.
    pub functions: u64,
}

/// Builds, unrolls and prints every kernel.
pub fn generate() -> (Vec<Kernel>, Digest) {
    let mut digest = Digest::default();
    let kernels: Vec<Kernel> = all_kernels()
        .iter()
        .map(|spec| {
            let mut m = build_kernel_module(spec);
            unroll_module(&mut m, UNROLL);
            cse_module(&mut m);
            cleanup_module(&mut m);
            let text = print_module(&m);
            digest.add(&text);
            Kernel {
                name: spec.name,
                functions: defined_functions(&m).len() as u64,
                text,
            }
        })
        .collect();
    (kernels, digest)
}

fn pipeline() -> PassManager {
    let options = RolagOptions {
        search: SearchConfig::Beam {
            width: 4,
            depth: SearchConfig::DEFAULT_DEPTH,
        },
        ..RolagOptions::validated()
    };
    let mut pm = PassManager::new();
    pm.add(Box::new(RolagPass::with(
        "rolag",
        options,
        RolagEngine::Incremental,
    )));
    pm
}

/// What one module's trip through the pipeline returns.
struct Rolled {
    text: String,
    stats: RolagStats,
    cache: AnalysisCacheStats,
}

fn roll_one(
    text: &str,
    pm: &PassManager,
    tracer: &mut Tracer,
    root: SpanId,
    id: u64,
) -> Result<Rolled, String> {
    let mut m = tracer
        .span("ir.parse", root, id, || parse_module(text))
        .map_err(|e| format!("parse: {}:{}: {}", e.line, e.col, e.message))?;
    tracer
        .span("ir.verify", root, id, || verify_module(&m))
        .map_err(|e| format!("input does not verify: {}", e[0]))?;
    let mut am = AnalysisManager::new();
    let mut cx = PassContext::new(TargetKind::default());
    let run_start = tracer.now();
    let run = tracer.open("passes.run", root, id);
    let report = pm.run(&mut m, &mut am, &mut cx);
    tracer.close(run);
    let report = report.map_err(|e| format!("pass {} failed: {:?}", e.pass, e.errors))?;
    let outcome = &report.outcomes[0];
    let pass_ns = outcome.wall_ns as u64;
    // The pass's own wall, as the manager reports it, is a child span.
    tracer.record_ns("rolag.pass", run_start, run_start + pass_ns, run, id);
    let stats = outcome.rolag.ok_or("rolag pass reported no stats")?;
    let text = tracer.span("ir.print", root, id, || print_module(&m));
    std::hint::black_box(tracer.span("lower.measure", root, id, || measure_module(&m)));
    Ok(Rolled {
        text,
        stats,
        cache: report.cache,
    })
}

/// One measured phase.
struct Phase {
    latencies_ms: Vec<f64>,
    funcs_per_s: Vec<f64>,
    /// Modules within [`LIMIT_MS`] per second, per round.
    goodput: Vec<f64>,
    /// First-round output per kernel (by kernel index).
    outputs: Vec<Result<String, String>>,
    /// Kernels whose output changed between rounds.
    unstable: Vec<usize>,
    digest: Digest,
    round_stats: RolagStats,
    round_cache: AnalysisCacheStats,
    /// Stage times summed over the traced rounds.
    stages: StageTimings,
    /// Module wall time and count, untraced rounds at `[0]`, traced at
    /// `[1]`.
    wall_ns: [u64; 2],
    ops: [u64; 2],
    tracer: Tracer,
}

/// With `traced`, every other round records spans, so the traced and
/// untraced rounds see the same host and their difference is the
/// tracing overhead.
fn measure(kernels: &[Kernel], cfg: &Config, traced: bool) -> Phase {
    let pm = pipeline();
    let mut tracer = Tracer::new(false);
    let mut p = Phase {
        latencies_ms: Vec::new(),
        funcs_per_s: Vec::new(),
        goodput: Vec::new(),
        outputs: Vec::new(),
        unstable: Vec::new(),
        digest: Digest::default(),
        round_stats: RolagStats::default(),
        round_cache: AnalysisCacheStats::default(),
        stages: StageTimings::default(),
        wall_ns: [0; 2],
        ops: [0; 2],
        tracer: Tracer::new(false),
    };
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < cfg.budget() {
        let mut order: Vec<usize> = (0..kernels.len()).collect();
        shuffle(&mut order, cfg.seed.wrapping_add(round as u64));
        let mut outputs: Vec<Result<String, String>> = vec![Err(String::new()); kernels.len()];
        let on = traced && round % 2 == 1;
        tracer.set_enabled(on);
        let (mut functions, mut good) = (0, 0);
        let round_start = Instant::now();
        for &k in &order {
            let t0 = Instant::now();
            let root = tracer.open("module", SpanId::NONE, k as u64);
            let result = roll_one(&kernels[k].text, &pm, &mut tracer, root, k as u64);
            tracer.close(root);
            let lat = t0.elapsed();
            p.latencies_ms.push(lat.as_secs_f64() * 1e3);
            good += usize::from(lat.as_secs_f64() * 1e3 <= LIMIT_MS);
            p.wall_ns[usize::from(on)] += lat.as_nanos() as u64;
            p.ops[usize::from(on)] += 1;
            functions += kernels[k].functions;
            outputs[k] = result.map(|r| {
                if on {
                    p.stages += r.stats.timings;
                }
                if round == 0 {
                    p.round_stats += r.stats;
                    p.round_cache += r.cache;
                }
                r.text
            });
        }
        let round_s = round_start.elapsed().as_secs_f64();
        p.funcs_per_s.push(functions as f64 / round_s);
        p.goodput.push(good as f64 / round_s);
        if round == 0 {
            for out in &outputs {
                p.digest.add(out.as_deref().unwrap_or("<error>"));
            }
            p.outputs = outputs;
        } else {
            for (k, out) in outputs.iter().enumerate() {
                if out != &p.outputs[k] && !p.unstable.contains(&k) {
                    p.unstable.push(k);
                }
            }
        }
        round += 1;
    }
    p.tracer = tracer;
    p
}

/// Runs the workload.
pub fn run(cfg: &Config) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let kernels = repeated_setup(&mut out, generate);

    let phase = measure(&kernels, cfg, false);
    let rss = peak_rss_mib();
    let latency = Summary::of(&phase.latencies_ms);
    let rate = Summary::of(&phase.funcs_per_s);
    out.e2e("funcs_per_s", rate.median);
    out.e2e("latency_p50_ms", latency.median);
    out.e2e(
        "latency_p99_ms",
        nearest_rank(&sorted(&phase.latencies_ms), 99.0),
    );
    out.e2e("goodput_rps", median(&phase.goodput));
    out.e2e("peak_rss_mib", rss);
    out.timings.push(("latency per module", "ms", latency));
    out.timings.push(("funcs_per_s per round", "1/s", rate));
    out.digest = Some(phase.digest);

    check(&kernels, &phase, cfg, &mut out);

    let tracer = cfg.trace.then(|| {
        let traced = measure(&kernels, cfg, true);
        if traced.digest != phase.digest {
            out.fail("traced run produced different output bytes".to_string());
        }
        layers(&traced, &mut out);
        traced.tracer
    });
    (out, tracer)
}

/// Verifies every output, compares its behaviour with the input bit for
/// bit, and derives size reduction and dynamic-instruction overhead.
fn check(kernels: &[Kernel], phase: &Phase, cfg: &Config, out: &mut Outcome) {
    let start = Instant::now();
    let (mut before, mut after) = (0u64, 0u64);
    let mut ratios = Vec::new();
    for (k, kernel) in kernels.iter().enumerate() {
        out.attempted += kernel.functions;
        let original = parse_module(&kernel.text).expect("set-up text parses");
        let verdict = (|| {
            if phase.unstable.contains(&k) {
                return Err("output bytes differ between rounds".to_string());
            }
            let text = phase.outputs[k].as_ref().map_err(Clone::clone)?;
            let rolled =
                parse_module(text).map_err(|e| format!("output does not parse: {}", e.message))?;
            verify_module(&rolled).map_err(|e| format!("output does not verify: {}", e[0]))?;
            let steps = compare(&original, &rolled, kernel.name, cfg.seed)?;
            Ok((measure_module(&rolled).text, steps.ratio()))
        })();
        before += measure_module(&original).text;
        match verdict {
            Ok((size, r)) => {
                after += size;
                ratios.push(r);
            }
            Err(e) => {
                out.fail(format!("{}: {e}", kernel.name));
                after += measure_module(&original).text;
                ratios.push(1.0);
            }
        }
    }
    out.e2e("size_reduction_pct", reduction_pct(before, after));
    out.e2e("dyn_inst_overhead_pct", 100.0 * (geomean(&ratios) - 1.0));
    out.bases
        .push(format!("size: {before} text bytes before, {after} after"));
    out.bases.push(format!(
        "dyn-inst: geometric mean over {} kernels",
        ratios.len()
    ));
    out.layer("check.wall_ms", start.elapsed().as_secs_f64() * 1e3);
    out.layer("check.ops", out.attempted as f64);
    out.layer("check.failed", out.failed as f64);
}

fn layers(traced: &Phase, out: &mut Outcome) {
    let ops = traced.ops[1];
    let t = self_times(traced.tracer.spans());
    let self_ms = |name: &str| per_op_ms(t.get(name).copied().unwrap_or(0), ops);
    let wall = per_op_ms(traced.wall_ns[1], ops);
    out.layer("bench.wall_ms", wall);
    out.layer("bench.self_ms", self_ms("module"));
    out.layer(
        "trace.overhead_pct",
        overhead_pct(wall, per_op_ms(traced.wall_ns[0], traced.ops[0])),
    );
    rolag_layers(
        out,
        &traced.round_stats,
        &traced.stages,
        t.get("rolag.pass").copied().unwrap_or(0),
        ops,
    );
    out.layer("ir.parse_ms", self_ms("ir.parse"));
    out.layer("ir.verify_ms", self_ms("ir.verify"));
    out.layer("ir.print_ms", self_ms("ir.print"));
    out.layer("lower.measure_ms", self_ms("lower.measure"));
    out.layer("passes.run_ms", self_ms("passes.run"));
    out.layer(
        "passes.analysis_hit_ratio",
        ratio(
            traced.round_cache.total_hits(),
            traced.round_cache.total_hits() + traced.round_cache.total_misses(),
        ),
    );
}
