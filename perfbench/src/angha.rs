//! `angha-corpus`: a seeded AnghaBench-like stream rolled as one batch
//! job. Set-up generates the functions (`rolag_suites::angha::stream`)
//! and prints each to an in-memory module text; the measured region
//! feeds them to `roll_corpus` (default greedy options, one worker, a
//! fixed memory budget) round after round, each round a fresh call with
//! its own memo store.
//!
//! Chosen for its real-world shape and mostly distinct functions:
//! `schedule` and `seeds` dominate the engine's time, and the
//! cross-batch store almost never hits, so it is the bypass case for
//! caching, search and translation validation.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use rolag::{RolagOptions, RolagStats, StageTimings};
use rolag_frontend::corpus::{roll_corpus, CorpusItem, CorpusOptions, CorpusReport};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_lower::measure_module;
use rolag_suites::angha::{stream, AnghaConfig};

use crate::check::{compare, defined_functions, Digest};
use crate::report::Outcome;
use crate::stats::{geomean, median, nearest_rank, sorted, Summary};
use crate::trace::{self_times, SpanId, Tracer};
use crate::workload::{
    overhead_pct, peak_rss_mib, per_op_ms, ratio, reduction_pct, repeated_setup, rolag_layers,
    shuffle, Config,
};

/// Functions in the stream: enough for a p99 over per-function medians
/// with ten samples beyond it.
const FUNCTIONS: usize = 1000;

/// `roll_corpus`'s memory budget; it sizes batches to 2 MiB of text
/// (about 150 functions).
const MEM_BUDGET: u64 = 256 << 20;

/// Rounds measured at least. Each batch's time and each function's
/// latency is the median over rounds, so one round slowed by the host
/// does not move the result.
const MIN_ROUNDS: usize = 3;

/// Per-function latency limit for `goodput_rps`.
const LIMIT_MS: f64 = 4000.0;

fn corpus_options() -> CorpusOptions {
    CorpusOptions {
        mem_budget: MEM_BUDGET,
        jobs: 1,
        ..CorpusOptions::default()
    }
}

/// The stream as `(origin, module text)` items, in seeded order. The
/// functions are always the generator's default-seed stream; the seed
/// draws their order, and so which functions share a batch. Drawing the
/// functions per seed too made size reduction spread by 9–18% across
/// seeds, more than any bound can absorb.
fn generate(seed: u64) -> (Vec<(String, Vec<u8>)>, Digest) {
    let mut items: Vec<(String, Vec<u8>)> = stream(&AnghaConfig {
        functions: FUNCTIONS,
        ..AnghaConfig::default()
    })
    .enumerate()
    .map(|(i, (name, _, m))| {
        (
            format!("angha/{i}/{name}.rir"),
            print_module(&m).into_bytes(),
        )
    })
    .collect();
    shuffle(&mut items, seed);
    let mut digest = Digest::default();
    for (_, text) in &items {
        digest.add(std::str::from_utf8(text).expect("printed IR is UTF-8"));
    }
    (items, digest)
}

fn items(corpus: &[(String, Vec<u8>)]) -> Vec<CorpusItem> {
    corpus
        .iter()
        .map(|(origin, bytes)| CorpusItem {
            origin: origin.clone(),
            bytes: bytes.clone(),
        })
        .collect()
}

/// One `roll_corpus` call, seen from outside.
struct Round {
    report: CorpusReport,
    wall_ns: u64,
    /// Printed output of each batch.
    batches: Vec<String>,
    /// Item pull → its batch's output printed, per function, ms.
    latencies_ms: Vec<f64>,
    /// Per batch: previous batch printed (or round start) → this batch
    /// printed, ns.
    segments_ns: Vec<u64>,
    /// Whether spans were recorded.
    traced: bool,
}

/// Rolls the corpus once. Spans: the `roll_corpus` call, each item pull,
/// each batch's driver call (from the `wall_ns` it reports, ending where
/// `on_batch` begins), and each batch's printing.
fn roll_round(corpus: &[(String, Vec<u8>)], tracer: &mut Tracer, round: u64) -> Round {
    let input = items(corpus);
    let tracer = RefCell::new(tracer);
    let pulls = RefCell::new(Vec::with_capacity(input.len()));
    let mut batch_ends: Vec<(usize, Instant)> = Vec::new();
    let mut batches = Vec::new();

    let start = Instant::now();
    let root = tracer.borrow_mut().open("corpus", SpanId::NONE, round);
    let feed = input.into_iter().enumerate().map(|(i, item)| {
        let mut t = tracer.borrow_mut();
        let at = t.now();
        pulls.borrow_mut().push(Instant::now());
        let done = t.now();
        t.record_ns("frontend.next", at, done, root, i as u64);
        Ok(item)
    });
    let report = roll_corpus(
        feed,
        &RolagOptions::default(),
        &corpus_options(),
        |module, dr| {
            let mut t = tracer.borrow_mut();
            let entry = t.now();
            let batch = batches.len() as u64;
            t.record_ns(
                "driver.batch",
                entry.saturating_sub(dr.wall_ns),
                entry,
                root,
                batch,
            );
            let text = t.span("ir.print", root, batch, || print_module(module));
            batch_ends.push((pulls.borrow().len(), Instant::now()));
            batches.push(text);
        },
    )
    .expect("in-memory items cannot fail to read");
    tracer.borrow_mut().close(root);
    let wall_ns = start.elapsed().as_nanos() as u64;

    let pulls = pulls.into_inner();
    let mut latencies_ms = Vec::with_capacity(pulls.len());
    let mut segments_ns = Vec::with_capacity(batch_ends.len());
    let (mut first, mut prev) = (0, start);
    for (upto, end) in batch_ends {
        for pulled in &pulls[first..upto] {
            latencies_ms.push(end.duration_since(*pulled).as_secs_f64() * 1e3);
        }
        segments_ns.push(end.duration_since(prev).as_nanos() as u64);
        (first, prev) = (upto, end);
    }
    Round {
        report,
        wall_ns,
        batches,
        latencies_ms,
        segments_ns,
        traced: false,
    }
}

/// One measured phase: whole rounds until the budget is spent.
struct Phase {
    rounds: Vec<Round>,
    unstable: bool,
    /// Stage times summed over the traced rounds.
    stages: StageTimings,
    tracer: Tracer,
}

impl Phase {
    /// Functions rolled in the traced (or untraced) rounds.
    fn functions(&self, traced: bool) -> u64 {
        let rounds = self.rounds.iter().filter(|r| r.traced == traced);
        rounds.map(|r| r.report.functions).sum()
    }

    /// Wall time of the traced (or untraced) rounds.
    fn wall_ns(&self, traced: bool) -> u64 {
        let rounds = self.rounds.iter().filter(|r| r.traced == traced);
        rounds.map(|r| r.wall_ns).sum()
    }

    fn first(&self) -> &Round {
        &self.rounds[0]
    }
}

/// With `traced`, every other round records spans, so the traced and
/// untraced rounds see the same host and their difference is the
/// tracing overhead.
fn measure(corpus: &[(String, Vec<u8>)], cfg: &Config, traced: bool) -> Phase {
    let mut tracer = Tracer::new(false);
    let mut rounds: Vec<Round> = Vec::new();
    let mut stages = StageTimings::default();
    let mut unstable = false;
    let start = Instant::now();
    // Another round starts only if one more of the last round's length
    // still fits in the budget.
    let fits = |rounds: &[Round]| {
        rounds
            .last()
            .is_some_and(|r| start.elapsed() + Duration::from_nanos(r.wall_ns) <= cfg.budget())
    };
    while rounds.len() < MIN_ROUNDS || fits(&rounds) {
        let on = traced && rounds.len() % 2 == 1;
        tracer.set_enabled(on);
        let mut round = roll_round(corpus, &mut tracer, rounds.len() as u64);
        round.traced = on;
        if round.traced {
            stages += round.report.stats.timings;
        }
        if let Some(first) = rounds.first() {
            unstable |= round.batches != first.batches;
            round.batches = Vec::new();
        }
        rounds.push(round);
    }
    Phase {
        rounds,
        unstable,
        stages,
        tracer,
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let corpus = repeated_setup(&mut out, || generate(cfg.seed));

    let phase = measure(&corpus, cfg, false);
    let rss = peak_rss_mib();
    let rounds = &phase.rounds;
    // Medians over rounds: per batch for throughput, per function for
    // latency.
    let across = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let batch_ns: f64 = (0..phase.first().segments_ns.len())
        .map(|b| across(&|r| r.segments_ns[b] as f64))
        .sum();
    let latencies: Vec<f64> = (0..phase.first().latencies_ms.len())
        .map(|i| across(&|r| r.latencies_ms[i]))
        .collect();
    let wall_s = batch_ns / 1e9;
    let latency = Summary::of(&latencies);
    let good = latencies.iter().filter(|&&l| l <= LIMIT_MS).count();
    out.e2e(
        "funcs_per_s",
        phase.first().report.functions as f64 / wall_s,
    );
    out.e2e("latency_p50_ms", latency.median);
    out.e2e("latency_p99_ms", nearest_rank(&sorted(&latencies), 99.0));
    out.e2e("goodput_rps", good as f64 / wall_s);
    out.e2e("peak_rss_mib", rss);
    out.timings.push(("latency per function", "ms", latency));
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.report.functions as f64 / (r.wall_ns as f64 / 1e9))
        .collect();
    out.series.push(("funcs_per_s per round", rates));
    let mut digest = Digest::default();
    for text in &phase.first().batches {
        digest.add(text);
    }
    out.digest = Some(digest);
    let r = &phase.first().report;
    out.bases.push(format!(
        "corpus: {} functions in {} batches, {} input bytes, {} store hits, {} cache hits",
        r.functions, r.batches, r.bytes_in, r.store_hits, r.cache_hits
    ));

    check(&corpus, &phase, cfg, &mut out);

    let tracer = cfg.trace.then(|| {
        let traced = measure(&corpus, cfg, true);
        if traced.first().batches != phase.first().batches || traced.unstable {
            out.fail("traced run produced different output bytes".to_string());
        }
        layers(&traced, &mut out);
        traced.tracer
    });
    (out, tracer)
}

/// Rolls the same items once more with rolling disabled
/// (`min_lanes = usize::MAX`), which yields the corpus's own merged,
/// unrolled batches: the reference each output batch is checked against,
/// with identical global layout. Every output batch must verify, and
/// every function must behave bit for bit as in the reference.
fn check(corpus: &[(String, Vec<u8>)], phase: &Phase, cfg: &Config, out: &mut Outcome) {
    let start = Instant::now();
    let outputs = &phase.first().batches;
    let reference = RolagOptions {
        min_lanes: usize::MAX,
        ..RolagOptions::default()
    };
    let (mut before, mut after) = (0u64, 0u64);
    let mut ratios = Vec::new();
    let mut batch = 0;
    let mut verdicts: Vec<Result<(), String>> = Vec::new();
    roll_corpus(
        items(corpus).into_iter().map(Ok),
        &reference,
        &corpus_options(),
        |orig, _| {
            let names = defined_functions(orig);
            before += measure_module(orig).text;
            let rolled = outputs
                .get(batch)
                .ok_or_else(|| "fewer output batches than reference batches".to_string())
                .and_then(|text| {
                    parse_module(text).map_err(|e| format!("output does not parse: {}", e.message))
                })
                .and_then(|m| {
                    verify_module(&m)
                        .map(|()| m)
                        .map_err(|e| format!("output does not verify: {}", e[0]))
                });
            match rolled {
                Ok(rolled) => {
                    after += measure_module(&rolled).text;
                    for name in &names {
                        verdicts.push(
                            compare(orig, &rolled, name, cfg.seed).map(|s| ratios.push(s.ratio())),
                        );
                    }
                }
                Err(e) => {
                    after += measure_module(orig).text;
                    verdicts.extend(
                        names
                            .iter()
                            .map(|n| Err(format!("batch {batch} (@{n}): {e}"))),
                    );
                }
            }
            batch += 1;
        },
    )
    .expect("in-memory items cannot fail to read");
    out.attempted = verdicts.len() as u64;
    for v in verdicts {
        if let Err(e) = v {
            ratios.push(1.0);
            out.fail(e);
        }
    }
    if batch != outputs.len() {
        out.fail(format!(
            "{} output batches, {batch} reference batches",
            outputs.len()
        ));
    }
    if phase.unstable {
        out.fail("output bytes differ between rounds".to_string());
    }
    if out.attempted != phase.first().report.functions {
        out.fail(format!(
            "{} functions checked, {} rolled",
            out.attempted,
            phase.first().report.functions
        ));
    }
    out.e2e("size_reduction_pct", reduction_pct(before, after));
    out.e2e("dyn_inst_overhead_pct", 100.0 * (geomean(&ratios) - 1.0));
    out.bases
        .push(format!("size: {before} text bytes before, {after} after"));
    out.bases.push(format!(
        "dyn-inst: geometric mean over {} functions",
        ratios.len()
    ));
    out.layer("check.wall_ms", start.elapsed().as_secs_f64() * 1e3);
    out.layer("check.ops", out.attempted as f64);
    out.layer("check.failed", out.failed as f64);
}

fn layers(traced: &Phase, out: &mut Outcome) {
    let ops = traced.functions(true);
    let t = self_times(traced.tracer.spans());
    let self_ns = |name: &str| t.get(name).copied().unwrap_or(0);
    let wall = per_op_ms(traced.wall_ns(true), ops);
    let first = &traced.first().report;
    let round: RolagStats = first.stats;
    out.layer("bench.wall_ms", wall);
    out.layer(
        "trace.overhead_pct",
        overhead_pct(
            wall,
            per_op_ms(traced.wall_ns(false), traced.functions(false)),
        ),
    );
    rolag_layers(out, &round, &traced.stages, self_ns("driver.batch"), ops);
    out.layer("frontend.iter_ms", per_op_ms(self_ns("frontend.next"), ops));
    out.layer("frontend.parse_merge_ms", per_op_ms(self_ns("corpus"), ops));
    let bytes: u64 = traced
        .rounds
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.report.bytes_in)
        .sum();
    out.layer(
        "frontend.bytes_per_s",
        bytes as f64 / (self_ns("corpus").max(1) as f64 / 1e9),
    );
    out.layer("ir.print_ms", per_op_ms(self_ns("ir.print"), ops));
    out.layer("driver.roll_ms", per_op_ms(self_ns("driver.batch"), ops));
    out.layer("driver.cache_hits", first.cache_hits as f64);
    out.layer(
        "driver.store_hit_ratio",
        ratio(first.store_hits, first.functions),
    );
}
