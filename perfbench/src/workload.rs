//! What the three workloads share: run settings, repeated set-up, and
//! the rolag-engine layer metrics read from `RolagStats`.

use std::time::{Duration, Instant};

use rolag::{RolagStats, StageTimings};
use rolag_prng::{ChaCha8Rng, Rng, SeedableRng};

use crate::check::Digest;
use crate::report::Outcome;
use crate::stats::Summary;

/// Set-ups per run at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Set-up keeps repeating until it has taken this long in total, so a
/// set-up of a few tens of milliseconds is measured dozens of times.
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);

/// Set-ups per run at most.
const SETUP_MAX_REPEATS: usize = 100;

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

impl Config {
    /// The measured region's length.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Runs `make` at least [`SETUP_REPEATS`] times and until the repeats
/// have taken [`SETUP_MIN_TOTAL`], records the median as `setup_s`, and
/// keeps the last result. Every repeat must produce the same inputs
/// (same digest); a difference is a failure.
pub fn repeated_setup<T>(out: &mut Outcome, mut make: impl FnMut() -> (T, Digest)) -> T {
    let mut secs = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    let began = Instant::now();
    while secs.len() < SETUP_REPEATS
        || (began.elapsed() < SETUP_MIN_TOTAL && secs.len() < SETUP_MAX_REPEATS)
    {
        let start = Instant::now();
        let (value, digest) = make();
        secs.push(start.elapsed().as_secs_f64());
        digests.push(digest);
        // Drop the previous repeat only after timing this one.
        last = Some(value);
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        out.fail("set-up produced different inputs on repeat".to_string());
    }
    let summary = Summary::of(&secs);
    out.e2e("setup_s", summary.median);
    out.timings.push(("setup", "s", summary));
    last.expect("at least one set-up")
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Milliseconds per operation.
pub fn per_op_ms(ns: u64, ops: u64) -> f64 {
    ns as f64 / 1e6 / ops.max(1) as f64
}

/// `num / den`, `0` for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The rolag-engine layers. `round` holds the counters of one pass over
/// the inputs; `stages` the stage times summed over the traced phase;
/// `engine_ns` the summed wall of the calls that ran the engine (the
/// pass, or the driver), whose excess over the stage sum is
/// `rolag.unattributed_ms`.
pub fn rolag_layers(
    out: &mut Outcome,
    round: &RolagStats,
    stages: &StageTimings,
    engine_ns: u64,
    ops: u64,
) {
    for (name, ns) in [
        ("rolag.seeds_ms", stages.seeds_ns),
        ("rolag.align_ms", stages.align_ns),
        ("rolag.schedule_ms", stages.schedule_ns),
        ("rolag.codegen_ms", stages.codegen_ns),
        ("rolag.cost_ms", stages.cost_ns),
        ("rolag.cleanup_ms", stages.cleanup_ns),
        ("rolag.track_ms", stages.track_ns),
        ("tv.validate_ms", stages.tv_ns),
    ] {
        out.layer(name, per_op_ms(ns, ops));
    }
    out.layer(
        "rolag.unattributed_ms",
        per_op_ms(engine_ns.saturating_sub(stages.total_ns()), ops),
    );
    out.layer("rolag.attempted", round.attempted as f64);
    out.layer("rolag.rolled", round.rolled as f64);
    out.layer(
        "rolag.rolled_per_attempt",
        ratio(round.rolled, round.attempted),
    );
    out.layer("rolag.rejected_schedule", round.rejected_schedule as f64);
    out.layer("rolag.rejected_profit", round.rejected_profit as f64);
    out.layer("rolag.memo_hit_ratio", round.cache.memo_hit_rate());
    out.layer(
        "rolag.candidate_hit_ratio",
        round.cache.candidate_hit_rate(),
    );
    out.layer("rolag.size_hit_ratio", round.cache.size_hit_rate());
    out.layer("search.explored", round.search.explored as f64);
    out.layer("search.pruned", round.search.pruned as f64);
    out.layer("search.adopted", round.search.adopted as f64);
    out.layer(
        "search.adopted_per_explored",
        ratio(round.search.adopted, round.search.explored),
    );
    out.layer("tv.validated", round.tv_validated as f64);
    out.layer("tv.rejected", round.tv_rejected as f64);
}

/// `100 * (after / before - 1)`: the traced phase's cost per operation
/// over the untraced phase's.
pub fn overhead_pct(traced_per_op: f64, untraced_per_op: f64) -> f64 {
    if untraced_per_op > 0.0 {
        100.0 * (traced_per_op / untraced_per_op - 1.0)
    } else {
        0.0
    }
}

/// `100 * (before - after) / before`.
pub fn reduction_pct(before: u64, after: u64) -> f64 {
    100.0 * (before as f64 - after as f64) / before.max(1) as f64
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    rolag_frontend::corpus::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}
