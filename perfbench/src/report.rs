//! Metric names, units and the result a workload run produces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::check::Digest;
use crate::stats::{valid_metric_name, Summary};

/// End-to-end metrics, `(name, unit)`, reported on every workload by an
/// untraced run. Keep in step with `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("funcs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("size_reduction_pct", "%"),
    ("dyn_inst_overhead_pct", "%"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, reported on every workload by a
/// traced run; a layer a workload does not reach reads `0`. Every `_ms`
/// metric but `check.wall_ms` (total) and `loadgen.lag_p99_ms` is mean
/// milliseconds per operation (function, module or request) of the traced
/// rounds; counts are per pass over the inputs.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("bench.wall_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("rolag.seeds_ms", "ms"),
    ("rolag.align_ms", "ms"),
    ("rolag.schedule_ms", "ms"),
    ("rolag.codegen_ms", "ms"),
    ("rolag.cost_ms", "ms"),
    ("rolag.cleanup_ms", "ms"),
    ("rolag.track_ms", "ms"),
    ("rolag.unattributed_ms", "ms"),
    ("rolag.attempted", "count"),
    ("rolag.rolled", "count"),
    ("rolag.rolled_per_attempt", "ratio"),
    ("rolag.rejected_schedule", "count"),
    ("rolag.rejected_profit", "count"),
    ("rolag.memo_hit_ratio", "ratio"),
    ("rolag.candidate_hit_ratio", "ratio"),
    ("rolag.size_hit_ratio", "ratio"),
    ("search.explored", "count"),
    ("search.pruned", "count"),
    ("search.adopted", "count"),
    ("search.adopted_per_explored", "ratio"),
    ("tv.validate_ms", "ms"),
    ("tv.validated", "count"),
    ("tv.rejected", "count"),
    ("lower.measure_ms", "ms"),
    ("frontend.iter_ms", "ms"),
    ("frontend.parse_merge_ms", "ms"),
    ("frontend.bytes_per_s", "B/s"),
    ("ir.parse_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("ir.print_ms", "ms"),
    ("passes.run_ms", "ms"),
    ("passes.analysis_hit_ratio", "ratio"),
    ("driver.roll_ms", "ms"),
    ("driver.cache_hits", "count"),
    ("driver.store_hit_ratio", "ratio"),
    ("serve.handle_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.errors", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("check.wall_ms", "ms"),
    ("check.ops", "count"),
    ("check.failed", "count"),
];

fn assert_declared(table: &[(&str, &str)], name: &str) {
    assert!(
        table.iter().any(|(n, _)| *n == name),
        "metric {name} is not declared"
    );
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked (functions, or requests on `serve-replay`).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Digest of every output text.
    pub digest: Option<Digest>,
    /// End-to-end values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Timing summaries for the human-readable report, `(name, unit)`.
    pub timings: Vec<(&'static str, &'static str, Summary)>,
    /// Per-round values behind a median, for the human-readable report.
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Base figures of ratios, for the human-readable report.
    pub bases: Vec<String>,
}

impl Outcome {
    /// Records a failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert_declared(&END_TO_END, name);
        self.end_to_end.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert_declared(&PER_LAYER, name);
        self.layers.insert(name, value);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable report of one workload.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {workload}");
        let (table, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        for (name, unit) in table {
            let _ = writeln!(out, "  {name:<28} {:>14.4} {unit}", values[name]);
        }
        for (name, unit, s) in &self.timings {
            let _ = writeln!(out, "  timing {name:<21} {} ({unit})", s.describe());
        }
        for (name, values) in &self.series {
            let cells: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
            let _ = writeln!(out, "  series {name:<21} {}", cells.join(" "));
        }
        for base in &self.bases {
            let _ = writeln!(out, "  base   {base}");
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>14.4} ratio (base: {} of {} operations failed)",
            "failed_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        if let Some(d) = self.digest {
            let _ = writeln!(out, "  output digest {:016x}", d.0);
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED {f}");
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the end-to-end (untraced) or per-layer (traced)
    /// metrics.
    pub fn json(&self, traced: bool) -> String {
        let (table, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                debug_assert!(valid_metric_name(name), "{name}");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(values[name])
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values (never expected) become `0`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_serve::json::{parse, Json};

    #[test]
    fn declared_names_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} is not an array");
            };
            let declared: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(declared, table.to_vec(), "{key} differs from report.rs");
        }
    }

    #[test]
    fn result_line_has_every_metric_with_all_digits() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.e2e(name, 1.0 / 3.0);
        }
        let line = o.json(false);
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let m = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let entry = m.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert!(line.contains("0.3333333333333333"));
    }
}
