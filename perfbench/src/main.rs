//! perfbench — the repository's one seeded, layer-attributed benchmark.
//!
//! ```text
//! perfbench --workload <angha-corpus|tsvc-search|serve-replay|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed during set-up, measures
//! for `--seconds`, checks every output, and prints a human-readable
//! report followed by one JSON result line (the last line of stdout).
//! `--trace 0` reports the end-to-end metrics; `--trace 1` adds a traced
//! phase after the untraced one, reports the per-layer metrics, and
//! writes the spans as Chrome trace-event JSON under `perfbench/out/`.
//! `--workload all` runs each workload in its own child process and
//! prints one row per workload. See `README.md` for every metric.

mod angha;
mod check;
mod openloop;
mod report;
mod serve;
mod stats;
mod trace;
mod tsvc;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Outcome, END_TO_END, PER_LAYER};
use workload::Config;

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["angha-corpus", "tsvc-search", "serve-replay"];

struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?} or all)"
        ));
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        },
    })
}

fn run_one(workload: &str, cfg: &Config) -> Outcome {
    let (mut out, tracer) = match workload {
        "angha-corpus" => angha::run(cfg),
        "tsvc-search" => tsvc::run(cfg),
        "serve-replay" => serve::run(cfg),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    for (name, _) in PER_LAYER {
        out.layers.entry(name).or_insert(0.0);
    }
    if let Some(tracer) = tracer {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{workload}-{}.json", cfg.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
        {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }
    out
}

/// Runs every workload in a child process and prints one row each.
fn run_all(args: &[String], cfg: &Config) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (table, unit_row): (&[(&str, &str)], _) = if cfg.trace {
        (&PER_LAYER, "per-layer")
    } else {
        (&END_TO_END, "end-to-end")
    };
    let mut rows = Vec::new();
    let mut total = Outcome::default();
    for w in WORKLOADS {
        let mut child_args: Vec<String> = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload given")
            + 1;
        child_args[at] = w.to_string();
        let output = Command::new(&exe)
            .args(&child_args)
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let doc =
            rolag_serve::json::parse(last).map_err(|e| format!("{w}: no result line: {e}"))?;
        let num = |v: Option<&rolag_serve::json::Json>| v.and_then(|v| v.as_num()).unwrap_or(0.0);
        total.attempted += num(doc.get("attempted")) as u64;
        total.failed += num(doc.get("failed")) as u64;
        let metrics = doc.get("metrics");
        let values: Vec<f64> = table
            .iter()
            .map(|(name, _)| {
                num(metrics
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value")))
            })
            .collect();
        rows.push((w, num(doc.get("failed")), num(doc.get("attempted")), values));
    }
    println!(
        "\n{unit_row} metrics, one row per workload (seed {}, {} s):",
        cfg.seed, cfg.seconds
    );
    for (j, (name, unit)) in table.iter().enumerate() {
        let cells: Vec<String> = rows
            .iter()
            .map(|(w, _, _, v)| format!("{w}={:.4}", v[j]))
            .collect();
        println!("  {name:<28} [{unit}] {}", cells.join("  "));
    }
    for (w, failed, attempted, _) in &rows {
        println!(
            "  failed_ratio {w}: {:.4} (base: {failed} of {attempted} operations)",
            failed / attempted.max(1.0)
        );
    }
    Ok(total)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.workload == "all" {
        match run_all(&argv, &args.cfg) {
            Ok(total) => {
                println!(
                    "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
                    total.correct(),
                    total.attempted,
                    total.failed
                );
                return if total.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_one(&args.workload, &args.cfg)
    };
    print!("{}", out.render(&args.workload, args.cfg.trace));
    println!("{}", out.json(args.cfg.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload tsvc-search --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "tsvc-search");
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (7, 2.5, true));
        for bad in [
            "--workload nope --seed 1",
            "--workload all",
            "--workload all --seed 1 --trace 2",
            "--workload all --seed 1 --seconds 0",
            "--workload all --seed x",
            "--workload all --seed 1 --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
