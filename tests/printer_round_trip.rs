//! `print(parse(print(m))) == print(m)` over the checked-in modules, the
//! unrolled TSVC kernels and an AnghaBench-like sample, each before and
//! after greedy rolling (rolled code adds phis, exit blocks and interned
//! constant arrays). The exact spelling is pinned separately by the
//! printer golden in `crates/ir/tests/printer_golden.rs`.

use std::path::{Path, PathBuf};

use rolag::{roll_module, RolagOptions};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::Module;
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

fn assert_round_trips(label: &str, m: &Module) {
    let printed = print_module(m);
    let reparsed =
        parse_module(&printed).unwrap_or_else(|e| panic!("{label}: printed text parses: {e:?}"));
    assert_eq!(
        print_module(&reparsed),
        printed,
        "{label}: print(parse(print(m))) differs"
    );
}

/// Checks `m` and its greedily rolled form.
fn assert_round_trips_rolled(label: &str, m: &Module) {
    assert_round_trips(label, m);
    let mut rolled = m.clone();
    roll_module(&mut rolled, &RolagOptions::default());
    assert_round_trips(&format!("{label} (rolled)"), &rolled);
}

fn rir_files(dir: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rir"))
        .collect();
    files.sort();
    files
}

#[test]
fn checked_in_modules_round_trip() {
    let mut checked = 0;
    for dir in ["tests/repros", "tests/lit", "examples/ir"] {
        for path in rir_files(dir) {
            let text = std::fs::read_to_string(&path).unwrap();
            let m = parse_module(&text).unwrap();
            assert_round_trips_rolled(&path.display().to_string(), &m);
            checked += 1;
        }
    }
    assert!(checked >= 20, "only {checked} checked-in modules found");
}

#[test]
fn unrolled_tsvc_round_trips() {
    for spec in all_kernels() {
        let mut m = build_kernel_module(&spec);
        unroll_module(&mut m, 8);
        cse_module(&mut m);
        cleanup_module(&mut m);
        assert_round_trips_rolled(&format!("tsvc.{}", spec.name), &m);
    }
}

#[test]
fn angha_sample_round_trips() {
    let config = AnghaConfig {
        functions: 50,
        ..AnghaConfig::default()
    };
    for (name, _, m) in stream(&config) {
        assert_round_trips_rolled(&name, &m);
    }
}
