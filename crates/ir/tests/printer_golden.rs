//! Byte-identity tests for the textual IR printer.
//!
//! `golden/printer_fixture.expected` holds the exact text printed for
//! `golden/printer_fixture.rir` plus a few programmatically built pieces
//! the parser cannot spell (function types, a use of a void result). The
//! workspace-level `tests/printer_round_trip.rs` sweeps
//! `print(parse(print(m))) == print(m)` over larger corpora.

use std::path::{Path, PathBuf};

use rolag_ir::builder::FuncBuilder;
use rolag_ir::module::{GlobalData, GlobalInit, Module};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::{print_function, print_global, print_module};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The parsed fixture plus the pieces only the API can build: globals of
/// function type (bare and inside an aggregate) and an operand naming a
/// void result, which prints in the `%?N` spelling.
fn fixture_module() -> Module {
    let text = std::fs::read_to_string(golden_dir().join("printer_fixture.rir")).unwrap();
    let mut m = parse_module(&text).unwrap_or_else(|e| panic!("fixture parses: {e:?}"));
    let (void, ptr, i32t) = (m.types.void(), m.types.ptr(), m.types.i32());
    let fn_ty = m.types.func(void, vec![ptr, i32t]);
    let thunk = m.types.func(i32t, vec![]);
    let ptrs = m.types.array(ptr, 2);
    let agg = m.types.struct_(vec![thunk, ptrs]);
    for (name, ty, is_const) in [("fnty", fn_ty, false), ("fnagg", agg, true)] {
        m.add_global(GlobalData {
            name: name.into(),
            ty,
            init: GlobalInit::Zero,
            is_const,
        });
    }
    let mut fb = FuncBuilder::new(&mut m, "void_use", vec![ptr], void);
    let p = fb.param(0);
    fb.block("entry");
    let (sink, sink_ret) = fb.callee("sink");
    fb.ins(|b| {
        let zero = b.i32_const(0);
        let r = b.call(sink, sink_ret, &[p, zero]);
        b.store(r, p);
        b.ret(None);
    });
    fb.finish();
    m
}

#[test]
fn printer_matches_golden_text() {
    let m = fixture_module();
    let expected = std::fs::read_to_string(golden_dir().join("printer_fixture.expected")).unwrap();
    let printed = print_module(&m);
    if printed != expected {
        let line = printed
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| printed.lines().count().min(expected.lines().count()));
        panic!(
            "printer output differs from the golden at line {}:\n  got:      {:?}\n  expected: {:?}",
            line + 1,
            printed.lines().nth(line),
            expected.lines().nth(line)
        );
    }
}

#[test]
fn module_text_is_the_parts_concatenated() {
    let m = fixture_module();
    let printed = print_module(&m);
    let mut parts = format!("{}\n", printed.lines().next().unwrap());
    for g in m.global_ids() {
        parts.push_str(&print_global(&m, g));
        parts.push('\n');
    }
    for f in m.func_ids() {
        parts.push('\n');
        parts.push_str(&print_function(&m, m.func(f)));
    }
    assert_eq!(printed, parts);
}

#[test]
fn parsed_fixture_round_trips() {
    let text = std::fs::read_to_string(golden_dir().join("printer_fixture.rir")).unwrap();
    let printed = print_module(&parse_module(&text).unwrap());
    let reparsed = parse_module(&printed).unwrap_or_else(|e| panic!("printed text parses: {e:?}"));
    assert_eq!(print_module(&reparsed), printed);
}
