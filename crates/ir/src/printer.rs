//! Textual IR printer.
//!
//! The format round-trips through the parser in [`crate::parser`]. Example:
//!
//! ```text
//! module "demo"
//!
//! global @tab : [3 x i32] = ints i32 [1, 2, 3]
//! declare @ext(ptr) -> void readwrite
//!
//! func @f(i32 %p0, ptr %p1) -> i32 {
//! entry:
//!   %2 = add i32 %p0, i32 1
//!   store %2, %p1
//!   ret %2
//! }
//! ```
//!
//! Instruction results are numbered sequentially per function (parameters
//! first), so printing is stable across parse/print round trips.

use std::fmt::Write as _;

use crate::function::Function;
use crate::inst::{InstExtra, InstId, Opcode};
use crate::module::{GlobalInit, Module};
use crate::parser::is_plain_symbol;
use crate::types::{TypeId, TypeKind, TypeStore};
use crate::value::{ValueDef, ValueId};

// Every renderer below appends to one caller-owned `String`; `write!` into
// a `String` cannot fail, so its `fmt::Result` is dropped.

/// Appends `s` escaped for a double-quoted literal, inverting the lexer's
/// escape decoding.
fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\0' => out.push_str("\\0"),
            c if (c as u32) < 0x20 || c as u32 == 0x7f => {
                let _ = write!(out, "\\x{:02x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends a symbol name for use after `@`/`%`: bare when it is a plain
/// identifier, quoted (with escapes) otherwise.
fn write_sym(out: &mut String, name: &str) {
    if is_plain_symbol(name) {
        out.push_str(name);
    } else {
        out.push('"');
        write_escaped(out, name);
        out.push('"');
    }
}

/// Appends a float constant from its bit pattern. Finite values use the
/// shortest decimal that round-trips; non-finite values (infinities, NaNs
/// with payloads) use a bit-exact `0x...` spelling the parser understands.
fn write_float(out: &mut String, bits: u64) {
    let value = f64::from_bits(bits);
    if value.is_finite() {
        // `{:?}` keeps a trailing `.0` so the parser can tell floats from
        // ints, and prints the shortest decimal that parses back to the
        // same bits.
        let _ = write!(out, "{value:?}");
    } else {
        let _ = write!(out, "0x{bits:016x}");
    }
}

/// Appends `id` as IR text (e.g. `i32`, `[4 x i32]`); the one type
/// renderer, behind both the printer and [`TypeStore::display`].
pub(crate) fn write_ty(out: &mut String, types: &TypeStore, id: TypeId) {
    match types.kind(id) {
        TypeKind::Void => out.push_str("void"),
        TypeKind::Int(w) => {
            let _ = write!(out, "i{w}");
        }
        TypeKind::Float => out.push_str("float"),
        TypeKind::Double => out.push_str("double"),
        TypeKind::Ptr => out.push_str("ptr"),
        TypeKind::Array { elem, len } => {
            let _ = write!(out, "[{len} x ");
            write_ty(out, types, *elem);
            out.push(']');
        }
        TypeKind::Struct { fields } => {
            out.push_str("{ ");
            write_list(out, fields, |out, &f| write_ty(out, types, f));
            out.push_str(" }");
        }
        TypeKind::Func { ret, params } => {
            out.push_str("fn(");
            write_list(out, params, |out, &p| write_ty(out, types, p));
            out.push_str(") -> ");
            write_ty(out, types, *ret);
        }
    }
}

/// Appends `items` rendered by `item`, separated by `, `.
fn write_list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    for (k, x) in items.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        item(out, x);
    }
}

/// Prints a whole module as parseable IR text.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    out.push_str("module \"");
    write_escaped(&mut out, &module.name);
    out.push_str("\"\n");
    for g in module.global_ids() {
        write_global(&mut out, module, g);
        out.push('\n');
    }
    for f in module.func_ids() {
        out.push('\n');
        write_function(&mut out, module, module.func(f));
    }
    out
}

/// Prints one global definition as a single parseable IR line (no trailing
/// newline). Stable by construction — cache keys content-address globals
/// through this rendering.
pub fn print_global(module: &Module, g: crate::GlobalId) -> String {
    let mut out = String::new();
    write_global(&mut out, module, g);
    out
}

fn write_global(out: &mut String, module: &Module, g: crate::GlobalId) {
    let data = module.global(g);
    out.push_str(if data.is_const { "const @" } else { "global @" });
    write_sym(out, &data.name);
    out.push_str(" : ");
    write_ty(out, &module.types, data.ty);
    out.push_str(" = ");
    match &data.init {
        GlobalInit::Zero => out.push_str("zero"),
        GlobalInit::Ints { elem_ty, values } => {
            out.push_str("ints ");
            write_ty(out, &module.types, *elem_ty);
            out.push_str(" [");
            write_list(out, values, |out, v| {
                let _ = write!(out, "{v}");
            });
            out.push(']');
        }
        GlobalInit::Bytes(bytes) => {
            out.push_str("bytes [");
            write_list(out, bytes, |out, b| {
                let _ = write!(out, "{b}");
            });
            out.push(']');
        }
    }
}

/// Prints one function (or declaration) as parseable IR text.
pub fn print_function(module: &Module, func: &Function) -> String {
    let mut out = String::new();
    write_function(&mut out, module, func);
    out
}

fn write_function(out: &mut String, module: &Module, func: &Function) {
    let types = &module.types;
    out.push_str(if func.is_declaration {
        "declare @"
    } else {
        "func @"
    });
    write_sym(out, &func.name);
    out.push('(');
    for (i, &ty) in func.param_tys().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_ty(out, types, ty);
        let _ = write!(out, " %p{i}");
    }
    out.push_str(") -> ");
    write_ty(out, types, func.ret_ty);
    if func.is_declaration {
        out.push(' ');
        out.push_str(func.effects.mnemonic());
        out.push('\n');
        return;
    }
    out.push_str(" {\n");
    let names = Names::new(types, func);
    for b in func.block_ids() {
        out.push_str(&func.block(b).name);
        out.push_str(":\n");
        for &i in &func.block(b).insts {
            out.push_str("  ");
            write_inst(out, module, func, &names, i);
            out.push('\n');
        }
    }
    out.push_str("}\n");
}

/// Sequential value numbering, dense over the function's value arena:
/// parameters take `0..n` (printed `%pK`), non-void instruction results
/// follow in block order (printed `%K`).
struct Names {
    seq: Vec<u32>,
    params: u32,
}

impl Names {
    const UNNAMED: u32 = u32::MAX;

    fn new(types: &TypeStore, func: &Function) -> Names {
        let mut seq = vec![Self::UNNAMED; func.num_values()];
        for (k, &p) in func.params().iter().enumerate() {
            seq[p.index()] = k as u32;
        }
        let mut next = func.params().len() as u32;
        for b in func.block_ids() {
            for &i in &func.block(b).insts {
                if !matches!(types.kind(func.inst(i).ty), TypeKind::Void) {
                    seq[func.inst_result(i).index()] = next;
                    next += 1;
                }
            }
        }
        Names {
            seq,
            params: func.params().len() as u32,
        }
    }

    /// Appends `v`'s name; returns false, appending nothing, when `v` has
    /// none (a void result, or an instruction outside every block).
    fn write(&self, out: &mut String, v: ValueId) -> bool {
        let k = self.seq[v.index()];
        if k == Self::UNNAMED {
            return false;
        }
        let _ = if k < self.params {
            write!(out, "%p{k}")
        } else {
            write!(out, "%{k}")
        };
        true
    }
}

fn write_operand(out: &mut String, module: &Module, func: &Function, names: &Names, v: ValueId) {
    let types = &module.types;
    match func.value(v) {
        ValueDef::Inst(_) | ValueDef::Param { .. } => {
            if !names.write(out, v) {
                let _ = write!(out, "%?{}", v.index());
            }
        }
        ValueDef::ConstInt { ty, value } => {
            write_ty(out, types, *ty);
            let _ = write!(out, " {value}");
        }
        ValueDef::ConstFloat { ty, bits } => {
            write_ty(out, types, *ty);
            out.push(' ');
            write_float(out, *bits);
        }
        ValueDef::GlobalAddr(g) => {
            out.push('@');
            write_sym(out, &module.global(*g).name);
        }
        ValueDef::FuncAddr(f) => {
            out.push('@');
            write_sym(out, &module.func(*f).name);
        }
        ValueDef::Undef(ty) => {
            write_ty(out, types, *ty);
            out.push_str(" undef");
        }
    }
}

/// Appends one instruction (without trailing newline).
fn write_inst(out: &mut String, module: &Module, func: &Function, names: &Names, inst: InstId) {
    let types = &module.types;
    let data = func.inst(inst);
    let ops = &data.operands;
    let op = |out: &mut String, v: ValueId| write_operand(out, module, func, names, v);
    let list = |out: &mut String, vs: &[ValueId]| write_list(out, vs, |out, &v| op(out, v));
    let block_name = |b: crate::BlockId| func.block(b).name.as_str();
    if names.write(out, func.inst_result(inst)) {
        out.push_str(" = ");
    }
    // `mnemonic ty ` — the shape shared by calls, phis, selects, casts and
    // binary operators.
    let head = |out: &mut String, mnemonic: &str, ty: TypeId| {
        out.push_str(mnemonic);
        out.push(' ');
        write_ty(out, types, ty);
        out.push(' ');
    };
    match (&data.opcode, &data.extra) {
        (Opcode::Icmp, InstExtra::Icmp(p)) => {
            let _ = write!(out, "icmp {} ", p.mnemonic());
            list(out, &ops[..2]);
        }
        (Opcode::Fcmp, InstExtra::Fcmp(p)) => {
            let _ = write!(out, "fcmp {} ", p.mnemonic());
            list(out, &ops[..2]);
        }
        (Opcode::Gep, InstExtra::Gep { elem_ty }) => {
            out.push_str("gep ");
            write_ty(out, types, *elem_ty);
            out.push_str(", ");
            op(out, ops[0]);
            out.push_str(", ");
            list(out, &ops[1..]);
        }
        (Opcode::Call, InstExtra::Call { callee }) => {
            head(out, "call", data.ty);
            out.push('@');
            write_sym(out, &module.func(*callee).name);
            out.push('(');
            list(out, ops);
            out.push(')');
        }
        (Opcode::Phi, InstExtra::Phi { incoming }) => {
            head(out, "phi", data.ty);
            for (k, (&v, &b)) in ops.iter().zip(incoming).enumerate() {
                out.push_str(if k > 0 { ", [ " } else { "[ " });
                op(out, v);
                out.push_str(", ");
                out.push_str(block_name(b));
                out.push_str(" ]");
            }
        }
        (Opcode::Br, InstExtra::Br { dest }) => {
            out.push_str("br ");
            out.push_str(block_name(*dest));
        }
        (
            Opcode::CondBr,
            InstExtra::CondBr {
                then_dest,
                else_dest,
            },
        ) => {
            out.push_str("condbr ");
            op(out, ops[0]);
            for dest in [then_dest, else_dest] {
                out.push_str(", ");
                out.push_str(block_name(*dest));
            }
        }
        (Opcode::Alloca, InstExtra::Alloca { elem_ty }) => {
            out.push_str("alloca ");
            write_ty(out, types, *elem_ty);
            if let Some(&count) = ops.first() {
                out.push_str(", ");
                op(out, count);
            }
        }
        (Opcode::Load, _) => {
            out.push_str("load ");
            write_ty(out, types, data.ty);
            out.push_str(", ");
            op(out, ops[0]);
        }
        (Opcode::Store, _) => {
            out.push_str("store ");
            list(out, &ops[..2]);
        }
        (Opcode::Select, _) => {
            head(out, "select", data.ty);
            list(out, &ops[..3]);
        }
        (Opcode::Ret, _) => {
            out.push_str("ret");
            if let Some(&v) = ops.first() {
                out.push(' ');
                op(out, v);
            }
        }
        (Opcode::Unreachable, _) => out.push_str("unreachable"),
        (opcode, _) if opcode.is_cast() => {
            head(out, opcode.mnemonic(), data.ty);
            op(out, ops[0]);
        }
        (opcode, _) if opcode.is_binop() => {
            head(out, opcode.mnemonic(), data.ty);
            list(out, &ops[..2]);
        }
        (opcode, extra) => panic!("cannot print {opcode:?} with extra {extra:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::function::Effects;
    use crate::inst::IntPredicate;

    #[test]
    fn print_simple_module() {
        let mut m = Module::new("demo");
        let i32t = m.types.i32();
        let ptr = m.types.ptr();
        let void = m.types.void();
        m.declare_func("ext", vec![ptr], void, Effects::ReadWrite);
        let mut fb = FuncBuilder::new(&mut m, "f", vec![i32t, ptr], i32t);
        let a = fb.param(0);
        let p = fb.param(1);
        fb.block("entry");
        let (ext, ext_ret) = fb.callee("ext");
        fb.ins(|b| {
            let one = b.i32_const(1);
            let s = b.add(a, one);
            let g = b.gep(b.types.i32(), p, &[s]);
            b.store(s, g);
            b.call(ext, ext_ret, &[p]);
            let c = b.icmp(IntPredicate::Slt, s, a);
            let sel = b.select(c, s, a);
            b.ret(Some(sel));
        });
        fb.finish();
        let text = print_module(&m);
        assert!(text.contains("module \"demo\""));
        assert!(text.contains("declare @ext(ptr %p0) -> void readwrite"));
        assert!(text.contains("%2 = add i32 %p0, i32 1"));
        assert!(text.contains("%3 = gep i32, %p1, %2"));
        assert!(text.contains("store %2, %3"));
        assert!(text.contains("call void @ext(%p1)"));
        assert!(text.contains("%4 = icmp slt %2, %p0"));
        assert!(text.contains("%5 = select i32 %4, %2, %p0"));
        assert!(text.contains("ret %5"));
    }

    #[test]
    fn print_globals() {
        let mut m = Module::new("g");
        let arr = m.types.array(m.types.i32(), 3);
        m.add_global(crate::module::GlobalData {
            name: "tab".into(),
            ty: arr,
            init: GlobalInit::Ints {
                elem_ty: m.types.i32(),
                values: vec![1, 2, 3],
            },
            is_const: true,
        });
        let text = print_module(&m);
        assert!(text.contains("const @tab : [3 x i32] = ints i32 [1, 2, 3]"));
    }

    #[test]
    fn print_float_constants_distinctly() {
        let mut m = Module::new("f");
        let d = m.types.double();
        let mut fb = FuncBuilder::new(&mut m, "f", vec![], d);
        fb.block("entry");
        fb.ins(|b| {
            let c = b.fconst(b.types.double(), 2.0);
            let x = b.fadd(c, c);
            b.ret(Some(x));
        });
        fb.finish();
        let text = print_module(&m);
        assert!(text.contains("fadd double double 2.0, double 2.0"));
    }
}
