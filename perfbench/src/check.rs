//! Output checks: bitwise behaviour comparison under the interpreter and
//! the output digest.
//!
//! The comparison is deliberately not `interp::equivalent` /
//! `check_equivalence`: those compare `IValue`s with `==`, which equates
//! `-0.0` with `0.0` and never equates a NaN with itself. Here every
//! float is compared by its bits.

use rolag_ir::interp::{CallEvent, ExecError, IValue, Interpreter, Outcome};
use rolag_ir::Module;
use rolag_prng::{ChaCha8Rng, Rng, RngCore, SeedableRng};

/// Bytes of the seeded buffer each pointer parameter points at.
const BUF_BYTES: u64 = 4096;

/// Dynamic-instruction budget per interpreted call.
const MAX_STEPS: u64 = 20_000_000;

/// FNV-1a over every output text, in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `text` (and a separator) into the digest.
    pub fn add(&mut self, text: &str) {
        for b in text.bytes().chain([0xff]) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Dynamic instruction counts of one entry point before and after.
#[derive(Debug, Clone, Copy)]
pub struct Steps {
    /// Steps of the original.
    pub before: u64,
    /// Steps of the rolled code.
    pub after: u64,
}

impl Steps {
    /// after / before; `1.0` when the original did not run to completion.
    pub fn ratio(&self) -> f64 {
        if self.before == 0 {
            1.0
        } else {
            self.after as f64 / self.before as f64
        }
    }
}

fn bits(v: IValue) -> (u8, u64) {
    match v {
        IValue::Int(i) => (0, i as u64),
        IValue::Float(f) => (1, f.to_bits()),
        IValue::Ptr(p) => (2, p),
        IValue::Unit => (3, 0),
    }
}

fn event_bits(e: &CallEvent) -> (&str, Vec<(u8, u64)>, (u8, u64)) {
    (
        &e.callee,
        e.args.iter().map(|&a| bits(a)).collect(),
        bits(e.result),
    )
}

/// An interpreter over `module` with every pointer parameter of `entry`
/// bound to a seeded [`BUF_BYTES`] buffer at address `base`.
fn prepared<'m>(module: &'m Module, base: u64, buffers: &[Vec<u8>]) -> Interpreter<'m> {
    let mut it = Interpreter::new(module).with_max_steps(MAX_STEPS);
    let pad = base - it.mem.size();
    it.mem.alloc(pad, 1).expect("padding below the buffer base");
    for buf in buffers {
        let at = it.mem.alloc(BUF_BYTES, 16).expect("argument buffer");
        it.mem.write_bytes(at, buf).expect("argument buffer init");
    }
    it
}

/// Runs `entry` in `original` and `rolled` on identical seeded arguments
/// and compares the return-value bits, every external call (callee,
/// argument bits, result bits), the final bytes of every global of the
/// original, and the final bytes of every argument buffer.
///
/// Both runs trapping with the same class counts as agreement, with no
/// step counts (`before == 0`).
pub fn compare(
    original: &Module,
    rolled: &Module,
    entry: &str,
    seed: u64,
) -> Result<Steps, String> {
    let id = original
        .func_by_name(entry)
        .ok_or_else(|| format!("@{entry} missing from the original"))?;
    if rolled.func_by_name(entry).is_none() {
        return Err(format!("@{entry} missing from the output"));
    }
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in entry.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(h);

    // Buffers live above both modules' globals, at the same address in
    // each, so pointer values agree bit for bit.
    let probe = |m| Interpreter::new(m).mem.size();
    let base = (probe(original).max(probe(rolled)) + 4095) & !4095;
    let mut buffers = Vec::new();
    let mut args = Vec::new();
    for &ty in original.func(id).param_tys() {
        let v = if original.types.is_ptr(ty) {
            let addr = base + BUF_BYTES * buffers.len() as u64;
            buffers.push(
                (0..BUF_BYTES)
                    .map(|_| rng.next_u32() as u8)
                    .collect::<Vec<u8>>(),
            );
            IValue::Ptr(addr)
        } else if original.types.is_float(ty) {
            IValue::Float(rng.gen_range(-4096i64..4096) as f64 / 64.0)
        } else {
            IValue::Int(rng.gen_range(0i64..16))
        };
        args.push(v);
    }

    let mut ia = prepared(original, base, &buffers);
    let mut ib = prepared(rolled, base, &buffers);
    let ra = ia.run(entry, &args);
    let rb = ib.run(entry, &args);
    let (oa, ob): (Outcome, Outcome) = match (ra, rb) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(a), Err(b)) if same_trap(&a, &b) => {
            return Ok(Steps {
                before: 0,
                after: 0,
            })
        }
        (a, b) => {
            return Err(format!(
                "@{entry}: outcomes differ: {:?} vs {:?}",
                a.map(|o| o.ret),
                b.map(|o| o.ret)
            ))
        }
    };
    if bits(oa.ret) != bits(ob.ret) {
        return Err(format!(
            "@{entry}: return bits differ: {:?} vs {:?}",
            oa.ret, ob.ret
        ));
    }
    let ta: Vec<_> = oa.trace.iter().map(event_bits).collect();
    let tb: Vec<_> = ob.trace.iter().map(event_bits).collect();
    if ta != tb {
        return Err(format!("@{entry}: external-call traces differ"));
    }
    for g in original.global_ids() {
        let name = &original.global(g).name;
        let g2 = rolled
            .global_by_name(name)
            .ok_or_else(|| format!("@{entry}: global @{name} disappeared"))?;
        let size = original.global_size(g);
        let a = ia
            .mem
            .read_bytes(ia.global_addr(g), size)
            .map_err(|e| e.to_string())?;
        let b = ib
            .mem
            .read_bytes(ib.global_addr(g2), size)
            .map_err(|e| e.to_string())?;
        if a != b {
            return Err(format!("@{entry}: final bytes of @{name} differ"));
        }
    }
    for k in 0..buffers.len() as u64 {
        let at = base + BUF_BYTES * k;
        if ia.mem.read_bytes(at, BUF_BYTES).ok() != ib.mem.read_bytes(at, BUF_BYTES).ok() {
            return Err(format!(
                "@{entry}: final bytes of argument buffer {k} differ"
            ));
        }
    }
    Ok(Steps {
        before: oa.steps,
        after: ob.steps,
    })
}

fn same_trap(a: &ExecError, b: &ExecError) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// The definitions of `module`, by name, in id order.
pub fn defined_functions(module: &Module) -> Vec<String> {
    module
        .func_ids()
        .filter(|&id| !module.func(id).is_declaration)
        .map(|id| module.func(id).name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    const SUM: &str = r#"
module "m"
global @g : [2 x i32] = zero
func @f(ptr %p0, i32 %p1) -> double {
entry:
  %1 = load i32, %p0
  %2 = add i32 %1, %p1
  %3 = gep i32, @g, i64 1
  store %2, %3
  ret double 0.0
}
"#;

    #[test]
    fn identical_modules_agree_and_count_steps() {
        let m = parse_module(SUM).unwrap();
        let s = compare(&m, &m.clone(), "f", 3).unwrap();
        assert!(s.before > 0 && s.before == s.after);
        assert_eq!(s.ratio(), 1.0);
    }

    #[test]
    fn negative_zero_is_a_difference() {
        let a = parse_module(SUM).unwrap();
        let b = parse_module(&SUM.replace("ret double 0.0", "ret double -0.0")).unwrap();
        let err = compare(&a, &b, "f", 3).unwrap_err();
        assert!(err.contains("return bits"), "{err}");
    }

    #[test]
    fn global_bytes_are_compared() {
        let a = parse_module(SUM).unwrap();
        let b = parse_module(&SUM.replace("i64 1", "i64 0")).unwrap();
        let err = compare(&a, &b, "f", 3).unwrap_err();
        assert!(err.contains("@g"), "{err}");
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add("x");
        a.add("y");
        b.add("y");
        b.add("x");
        assert_ne!(a, b);
    }
}
