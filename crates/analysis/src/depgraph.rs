//! Block-level dependence information.
//!
//! For a single basic block this computes, per instruction position, its
//! transitive intra-block SSA dependences and the memory operations it must
//! keep its order with, each as a [`PosSet`]. This is the foundation of the
//! loop-rolling scheduling analysis (§IV-D).

use std::collections::HashMap;

use rolag_ir::{BlockId, Effects, Function, InstExtra, InstId, Module, Opcode, ValueDef, ValueId};

use crate::alias::{may_alias_resolved, resolve_pointer, PtrInfo};

/// Memory behaviour of one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemAccess {
    /// Reads memory.
    pub reads: bool,
    /// Writes memory.
    pub writes: bool,
    /// Accessed location `(pointer, size)`; `None` means "unknown /
    /// the whole world" (e.g. an external call).
    pub loc: Option<(ValueId, u64)>,
}

/// Summarizes how `inst` touches memory (`None` = does not touch memory).
pub fn mem_access(module: &Module, func: &Function, inst: InstId) -> Option<MemAccess> {
    let data = func.inst(inst);
    match data.opcode {
        Opcode::Load => Some(MemAccess {
            reads: true,
            writes: false,
            loc: Some((data.operands[0], module.types.size_of(data.ty))),
        }),
        Opcode::Store => {
            let vty = func.value_ty(data.operands[0], &module.types);
            Some(MemAccess {
                reads: false,
                writes: true,
                loc: Some((data.operands[1], module.types.size_of(vty))),
            })
        }
        Opcode::Call => {
            let InstExtra::Call { callee } = &data.extra else {
                return None;
            };
            match module.func(*callee).effects {
                Effects::ReadNone => None,
                Effects::ReadOnly => Some(MemAccess {
                    reads: true,
                    writes: false,
                    loc: None,
                }),
                Effects::ReadWrite => Some(MemAccess {
                    reads: true,
                    writes: true,
                    loc: None,
                }),
            }
        }
        _ => None,
    }
}

/// A memory access with its pointer already traced to a base object, so
/// pairwise conflict tests do not re-walk `gep` chains.
#[derive(Debug, Clone, Copy)]
struct ResolvedAccess {
    writes: bool,
    /// Resolved footprint; `None` = the whole world.
    loc: Option<(PtrInfo, u64)>,
}

impl ResolvedAccess {
    fn new(module: &Module, func: &Function, access: MemAccess) -> Self {
        ResolvedAccess {
            writes: access.writes,
            loc: access
                .loc
                .map(|(ptr, size)| (resolve_pointer(module, func, ptr), size)),
        }
    }

    /// Do the two accesses conflict (at least one writes, and their
    /// footprints may overlap)? Conflicting pairs keep their program order.
    fn conflicts_with(&self, other: &ResolvedAccess) -> bool {
        if !(self.writes || other.writes) {
            return false;
        }
        match (&self.loc, &other.loc) {
            (Some((pa, sa)), Some((pb, sb))) => may_alias_resolved(pa, *sa, pb, *sb),
            _ => true, // unknown footprint conflicts with everything
        }
    }
}

/// Compact bit set over instruction positions.
#[derive(Debug, Clone, PartialEq)]
pub struct PosSet {
    words: Vec<u64>,
}

impl PosSet {
    /// Empty set sized for `n` positions.
    pub fn new(n: usize) -> Self {
        PosSet {
            words: vec![0; n.div_ceil(64)],
        }
    }
    /// Inserts position `i`.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }
    /// In-place union; returns true if `self` changed.
    pub fn union_with(&mut self, other: &PosSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            if next != *a {
                *a = next;
                changed = true;
            }
        }
        changed
    }
    /// Does `self ∩ other` hold a position in `lo..hi`? Whole-word
    /// operations; an empty range (`lo >= hi`) never meets.
    pub fn meets_in(&self, other: &PosSet, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return false;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        (first..=last).any(|w| {
            let mut mask = !0u64;
            if w == first {
                mask &= !0 << (lo % 64);
            }
            if w == last {
                mask &= !0 >> (63 - (hi - 1) % 64);
            }
            self.words[w] & other.words[w] & mask != 0
        })
    }
    /// Does `self ∩ other` hold any position?
    pub fn meets(&self, other: &PosSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }
    /// Iterates set positions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(w * 64 + b)
            })
        })
    }
}

/// Dependence information for one basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDeps {
    /// Instructions in block order.
    pub insts: Vec<InstId>,
    pos: HashMap<InstId, usize>,
    /// `deps[i]` = positions that instruction `i` transitively depends on
    /// (SSA operands within the block, closed transitively).
    deps: Vec<PosSet>,
    /// `conflicts[i]` = positions of the memory operations that must keep
    /// their order relative to `i` (symmetric; empty for non-memory ops).
    conflicts: Vec<PosSet>,
}

impl BlockDeps {
    /// Computes dependences for `block` of `func`.
    pub fn compute(module: &Module, func: &Function, block: BlockId) -> Self {
        let insts: Vec<InstId> = func.block(block).insts.clone();
        let n = insts.len();
        let mut pos = HashMap::with_capacity(n);
        for (i, &inst) in insts.iter().enumerate() {
            pos.insert(inst, i);
        }
        // Map result value -> position for intra-block defs.
        let mut def_pos: HashMap<ValueId, usize> = HashMap::with_capacity(n);
        for (i, &inst) in insts.iter().enumerate() {
            def_pos.insert(func.inst_result(inst), i);
        }
        let mut deps: Vec<PosSet> = Vec::with_capacity(n);
        for (i, &inst) in insts.iter().enumerate() {
            let mut set = PosSet::new(n);
            for &op in &func.inst(inst).operands {
                if let ValueDef::Inst(_) = func.value(op) {
                    if let Some(&p) = def_pos.get(&op) {
                        if p < i {
                            set.insert(p);
                            // Transitive closure: defs are processed in
                            // order, so deps[p] is already complete.
                            set.union_with(&deps[p]);
                        }
                    }
                }
            }
            deps.push(set);
        }
        // Resolve each memory op's footprint once; the pairwise sweep then
        // compares resolved pointers only.
        let mem_ops: Vec<(usize, ResolvedAccess)> = (0..n)
            .filter_map(|i| {
                let access = mem_access(module, func, insts[i])?;
                Some((i, ResolvedAccess::new(module, func, access)))
            })
            .collect();
        let mut conflicts = vec![PosSet::new(n); n];
        for (k, (i, ai)) in mem_ops.iter().enumerate() {
            for (j, aj) in &mem_ops[k + 1..] {
                if ai.conflicts_with(aj) {
                    conflicts[*i].insert(*j);
                    conflicts[*j].insert(*i);
                }
            }
        }
        BlockDeps {
            insts,
            pos,
            deps,
            conflicts,
        }
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the block is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Position of `inst` within the block.
    pub fn position(&self, inst: InstId) -> Option<usize> {
        self.pos.get(&inst).copied()
    }

    /// Does the instruction at `later` transitively depend (via SSA) on the
    /// instruction at `earlier`?
    pub fn depends_on(&self, later: usize, earlier: usize) -> bool {
        self.deps[later].contains(earlier)
    }

    /// All `(earlier, later)` conflicting memory-op position pairs, sorted.
    pub fn mem_conflicts(&self) -> Vec<(usize, usize)> {
        self.conflicts
            .iter()
            .enumerate()
            .flat_map(|(i, set)| set.iter().filter(move |&j| j > i).map(move |j| (i, j)))
            .collect()
    }

    /// The transitive SSA dependence set of position `i`.
    pub fn dep_set(&self, i: usize) -> &PosSet {
        &self.deps[i]
    }

    /// The positions whose memory operations conflict with position `i`'s.
    pub fn conflict_set(&self, i: usize) -> &PosSet {
        &self.conflicts[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolag_ir::parser::parse_module;

    fn deps_of(text: &str) -> (Module, rolag_ir::FuncId, BlockDeps) {
        let m = parse_module(text).unwrap();
        let fid = m.func_by_name("f").unwrap();
        let func = m.func(fid);
        let d = BlockDeps::compute(&m, func, func.entry_block());
        (m, fid, d)
    }

    #[test]
    fn transitive_ssa_deps() {
        let (_m, _f, d) = deps_of(
            r#"
module "t"
func @f(i32 %p0) -> i32 {
entry:
  %1 = add i32 %p0, i32 1
  %2 = mul i32 %1, i32 2
  %3 = sub i32 %2, i32 3
  %4 = add i32 %p0, i32 9
  ret %3
}
"#,
        );
        assert!(d.depends_on(2, 0), "sub depends on add transitively");
        assert!(d.depends_on(2, 1));
        assert!(!d.depends_on(3, 0), "independent add has no deps");
        assert!(d.depends_on(4, 2), "ret depends on sub");
    }

    #[test]
    fn conflicting_stores_to_same_location() {
        let (_m, _f, d) = deps_of(
            r#"
module "t"
global @g : [4 x i32] = zero
func @f() -> void {
entry:
  %p = gep i32, @g, i32 0
  store i32 1, %p
  store i32 2, %p
  ret
}
"#,
        );
        assert_eq!(d.mem_conflicts(), &[(1, 2)]);
    }

    #[test]
    fn disjoint_stores_do_not_conflict() {
        let (_m, _f, d) = deps_of(
            r#"
module "t"
global @g : [4 x i32] = zero
func @f() -> void {
entry:
  %p0 = gep i32, @g, i32 0
  %p1 = gep i32, @g, i32 1
  store i32 1, %p0
  store i32 2, %p1
  ret
}
"#,
        );
        assert!(d.mem_conflicts().is_empty());
    }

    #[test]
    fn loads_conflict_with_overlapping_stores_only() {
        let (_m, _f, d) = deps_of(
            r#"
module "t"
global @g : [4 x i32] = zero
global @h : [4 x i32] = zero
func @f() -> i32 {
entry:
  %p0 = gep i32, @g, i32 2
  %q = gep i32, @h, i32 2
  store i32 1, %p0
  %v = load i32, %p0
  %w = load i32, %q
  %s = add i32 %v, %w
  ret %s
}
"#,
        );
        // store@2 conflicts with load@3 (same loc) but not load@4 (other
        // global); the two loads never conflict.
        assert_eq!(d.mem_conflicts(), &[(2, 3)]);
    }

    #[test]
    fn external_calls_conflict_with_everything() {
        let (_m, _f, d) = deps_of(
            r#"
module "t"
declare @ext() -> void readwrite
declare @pure(i32 %p0) -> i32 readnone
global @g : [4 x i32] = zero
func @f() -> void {
entry:
  %p = gep i32, @g, i32 0
  store i32 1, %p
  call void @ext()
  %v = call i32 @pure(i32 5)
  store %v, %p
  ret
}
"#,
        );
        // store@1 x call@2, call@2 x store@4, store@1 x store@4.
        let mut pairs = d.mem_conflicts().to_vec();
        pairs.sort();
        assert_eq!(pairs, vec![(1, 2), (1, 4), (2, 4)]);
    }

    #[test]
    fn pos_set_basics() {
        let mut s = PosSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        let collected: Vec<usize> = s.iter().collect();
        assert_eq!(collected, vec![0, 64, 129]);
        let mut t = PosSet::new(130);
        t.insert(5);
        assert!(t.union_with(&s));
        assert!(!t.union_with(&s));
        assert!(t.contains(0) && t.contains(5));
    }

    fn set_of(n: usize, positions: &[usize]) -> PosSet {
        let mut s = PosSet::new(n);
        for &p in positions {
            s.insert(p);
        }
        s
    }

    #[test]
    fn pos_set_iter_walks_word_edges() {
        let edges = [0, 63, 64, 127, 128];
        assert_eq!(set_of(200, &edges).iter().collect::<Vec<_>>(), edges);
        assert_eq!(PosSet::new(200).iter().count(), 0);
        let full: Vec<usize> = (0..130).collect();
        assert_eq!(set_of(130, &full).iter().collect::<Vec<_>>(), full);
    }

    #[test]
    fn pos_set_meets_in_respects_range_ends() {
        let all = set_of(200, &(0..200).collect::<Vec<_>>());
        for p in [0, 63, 64, 127, 128] {
            let s = set_of(200, &[p]);
            assert!(s.meets_in(&all, p, p + 1), "{p} in [{p}, {})", p + 1);
            assert!(s.meets_in(&all, 0, 200));
            assert!(!s.meets_in(&all, 0, p), "{p} not below itself");
            assert!(!s.meets_in(&all, p + 1, 200), "{p} not above itself");
            assert!(!s.meets_in(&PosSet::new(200), 0, 200), "{p}: empty other");
        }
        let s = set_of(200, &[63, 64, 128]);
        // Empty ranges never meet.
        assert!(!s.meets_in(&all, 64, 64));
        assert!(!s.meets_in(&all, 100, 10));
        // `hi` on a word boundary excludes the next word's first bit.
        assert!(!s.meets_in(&all, 65, 128));
        assert!(s.meets_in(&all, 65, 129));
        assert!(s.meets_in(&all, 0, 64));
        assert!(!s.meets_in(&all, 0, 63));
        // The range spans a middle word without set bits.
        assert!(set_of(200, &[0, 199]).meets_in(&all, 0, 200));
        assert!(!set_of(200, &[0, 199]).meets_in(&all, 1, 199));
        // Intersection, not union: disjoint sets never meet.
        assert!(!s.meets_in(&set_of(200, &[62, 65, 127]), 0, 200));
        assert!(s.meets(&set_of(200, &[128])));
        assert!(!s.meets(&set_of(200, &[127])));
    }
}
