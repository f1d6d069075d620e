//! Scheduling analysis (§IV-D, Fig. 13).
//!
//! Decides whether the instructions of an alignment graph can be rearranged
//! into loop-iteration order while preserving semantics:
//!
//! * every *external* instruction of the block must be placeable entirely
//!   before the loop (preheader side) or after it (exit side) — an
//!   instruction pulled both ways means a circular dependence crossing the
//!   graph boundary, which is prohibited;
//! * every pair of conflicting memory operations *inside* the graph must
//!   keep its original relative order under the new `(lane, node)`
//!   execution order;
//! * the values consumed by mismatching/identical/recurrence-init lanes
//!   must be available in the preheader (in particular, they must not
//!   themselves be rolled away).
//!
//! Externals are classified row by row with whole-word [`PosSet`]
//! operations over the block's dependence and conflict sets, and the
//! constraints among them are closed by one backward and one forward sweep
//! (DESIGN.md, "Scheduling analysis").

use std::collections::{HashMap, HashSet};

use rolag_analysis::depgraph::{BlockDeps, PosSet};
use rolag_ir::{BlockId, Function, InstId, Module, Opcode};

use crate::align::{AlignGraph, NodeKind};

/// A valid placement produced by the analysis.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Instructions that stay in the preheader, in original order.
    pub before: Vec<InstId>,
    /// Instructions that move to the exit block, in original order (the
    /// original terminator is last).
    pub after: Vec<InstId>,
    /// The instructions the rolled loop replaces.
    pub graph_insts: HashSet<InstId>,
}

/// Runs the scheduling analysis. Returns `None` when the rearrangement
/// would break semantics.
pub fn analyze(
    module: &Module,
    func: &Function,
    block: BlockId,
    graph: &AlignGraph,
) -> Option<Schedule> {
    let graph_insts = graph.graph_insts();
    if graph_insts.is_empty() {
        return None;
    }
    let deps = BlockDeps::compute(module, func, block);
    let n = deps.len();

    // Sanity: every graph instruction is in this block.
    let mut in_graph = PosSet::new(n);
    for &g in &graph_insts {
        in_graph.insert(deps.position(g)?);
    }

    // --- availability of loop inputs ---------------------------------------
    // Values feeding the loop from outside (mismatch lanes, identical lanes,
    // recurrence inits) must not be instructions we are deleting.
    for node in graph.node_ids() {
        let data = graph.node(node);
        let feeds: Vec<rolag_ir::ValueId> = match &data.kind {
            NodeKind::Mismatch => data.lanes.clone(),
            NodeKind::Identical => vec![data.lanes[0]],
            NodeKind::Recurrence { init, .. } => vec![*init],
            NodeKind::Reduction { carry: Some(v), .. } => vec![*v],
            _ => continue,
        };
        for v in feeds {
            if let Some(inst) = func.value(v).as_inst() {
                if graph_insts.contains(&inst) {
                    return None;
                }
            }
        }
    }

    // --- lane-consistency of intra-graph uses -------------------------------
    // A rolled value may only be consumed by the same lane of another rolled
    // instruction (recurrences are routed through phis and exempt by
    // construction: the consuming lane reads the *previous* lane through the
    // recurrence node, whose shifted shape was validated when it was built).
    // (target-of-recurrence, consumer-of-recurrence) pairs: a use of the
    // target's lane k by the consumer's lane k+1 flows through the
    // recurrence phi and is legal.
    let mut shift_ok: HashSet<(crate::align::NodeId, crate::align::NodeId)> = HashSet::new();
    for rec in graph.node_ids() {
        let NodeKind::Recurrence { target, .. } = graph.node(rec).kind else {
            continue;
        };
        for user in graph.node_ids() {
            if graph.node(user).children.contains(&rec) {
                shift_ok.insert((target, user));
            }
        }
    }
    let uses = func.compute_uses();
    for (inst, (node, lane)) in graph.claims() {
        let result = func.inst_result(inst);
        for &(user, _) in uses.of(result) {
            if let Some((user_node, user_lane)) = graph.claim_of(user) {
                if user_lane == lane {
                    continue;
                }
                // Shifted use through a recurrence: allowed when the user
                // consumes a recurrence of this node at the next lane.
                if user_lane == lane + 1 && shift_ok.contains(&(node, user_node)) {
                    continue;
                }
                return None;
            }
        }
    }
    // Reduction internals: all their intermediate values must stay inside
    // the tree (guaranteed single-use at collection) — double-check.
    for node in graph.node_ids() {
        if let NodeKind::Reduction { internal, .. } = &graph.node(node).kind {
            for &i in &internal[1..] {
                let result = func.inst_result(i);
                if uses.count(result) != 1 {
                    return None;
                }
            }
        }
    }

    // --- memory order inside the graph --------------------------------------
    // New execution order: iterations (lanes) outermost, emission order of
    // nodes within an iteration. Every conflicting claimed pair a < b must
    // keep its order; pairs with an external end are classified below.
    let node_order: HashMap<_, _> = graph
        .emission_order()
        .into_iter()
        .enumerate()
        .map(|(k, id)| (id, k))
        .collect();
    let mut new_key = vec![None; n];
    for (inst, (node, lane)) in graph.claims() {
        if let Some(p) = deps.position(inst) {
            new_key[p] = Some((lane, node_order[&node]));
        }
    }
    for (a, ka) in new_key.iter().enumerate() {
        let Some(ka) = ka else { continue };
        let later = deps.conflict_set(a).iter().filter(|&b| b > a);
        if later.filter_map(|b| new_key[b]).any(|kb| *ka >= kb) {
            return None;
        }
    }

    // --- classify external instructions -------------------------------------
    // SSA: an external the graph depends on goes before; one that depends
    // on the graph goes after. Memory: a conflict with a later (earlier)
    // graph instruction keeps the external before (after) the loop. Phis
    // stay at the block head; the terminator ends the exit block.
    let term = *func.block(block).insts.last()?;
    let mut graph_deps = PosSet::new(n);
    for g in in_graph.iter() {
        graph_deps.union_with(deps.dep_set(g));
    }
    let mut before = PosSet::new(n);
    let mut after = PosSet::new(n);
    for p in (0..n).filter(|&p| !in_graph.contains(p)) {
        let inst = deps.insts[p];
        if inst == term {
            after.insert(p);
            continue;
        }
        let conflicts = deps.conflict_set(p);
        let pulled_before = func.inst(inst).opcode == Opcode::Phi
            || graph_deps.contains(p)
            || conflicts.meets_in(&in_graph, p + 1, n);
        let pulled_after = deps.dep_set(p).meets(&in_graph) || conflicts.meets_in(&in_graph, 0, p);
        match (pulled_before, pulled_after) {
            (true, true) => return None, // pulled both ways
            (true, false) => before.insert(p),
            (false, true) => after.insert(p),
            (false, false) => {}
        }
    }

    // --- propagate constraints among externals -------------------------------
    // An external p < q that q depends on (SSA) or conflicts with must stay
    // ahead of q: a Before q pulls p Before, an After p pushes q After. The
    // backward sweep closes Before over suppliers; the forward sweep closes
    // After over dependents and fails on reaching a Before node. Graph
    // positions that `dep_set` adds to `before` are never read; `after`
    // holds externals only, so `meets(&after)` sees After suppliers.
    for q in (0..n).rev() {
        if in_graph.contains(q) || !before.contains(q) {
            continue;
        }
        before.union_with(deps.dep_set(q));
        for p in deps.conflict_set(q).iter().take_while(|&p| p < q) {
            before.insert(p);
        }
    }
    for p in (0..n).filter(|&p| !in_graph.contains(p)) {
        if !after.contains(p) && !deps.dep_set(p).meets(&after) {
            continue;
        }
        if before.contains(p) {
            return None;
        }
        after.insert(p);
        for q in deps.conflict_set(p).iter().filter(|&q| q > p) {
            if !in_graph.contains(q) {
                after.insert(q);
            }
        }
    }

    // Independent leftovers go after the loop (Fig. 13).
    let (before, after): (Vec<usize>, Vec<usize>) = (0..n)
        .filter(|&p| !in_graph.contains(p))
        .partition(|&p| before.contains(p));
    Some(Schedule {
        before: before.into_iter().map(|p| deps.insts[p]).collect(),
        after: after.into_iter().map(|p| deps.insts[p]).collect(),
        graph_insts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::GraphBuilder;
    use crate::options::RolagOptions;
    use rolag_ir::parser::parse_module;
    use rolag_ir::ValueId;

    /// Builds a graph from the store seeds of @f's entry block and runs the
    /// scheduling analysis.
    fn analyze_stores(text: &str) -> Option<(Schedule, usize)> {
        let module = parse_module(text).unwrap();
        let fid = module.func_by_name("f").unwrap();
        let mut func = module.func(fid).clone();
        let block = func.entry_block();
        // Mirror the real seed collector: only stores whose pointer
        // resolves to the global @a form the group under test.
        let target = module.global_by_name("a");
        let seeds: Vec<ValueId> = func
            .block(block)
            .insts
            .iter()
            .filter(|&&i| {
                let data = func.inst(i);
                data.opcode == Opcode::Store
                    && match rolag_analysis::alias::resolve_pointer(
                        &module,
                        &func,
                        data.operands[1],
                    )
                    .base
                    {
                        rolag_analysis::alias::BaseObject::Global(g) => Some(g) == target,
                        _ => false,
                    }
            })
            .map(|&i| func.inst_result(i))
            .collect();
        let opts = RolagOptions::default();
        let mut b = GraphBuilder::new(&module, &mut func, block, &opts, seeds.len());
        b.build_seed_root(&seeds)?;
        let graph = b.finish();
        let ginsts = graph.graph_insts().len();
        analyze(&module, &func, block, &graph).map(|s| (s, ginsts))
    }

    #[test]
    fn clean_store_sequence_schedules() {
        let (sched, ginsts) = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
func @f(i32 %p0) -> void {
entry:
  %v = mul i32 %p0, i32 3
  %a0 = gep i32, @a, i64 0
  store %v, %a0
  %a1 = gep i32, @a, i64 1
  store %v, %a1
  %a2 = gep i32, @a, i64 2
  store %v, %a2
  ret
}
"#,
        )
        .expect("should schedule");
        // %v feeds the loop -> before; ret -> after; 6 insts rolled.
        assert_eq!(sched.before.len(), 1);
        assert_eq!(sched.after.len(), 1);
        assert_eq!(ginsts, 6);
    }

    #[test]
    fn interleaved_conflicting_store_blocks_rolling() {
        // A store to a *may-alias* location sits between the group's
        // stores: it must stay after store#0 but before store#2 — pulled
        // both ways, so scheduling fails.
        let res = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
func @f(ptr %p0) -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  store i32 9, %p0
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  ret
}
"#,
        );
        assert!(res.is_none());
    }

    #[test]
    fn disjoint_interleaved_store_moves_after() {
        // Same shape, but the interleaved store goes to a provably distinct
        // global: it can be placed after the loop.
        let (sched, _) = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
global @b : [8 x i32] = zero
func @f() -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  %b0 = gep i32, @b, i64 0
  store i32 9, %b0
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  ret
}
"#,
        )
        .expect("distinct bases schedule fine");
        // gep @b + store @b + ret after (gep folds with its store user).
        assert_eq!(sched.after.len(), 3);
    }

    #[test]
    fn user_of_rolled_value_goes_after() {
        let (sched, _) = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
declare @use(ptr %p0) -> void readwrite
func @f() -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  %a2 = gep i32, @a, i64 2
  store i32 3, %a2
  call void @use(@a)
  ret
}
"#,
        )
        .expect("trailing call schedules after");
        assert_eq!(sched.after.len(), 2, "call + ret");
        assert!(sched.before.is_empty());
    }

    #[test]
    fn leading_call_stays_before() {
        let (sched, _) = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
declare @init(ptr %p0) -> void readwrite
func @f() -> void {
entry:
  call void @init(@a)
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  ret
}
"#,
        )
        .expect("leading call schedules before");
        assert_eq!(sched.before.len(), 1);
    }

    #[test]
    fn call_sandwiched_by_conflicts_fails() {
        // The external call conflicts with stores on both sides.
        let res = analyze_stores(
            r#"
module "t"
global @a : [8 x i32] = zero
declare @touch() -> void readwrite
func @f() -> void {
entry:
  %a0 = gep i32, @a, i64 0
  store i32 1, %a0
  call void @touch()
  %a1 = gep i32, @a, i64 1
  store i32 2, %a1
  ret
}
"#,
        );
        assert!(res.is_none());
    }
}
