//! Reference oracle for the scheduling analysis (§IV-D, Fig. 13).
//!
//! `rolag::schedule::analyze` classifies external instructions with
//! whole-word position-set operations and propagates placement constraints
//! in two sweeps. This file keeps the original pairwise formulation —
//! per-pair probes plus a `loop { changed }` fixpoint over external pairs —
//! as an oracle, and asserts that both return the same verdict and the
//! same `before` / `after` / `graph_insts` on every candidate graph seed
//! collection builds (and on its beam-search variants) for:
//!
//! * the TSVC kernels, raw and unrolled ×8 + cse + cleanup;
//! * the checked-in `tests/repros/*.rir` modules;
//! * the 256-module difftest generator sweep;
//! * an AnghaBench-like sample (large straight-line blocks);
//!
//! each before rolling and after greedy rolling. Hand-written cases pin
//! the propagation corners: a phi pulled after the loop, an After→Before
//! chain through a transitive SSA dependence that passes a graph
//! instruction, and conflict chains crossing positions 64 and 128.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use rolag::schedule::analyze;
use rolag::{
    build_candidate_graph, candidate_variants, collect_candidates, roll_module, AlignGraph,
    GraphBuilder, NodeId, NodeKind, RolagOptions, Schedule,
};
use rolag_analysis::alias::{resolve_pointer, BaseObject};
use rolag_analysis::depgraph::BlockDeps;
use rolag_ir::parser::parse_module;
use rolag_ir::{BlockId, Function, InstId, Module, Opcode, ValueId};
use rolag_suites::angha::{stream, AnghaConfig};
use rolag_suites::tsvc::{all_kernels, build_kernel_module};
use rolag_transforms::{cleanup_module, cse_module, unroll_module};

/// Asserts both analyses agree; returns whether the graph scheduled.
fn assert_agree(got: Option<Schedule>, want: Option<Schedule>, what: &str) -> bool {
    match (got, want) {
        (None, None) => false,
        (Some(got), Some(want)) => {
            assert_eq!(got.before, want.before, "{what}: `before` differs");
            assert_eq!(got.after, want.after, "{what}: `after` differs");
            assert_eq!(
                got.graph_insts, want.graph_insts,
                "{what}: `graph_insts` differs"
            );
            true
        }
        (got, _) => panic!(
            "{what}: set-based analysis says {}, pairwise oracle says {}",
            verdict(got.is_some()),
            verdict(got.is_none())
        ),
    }
}

fn verdict(scheduled: bool) -> &'static str {
    if scheduled {
        "schedules"
    } else {
        "rejects"
    }
}

/// Graphs compared and graphs that scheduled.
#[derive(Default)]
struct Tally {
    graphs: usize,
    scheduled: usize,
}

impl Tally {
    /// Compares both analyses on every candidate graph of `module`, before
    /// and after greedy rolling.
    fn module(&mut self, module: &Module, what: &str) {
        let opts = RolagOptions::default();
        let mut rolled = module.clone();
        roll_module(&mut rolled, &opts);
        for (m, stage) in [(module, "input"), (&rolled, "rolled")] {
            for fid in m.func_ids() {
                let func = m.func(fid);
                for base in collect_candidates(m, func, &func.compute_uses(), &opts) {
                    let variants = candidate_variants(m, func, &base, &opts);
                    for cand in std::iter::once(base).chain(variants) {
                        let mut work = func.clone();
                        let Some(graph) = build_candidate_graph(m, &mut work, &cand, &opts) else {
                            continue;
                        };
                        let block = cand.block();
                        let what = format!("{what} ({stage}) @{} {cand:?}", func.name);
                        self.graphs += 1;
                        self.scheduled += usize::from(assert_agree(
                            analyze(m, &work, block, &graph),
                            oracle_analyze(m, &work, block, &graph),
                            &what,
                        ));
                    }
                }
            }
        }
    }

    /// The corpus must build enough graphs and schedule some of them.
    fn assert_covers(&self, what: &str, min_graphs: usize) {
        println!(
            "{what}: {} graphs, {} scheduled",
            self.graphs, self.scheduled
        );
        assert!(
            self.graphs >= min_graphs,
            "{what}: only {} candidate graphs built",
            self.graphs
        );
        assert!(self.scheduled > 0, "{what}: no graph scheduled");
    }
}

#[test]
fn agrees_on_tsvc_kernels() {
    let mut tally = Tally::default();
    for spec in all_kernels() {
        let raw = build_kernel_module(&spec);
        let mut unrolled = raw.clone();
        unroll_module(&mut unrolled, 8);
        cse_module(&mut unrolled);
        cleanup_module(&mut unrolled);
        tally.module(&raw, &format!("tsvc.{} raw", spec.name));
        tally.module(&unrolled, &format!("tsvc.{} unrolled", spec.name));
    }
    tally.assert_covers("tsvc", 300);
}

#[test]
fn agrees_on_repros() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/repros");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/repros exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rir"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no repro modules in {}", dir.display());
    let mut tally = Tally::default();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable repro");
        let module = parse_module(&text).expect("repro parses");
        tally.module(&module, &path.display().to_string());
    }
    assert!(tally.graphs > 0, "repros built no candidate graph");
}

#[test]
fn agrees_on_generated_corpus() {
    let mut tally = Tally::default();
    for i in 0..256 {
        tally.module(
            &rolag_difftest::generate_module(0, i),
            &format!("module (0,{i})"),
        );
    }
    tally.assert_covers("generated corpus", 256);
}

#[test]
fn agrees_on_angha_sample() {
    let mut tally = Tally::default();
    let config = AnghaConfig {
        functions: 50,
        ..AnghaConfig::default()
    };
    for (name, _, module) in stream(&config) {
        tally.module(&module, &name);
    }
    tally.assert_covers("angha", 50);
}

/// Builds a graph from the stores of @f's entry block whose pointer
/// resolves to @a, runs both analyses, and returns the agreed placement as
/// block positions `(before, after)`.
fn both_on_stores(text: &str) -> Option<(Vec<usize>, Vec<usize>)> {
    let module = parse_module(text).unwrap();
    let mut func = module.func(module.func_by_name("f").unwrap()).clone();
    let block = func.entry_block();
    let a = BaseObject::Global(module.global_by_name("a").unwrap());
    let seeds: Vec<ValueId> = func
        .block(block)
        .insts
        .iter()
        .filter(|&&i| {
            let data = func.inst(i);
            data.opcode == Opcode::Store
                && resolve_pointer(&module, &func, data.operands[1]).base == a
        })
        .map(|&i| func.inst_result(i))
        .collect();
    let opts = RolagOptions::default();
    let mut builder = GraphBuilder::new(&module, &mut func, block, &opts, seeds.len());
    builder
        .build_seed_root(&seeds)
        .expect("the @a stores align");
    let graph = builder.finish();
    let got = analyze(&module, &func, block, &graph);
    let want = oracle_analyze(&module, &func, block, &graph);
    assert_agree(got.clone(), want, "hand-written case");
    let insts = &func.block(block).insts;
    let positions = |list: &[InstId]| -> Vec<usize> {
        list.iter()
            .map(|i| insts.iter().position(|j| j == i).unwrap())
            .collect()
    };
    got.map(|s| (positions(&s.before), positions(&s.after)))
}

/// Wraps entry-block lines into `@f(ptr %p0, i32 %p1)` with globals @a/@b.
fn module_text(lines: &[String]) -> String {
    let mut text = String::from(
        "module \"t\"\nglobal @a : [8 x i32] = zero\nglobal @b : [8 x i32] = zero\n\
         func @f(ptr %p0, i32 %p1) -> void {\nentry:\n",
    );
    for line in lines {
        text.push_str("  ");
        text.push_str(line);
        text.push('\n');
    }
    text.push_str("  ret\n}\n");
    text
}

/// Appends independent arithmetic until the next instruction lands at
/// block position `pos`.
fn pad_to(lines: &mut Vec<String>, pos: usize) {
    while lines.len() < pos {
        let k = lines.len();
        lines.push(format!("%t{k} = add i32 %p1, i32 {k}"));
    }
}

#[test]
fn phi_pulled_after_is_rejected() {
    // The phi must stay at the block head (Before), but it reads a load
    // that conflicts with an earlier graph store (After): propagation pulls
    // the phi both ways. (A phi below other instructions does not verify;
    // the analysis still has to refuse it rather than misplace it.)
    let text = module_text(&[
        "%a0 = gep i32, @a, i64 0".into(),
        "store i32 1, %a0".into(),
        "%a1 = gep i32, @a, i64 1".into(),
        "store i32 2, %a1".into(),
        "%b = gep i32, @a, i64 1".into(),
        "%l = load i32, %b".into(),
        "%x = phi i32 [ %l, entry ]".into(),
    ]);
    assert_eq!(both_on_stores(&text), None);
}

#[test]
fn after_to_before_chain_through_a_graph_instruction_is_rejected() {
    // %r reads the graph's %a0 (After). The store to @b depends on %r, so
    // it is pushed After; %l conflicts with that store, so it is pushed
    // After too. But the graph's last store depends on %l transitively
    // through %s, so %l must also stay Before: the chain runs
    // graph -> %r -> store @b -> %l -> %s -> graph.
    let text = module_text(&[
        "%a0 = gep i32, @a, i64 0".into(),
        "store i32 1, %a0".into(),
        "%r = load i32, %a0".into(),
        "%b0 = gep i32, @b, i64 0".into(),
        "store %r, %b0".into(),
        "%l = load i32, %b0".into(),
        "%s = add i32 %l, i32 1".into(),
        "%a1 = gep i32, @a, i64 1".into(),
        "store i32 2, %a1".into(),
        "%a2 = gep i32, @a, i64 2".into(),
        "store %s, %a2".into(),
    ]);
    assert_eq!(both_on_stores(&text), None);

    // Without the @b store the chain is broken: %r goes after the loop,
    // %l and %s stay before it.
    let text = module_text(&[
        "%a0 = gep i32, @a, i64 0".into(),
        "store i32 1, %a0".into(),
        "%r = load i32, %a0".into(),
        "%b0 = gep i32, @b, i64 0".into(),
        "%l = load i32, %b0".into(),
        "%s = add i32 %l, i32 1".into(),
        "%a1 = gep i32, @a, i64 1".into(),
        "store i32 2, %a1".into(),
        "%a2 = gep i32, @a, i64 2".into(),
        "store %s, %a2".into(),
    ]);
    let (before, after) = both_on_stores(&text).expect("schedules");
    assert_eq!(before, vec![3, 4, 5]);
    assert_eq!(after, vec![2, 10]);
}

/// A chain of conflicting accesses to one alloca at positions 8, 63/64
/// and 127/128, so every propagation step crosses a word of the position
/// sets. `head` is the instruction at position 7, `tail` the lines from
/// position 129 on; the graph is the @a stores at positions 1, 3, 5 plus
/// any in `tail`.
fn word_crossing_chain(head: &str, tail: &[&str]) -> String {
    let mut lines: Vec<String> = vec![
        "%a0 = gep i32, @a, i64 0".into(),
        "store i32 1, %a0".into(),
        "%a1 = gep i32, @a, i64 1".into(),
        "store i32 2, %a1".into(),
        "%a2 = gep i32, @a, i64 2".into(),
        "store i32 3, %a2".into(),
        "%m = alloca [4 x i32]".into(),
        head.into(),
        "store %r, %m".into(),
    ];
    pad_to(&mut lines, 63);
    lines.push("%x = load i32, %m".into());
    lines.push("store %x, %m".into());
    pad_to(&mut lines, 127);
    lines.push("%y = load i32, %m".into());
    lines.push("store %y, %m".into());
    lines.extend(tail.iter().map(|&l| l.to_string()));
    module_text(&lines)
}

#[test]
fn conflict_chains_cross_positions_64_and_128() {
    let padding = |lo: usize, hi: usize| (lo..hi).collect::<Vec<_>>();

    // After chain: %r reads the graph, so it and every access chained to
    // it go after the loop, across both word boundaries.
    let text = word_crossing_chain("%r = load i32, %a0", &[]);
    let (before, after) = both_on_stores(&text).expect("schedules");
    assert_eq!(before, Vec::<usize>::new());
    let mut expected = vec![6, 7, 8];
    expected.extend(padding(9, 63));
    expected.extend([63, 64]);
    expected.extend(padding(65, 127));
    expected.extend([127, 128, 129]);
    assert_eq!(after, expected);

    // Before chain: the graph's last store reads the chain's end, which
    // pulls every chained access (and the alloca) before the loop.
    let tail = [
        "%z = load i32, %m",
        "%a3 = gep i32, @a, i64 3",
        "store %z, %a3",
    ];
    let text = word_crossing_chain("%r = add i32 %p1, i32 5", &tail);
    let (before, after) = both_on_stores(&text).expect("schedules");
    assert_eq!(before, vec![6, 7, 8, 63, 64, 127, 128, 129]);
    let mut expected = padding(9, 63);
    expected.extend(padding(65, 127));
    expected.push(132);
    assert_eq!(after, expected);

    // Both at once: the After chain reaches the Before end.
    let text = word_crossing_chain("%r = load i32, %a0", &tail);
    assert_eq!(both_on_stores(&text), None);
}

/// Where an external instruction is placed relative to the rolled loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Unknown,
    Before,
    After,
}

/// The pairwise scheduling analysis, kept as the reference the set-based
/// `rolag::schedule::analyze` must agree with.
fn oracle_analyze(
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
    let conflict_set: HashSet<(usize, usize)> = deps.mem_conflicts().iter().copied().collect();
    let pos_of = |inst: InstId| deps.position(inst);

    // Sanity: every graph instruction is in this block.
    let mut in_graph = vec![false; n];
    for &g in &graph_insts {
        let p = pos_of(g)?;
        in_graph[p] = true;
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
    let mut shift_ok: HashSet<(NodeId, NodeId)> = HashSet::new();
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
    // nodes within an iteration.
    let emission = graph.emission_order();
    let node_order: HashMap<_, _> = emission
        .iter()
        .enumerate()
        .map(|(k, &id)| (id, k))
        .collect();
    let mut new_key: HashMap<usize, (usize, usize)> = HashMap::new();
    for (inst, (node, lane)) in graph.claims() {
        if let Some(p) = pos_of(inst) {
            new_key.insert(p, (lane, node_order[&node]));
        }
    }
    for &(a, b) in &deps.mem_conflicts() {
        match (new_key.get(&a), new_key.get(&b)) {
            (Some(ka), Some(kb))
                // a < b originally; the rolled order must agree.
                if ka >= kb => {
                    return None;
                }
            _ => {} // handled by the external classification below
        }
    }

    // --- classify external instructions -------------------------------------
    let mut side = vec![Side::Unknown; n];
    let term = *func.block(block).insts.last()?;
    for p in 0..n {
        if in_graph[p] {
            continue;
        }
        let inst = deps.insts[p];
        let data = func.inst(inst);
        if inst == term {
            side[p] = Side::After;
            continue;
        }
        if data.opcode == Opcode::Phi {
            side[p] = Side::Before; // phis must stay at the block head
        }
        let mut before = side[p] == Side::Before;
        let mut after = false;
        #[allow(clippy::needless_range_loop)] // parallel index into two tables
        for g in 0..n {
            if !in_graph[g] {
                continue;
            }
            // SSA: graph depends on external -> external goes before;
            //      external depends on graph -> external goes after.
            if g > p && deps.depends_on(g, p) {
                before = true;
            }
            if p > g && deps.depends_on(p, g) {
                after = true;
            }
            // Memory: conflicting pairs keep their original order.
            let conflict = conflict_set.contains(&(p.min(g), p.max(g)));
            if conflict {
                if p < g {
                    before = true;
                } else {
                    after = true;
                }
            }
        }
        side[p] = match (before, after) {
            (true, true) => return None, // pulled both ways
            (true, false) => Side::Before,
            (false, true) => Side::After,
            (false, false) => Side::Unknown,
        };
    }

    // --- propagate constraints among externals -------------------------------
    // For external p < q with q depending on p (SSA) or conflicting memory:
    // placement must keep p before q, so (After, Before) is impossible and
    // Before pulls its suppliers Before / After pushes its dependents After.
    let ext_pairs: Vec<(usize, usize)> = {
        let mut pairs = Vec::new();
        for q in 0..n {
            if in_graph[q] {
                continue;
            }
            #[allow(clippy::needless_range_loop)] // parallel index
            for p in 0..q {
                if in_graph[p] {
                    continue;
                }
                let dep = deps.depends_on(q, p) || conflict_set.contains(&(p, q));
                if dep {
                    pairs.push((p, q));
                }
            }
        }
        pairs
    };
    loop {
        let mut changed = false;
        for &(p, q) in &ext_pairs {
            match (side[p], side[q]) {
                (Side::After, Side::Before) => return None,
                (Side::After, Side::Unknown) => {
                    side[q] = Side::After;
                    changed = true;
                }
                (Side::Unknown, Side::Before) => {
                    side[p] = Side::Before;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }

    // Independent leftovers go after the loop (Fig. 13).
    let mut before = Vec::new();
    let mut after = Vec::new();
    for p in 0..n {
        if in_graph[p] {
            continue;
        }
        match side[p] {
            Side::Before => before.push(deps.insts[p]),
            _ => after.push(deps.insts[p]),
        }
    }
    Some(Schedule {
        before,
        after,
        graph_insts,
    })
}
