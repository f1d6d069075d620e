//! Parallel module driver.
//!
//! [`roll_module_par`] fans [`roll_function_rescued`] out over a scoped
//! worker pool ([`rolag_par`]) and merges the results deterministically, so
//! that a parallel run produces a **byte-identical printed module and
//! identical [`RolagStats`]** to the serial [`roll_module`](crate::roll_module)
//! — regardless of worker count or scheduling order.
//!
//! # One key, one replay path
//!
//! Every definition is keyed with the closure key of
//! [`store_key`](crate::memo::store_key) and grouped by it; the lowest
//! function id of a group is its representative. Each group gets one
//! [`StoreEntry`]: from the cross-request [`MemoStore`] when one is given
//! and holds the key, else by rolling the representative inside a worker's
//! private module clone and capturing the result there. The pass only reads
//! the module for *shared context* (types, globals, signatures, call
//! effects), never another function's body, so a worker clone rolls a
//! function exactly as the serial pass would.
//!
//! The merge then hands every definition its group's entry through
//! `StoreEntry::replay`, serially in function-id order — store hits,
//! in-module duplicates, and fresh rolls alike:
//!
//! * **Globals.** Replay mints each constant array the roll created through
//!   [`Module::fresh_global_name`] against the *merged* module, which walks
//!   functions in the same order as the serial pass, so the names come out
//!   exactly as serial ones.
//! * **Types.** Replay absorbs the donor worker's type store
//!   ([`TypeStore::absorb`](rolag_ir::TypeStore::absorb)). Interned type ids
//!   may differ from a serial run, but the printer renders types
//!   structurally and the binary encoder renumbers them in first-use order,
//!   so neither output depends on them.
//! * **Symbols.** Replay re-targets self-calls to the destination and keeps
//!   its own name and effects annotation, so duplicates (recursive ones
//!   included) keep their identity.
//! * **Stats.** Each definition adds its entry's statistics in function-id
//!   order, so duplicates report the counters their representative's run
//!   produced. Wall-clock [`StageTimings`](crate::stats::StageTimings) are
//!   excluded from `RolagStats` equality, so outcome comparison is exact.
//!
//! The key is deliberately byte-strict: any structural difference (an
//! opcode, a constant, a referenced global, an effects annotation) separates
//! groups, because replay splices the representative's rolled body verbatim.
//! Local value names never split a group — the printer renumbers temps
//! canonically — so the TSVC kernels never share because they are
//! structurally distinct, not because of naming.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rolag_ir::{FuncId, Module, TypeStore};
use rolag_par::{effective_jobs, par_map_with, WorkerPool};
use rolag_transforms::effects_table;

use crate::memo::{store_key, MemoStore, StoreEntry};
use crate::options::RolagOptions;
use crate::pass::roll_function_rescued;
use crate::stats::RolagStats;

/// What one [`roll_module_par`] run did, beyond the pass statistics.
#[derive(Debug, Clone, Default)]
pub struct DriverReport {
    /// Aggregate pass statistics (equal to the serial pass's).
    pub stats: RolagStats,
    /// Function definitions processed.
    pub functions: usize,
    /// Distinct closure keys among the definitions.
    pub unique: usize,
    /// Definitions that shared a closure key with a lower-id definition of
    /// the same module and received its entry.
    pub cache_hits: u64,
    /// Definitions whose body the pass rewrote — including duplicates
    /// that received a rewritten representative's body and store-replayed
    /// definitions. Functions the pass left verbatim are not counted.
    pub changed: usize,
    /// Definitions replayed from a cross-request [`MemoStore`] (always `0`
    /// without one).
    pub store_hits: u64,
    /// Definitions rolled because the cross-request store missed (always
    /// `0` without one).
    pub store_misses: u64,
    /// Worker count actually used.
    pub jobs: usize,
    /// End-to-end wall-clock of the driver, in nanoseconds.
    pub wall_ns: u64,
}

impl DriverReport {
    /// Fraction of definitions served from the cache, in `0.0..=1.0`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.functions == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.functions as f64
    }

    /// Fraction of definitions replayed from the cross-request store, in
    /// `0.0..=1.0`.
    pub fn store_hit_rate(&self) -> f64 {
        if self.functions == 0 {
            return 0.0;
        }
        self.store_hits as f64 / self.functions as f64
    }
}

/// A worker's private module clone, plus the slot its type store moves
/// into once the worker is done: the store keeps growing while the worker
/// rolls, and entries captured along the way share the final one.
struct Worker {
    module: Module,
    types: Arc<OnceLock<TypeStore>>,
}

/// Fans `job` out over `items`: on the persistent `pool` when one is given
/// (the `rolag-serve` daemon reuses its threads across requests), else on a
/// fresh scoped pool of `jobs` workers.
fn fan_out<T, R, S, I, F>(
    pool: Option<&WorkerPool>,
    items: &[T],
    jobs: usize,
    init: I,
    job: F,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    match pool {
        Some(p) => p.map_with(items, init, job),
        None => par_map_with(items, jobs, init, job),
    }
}

/// Rolls every function of the module on `jobs` workers (`0` means one
/// per available core), rolling each distinct closure key once, and merges
/// the results so the printed module and the statistics are identical to a
/// serial [`roll_module`](crate::roll_module) run.
pub fn roll_module_par(module: &mut Module, opts: &RolagOptions, jobs: usize) -> DriverReport {
    roll_module_par_with(module, opts, jobs, None, None)
}

/// [`roll_module_par`] with service hooks: an optional persistent
/// [`WorkerPool`] (reused across calls instead of spawning a scoped pool
/// per module; `jobs` is then ignored) and an optional cross-request
/// [`MemoStore`]. Groups whose key the store holds are replayed from it
/// without rolling; freshly rolled entries are inserted into it.
pub fn roll_module_par_with(
    module: &mut Module,
    opts: &RolagOptions,
    jobs: usize,
    pool: Option<&WorkerPool>,
    store: Option<&MemoStore>,
) -> DriverReport {
    let start = Instant::now();
    let ids: Vec<FuncId> = module
        .func_ids()
        .filter(|&id| !module.func(id).is_declaration)
        .collect();
    let effects = effects_table(module);
    let shared: &Module = module;

    // Key and group every definition. Groups are numbered in first-seen
    // order, so representatives are the lowest ids and `reps` is sorted.
    let keys = fan_out(
        pool,
        &ids,
        jobs,
        || (),
        |(), _, &id| store_key(shared, id, opts),
    )
    .0;
    let mut group_of: Vec<usize> = Vec::with_capacity(ids.len());
    let mut reps: Vec<usize> = Vec::new();
    {
        let mut by_key: HashMap<&str, usize> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            let gi = *by_key.entry(key).or_insert_with(|| {
                reps.push(i);
                reps.len() - 1
            });
            group_of.push(gi);
        }
    }
    let mut entries: Vec<Option<Arc<StoreEntry>>> = reps
        .iter()
        .map(|&i| store.and_then(|s| s.get(&keys[i])))
        .collect();
    let store_hit: Vec<bool> = entries.iter().map(Option::is_some).collect();

    // Roll each store-missed representative in a worker clone and capture
    // it there. Dynamic scheduling decides *which* worker rolls *what*, but
    // every entry is independent of that choice.
    let missed: Vec<usize> = (0..reps.len()).filter(|&gi| !store_hit[gi]).collect();
    let (fresh, workers) = fan_out(
        pool,
        &missed,
        jobs,
        || Worker {
            module: shared.clone(),
            types: Arc::new(OnceLock::new()),
        },
        |w, _, &gi| {
            let fid = ids[reps[gi]];
            let first_new_global = w.module.num_globals();
            let stats = roll_function_rescued(&mut w.module, fid, opts, &effects);
            StoreEntry::capture(&w.module, fid, first_new_global, stats, &w.types)
        },
    );
    for w in workers {
        let _ = w.types.set(w.module.types);
    }
    for (&gi, entry) in missed.iter().zip(fresh) {
        let entry = Arc::new(entry);
        if let Some(s) = store {
            s.insert(keys[reps[gi]].clone(), Arc::clone(&entry));
        }
        entries[gi] = Some(entry);
    }

    // Replay serially in function-id order — the order the serial pass
    // walks — so fresh global names come out identical.
    let mut report = DriverReport {
        functions: ids.len(),
        unique: reps.len(),
        jobs: match pool {
            Some(p) => p.worker_count().clamp(1, reps.len().max(1)),
            None => effective_jobs(jobs, reps.len()),
        },
        ..Default::default()
    };
    for (i, &fid) in ids.iter().enumerate() {
        let gi = group_of[i];
        let entry = entries[gi].as_ref().expect("every group has an entry");
        if reps[gi] != i {
            report.cache_hits += 1;
        }
        if store_hit[gi] {
            report.store_hits += 1;
        } else if store.is_some() {
            report.store_misses += 1;
        }
        report.stats += entry.stats;
        if entry.replay(module, fid) {
            report.changed += 1;
        }
    }
    report.wall_ns = start.elapsed().as_nanos() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::canonical_key;
    use crate::pass::roll_module;
    use rolag_ir::printer::print_module;
    use rolag_ir::verify::verify_module;
    use rolag_ir::{encode_module, Effects};

    fn rollable_body(offset: usize) -> String {
        let mut body = String::new();
        for i in 0..8 {
            body.push_str(&format!("  %g{i} = gep i32, @a, i64 {i}\n"));
            body.push_str(&format!("  store i32 {}, %g{i}\n", i * 7 + offset));
        }
        body
    }

    /// `n` copies of the same profitable function plus one distinct one.
    fn duplicated_module(n: usize) -> Module {
        let mut text = String::from("module \"dup\"\nglobal @a : [8 x i32] = zero\n");
        for f in 0..n {
            text.push_str(&format!("func @f{f}() -> void {{\nentry:\n"));
            text.push_str(&rollable_body(0));
            text.push_str("  ret\n}\n");
        }
        text.push_str("func @other() -> void {\nentry:\n");
        text.push_str(&rollable_body(3));
        text.push_str("  ret\n}\n");
        rolag_ir::parser::parse_module(&text).unwrap()
    }

    #[test]
    fn parallel_matches_serial_bytes_and_stats() {
        let original = duplicated_module(5);
        let opts = RolagOptions::default();

        let mut serial = original.clone();
        let serial_stats = roll_module(&mut serial, &opts);
        assert!(serial_stats.rolled >= 6, "fixture must actually roll");

        for jobs in [1, 4] {
            let mut par = original.clone();
            let report = roll_module_par(&mut par, &opts, jobs);
            verify_module(&par).expect("merged module verifies");
            assert_eq!(
                print_module(&serial),
                print_module(&par),
                "jobs={jobs} must be byte-identical"
            );
            assert_eq!(report.stats, serial_stats);
            assert_eq!(report.functions, 6);
            assert_eq!(report.unique, 2);
            assert_eq!(report.cache_hits, 4);
        }
    }

    /// Regression for the tsvc24 memo cold-miss investigation: the driver
    /// key is NOT "too strict" about local value names — the printer
    /// renumbers temps canonically, so functions differing only in
    /// source-level temp names unify, and replaying one body onto the
    /// other stays byte-identical to serial. The TSVC kernels fail to
    /// share because they are structurally distinct, and the per-function
    /// fixpoint memo behaviour is pinned by
    /// `single_commit_fixpoints_report_zero_memo_hits` in `pass.rs`.
    #[test]
    fn value_renamed_twins_share_a_cache_slot() {
        let mut text = String::from("module \"twins\"\nglobal @a : [8 x i32] = zero\n");
        for (f, temp) in [(0, "g"), (1, "h")] {
            text.push_str(&format!("func @f{f}() -> void {{\nentry:\n"));
            for i in 0..8 {
                text.push_str(&format!("  %{temp}{i} = gep i32, @a, i64 {i}\n"));
                text.push_str(&format!("  store i32 {}, %{temp}{i}\n", i * 7));
            }
            text.push_str("  ret\n}\n");
        }
        let original = rolag_ir::parser::parse_module(&text).unwrap();
        let key0 = canonical_key(&original, original.func_by_name("f0").unwrap());
        let key1 = canonical_key(&original, original.func_by_name("f1").unwrap());
        assert_eq!(key0, key1, "canonical printing erases temp names");

        let opts = RolagOptions::default();
        let mut serial = original.clone();
        roll_module(&mut serial, &opts);
        let mut par = original.clone();
        let report = roll_module_par(&mut par, &opts, 0);
        assert_eq!(report.cache_hits, 1, "@f1 replays @f0's roll");
        assert_eq!(report.unique, 1);
        assert_eq!(
            print_module(&serial),
            print_module(&par),
            "replay across renamed twins stays byte-identical"
        );
    }

    /// Two in-module duplicates that differ only in their own effects
    /// annotation (which the printer does not show on definitions): the
    /// closure key keeps them apart, each keeps its annotation, and the
    /// binary output — which does carry it — equals the serial roll's.
    #[test]
    fn effects_only_twins_split_and_keep_their_annotations() {
        let mut original = duplicated_module(2);
        let f1 = original.func_by_name("f1").unwrap();
        original.func_mut(f1).effects = Effects::ReadOnly;

        let opts = RolagOptions::default();
        let mut serial = original.clone();
        let serial_stats = roll_module(&mut serial, &opts);
        for jobs in [1, 2] {
            let mut par = original.clone();
            let report = roll_module_par(&mut par, &opts, jobs);
            assert_eq!(report.unique, 3, "the annotation splits @f0 and @f1");
            assert_eq!(report.cache_hits, 0);
            assert_eq!(report.stats, serial_stats);
            let f0 = par.func_by_name("f0").unwrap();
            assert_eq!(par.func(f0).effects, Effects::ReadWrite);
            assert_eq!(par.func(f1).effects, Effects::ReadOnly);
            assert_eq!(
                encode_module(&serial),
                encode_module(&par),
                "jobs={jobs} binary output diverged"
            );
        }
    }

    /// Cross-request store: a second request with structurally identical
    /// functions must replay entirely from the store and still be
    /// byte-identical (and outcome-stats-identical) to a cold serial roll.
    #[test]
    fn store_replay_is_byte_identical_to_cold_roll() {
        let opts = RolagOptions::default();
        let store = crate::memo::MemoStore::new(64);

        let first = duplicated_module(3);
        let mut warmup = first.clone();
        let warm_report = roll_module_par_with(&mut warmup, &opts, 0, None, Some(&store));
        assert_eq!(warm_report.store_hits, 0);
        assert_eq!(warm_report.store_misses, 4, "every definition missed");
        assert!(!store.is_empty());

        // Same functions arriving from a "different client": new module
        // name, same bodies.
        let mut second_text = print_module(&duplicated_module(3)).replace("\"dup\"", "\"client2\"");
        second_text.push('\n');
        let second = rolag_ir::parser::parse_module(&second_text).unwrap();

        let mut cold = second.clone();
        let cold_stats = roll_module(&mut cold, &opts);

        let mut warm = second.clone();
        let report = roll_module_par_with(&mut warm, &opts, 0, None, Some(&store));
        verify_module(&warm).expect("replayed module verifies");
        assert_eq!(report.store_hits, 4, "all definitions replay: {report:?}");
        assert_eq!(report.store_misses, 0);
        assert_eq!(report.stats, cold_stats, "replayed stats diverged");
        assert_eq!(
            print_module(&cold),
            print_module(&warm),
            "store replay must be byte-identical to a cold roll"
        );
        assert!(store.stats().hit_rate() > 0.0);
    }

    /// The persistent pool path produces the same bytes and stats as the
    /// scoped-pool path.
    #[test]
    fn persistent_pool_matches_scoped_pool() {
        let original = duplicated_module(4);
        let opts = RolagOptions::default();
        let mut scoped = original.clone();
        let scoped_report = roll_module_par(&mut scoped, &opts, 0);

        let pool = rolag_par::WorkerPool::new(3);
        let mut pooled = original.clone();
        let report = roll_module_par_with(&mut pooled, &opts, 0, Some(&pool), None);
        assert_eq!(print_module(&scoped), print_module(&pooled));
        assert_eq!(report.stats, scoped_report.stats);
        assert_eq!(report.jobs, 2, "3 pool workers clamped to 2 unique groups");
    }

    #[test]
    fn recursive_duplicates_keep_their_own_identity() {
        let text = r#"
module "rec"
func @a(i32 %p0) -> i32 {
entry:
  %c = icmp sle %p0, i32 0
  condbr %c, done, more
more:
  %n = sub i32 %p0, i32 1
  %r = call i32 @a(%n)
  %s = add i32 %r, %p0
  ret %s
done:
  ret i32 0
}
func @b(i32 %p0) -> i32 {
entry:
  %c = icmp sle %p0, i32 0
  condbr %c, done, more
more:
  %n = sub i32 %p0, i32 1
  %r = call i32 @b(%n)
  %s = add i32 %r, %p0
  ret %s
done:
  ret i32 0
}
"#;
        let original = rolag_ir::parser::parse_module(text).unwrap();
        let opts = RolagOptions::default();
        let mut serial = original.clone();
        roll_module(&mut serial, &opts);
        let mut par = original.clone();
        let report = roll_module_par(&mut par, &opts, 0);
        assert_eq!(report.cache_hits, 1, "@b is a cache hit of @a");
        assert_eq!(print_module(&serial), print_module(&par));
        // @b must still call itself, not @a.
        let b = par.func(par.func_by_name("b").unwrap());
        let self_calls = b
            .live_insts()
            .filter(|&i| {
                matches!(
                    b.inst(i).extra,
                    rolag_ir::InstExtra::Call { callee } if callee == par.func_by_name("b").unwrap()
                )
            })
            .count();
        assert_eq!(self_calls, 1);
    }
}
