//! Work-stealing parallel repair search.
//!
//! This is the branch scheduler behind
//! [`SearchStrategy::Parallel`](crate::SearchStrategy::Parallel); the
//! architecture overview lives in the [`crate::engine`] module docs. In
//! one paragraph: search nodes are self-contained *tasks* (branch path,
//! decision map, trace, inherited violation worklist), each worker owns a
//! copy-on-write fork of the base instance that it reconciles against the
//! incoming task's cumulative decision delta, expansion pushes child
//! tasks onto the worker's own deque (LIFO end — depth-first locality)
//! while idle workers steal from the opposite end (FIFO — shallow tasks
//! with the largest subtrees), and consistent fixpoints publish
//! `(path, Δ, trace)` into a shared collector that is sorted by path
//! after the pool drains. Lexicographic path order equals sequential
//! depth-first discovery order, so everything downstream of the join —
//! deduplication, `≤_D`-minimisation, materialisation, the final pinned
//! sort — sees exactly the candidate sequence the sequential strategies
//! produce, at every thread count and under every scheduling interleaving.
//!
//! Everything here is `std`-only: `Mutex<VecDeque<_>>` per worker instead
//! of a lock-free deque (task grain — one search node, including its
//! index-probed revalidation and touching scans — is orders of magnitude
//! above the lock cost), scoped threads instead of a pool crate, and
//! atomics for the in-flight count, the node budget and the abort flag.
//!
//! Termination: `pending` counts tasks that have been pushed but not yet
//! fully executed. A worker increments it *before* publishing children
//! (while its own task is still counted) and decrements it only after the
//! expansion is complete, so `pending == 0` is stable and implies the
//! whole tree has been explored. Budget exhaustion flips `over_budget`,
//! which every worker checks between tasks; the drained pool then reports
//! [`CoreError::BudgetExceeded`] like the sequential drivers.
//!
//! ## Failure containment (ISSUE 7)
//!
//! The pool never hangs and never propagates a panic:
//!
//! * **Cancellation.** Every charged node and every between-task loop
//!   polls the governor token; a trip makes all workers drain promptly
//!   and the join reports [`CoreError::Interrupted`] with the fixpoints
//!   published so far.
//! * **Worker panics.** Each task runs under `catch_unwind`: a panicking
//!   task records its payload, flips a pool-wide flag that stops the
//!   siblings at their next between-task check, and the join reports
//!   [`CoreError::WorkerPanic`] instead of unwinding through the scope
//!   (which would abort the process via double-panic on the joins).
//! * **Lock poisoning.** Pool locks are acquired poison-tolerantly: the
//!   panic containment above means a poisoned queue/collector mutex only
//!   arises from a panic *outside* any task — and even then the data is a
//!   plain deque/vec whose invariants hold at every lock release point,
//!   so recovering the inner value is sound and keeps sibling workers
//!   (and any later search on the same process) running.

use crate::cache::CqaCaches;
use crate::engine::{delta_of, fixes_for, Decision, Fix, RepairAction, RepairConfig, RepairStep};
use crate::error::{CoreError, InterruptPhase};
use cqa_constraints::{violation_active, violations_touching, IcSet, SatMode, Violation};
use cqa_relational::{CancelToken, DatabaseAtom, Delta, Instance};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Poison-tolerant lock: a worker panic between tasks cannot take the
/// pool down with `PoisonError` (see module docs, "Failure containment").
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One search node, self-contained so any worker can execute it.
struct Task {
    /// Fix indices taken from the root to reach this node — the output
    /// order key: lexicographic path order is sequential DFS order.
    path: Vec<u32>,
    /// Decisions accumulated on this branch (never flipped).
    decisions: BTreeMap<DatabaseAtom, Decision>,
    /// The decision steps, in the order the branch made them.
    trace: Vec<RepairStep>,
    /// Violations inherited from the parent that may still be live here.
    worklist: Vec<Violation>,
    /// The single-decision delta that created this node, whose touching
    /// violations must be appended to the worklist before branching.
    /// Deferred to the executing worker so the parent never needs the
    /// child's instance state; `None` only at the root.
    touch: Option<Delta>,
}

/// A published fixpoint: branch path, decision delta, decision trace.
type Found = (Vec<u32>, Delta, Vec<RepairStep>);

/// Map `f` over `0..len` with contiguous chunks fanned out across up to
/// `threads` scoped workers, results concatenated in index order (so the
/// output is identical at every thread count). Serial — no threads
/// spawned — when one worker suffices. Shared by repair materialisation
/// and chunked `≤_D`-minimisation.
pub(crate) fn chunked_map<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let chunk = len.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(len);
                scope.spawn(move || (start..end).map(f).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("chunked_map worker panicked"))
            .collect()
    })
}

/// Map `f` over the up-to-`threads` contiguous chunks of `0..len`,
/// results in chunk order (deterministic chunk boundaries, so downstream
/// folds see the same partition at every thread count). Serial — no
/// threads spawned — when one worker suffices. The CQA layer fans its
/// per-repair query evaluation out through this.
pub(crate) fn map_chunks<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    let workers = threads.max(1).min(len.max(1));
    if workers <= 1 {
        return vec![f(0..len)];
    }
    let chunk = len.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(len);
                scope.spawn(move || f(start..end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("map_chunks worker panicked"))
            .collect()
    })
}

/// State shared by the worker pool.
struct Shared<'a> {
    ics: &'a IcSet,
    config: RepairConfig,
    base: &'a Instance,
    /// One deque per worker: owner pushes/pops at the back, thieves pop
    /// at the front.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks pushed but not yet fully executed (see module docs).
    pending: AtomicUsize,
    /// Search nodes charged so far, against `config.node_budget`.
    nodes: AtomicUsize,
    over_budget: AtomicBool,
    /// Governor token: polled per charged node and between tasks.
    cancel: &'a CancelToken,
    /// Set when a worker observed the cancellation with work outstanding
    /// (the result is a prefix, not the full candidate set).
    interrupted: AtomicBool,
    /// Set when a task panicked; `panic_note` holds the payload.
    panicked: AtomicBool,
    /// The first panicking task's payload message.
    panic_note: Mutex<Option<String>>,
    /// Consistent fixpoints: `(path, Δ, trace)`.
    found: Mutex<Vec<Found>>,
    /// Test hook, read from the calling thread's [`INJECT_PANIC_AT_NODE`]
    /// so that only that thread's searches see it.
    #[cfg(test)]
    inject_panic_at: usize,
}

impl Shared<'_> {
    /// Should workers stop picking up new tasks? (Cancellation is checked
    /// separately so it can flag `interrupted`.)
    fn halted(&self) -> bool {
        self.over_budget.load(Ordering::Relaxed) || self.panicked.load(Ordering::Relaxed)
    }
}

/// Render a caught panic payload for [`CoreError::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run the parallel search and return the fixpoint candidates in
/// sequential depth-first discovery order (sorted by branch path).
pub(crate) fn search(
    d: &Instance,
    ics: &IcSet,
    config: RepairConfig,
    threads: usize,
    caches: &CqaCaches,
    cancel: &CancelToken,
) -> Result<Vec<(Delta, Vec<RepairStep>)>, CoreError> {
    let threads = threads.max(1);
    // Fork point: on a cache miss the root scan registers the indexes its
    // probes need on `base`; on a hit the scan was skipped, so revalidate
    // the cached worklist once here — conflict-bounded work that registers
    // the witness-probe indexes the workers hit hardest. Either way the
    // worker forks below share `base`'s index snapshots Arc-wise instead
    // of each rebuilding them from scratch.
    let base = d.clone();
    let worklist = caches.worklist.root_worklist(&base, ics);
    for violation in &worklist {
        let _ = violation_active(&base, ics, violation, SatMode::NullAware);
    }
    let shared = Shared {
        ics,
        config,
        base: &base,
        queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(1),
        nodes: AtomicUsize::new(0),
        over_budget: AtomicBool::new(false),
        cancel,
        interrupted: AtomicBool::new(false),
        panicked: AtomicBool::new(false),
        panic_note: Mutex::new(None),
        found: Mutex::new(Vec::new()),
        #[cfg(test)]
        inject_panic_at: INJECT_PANIC_AT_NODE.with(|n| n.get()),
    };
    lock(&shared.queues[0]).push_back(Task {
        path: Vec::new(),
        decisions: BTreeMap::new(),
        trace: Vec::new(),
        worklist,
        touch: None,
    });
    std::thread::scope(|scope| {
        let shared = &shared;
        for id in 0..threads {
            scope.spawn(move || worker(shared, id));
        }
    });
    // Outcome priority: a panic is a bug report (loudest), then the
    // governor, then the budget — matching the sequential driver, whose
    // per-node check order is cancel before budget.
    if let Some(message) = lock(&shared.panic_note).take() {
        return Err(CoreError::WorkerPanic { message });
    }
    let mut found = shared
        .found
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if shared.interrupted.load(Ordering::Relaxed) {
        return Err(CoreError::Interrupted {
            phase: InterruptPhase::RepairSearch,
            partial: found.len(),
        });
    }
    if shared.over_budget.load(Ordering::Relaxed) {
        return Err(CoreError::BudgetExceeded {
            budget: config.node_budget,
        });
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(found
        .into_iter()
        .map(|(_, delta, trace)| (delta, trace))
        .collect())
}

/// Worker loop: drain own deque depth-first, steal when empty, exit when
/// the whole pool is idle or the budget tripped.
fn worker(shared: &Shared<'_>, id: usize) {
    let mut fork = shared.base.clone();
    let mut applied = Delta::default();
    let mut idle_rounds: u32 = 0;
    loop {
        if shared.halted() {
            return;
        }
        if shared.cancel.is_cancelled() {
            // Work still outstanding means the candidate set is a prefix.
            if shared.pending.load(Ordering::Acquire) > 0 {
                shared.interrupted.store(true, Ordering::Relaxed);
            }
            return;
        }
        let task = pop_own(shared, id).or_else(|| steal(shared, id));
        match task {
            Some(task) => {
                idle_rounds = 0;
                // Contain panics to the task: record the payload, flag the
                // pool, and keep this worker's loop intact — siblings stop
                // at their next between-task check and the scope join
                // never sees an unwinding thread. The fork may be stale
                // relative to `applied` after a mid-task panic, but this
                // worker never runs another task (`halted()` above).
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_task(shared, id, &mut fork, &mut applied, task)
                }));
                if let Err(payload) = outcome {
                    *lock(&shared.panic_note) = Some(panic_message(payload));
                    shared.panicked.store(true, Ordering::Relaxed);
                }
                // Decrement only after children (if any) were published:
                // `pending` never reads 0 while work remains.
                shared.pending.fetch_sub(1, Ordering::AcqRel);
            }
            None => {
                if shared.pending.load(Ordering::Acquire) == 0 {
                    return;
                }
                // Back off: yield at first, then sleep — an idle worker
                // must not burn a core (or, oversubscribed, steal cycles
                // from the productive workers) while a long task runs.
                idle_rounds += 1;
                if idle_rounds < 16 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
        }
    }
}

fn pop_own(shared: &Shared<'_>, id: usize) -> Option<Task> {
    lock(&shared.queues[id]).pop_back()
}

/// Steal the oldest (shallowest) task from another worker, scanning
/// round-robin from the neighbour.
fn steal(shared: &Shared<'_>, id: usize) -> Option<Task> {
    let n = shared.queues.len();
    for offset in 1..n {
        let victim = (id + offset) % n;
        if let Some(task) = lock(&shared.queues[victim]).pop_front() {
            return Some(task);
        }
    }
    None
}

/// Morph `fork` (currently `base + applied`) into `base + target` by
/// applying only the set difference of the two cumulative decision deltas
/// — O(Δ) instance work, no rebuild, regardless of how far apart the two
/// branches are in the tree.
fn reconcile(fork: &mut Instance, applied: &mut Delta, target: Delta) {
    for atom in applied.inserted.difference(&target.inserted) {
        fork.remove(atom.rel, &atom.tuple);
    }
    for atom in applied.removed.difference(&target.removed) {
        let _ = fork.insert(atom.rel, atom.tuple.clone());
    }
    for atom in target.inserted.difference(&applied.inserted) {
        let _ = fork.insert(atom.rel, atom.tuple.clone());
    }
    for atom in target.removed.difference(&applied.removed) {
        fork.remove(atom.rel, &atom.tuple);
    }
    *applied = target;
}

/// Execute one search node: reconcile the fork, extend the worklist with
/// the entering decision's touching violations, branch on the first live
/// violation (or publish a fixpoint), and push child tasks.
///
/// Mirrors `Search::run_incremental` exactly — same worklist order, same
/// lazy revalidation, same fix filtering — so a node at the same decision
/// prefix sees the same instance content and emits the same children as
/// the sequential driver would.
fn run_task(shared: &Shared<'_>, id: usize, fork: &mut Instance, applied: &mut Delta, task: Task) {
    let nodes = shared.nodes.fetch_add(1, Ordering::Relaxed) + 1;
    if nodes > shared.config.node_budget {
        shared.over_budget.store(true, Ordering::Relaxed);
        return;
    }
    if shared.cancel.is_cancelled() {
        // Abandon the node unexpanded: the candidate set is a prefix.
        shared.interrupted.store(true, Ordering::Relaxed);
        return;
    }
    #[cfg(test)]
    if shared.inject_panic_at == nodes {
        panic!("injected worker panic at node {nodes}");
    }
    reconcile(fork, applied, delta_of(&task.decisions));
    let mut worklist = task.worklist;
    if let Some(step_delta) = &task.touch {
        for v in violations_touching(fork, shared.ics, step_delta, SatMode::NullAware) {
            if !worklist.contains(&v) {
                worklist.push(v);
            }
        }
    }
    let mut pending = worklist.into_iter();
    let violation = loop {
        match pending.next() {
            Some(v) if violation_active(fork, shared.ics, &v, SatMode::NullAware) => {
                break v;
            }
            Some(_) => continue, // fixed by an ancestor decision
            None => {
                // `applied` is exactly delta_of(task.decisions) since the
                // reconcile above — clone it instead of rebuilding.
                lock(&shared.found).push((task.path, applied.clone(), task.trace));
                return;
            }
        }
    };
    let rest: Vec<Violation> = pending.collect();
    let constraint_name = shared.ics.constraints()[violation.constraint_index]
        .name()
        .to_string();
    let fixes = fixes_for(shared.ics, shared.config.semantics, &violation);
    let mut children: Vec<Task> = Vec::with_capacity(fixes.len());
    for (index, fix) in fixes.into_iter().enumerate() {
        let (action, atom) = match fix {
            Fix::Delete(atom) => {
                if task.decisions.get(&atom) == Some(&Decision::Inserted) {
                    continue; // protected
                }
                (RepairAction::Delete, atom)
            }
            Fix::Insert(atom) => {
                if task.decisions.get(&atom) == Some(&Decision::Deleted) {
                    continue; // already ruled out on this branch
                }
                debug_assert!(
                    !fork.contains(&atom),
                    "insert fix must not already be present"
                );
                (RepairAction::Insert, atom)
            }
        };
        let decision = match action {
            RepairAction::Insert => Decision::Inserted,
            RepairAction::Delete => Decision::Deleted,
        };
        let mut decisions = task.decisions.clone();
        decisions.insert(atom.clone(), decision);
        let mut trace = task.trace.clone();
        trace.push(RepairStep {
            constraint: constraint_name.clone(),
            action,
            atom: atom.clone(),
        });
        let mut path = task.path.clone();
        path.push(index as u32);
        let touch = match action {
            RepairAction::Insert => Delta::insertion(atom),
            RepairAction::Delete => Delta::deletion(atom),
        };
        children.push(Task {
            path,
            decisions,
            trace,
            worklist: rest.clone(),
            touch: Some(touch),
        });
    }
    if !children.is_empty() {
        shared.pending.fetch_add(children.len(), Ordering::AcqRel);
        let mut queue = lock(&shared.queues[id]);
        // Reversed so the owner's LIFO pop explores fix 0 first, matching
        // the sequential driver's branch order.
        for child in children.into_iter().rev() {
            queue.push_back(child);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: make the task that charges exactly this node number
    /// panic (0 = disabled). Drives the panic-containment unit test
    /// below. It is per calling thread: tests run concurrently in one
    /// process, and a process-wide switch would fire inside other tests'
    /// searches.
    static INJECT_PANIC_AT_NODE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchStrategy;
    use cqa_constraints::{v, Constraint, Ic};
    use cqa_relational::{s, Schema, Tuple};

    /// n dangling Course rows under a Course → Student RIC: every row
    /// branches (delete | insert null-witness), so the tree has 2^n
    /// fixpoints — plenty of parallel work.
    fn dangling(n: usize) -> (Instance, IcSet) {
        let sc = Schema::builder()
            .relation("Course", ["ID", "Code"])
            .relation("Student", ["ID", "Name"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        for k in 0..n {
            d.insert_named("Course", Tuple::new([s(&format!("id{k}")), s("C1")]))
                .unwrap();
        }
        let ric = Ic::builder(&sc, "ric")
            .body_atom("Course", [v("id"), v("code")])
            .head_atom("Student", [v("id"), v("name")])
            .finish()
            .unwrap();
        (d, IcSet::new([Constraint::from(ric)]))
    }

    fn config(threads: usize) -> RepairConfig {
        RepairConfig {
            strategy: SearchStrategy::Parallel { threads },
            ..RepairConfig::default()
        }
    }

    #[test]
    fn injected_worker_panic_is_typed_and_pool_is_reusable() {
        let (d, ics) = dangling(6);
        let caches = CqaCaches::new();
        let baseline = search(&d, &ics, config(4), 4, &caches, &CancelToken::never()).unwrap();
        assert_eq!(baseline.len(), 64);

        // Silence the default panic hook while the injected panic fires
        // (containment is under test; the report would just be noise).
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        INJECT_PANIC_AT_NODE.with(|n| n.set(3));
        let err = search(&d, &ics, config(4), 4, &caches, &CancelToken::never()).unwrap_err();
        INJECT_PANIC_AT_NODE.with(|n| n.set(0));
        std::panic::set_hook(prev);

        match err {
            CoreError::WorkerPanic { message } => {
                assert!(message.contains("injected worker panic"), "{message}")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The machinery survives: same caches, fresh call, full answer.
        let again = search(&d, &ics, config(4), 4, &caches, &CancelToken::never()).unwrap();
        assert_eq!(again.len(), baseline.len());
    }

    #[test]
    fn tripped_token_interrupts_with_prefix() {
        let (d, ics) = dangling(6);
        let caches = CqaCaches::new();
        let cancel = CancelToken::new();
        cancel.cancel(); // pre-tripped: workers must drain immediately
        let err = search(&d, &ics, config(4), 4, &caches, &cancel).unwrap_err();
        match err {
            CoreError::Interrupted { phase, partial } => {
                assert_eq!(phase, InterruptPhase::RepairSearch);
                assert!(partial < 64, "pre-tripped token cannot finish the tree");
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        // And the same pool machinery still completes untripped.
        let full = search(&d, &ics, config(4), 4, &caches, &CancelToken::never()).unwrap();
        assert_eq!(full.len(), 64);
    }
}
