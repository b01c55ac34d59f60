//! Derived-result caches, scoped per handle.
//!
//! Two caches make repeated calls over an unchanged (or mildly changed)
//! database cheap:
//!
//! * [`WorklistCache`] — root violation scans for the repair engine. The
//!   O(instance) full scan is the one per-call cost of `repairs*` that
//!   does not shrink with the conflict count; keyed on
//!   [`Instance::version`] + constraint set, invalidation is exact.
//! * [`GroundingCache`] — persistent [`GroundingState`]s for the repair
//!   program Π(D, IC), keyed by constraint set, program style and pruning
//!   flag, stamped with the instance version. A version mismatch does not
//!   discard the entry: the cache takes the [`InstanceDelta`] of the
//!   stored base instance against the caller's and replays it onto the
//!   live state — removals through the DRed delete–rederive pass
//!   ([`GroundingState::remove_facts`]), insertions through the seminaive
//!   worklist ([`GroundingState::add_facts`]) — so *any* drift regrounds
//!   incrementally, the program route's analogue of
//!   `violations_touching`.
//!
//!   **Drift policy.** Replaying a delta costs proportional to its
//!   derivation cone; replaying most of the instance costs more than
//!   starting over (every removal tears down and every insertion rebuilds
//!   cone-by-cone, where a from-scratch grounding batches the whole
//!   fixpoint). The cache therefore keeps a rebuild *escape hatch*: when
//!   the drift exceeds [`MAX_DRIFT_NUM`]/[`MAX_DRIFT_DEN`] of the target
//!   instance's atoms — or the schema changed, which no fact delta can
//!   express — the entry is rebuilt from scratch instead. The
//!   reground/rebuild split is observable in [`GroundingCacheStats`].
//!
//! The worklist cache is a small LRU; the grounding cache is bounded by a
//! *size-aware* budget instead of an entry count — each entry weighs its
//! ground program's `atoms + rules`, and least-recently-used entries are
//! evicted until the summed weight fits (the most recent entry always
//! survives, even oversized). Both live behind a [`CqaCaches`] bundle.
//! The process-wide [`global`] bundle is the default every free function
//! uses — existing call sites keep their behaviour — while the `Database`
//! facade owns a bundle per database, so many tenants in one process
//! cannot evict each other's scans (ROADMAP "Worklist-cache scope"; the
//! per-tenant test pins this).

use crate::error::{CoreError, InterruptPhase};
use crate::program::{repair_program_with, ProgramStyle};
use cqa_asp::{GroundingState, SolverState, SolverStateStats};
use cqa_constraints::{violations, IcSet, SatMode, Violation};
use cqa_relational::{CancelToken, Instance, InstanceDelta};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Capacity of the worklist cache (entries, LRU eviction).
const CACHE_CAP: usize = 8;

/// Default grounding-cache budget: summed `atoms + rules` across cached
/// ground programs. Generous — a clean=800 Example-19 grounding weighs
/// ~20k — but bounded, so a process serving many large tenants through
/// one bundle cannot grow without limit.
pub const DEFAULT_GROUNDING_BUDGET: usize = 1 << 20;

/// Numerator of the drift escape hatch: a delta larger than
/// `MAX_DRIFT_NUM/MAX_DRIFT_DEN` of the target instance rebuilds.
pub const MAX_DRIFT_NUM: usize = 1;
/// Denominator of the drift escape hatch.
pub const MAX_DRIFT_DEN: usize = 2;

/// Lifetime counters of one [`WorklistCache`] handle, in the same
/// named-struct shape as [`GroundingCacheStats`] and
/// [`SolverStateStats`]. Meaningful as before/after deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorklistCacheStats {
    /// Scans answered from the cache.
    pub hits: u64,
    /// Scans that ran the full-violation pass.
    pub misses: u64,
    /// Entries evicted by the LRU capacity.
    pub evictions: u64,
}

/// LRU cache of root full-violation scans keyed by
/// `(Instance::version, IcSet)`.
#[derive(Debug, Default)]
pub struct WorklistCache {
    entries: Mutex<Vec<(u64, IcSet, Vec<Violation>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl WorklistCache {
    /// An empty cache.
    pub fn new() -> Self {
        WorklistCache::default()
    }

    /// The full violation set of `d` — the root worklist of the
    /// incremental and parallel searches — served from the cache when the
    /// version + constraint set match. Keying on [`Instance::version`]
    /// makes invalidation exact: any content mutation reassigns the stamp,
    /// and clones share stamps only while content-identical.
    pub(crate) fn root_worklist(&self, d: &Instance, ics: &IcSet) -> Vec<Violation> {
        let version = d.version();
        {
            let mut cache = self.entries.lock().expect("worklist cache lock");
            if let Some(pos) = cache
                .iter()
                .position(|(v, set, _)| *v == version && set == ics)
            {
                let entry = cache.remove(pos);
                let worklist = entry.2.clone();
                cache.push(entry); // most-recently-used at the back
                self.hits.fetch_add(1, Ordering::Relaxed);
                return worklist;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let worklist = violations(d, ics, SatMode::NullAware);
        let mut cache = self.entries.lock().expect("worklist cache lock");
        // The lock was dropped during the scan: a concurrent caller may
        // have raced the same key in. Re-check so duplicates never waste
        // LRU slots.
        if !cache.iter().any(|(v, set, _)| *v == version && set == ics) {
            if cache.len() >= CACHE_CAP {
                cache.remove(0);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            cache.push((version, ics.clone(), worklist.clone()));
        }
        worklist
    }

    /// Lifetime counters of this handle.
    pub fn stats(&self) -> WorklistCacheStats {
        WorklistCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Key of one cached grounding: constraint set, program style, pruning.
type GroundingKey = (IcSet, ProgramStyle, bool);

/// One cached grounding: the instance it was built from (for diffing),
/// the live state, and the paired incremental solver. `Arc`-shared so a
/// cache hit hands out a reference, not a deep copy — read-only callers
/// (`repairs_via_program*`) never pay for the state's size, and the
/// per-query extension path clones explicitly.
///
/// The [`SolverState`] follows the grounding's *lineage*: it rides along
/// through incremental evolution (atom ids are stable there) and is
/// replaced by a fresh one whenever the grounding is rebuilt from scratch
/// (atom ids restart). Everything it holds is content-validated, so a
/// racer observing an older grounding through a shared solver stays
/// sound — at worst it re-solves.
#[derive(Debug, Clone)]
struct GroundingEntry {
    base: Instance,
    state: Arc<GroundingState>,
    solver: Arc<Mutex<SolverState>>,
}

/// Lifetime counters of one [`GroundingCache`] handle. Meaningful as
/// before/after deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroundingCacheStats {
    /// Exact version matches: the cached state was handed out as-is.
    pub hits: u64,
    /// Incremental regrounds: a drifted entry evolved in place by
    /// replaying its [`InstanceDelta`] (removals via DRed, insertions via
    /// the seminaive worklist).
    pub regrounds: u64,
    /// Stale entries rebuilt from scratch (drift over the escape-hatch
    /// fraction, or a schema change).
    pub rebuilds: u64,
    /// Cold misses: no entry for the key at all.
    pub misses: u64,
    /// Entries evicted by the size budget.
    pub evictions: u64,
}

/// Budgeted LRU cache of persistent Π(D, IC) groundings. See the module
/// docs for the hit / incremental-reground / rebuild trichotomy and the
/// size-aware eviction policy.
#[derive(Debug)]
pub struct GroundingCache {
    entries: Mutex<Vec<(GroundingKey, GroundingEntry)>>,
    /// Summed `atoms + rules` budget across cached ground programs.
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    regrounds: AtomicU64,
    rebuilds: AtomicU64,
    evictions: AtomicU64,
}

impl Default for GroundingCache {
    fn default() -> Self {
        GroundingCache::with_budget(DEFAULT_GROUNDING_BUDGET)
    }
}

/// Eviction weight of one entry: ground atoms + ground rules held live,
/// floored at 1 so even an empty grounding counts against the budget —
/// the budget therefore also bounds the entry *count*, which keeps the
/// linear key scan under the lock short.
fn entry_weight(entry: &GroundingEntry) -> usize {
    let gp = entry.state.ground_program();
    (gp.atom_count() + gp.rules.len()).max(1)
}

impl GroundingCache {
    /// An empty cache with the default size budget.
    pub fn new() -> Self {
        GroundingCache::default()
    }

    /// An empty cache bounded by `budget` (summed `atoms + rules` across
    /// cached ground programs; the most recent entry is always kept).
    pub fn with_budget(budget: usize) -> Self {
        GroundingCache {
            entries: Mutex::new(Vec::new()),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            regrounds: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A grounding of Π(`d`, `ics`) in the given style, shared out of the
    /// cache (read-only callers use the `Arc` directly; the per-query
    /// extension path clones the state before mutating). Same version →
    /// hit; bounded drift → incremental reground (any mix of insertions
    /// and deletions); oversized drift or schema change → rebuild.
    pub(crate) fn state_for(
        &self,
        d: &Instance,
        ics: &IcSet,
        style: ProgramStyle,
        prune: bool,
    ) -> Result<Arc<GroundingState>, CoreError> {
        self.state_for_governed(d, ics, style, prune, &CancelToken::never())
    }

    /// [`GroundingCache::state_for`] under a cancellation token. The
    /// exact-version hit path is O(1) and never polls; the rebuild and
    /// incremental-reground paths run their propagation loops governed. A
    /// trip mid-grounding *poisons* the in-flight state (the in-place
    /// update cannot unwind soundly), which is then discarded — never
    /// cached — and surfaces as [`CoreError::Interrupted`] with
    /// `phase = Grounding`, `partial = 0`: a partial grounding supports
    /// no sound conclusions. The stale entry was already detached from
    /// the cache, so a later call simply rebuilds from scratch.
    pub(crate) fn state_for_governed(
        &self,
        d: &Instance,
        ics: &IcSet,
        style: ProgramStyle,
        prune: bool,
        cancel: &CancelToken,
    ) -> Result<Arc<GroundingState>, CoreError> {
        self.entry_for_governed(d, ics, style, prune, cancel)
            .map(|(state, _)| state)
    }

    /// [`GroundingCache::state_for_governed`] returning the paired
    /// incremental [`SolverState`] as well — what the program route's
    /// delta-aware solving path consumes. The solver handle follows the
    /// grounding's lineage: it survives incremental regrounds and is
    /// replaced together with the grounding on rebuilds.
    pub(crate) fn entry_for_governed(
        &self,
        d: &Instance,
        ics: &IcSet,
        style: ProgramStyle,
        prune: bool,
        cancel: &CancelToken,
    ) -> Result<(Arc<GroundingState>, Arc<Mutex<SolverState>>), CoreError> {
        // Borrowed key comparison — the owned IcSet clone is only paid on
        // the insert path, never on a hit (same discipline as the
        // worklist cache).
        let matches = |(k_ics, k_style, k_prune): &GroundingKey| {
            k_ics == ics && *k_style == style && *k_prune == prune
        };
        // Fast path under the lock: an exact-version hit costs an Arc
        // bump.
        let stale: Option<GroundingEntry> = {
            let mut cache = self.entries.lock().expect("grounding cache lock");
            match cache.iter().position(|(k, _)| matches(k)) {
                Some(pos) => {
                    let (k, entry) = cache.remove(pos);
                    if entry.base.version() == d.version() {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        let handles = (entry.state.clone(), entry.solver.clone());
                        cache.push((k, entry)); // most-recently-used at the back
                        return Ok(handles);
                    }
                    Some(entry)
                }
                None => None,
            }
        };
        // Slow path: the grounding work — rebuild or incremental reground
        // — runs with the lock released (same discipline as the worklist
        // cache's scan), so an unrelated key is never blocked behind an
        // O(instance) grounding. The stale entry travels outside the
        // cache meanwhile; a racing thread on the same key at worst
        // duplicates work, never corrupts.
        let had_stale = stale.is_some();
        let evolved = match stale {
            Some(mut entry) => evolve(&mut entry, d, cancel)?.then_some(entry),
            None => None,
        };
        let entry = match evolved {
            Some(entry) => {
                self.regrounds.fetch_add(1, Ordering::Relaxed);
                entry
            }
            None => {
                if had_stale {
                    self.rebuilds.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                GroundingEntry {
                    base: d.clone(),
                    state: Arc::new(build(d, ics, style, prune, cancel)?),
                    // A rebuilt grounding restarts atom interning: the old
                    // solver's ids are meaningless for it, so it starts
                    // fresh too.
                    solver: Arc::new(Mutex::new(SolverState::new())),
                }
            }
        };
        let handles = (entry.state.clone(), entry.solver.clone());
        let mut cache = self.entries.lock().expect("grounding cache lock");
        if let Some(pos) = cache.iter().position(|(k, _)| matches(k)) {
            cache.remove(pos); // racer's entry: ours is current for `d`
        }
        cache.push(((ics.clone(), style, prune), entry));
        // Size-aware eviction: drop least-recently-used entries until the
        // summed weight fits the budget. The entry just inserted (at the
        // back) always survives, even when it alone exceeds the budget.
        let mut total: usize = cache.iter().map(|(_, e)| entry_weight(e)).sum();
        while total > self.budget && cache.len() > 1 {
            let (_, victim) = cache.remove(0);
            total -= entry_weight(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(handles)
    }

    /// Lifetime counters of this handle.
    pub fn stats(&self) -> GroundingCacheStats {
        GroundingCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            regrounds: self.regrounds.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Summed counters of the incremental solvers paired with the cached
    /// groundings — same named-struct shape as [`GroundingCache::stats`]
    /// and [`WorklistCache::stats`]. Solvers evicted with their entries
    /// stop contributing, so read this as a point-in-time gauge.
    pub fn solver_stats(&self) -> SolverStateStats {
        let cache = self.entries.lock().expect("grounding cache lock");
        let mut total = SolverStateStats::default();
        for (_, entry) in cache.iter() {
            let s = entry.solver.lock().expect("solver state lock").stats();
            total.partition_hits += s.partition_hits;
            total.partition_misses += s.partition_misses;
            total.learned_reused += s.learned_reused;
            total.learned_tombstoned += s.learned_tombstoned;
        }
        total
    }
}

/// Ground Π(`d`, `ics`) from scratch into a fresh state, governed: a
/// cancellation mid-build poisons the partial state, which is discarded
/// here (never cached). On success the token is detached again so the
/// cached state can never be tripped by a long-expired deadline.
fn build(
    d: &Instance,
    ics: &IcSet,
    style: ProgramStyle,
    prune: bool,
    cancel: &CancelToken,
) -> Result<GroundingState, CoreError> {
    let program = repair_program_with(d, ics, style, prune)?;
    let mut state = GroundingState::new_governed(&program, cancel.clone());
    if state.is_poisoned() {
        return Err(CoreError::Interrupted {
            phase: InterruptPhase::Grounding,
            partial: 0,
        });
    }
    state.set_cancel(CancelToken::never());
    Ok(state)
}

/// Try to evolve a cached grounding onto `d` incrementally (in place;
/// `Arc::make_mut` deep-copies only if a previous caller still holds the
/// state): replay the drift's removals through the DRed two-pass, then
/// its insertions through the seminaive worklist. `false` when the drift
/// exceeds the escape-hatch fraction or the schema changed (caller
/// rebuilds).
fn evolve(
    entry: &mut GroundingEntry,
    d: &Instance,
    cancel: &CancelToken,
) -> Result<bool, CoreError> {
    let Ok(drift) = InstanceDelta::between(&entry.base, d) else {
        return Ok(false); // schema mismatch
    };
    if drift.exceeds_fraction_of(d, MAX_DRIFT_NUM, MAX_DRIFT_DEN) {
        return Ok(false); // replaying would cost more than starting over
    }
    let schema = d.schema();
    let as_fact = |atom: &cqa_relational::DatabaseAtom| {
        let name = schema.relation(atom.rel).name();
        let pred = entry
            .state
            .program()
            .pred_id(name)
            .expect("repair programs declare every base predicate");
        (pred, atom.tuple.values().to_vec())
    };
    let removed: Vec<(cqa_asp::PredId, Vec<cqa_relational::Value>)> =
        drift.removed.iter().map(as_fact).collect();
    let added: Vec<(cqa_asp::PredId, Vec<cqa_relational::Value>)> =
        drift.added.iter().map(as_fact).collect();
    let state = Arc::make_mut(&mut entry.state);
    // Govern the DRed + seminaive replay. A trip poisons the state; the
    // Err path drops `entry` (already detached from the cache), so the
    // poisoned grounding can never be observed by a later call.
    state.set_cancel(cancel.clone());
    state.remove_facts(removed);
    if !state.is_poisoned() {
        state.add_facts(added)?;
    }
    if state.is_poisoned() {
        return Err(CoreError::Interrupted {
            phase: InterruptPhase::Grounding,
            partial: 0,
        });
    }
    // Detach the token: a cached state must never carry a trippable one.
    state.set_cancel(CancelToken::never());
    entry.base = d.clone();
    Ok(true)
}

/// The two caches bundled: what a `Database` facade owns, and what the
/// process-wide default provides to the free functions. The bundle also
/// carries the fast-path planner's routing counters
/// ([`crate::plan::PlannerCounters`]) so each tenant observes which
/// engine answered its own queries.
#[derive(Debug, Default)]
pub struct CqaCaches {
    /// Root violation scans for the repair engine.
    pub worklist: WorklistCache,
    /// Persistent repair-program groundings.
    pub grounding: GroundingCache,
    /// Fast-path planner routing counters.
    pub planner: crate::plan::PlannerCounters,
}

impl CqaCaches {
    /// A fresh, empty bundle (one per tenant).
    pub fn new() -> Self {
        CqaCaches::default()
    }

    /// A fresh bundle whose grounding cache is bounded by `budget`
    /// (summed `atoms + rules` across cached ground programs) instead of
    /// the default — the knob for tenants with unusually large or
    /// unusually many constraint-set keys.
    pub fn with_grounding_budget(budget: usize) -> Self {
        CqaCaches {
            worklist: WorklistCache::new(),
            grounding: GroundingCache::with_budget(budget),
            planner: crate::plan::PlannerCounters::default(),
        }
    }
}

/// Warm `caches` for `(d, ics, style)` through the ordinary cache paths:
/// ground Π(d, IC) into the grounding cache (unpruned, the program
/// route's default) and scan the root worklist.
///
/// An explicit pre-warm: it does up front exactly what the first
/// program-route call and the first violation scan would do on a miss.
/// `Database::open` does not call it — a reopen loads data only — so
/// benchmarks use it to time a cold grounding of a recovered state.
pub fn warm_caches_in(
    d: &Instance,
    ics: &IcSet,
    style: ProgramStyle,
    caches: &CqaCaches,
) -> Result<(), CoreError> {
    let _ = caches.grounding.state_for(d, ics, style, false)?;
    let _ = caches.worklist.root_worklist(d, ics);
    Ok(())
}

/// The process-wide default bundle, used by every free function that is
/// not handed an explicit one.
pub fn global() -> &'static CqaCaches {
    static GLOBAL: OnceLock<CqaCaches> = OnceLock::new();
    GLOBAL.get_or_init(CqaCaches::new)
}

/// Lifetime counters of the process-wide default grounding cache.
/// Meaningful as before/after deltas.
pub fn grounding_cache_stats() -> GroundingCacheStats {
    global().grounding.stats()
}
