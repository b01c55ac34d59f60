//! The operations the workloads time, in two forms.
//!
//! * **Facade** — through `cqa::Database`, as a user calls it. These give
//!   the end-to-end metrics.
//! * **Layered** — the same work, as the public functions of each layer
//!   crate called in the order the facade calls them, each call wrapped
//!   in a span. These give the per-layer metrics of the traced run.
//!   [`layered_extras`] times layer calls the facade does not make on
//!   that path (`query.eval`, `constraints.scan`, `chase.classify_cold`,
//!   `engine.search`); they sit outside the op's root span, so the root's
//!   self time is the facade's own share.

use crate::check::{of_answers, of_repairs, Answer, Fingerprint};
use crate::tenants::{Row, Tenant, CHASE_QUERY, ENUM_QUERY, FO_QUERY};
use crate::trace::Tracer;
use cqa::constraints::{violations, IcSet, SatMode};
use cqa::core::{
    consistent_answers_governed, plan_query, repairs_via_program_governed, repairs_with_config_in,
    warm_caches_in, AnswerSemantics, CqaCaches, PlannerStats, ProgramStyle, QueryNullSemantics,
    RepairConfig,
};
use cqa::relational::{CancelToken, DatabaseAtom, Instance, InstanceDelta};
use cqa::storage::{DurableStore, StoreOptions, WalOp};
use cqa::Database;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// A planner route, plus the program route (which does not plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    Fo,
    Chase,
    Enum,
    Program,
}

impl Route {
    pub const ALL: [Route; 4] = [Route::Fo, Route::Chase, Route::Enum, Route::Program];

    pub fn name(self) -> &'static str {
        match self {
            Route::Fo => "fo",
            Route::Chase => "chase",
            Route::Enum => "enum",
            Route::Program => "program",
        }
    }

    pub fn parse(name: &str) -> Option<Route> {
        Route::ALL.into_iter().find(|r| r.name() == name)
    }

    /// The tenant this route answers on.
    pub fn tenant(self) -> Tenant {
        match self {
            Route::Fo => Tenant::Fo,
            Route::Chase => Tenant::Chase,
            Route::Enum | Route::Program => Tenant::General,
        }
    }

    /// The query this route answers (the program route has none; it
    /// shares the `general` tenant's).
    pub fn query(self) -> &'static str {
        match self {
            Route::Fo => FO_QUERY,
            Route::Chase => CHASE_QUERY,
            Route::Enum | Route::Program => ENUM_QUERY,
        }
    }

    /// The `PlannerStats` change one answer on this route must cause:
    /// `(fo_rewrite, chase, fallbacks)`.
    pub fn planner_delta(self) -> (u64, u64, u64) {
        match self {
            Route::Fo => (1, 0, 0),
            Route::Chase => (0, 1, 0),
            Route::Enum => (0, 0, 1),
            Route::Program => (0, 0, 0),
        }
    }
}

/// `(fo_rewrite, chase, fallbacks)` between two planner snapshots.
pub fn planner_diff(before: PlannerStats, after: PlannerStats) -> (u64, u64, u64) {
    (
        after.fo_rewrite - before.fo_rewrite,
        after.chase - before.chase,
        after.fallbacks - before.fallbacks,
    )
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One answer through the facade: `(ms, fingerprint)`. The route the
/// planner took is checked; a drift is an error.
pub fn facade_answer(db: &Database, route: Route) -> Result<(f64, Fingerprint), String> {
    let before = db.planner_stats();
    let t = Instant::now();
    let fp = match route {
        Route::Program => {
            let repairs = db.repairs_via_program().map_err(|e| e.to_string())?;
            let ms = ms_since(t);
            (ms, of_repairs(db.instance(), &repairs))
        }
        _ => {
            let answers = db
                .consistent_answers(route.query())
                .map_err(|e| e.to_string())?;
            let ms = ms_since(t);
            (ms, of_answers(&answers))
        }
    };
    let took = planner_diff(before, db.planner_stats());
    if took != route.planner_delta() {
        return Err(format!(
            "route drift on {}: planner moved {took:?}",
            route.name()
        ));
    }
    Ok(fp)
}

/// A durable write of the ingest workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Write {
    Insert(Row),
    Delete(Row),
    InsertAll(Vec<Row>),
    DeleteAll(Vec<Row>),
}

impl Write {
    /// Rows the write carries.
    pub fn rows(&self) -> &[Row] {
        match self {
            Write::Insert(r) | Write::Delete(r) => std::slice::from_ref(r),
            Write::InsertAll(rs) | Write::DeleteAll(rs) => rs,
        }
    }

    pub fn is_batch(&self) -> bool {
        matches!(self, Write::InsertAll(_) | Write::DeleteAll(_))
    }

    fn inserts(&self) -> bool {
        matches!(self, Write::Insert(_) | Write::InsertAll(_))
    }
}

/// One write through the facade; returns the rows it changed.
pub fn facade_write(db: &mut Database, w: &Write) -> Result<usize, cqa::Error> {
    let pairs = || w.rows().iter().map(|r| (r.rel, r.tuple.clone()));
    Ok(match w {
        Write::Insert(r) => usize::from(db.insert(r.rel, r.tuple.clone())?),
        Write::Delete(r) => usize::from(db.delete(r.rel, r.tuple.clone())?),
        Write::InsertAll(_) => db.insert_all(pairs())?,
        Write::DeleteAll(_) => db.delete_all(pairs())?,
    })
}

/// Named counters accumulated by layered ops (sums; ratios are taken
/// when the run reports).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts(pub BTreeMap<String, f64>);

impl Counts {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Counts) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    /// One `COUNT` line per counter.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.0.iter().map(|(k, v)| format!("COUNT\t{k}\t{v}"))
    }

    pub fn absorb_line(&mut self, line: &str) {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() == 3 && f[0] == "COUNT" {
            if let Ok(v) = f[2].parse::<f64>() {
                self.add(f[1], v);
            }
        }
    }
}

/// A tenant held as the facade holds it, but field by field, so the
/// layered ops can call each layer crate directly.
#[derive(Debug)]
pub struct LayeredTenant {
    pub store: DurableStore,
    pub instance: Instance,
    pub ics: IcSet,
    pub caches: CqaCaches,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What `Database::open` does, layer by layer: load and decode the store,
/// ground the snapshot state (unless constraint frames follow), apply
/// the WAL, and ground the final state.
pub fn layered_open(
    t: &mut Tracer,
    dir: &Path,
    counts: &mut Counts,
) -> Result<LayeredTenant, String> {
    let (store, recovered) = t
        .span("storage.open", || {
            DurableStore::open(dir, StoreOptions::default())
        })
        .map_err(err)?;
    counts.add(
        "storage.frames_replayed",
        recovered.report.frames_applied as f64,
    );
    counts.add("storage.opens", 1.0);
    let caches = CqaCaches::new();
    let mut instance = recovered.snapshot_instance;
    let mut ics = recovered.ics;
    let replaying_constraints = recovered
        .ops
        .iter()
        .any(|(_, op)| matches!(op, WalOp::Constraint(_)));
    let warmed_snapshot = !recovered.ops.is_empty() && !replaying_constraints;
    if warmed_snapshot {
        layered_ground(t, &instance, &ics, &caches, counts)?;
    }
    t.span("relational.apply", || {
        for (_, op) in &recovered.ops {
            match op {
                WalOp::Delta(d) => {
                    instance.apply(d.added.iter().cloned(), d.removed.iter().cloned())
                }
                WalOp::Constraint(con) => ics.push(con.clone()),
            }
        }
    });
    layered_ground(t, &instance, &ics, &caches, counts)?;
    Ok(LayeredTenant {
        store,
        instance,
        ics,
        caches,
    })
}

/// `warm_caches_in`, named after what the grounding cache did: a cold
/// miss or rebuild is `ground.scratch`, an incremental reground is
/// `ground.reground`, an exact hit is `ground.hit`.
fn layered_ground(
    t: &mut Tracer,
    d: &Instance,
    ics: &IcSet,
    caches: &CqaCaches,
    counts: &mut Counts,
) -> Result<(), String> {
    let before = caches.grounding.stats();
    let id = t.enter("ground");
    let out = warm_caches_in(d, ics, ProgramStyle::default(), caches);
    t.exit(id);
    out.map_err(err)?;
    let after = caches.grounding.stats();
    let (hits, regrounds) = (after.hits - before.hits, after.regrounds - before.regrounds);
    let (rebuilds, misses) = (
        after.rebuilds - before.rebuilds,
        after.misses - before.misses,
    );
    let name = if rebuilds + misses > 0 {
        "ground.scratch"
    } else if regrounds > 0 {
        "ground.reground"
    } else {
        "ground.hit"
    };
    t.rename(id, name);
    counts.add(
        "ground.lookups",
        (hits + regrounds + rebuilds + misses) as f64,
    );
    counts.add("ground.hits", hits as f64);
    counts.add("ground.rebuilds", rebuilds as f64);
    Ok(())
}

/// One answer on `route`, layer by layer: parse, plan, then the route's
/// engine on the tenant's own caches. Extra layer calls follow the root
/// span (see [`layered_extras`]); fingerprint the answer after it, too.
pub fn layered_answer(
    t: &mut Tracer,
    route: Route,
    d: &Instance,
    ics: &IcSet,
    caches: &CqaCaches,
    counts: &mut Counts,
) -> Result<Answer, String> {
    let config = RepairConfig::default();
    let never = CancelToken::never();
    let answer = |caches: &CqaCaches, q: &cqa::core::Query| {
        consistent_answers_governed(
            d,
            ics,
            q,
            config,
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
            caches,
            &never,
        )
    };
    if route == Route::Program {
        layered_ground(t, d, ics, caches, counts)?;
        let before = caches.grounding.solver_stats();
        let repairs = t
            .span("solve", || {
                repairs_via_program_governed(d, ics, ProgramStyle::default(), false, caches, &never)
            })
            .map_err(err)?;
        let after = caches.grounding.solver_stats();
        let hits = after.partition_hits - before.partition_hits;
        let misses = after.partition_misses - before.partition_misses;
        counts.add("solve.partition_hits", hits as f64);
        counts.add("solve.partitions", (hits + misses) as f64);
        counts.add(
            "solve.learned_reused",
            (after.learned_reused - before.learned_reused) as f64,
        );
        counts.add("solve.models", repairs.len() as f64);
        counts.add("solve.calls", 1.0);
        return Ok(Answer::Repairs(repairs));
    }
    let q = t
        .span("sql.parse", || {
            cqa::sql::parse_query(d.schema(), route.query())
        })
        .map_err(err)?;
    t.span("plan.classify", || plan_query(ics, &q, &config));
    let planner_before = caches.planner.stats();
    let worklist_before = caches.worklist.stats();
    let span = match route {
        Route::Fo => "rewrite.answer",
        Route::Chase => "chase.classify",
        _ => "cqa.enumerated",
    };
    let answers = t.span(span, || answer(caches, &q)).map_err(err)?;
    let took = planner_diff(planner_before, caches.planner.stats());
    if took != route.planner_delta() {
        return Err(format!(
            "route drift on {}: planner moved {took:?}",
            route.name()
        ));
    }
    counts.add("plan.fast", (took.0 + took.1) as f64);
    counts.add("plan.planned", (took.0 + took.1 + took.2) as f64);
    let worklist_after = caches.worklist.stats();
    counts.add(
        "worklist.hits",
        (worklist_after.hits - worklist_before.hits) as f64,
    );
    counts.add(
        "worklist.lookups",
        (worklist_after.hits + worklist_after.misses
            - worklist_before.hits
            - worklist_before.misses) as f64,
    );
    Ok(Answer::Tuples(answers.tuples))
}

/// Layer calls the facade does not make on `route`'s path, timed after
/// the op so its root span excludes them.
pub fn layered_extras(
    t: &mut Tracer,
    route: Route,
    d: &Instance,
    ics: &IcSet,
    caches: &CqaCaches,
    counts: &mut Counts,
) -> Result<(), String> {
    let config = RepairConfig::default();
    let never = CancelToken::never();
    match route {
        Route::Fo => {
            let q = cqa::sql::parse_query(d.schema(), route.query()).map_err(err)?;
            t.span("query.eval", || q.eval(d));
        }
        Route::Chase => {
            let v = t.span("constraints.scan", || {
                violations(d, ics, SatMode::NullAware)
            });
            counts.add("constraints.violations", v.len() as f64);
            counts.add("constraints.scans", 1.0);
            let q = cqa::sql::parse_query(d.schema(), route.query()).map_err(err)?;
            let fresh = CqaCaches::new();
            t.span("chase.classify_cold", || {
                consistent_answers_governed(
                    d,
                    ics,
                    &q,
                    config,
                    AnswerSemantics::IncludeNullAnswers,
                    QueryNullSemantics::NullAsValue,
                    &fresh,
                    &never,
                )
            })
            .map_err(err)?;
        }
        Route::Enum => {
            let reps = t
                .span("engine.search", || {
                    repairs_with_config_in(d, ics, config, caches)
                })
                .map_err(err)?;
            counts.add("engine.repairs", reps.len() as f64);
            counts.add("engine.searches", 1.0);
        }
        Route::Program => {}
    }
    Ok(())
}

/// What the facade's mutators do, layer by layer: filter no-ops, append
/// the delta to the WAL (fsync per policy), apply it, and compact when
/// the WAL has outgrown the snapshot. Returns the rows changed.
pub fn layered_write(
    t: &mut Tracer,
    lt: &mut LayeredTenant,
    dir: &Path,
    w: &Write,
    counts: &mut Counts,
) -> Result<usize, String> {
    let mut delta = InstanceDelta::default();
    for r in w.rows() {
        let rel = lt.instance.schema().require(r.rel).map_err(err)?;
        let atom = DatabaseAtom::new(rel, r.tuple.clone());
        match (w.inserts(), lt.instance.contains(&atom)) {
            (true, false) => {
                delta.added.insert(atom);
            }
            (false, true) => {
                delta.removed.insert(atom);
            }
            _ => {}
        }
    }
    let rows = delta.added.len() + delta.removed.len();
    if rows == 0 {
        return Ok(0);
    }
    let user: u64 = delta
        .added
        .iter()
        .chain(&delta.removed)
        .map(|a| crate::tenants::row_bytes(&a.tuple))
        .sum();
    let before = lt.store.stats();
    t.span("storage.append", || lt.store.append_delta(&delta))
        .map_err(err)?;
    let appended = lt.store.stats();
    t.span("relational.apply", || {
        lt.instance
            .apply(delta.added.iter().cloned(), delta.removed.iter().cloned())
    });
    let files_before = crate::tenants::dir_files(dir);
    let id = t.enter("storage.compact_check");
    let compacted = lt.store.maybe_compact(&lt.instance, &lt.ics);
    t.exit(id);
    if compacted.map_err(err)? {
        t.rename(id, "storage.compact");
        let written: u64 = crate::tenants::dir_files(dir)
            .into_iter()
            .filter(|(name, _)| {
                name == "manifest"
                    || (name != "wal" && !files_before.iter().any(|(n, _)| n == name))
            })
            .map(|(_, len)| len)
            .sum();
        counts.add("storage.bytes_written", written as f64);
    }
    let after = lt.store.stats();
    counts.add("storage.user_bytes", user as f64);
    counts.add(
        "storage.bytes_written",
        appended.wal_bytes.saturating_sub(before.wal_bytes) as f64,
    );
    counts.add("storage.appends", (after.appends - before.appends) as f64);
    counts.add("storage.fsyncs", (after.fsyncs - before.fsyncs) as f64);
    counts.add(
        "storage.group_commits",
        (after.group_commits - before.group_commits) as f64,
    );
    counts.add(
        "storage.group_frames",
        (after.group_batch_frames - before.group_batch_frames) as f64,
    );
    counts.add(
        "storage.compactions",
        (after.compactions - before.compactions) as f64,
    );
    counts.add(
        "storage.segments_written",
        (after.segments_written - before.segments_written) as f64,
    );
    counts.add(
        "storage.segments_reused",
        (after.segments_reused - before.segments_reused) as f64,
    );
    counts.add("storage.writes", 1.0);
    Ok(rows)
}
