//! Reopen round-trip suite: for every constraint class the facade
//! accepts, create a persistent store, write a WAL tail, drop the handle
//! and reopen it — every answer route on the reopened handle must equal
//! what a never-closed handle answers on the same state, before and after
//! further churn.
//!
//! Classes: each member of the 6-constraint pool (RIC, UIC, single-column
//! FD, composite-determinant FD, NNC, denial — the pool of
//! `tests/engine_vs_program.rs`), the whole pool at once, a check
//! constraint, a constraint added through `add_constraint` (a constraint
//! WAL frame), and a general existential `p(x) -> exists z: q(x, z, z)`
//! that lies outside Definition 9. Routes: the planner's pick
//! (FO-rewrite, chase or enumeration — each must occur somewhere in the
//! suite), forced enumeration, repair enumeration, and the program route
//! wherever Definition 9 applies.
//!
//! Data and tails come from the workspace's deterministic [`XorShift`];
//! a failure names its case and seed.

use cqa::constraints::{builders, v, Constraint, Ic, IcSet};
use cqa::core::query::AnswerSemantics;
use cqa::core::{
    consistent_answers_enumerated, consistent_answers_via_program, CoreError, PlanRoute,
    ProgramStyle, QueryNullSemantics, RepairConfig,
};
use cqa::prelude::*;
use cqa::relational::testing::XorShift;
use cqa::storage::{FsyncPolicy, StoreOptions};
use cqa::Error;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cqa-reopen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options() -> StoreOptions {
    StoreOptions {
        // Durability against power loss is not the subject here; the
        // default compaction floor keeps the whole tail in the WAL, so
        // reopen really replays it.
        fsync: FsyncPolicy::Never,
        ..StoreOptions::default()
    }
}

fn schema() -> Arc<Schema> {
    Schema::builder()
        .relation("p", ["a"])
        .relation("r", ["x", "y"])
        .relation("t", ["a", "b", "c"])
        .relation("q", ["a", "b", "c"])
        .finish()
        .unwrap()
        .into_shared()
}

/// The 6-constraint pool of `tests/engine_vs_program.rs`, over this
/// suite's schema.
fn pool(sc: &Schema) -> Vec<Constraint> {
    vec![
        // RIC: p(x) → ∃y r(x, y)
        Constraint::from(
            Ic::builder(sc, "ric")
                .body_atom("p", [v("x")])
                .head_atom("r", [v("x"), v("y")])
                .finish()
                .unwrap(),
        ),
        // UIC: t(x, y, z) → p(x)
        Constraint::from(
            Ic::builder(sc, "uic")
                .body_atom("t", [v("x"), v("y"), v("z")])
                .head_atom("p", [v("x")])
                .finish()
                .unwrap(),
        ),
        // key on r[1]
        Constraint::from(builders::functional_dependency(sc, "r", &[0], 1).unwrap()),
        // composite-determinant FD: t[1,2] → t[3]
        Constraint::from(builders::functional_dependency(sc, "t", &[0, 1], 2).unwrap()),
        // NNC on p[1]
        Constraint::from(builders::not_null(sc, "p", 0).unwrap()),
        // denial: t(x, y, _) ∧ r(x, x) → false
        Constraint::from(
            Ic::builder(sc, "den")
                .body_atom("t", [v("x"), v("y"), v("z")])
                .body_atom("r", [v("x"), v("x")])
                .finish()
                .unwrap(),
        ),
    ]
}

/// Quantifier-free queries (the planner may route them to a fast path)
/// plus one with an existential variable (always enumeration).
const QUERIES: &[&str] = &[
    "ans(x, y) :- r(x, y).",
    "ans(x) :- p(x), not r(x, x).",
    "ans(x, y, z) :- t(x, y, z), r(x, y).",
    "ans(x) :- r(x, y).",
];

fn value(rng: &mut XorShift) -> Value {
    match rng.below(5) {
        0 | 1 => s("c0"),
        2 | 3 => s("c1"),
        _ => null(),
    }
}

/// A random fact over `p`, `r` or `t`.
fn fact(rng: &mut XorShift) -> (&'static str, Tuple) {
    match rng.below(3) {
        0 => ("p", Tuple::new([value(rng)])),
        1 => ("r", Tuple::new([value(rng), value(rng)])),
        _ => ("t", Tuple::new([value(rng), value(rng), value(rng)])),
    }
}

fn instance(rng: &mut XorShift, sc: &Arc<Schema>) -> Instance {
    let mut d = Instance::empty(sc.clone());
    for _ in 0..10 {
        let (rel, tuple) = fact(rng);
        d.insert_named(rel, tuple).unwrap();
    }
    d
}

/// Toggle `n` random facts through the facade: each op is one effective
/// WAL frame (an insert, or the delete of a fact already present).
fn churn(db: &mut Database, rng: &mut XorShift, n: usize) {
    for _ in 0..n {
        let (rel, tuple) = fact(rng);
        if !db.insert(rel, tuple.clone()).unwrap() {
            assert!(db.delete(rel, tuple).unwrap());
        }
    }
}

/// Everything every route says about one handle's state.
#[derive(Debug, PartialEq)]
struct Observed {
    instance: Instance,
    constraints: IcSet,
    repairs: Vec<Instance>,
    program_repairs: Option<Vec<Instance>>,
    queries: Vec<Answered>,
}

/// One query's answers on every route.
#[derive(Debug, PartialEq)]
struct Answered {
    /// The route the planner picked for `planned`.
    route: PlanRoute,
    planned: BTreeSet<Tuple>,
    enumerated: BTreeSet<Tuple>,
    /// Cautious reasoning over Π(D, IC), where Definition 9 applies.
    via_program: Option<BTreeSet<Tuple>>,
}

fn observe(db: &Database, program: bool) -> Observed {
    let (d, ics) = (db.instance(), db.constraints());
    let queries = QUERIES
        .iter()
        .map(|text| {
            let planned = db.consistent_answers(text).unwrap();
            let route = db.planner_stats().last_route.expect("a planned request");
            let q = cqa::sql::parse_query(db.schema(), text).unwrap();
            let enumerated = consistent_answers_enumerated(
                d,
                ics,
                &q,
                RepairConfig::default(),
                AnswerSemantics::IncludeNullAnswers,
                QueryNullSemantics::NullAsValue,
            )
            .unwrap()
            .tuples;
            let via_program = program.then(|| {
                consistent_answers_via_program(
                    d,
                    ics,
                    &q,
                    ProgramStyle::default(),
                    AnswerSemantics::IncludeNullAnswers,
                )
                .unwrap()
                .tuples
            });
            // The routes agree with each other, not just across reopen.
            assert_eq!(planned, enumerated, "{text} on {route:?}");
            if let Some(via_program) = &via_program {
                assert_eq!(via_program, &enumerated, "{text} via the program");
            }
            Answered {
                route,
                planned,
                enumerated,
                via_program,
            }
        })
        .collect();
    Observed {
        instance: d.clone(),
        constraints: ics.clone(),
        repairs: db.repairs().unwrap(),
        program_repairs: program.then(|| db.repairs_via_program().unwrap()),
        queries,
    }
}

struct Case {
    name: String,
    ics: IcSet,
    /// A constraint added after creation (a constraint WAL frame).
    added: Option<(&'static str, &'static str)>,
    /// Does Definition 9 cover the final constraint set?
    program: bool,
}

/// Create, churn, drop, reopen; compare the reopened handle with a
/// never-closed in-memory twin of the same state, before and after a
/// second round of churn on both. Returns the reopened handle's routes
/// and whether its state violated the constraints.
fn round_trip(case: &Case, sc: &Arc<Schema>, seed: u64) -> (Vec<PlanRoute>, bool) {
    let name = format!("{}-{seed}", case.name);
    let dir = scratch(&name);
    let mut rng = XorShift::new(seed);
    let mut db =
        Database::persistent_with(&dir, instance(&mut rng, sc), case.ics.clone(), options())
            .unwrap();
    churn(&mut db, &mut rng, 6);
    let mut frames = 6;
    if let Some((con, text)) = case.added {
        db.add_constraint(con, text).unwrap();
        churn(&mut db, &mut rng, 4);
        frames += 5;
    }
    let expected = observe(&db, case.program);
    let mut twin = Database::new(db.instance().clone(), db.constraints().clone());
    drop(db);

    let mut back = Database::open_with(&dir, options())
        .unwrap_or_else(|e| panic!("{name}: reopen failed: {e}"));
    let report = back.recovery_report().expect("opened stores report");
    assert_eq!(report.frames_applied, frames, "{name}: tail replayed");
    let observed = observe(&back, case.program);
    assert_eq!(observed, expected, "{name}: reopened ≠ never-closed");
    assert_eq!(observe(&twin, case.program), expected, "{name}");
    let routes = observed.queries.iter().map(|q| q.route).collect();
    let inconsistent = !back.is_consistent();

    // Churn after reopen: the lazily filled caches must track it exactly
    // as the never-closed twin's do.
    let mut twin_rng = XorShift::new(seed ^ 0x5eed);
    let mut back_rng = XorShift::new(seed ^ 0x5eed);
    churn(&mut twin, &mut twin_rng, 3);
    churn(&mut back, &mut back_rng, 3);
    assert_eq!(
        observe(&back, case.program),
        observe(&twin, case.program),
        "{name}: post-reopen churn diverged"
    );
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
    (routes, inconsistent)
}

#[test]
fn every_constraint_class_round_trips_on_every_route() {
    let sc = schema();
    let mut cases: Vec<Case> = pool(&sc)
        .into_iter()
        .map(|con| Case {
            name: format!("pool-{}", con.name()),
            ics: [con].into_iter().collect(),
            added: None,
            program: true,
        })
        .collect();
    cases.push(Case {
        name: "pool-all".into(),
        ics: pool(&sc).into_iter().collect(),
        added: None,
        program: true,
    });
    cases.push(Case {
        name: "check".into(),
        ics: [cqa::sql::parse_constraint(&sc, "chk", "t(a, b, c) -> c <> 'c1'").unwrap()]
            .into_iter()
            .collect(),
        added: None,
        program: true,
    });
    cases.push(Case {
        name: "added".into(),
        ics: [Constraint::from(
            builders::functional_dependency(&sc, "r", &[0], 1).unwrap(),
        )]
        .into_iter()
        .collect(),
        added: Some(("den_added", "p(x), r(x, x) -> false")),
        program: true,
    });
    cases.push(Case {
        name: "exist".into(),
        ics: [cqa::sql::parse_constraint(&sc, "wit", "p(x) -> exists z: q(x, z, z)").unwrap()]
            .into_iter()
            .collect(),
        added: None,
        program: false,
    });

    let mut routes = Vec::new();
    for case in &cases {
        let mut any_inconsistent = false;
        for seed in 1300..1304 {
            let (case_routes, inconsistent) = round_trip(case, &sc, seed);
            routes.extend(case_routes);
            any_inconsistent |= inconsistent;
        }
        // Non-vacuity: some reopened state of every class is inconsistent.
        assert!(any_inconsistent, "{}: every state consistent", case.name);
    }
    // …and the suite reaches every planner route.
    for route in [PlanRoute::FoRewrite, PlanRoute::Chase, PlanRoute::Enumerate] {
        assert!(
            routes.contains(&route),
            "no case planned {route:?}: {routes:?}"
        );
    }
}

/// Seeded regression: a store whose constraint lies outside Definition 9
/// used to be unreopenable, because `open` grounded the repair program
/// eagerly and the program route refuses the constraint. Reopen must
/// succeed and answer; the program route refuses only when called.
#[test]
fn existential_store_reopens_and_program_route_refuses_only_when_called() {
    let dir = scratch("exist-regression");
    let sc = Schema::builder()
        .relation("r", ["x"])
        .relation("q", ["a", "b", "c"])
        .finish()
        .unwrap()
        .into_shared();
    let mut d = Instance::empty(sc.clone());
    d.insert_named("r", [s("a")]).unwrap();
    let ics: IcSet =
        [cqa::sql::parse_constraint(&sc, "wit", "r(x) -> exists z: q(x, z, z)").unwrap()]
            .into_iter()
            .collect();
    let mut db = Database::persistent_with(&dir, d, ics, options()).unwrap();
    // A WAL tail: a satisfied witness pair and a churned row.
    assert!(db.insert("r", [s("b")]).unwrap());
    assert!(db.insert("q", [s("b"), s("w"), s("w")]).unwrap());
    assert!(db.insert("r", [s("gone")]).unwrap());
    assert!(db.delete("r", [s("gone")]).unwrap());
    let before = db.repairs().unwrap();
    assert_eq!(before.len(), 2, "delete r(a), or insert q(a, null, null)");
    drop(db);

    let back = Database::open_with(&dir, options()).expect("an existential store reopens");
    assert_eq!(back.recovery_report().unwrap().frames_applied, 4);
    let stats = back.caches().grounding.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.regrounds, stats.rebuilds),
        (0, 0, 0, 0)
    );
    assert_eq!(back.repairs().unwrap(), before);
    match back.repairs_via_program() {
        Err(Error::Core(CoreError::UnsupportedByProgram { constraint, .. })) => {
            assert_eq!(constraint, "wit")
        }
        other => panic!("expected UnsupportedByProgram, got {other:?}"),
    }
    // The refusal is per call: the handle stays fully usable.
    assert_eq!(back.repairs().unwrap().len(), 2);
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
}
