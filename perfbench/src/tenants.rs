//! The benchmark's tenants: four persistent stores generated from the
//! run's seed, each with a WAL tail that `Database::open` must replay.
//!
//! | tenant | constraints | route of its query |
//! |---|---|---|
//! | `fo` | key FDs + NOT NULL on `emp`/`dept`, plain `retired` | FO-rewrite |
//! | `chase` | key FD, `p ∧ q → false` denial, a check added by `add_constraint` | chase |
//! | `general` | Example-19 shape: key, FK, NOT NULL | enumerate, and the program route |
//! | `exist` | `r(x) → ∃z q(x, z, z)` (outside Definition 9) | — (repairs only) |
//!
//! Every tenant holds about 2.3–2.4k facts. Its WAL tail is 500 single-row
//! frames: a conflict member is inserted and deleted again, 250 times, so
//! the tail stays under the 64 KiB compaction floor and the live state
//! after the tail equals the generated one.

use cqa::constraints::{builders, IcSet};
use cqa::relational::testing::XorShift;
use cqa::relational::{i, null, s, DatabaseAtom, Instance, Schema, Tuple, Value};
use cqa::Database;
use std::path::Path;
use std::sync::Arc;

/// FO-rewrite query of the `fo` tenant (quantifier-free, with negation).
pub const FO_QUERY: &str = "q(e, d, m) :- emp(e, d), dept(d, m), not retired(e).";
/// Chase query of the `chase` tenant (quantifier-free, with negation).
pub const CHASE_QUERY: &str = "ans(x, y) :- p(x, y), not q(x).";
/// Query of the `general` tenant; its FK has a head atom, so it enumerates.
pub const ENUM_QUERY: &str = "ans(x, y) :- R(x, y).";

/// Frames in every tenant's WAL tail.
pub const TAIL_FRAMES: usize = 500;
/// Rows in one `insert_all`/`delete_all` batch of the ingest workload.
pub const BATCH_ROWS: usize = 64;
/// Conflict members the ingest workload toggles per tenant.
pub const MEMBERS: usize = 2;

/// Which tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tenant {
    Fo,
    Chase,
    General,
    Exist,
}

impl Tenant {
    /// Every tenant, in store-creation order.
    pub const ALL: [Tenant; 4] = [Tenant::Fo, Tenant::Chase, Tenant::General, Tenant::Exist];

    /// Directory and display name.
    pub fn name(self) -> &'static str {
        match self {
            Tenant::Fo => "fo",
            Tenant::Chase => "chase",
            Tenant::General => "general",
            Tenant::Exist => "exist",
        }
    }

    /// Per-tenant seed salt, so tenants of one run draw different streams.
    fn salt(self) -> u64 {
        match self {
            Tenant::Fo => 0x9e37_79b9,
            Tenant::Chase => 0x85eb_ca6b,
            Tenant::General => 0xc2b2_ae35,
            Tenant::Exist => 0x27d4_eb2f,
        }
    }
}

/// A row addressed by relation name, as the facade's mutators take it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub rel: &'static str,
    pub tuple: Tuple,
}

fn row<const N: usize>(rel: &'static str, values: [Value; N]) -> Row {
    Row {
        rel,
        tuple: Tuple::from(values),
    }
}

/// Everything needed to build one tenant's store and drive writes at it.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub tenant: Tenant,
    pub instance: Instance,
    pub ics: IcSet,
    /// Added through `add_constraint` after creation, so the store holds
    /// a constraint WAL frame.
    pub added_constraint: Option<(&'static str, &'static str)>,
    /// The WAL tail, in order: `(insert?, row)`.
    pub tail: Vec<(bool, Row)>,
    /// Conflict members absent from the generated state, toggled by the
    /// ingest workload's single-row writes.
    pub members: Vec<Row>,
    /// Clean rows absent from the generated state, written as one batch.
    pub batch: Vec<Row>,
}

/// Generate `tenant` from `seed`; the same seed gives the same spec.
pub fn generate(tenant: Tenant, seed: u64) -> TenantSpec {
    let mut rng = XorShift::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ tenant.salt());
    match tenant {
        Tenant::Fo => fo(&mut rng),
        Tenant::Chase => chase(&mut rng),
        Tenant::General => general(&mut rng, seed),
        Tenant::Exist => exist(&mut rng),
    }
}

fn shared(schema: Schema) -> Arc<Schema> {
    schema.into_shared()
}

/// Insert `r`, panicking on a schema mismatch (the generators are static).
fn put(inst: &mut Instance, r: &Row) {
    inst.insert_named(r.rel, r.tuple.clone())
        .expect("generated row matches the static schema");
}

fn contains(inst: &Instance, r: &Row) -> bool {
    let rel = inst.schema().require(r.rel).expect("static relation");
    inst.contains(&DatabaseAtom::new(rel, r.tuple.clone()))
}

/// A tail of `TAIL_FRAMES` frames: each candidate is inserted and then
/// deleted again. Candidates must be absent from the generated state.
fn toggle_tail(inst: &Instance, mut candidate: impl FnMut(usize) -> Row) -> Vec<(bool, Row)> {
    let mut tail = Vec::with_capacity(TAIL_FRAMES);
    let mut k = 0;
    while tail.len() < TAIL_FRAMES {
        let r = candidate(k);
        k += 1;
        if contains(inst, &r) {
            continue;
        }
        tail.push((true, r.clone()));
        tail.push((false, r));
    }
    tail
}

fn fo(rng: &mut XorShift) -> TenantSpec {
    const DEPTS: usize = 400;
    const EMPS: usize = 1500;
    let schema = shared(
        Schema::builder()
            .relation("emp", ["id", "dept"])
            .relation("dept", ["id", "mgr"])
            .relation("retired", ["id"])
            .finish()
            .expect("static schema"),
    );
    let mut inst = Instance::empty(schema.clone());
    let mut has_mgr = Vec::with_capacity(DEPTS);
    for d in 0..DEPTS {
        let mgr = if rng.chance(1, 10) {
            null()
        } else {
            s(&format!("m{}", rng.below(5000)))
        };
        has_mgr.push(!mgr.is_null());
        put(&mut inst, &row("dept", [s(&format!("d{d}")), mgr]));
    }
    let mut has_dept = Vec::with_capacity(EMPS);
    for e in 0..EMPS {
        let dept = if rng.chance(1, 12) {
            null()
        } else {
            s(&format!("d{}", rng.below(DEPTS)))
        };
        has_dept.push(!dept.is_null());
        put(&mut inst, &row("emp", [s(&format!("e{e}")), dept]));
    }
    for _ in 0..300 {
        put(
            &mut inst,
            &row("retired", [s(&format!("e{}", rng.below(EMPS)))]),
        );
    }
    // Key conflicts, few enough that enumeration can cross-check the
    // FO-rewrite answer: 3 emp + 1 dept pairs, each against a non-null
    // dependent value (a null would escape the FD), so 16 repairs.
    let conflict_at = |base: usize, span: usize, rng: &mut XorShift, ok: &[bool]| {
        let mut at = base + rng.below(span);
        while !ok[at] {
            at += 1;
        }
        at
    };
    for k in 0..3 {
        let e = conflict_at(k * 450, 200, rng, &has_dept);
        put(
            &mut inst,
            &row("emp", [s(&format!("e{e}")), s(&format!("dx{k}"))]),
        );
    }
    let d = conflict_at(100, 150, rng, &has_mgr);
    put(&mut inst, &row("dept", [s(&format!("d{d}")), s("mx0")]));
    let mut ics = IcSet::default();
    ics.push(builders::functional_dependency(&schema, "emp", &[0], 1).expect("static"));
    ics.push(builders::functional_dependency(&schema, "dept", &[0], 1).expect("static"));
    ics.push(builders::not_null(&schema, "emp", 0).expect("static"));
    ics.push(builders::not_null(&schema, "dept", 0).expect("static"));
    let tail = toggle_tail(&inst, |k| {
        row(
            "emp",
            [s(&format!("e{}", rng.below(EMPS))), s(&format!("dt{k}"))],
        )
    });
    let members = (0..MEMBERS)
        .map(|k| {
            row(
                "emp",
                [s(&format!("e{}", 700 + k * 311)), s(&format!("dm{k}"))],
            )
        })
        .collect();
    let batch = (0..BATCH_ROWS)
        .map(|k| {
            row(
                "emp",
                [s(&format!("eb{k}")), s(&format!("d{}", rng.below(DEPTS)))],
            )
        })
        .collect();
    TenantSpec {
        tenant: Tenant::Fo,
        instance: inst,
        ics,
        added_constraint: None,
        tail,
        members,
        batch,
    }
}

fn chase(rng: &mut XorShift) -> TenantSpec {
    const PS: usize = 1600;
    let schema = shared(
        Schema::builder()
            .relation("p", ["a", "b"])
            .relation("q", ["a"])
            .finish()
            .expect("static schema"),
    );
    let mut inst = Instance::empty(schema.clone());
    // 20 rows violate the check added below (single-tuple edges).
    let fails_check = |k: usize| k % 80 == 7;
    for k in 0..PS {
        let y = if fails_check(k) {
            -1 - rng.below(50) as i64
        } else {
            rng.below(1000) as i64
        };
        put(&mut inst, &row("p", [s(&format!("p{k}")), i(y)]));
    }
    for k in 0..650 {
        put(&mut inst, &row("q", [s(&format!("q{k}"))]));
    }
    // 2 key conflicts and 2 denial conflicts on rows that pass the
    // check: 16 repairs.
    let passing = |p: usize| if fails_check(p) { p + 1 } else { p };
    for k in 0..2 {
        let p = passing(100 + k * 500 + rng.below(60));
        put(
            &mut inst,
            &row("p", [s(&format!("p{p}")), i(2000 + k as i64)]),
        );
    }
    for k in 0..2 {
        let p = passing(300 + k * 400 + rng.below(60));
        put(&mut inst, &row("q", [s(&format!("p{p}"))]));
    }
    let mut ics = IcSet::default();
    ics.push(builders::functional_dependency(&schema, "p", &[0], 1).expect("static"));
    ics.push(
        cqa::sql::parse_constraint(&schema, "den", "p(x, y), q(x) -> false")
            .expect("static constraint"),
    );
    let tail = toggle_tail(&inst, |_| row("q", [s(&format!("p{}", rng.below(PS)))]));
    let members = (0..MEMBERS)
        .map(|k| row("q", [s(&format!("p{}", 1250 + k * 17))]))
        .collect();
    let batch = (0..BATCH_ROWS)
        .map(|k| row("p", [s(&format!("pb{k}")), i(rng.below(1000) as i64)]))
        .collect();
    TenantSpec {
        tenant: Tenant::Chase,
        instance: inst,
        ics,
        added_constraint: Some(("chk", "p(x, y) -> y >= 0")),
        tail,
        members,
        batch,
    }
}

fn general(rng: &mut XorShift, seed: u64) -> TenantSpec {
    const CLEAN: usize = 1200;
    // 1200 clean R/S pairs, 2 key conflicts and 2 dangling FK rows with
    // null keys: 2406 facts and 2^2 · 2^2 = 16 repairs.
    let w = cqa_bench::example19_scaled(CLEAN, 2, 2, seed);
    let inst = w.instance;
    let tail = toggle_tail(&inst, |k| {
        row(
            "R",
            [s(&format!("r{}", rng.below(CLEAN))), s(&format!("zt{k}"))],
        )
    });
    let members = (0..MEMBERS)
        .map(|k| {
            row(
                "R",
                [s(&format!("r{}", 600 + k * 211)), s(&format!("zm{k}"))],
            )
        })
        .collect();
    let batch = (0..BATCH_ROWS / 2)
        .flat_map(|k| {
            let key = format!("rb{k}");
            [
                row("R", [s(&key), s(&format!("y{}", rng.below(65536)))]),
                row("S", [s(&format!("sb{k}")), s(&key)]),
            ]
        })
        .collect();
    TenantSpec {
        tenant: Tenant::General,
        instance: inst,
        ics: w.ics,
        added_constraint: None,
        tail,
        members,
        batch,
    }
}

fn exist(rng: &mut XorShift) -> TenantSpec {
    const RS: usize = 1200;
    let schema = shared(
        Schema::builder()
            .relation("r", ["x"])
            .relation("q", ["a", "b", "c"])
            .finish()
            .expect("static schema"),
    );
    let mut inst = Instance::empty(schema.clone());
    for k in 0..RS {
        put(&mut inst, &row("r", [s(&format!("v{k}"))]));
        // One r row lacks its witness: one violation, two repairs.
        if k != 0 {
            let w = s(&format!("w{}", rng.below(5000)));
            put(&mut inst, &row("q", [s(&format!("v{k}")), w, w]));
        }
    }
    let mut ics = IcSet::default();
    ics.push(
        cqa::sql::parse_constraint(&schema, "wit", "r(x) -> exists z: q(x, z, z)")
            .expect("static constraint"),
    );
    let tail = toggle_tail(&inst, |k| {
        row(
            "q",
            [
                s(&format!("v{}", rng.below(RS))),
                s(&format!("a{k}")),
                s(&format!("b{k}")),
            ],
        )
    });
    TenantSpec {
        tenant: Tenant::Exist,
        instance: inst,
        ics,
        added_constraint: None,
        tail,
        members: Vec::new(),
        batch: Vec::new(),
    }
}

/// Create the store of `spec` at `dir` with the default `StoreOptions`,
/// add its constraint and write its tail, all through the facade. Returns
/// the never-closed handle.
pub fn create_store(spec: &TenantSpec, dir: &Path) -> Result<Database, cqa::Error> {
    let mut db = Database::persistent(dir, spec.instance.clone(), spec.ics.clone())?;
    if let Some((name, text)) = spec.added_constraint {
        db.add_constraint(name, text)?;
    }
    for (insert, r) in &spec.tail {
        if *insert {
            db.insert(r.rel, r.tuple.clone())?;
        } else {
            db.delete(r.rel, r.tuple.clone())?;
        }
    }
    Ok(db)
}

/// Text bytes of the live tuples: the user data a store holds.
pub fn user_bytes(inst: &Instance) -> u64 {
    inst.atoms().map(|a| row_bytes(&a.tuple)).sum()
}

/// Text bytes of one tuple's values.
pub fn row_bytes(t: &Tuple) -> u64 {
    t.values().iter().map(|v| v.to_string().len() as u64).sum()
}

/// `(name, bytes)` of every file in `dir` (a store is flat), by name.
pub fn dir_files(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| {
                    let meta = e.metadata().ok().filter(|m| m.is_file())?;
                    Some((e.file_name().to_string_lossy().into_owned(), meta.len()))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Bytes of every file in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    dir_files(dir).iter().map(|(_, len)| len).sum()
}
