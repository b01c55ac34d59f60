//! The three workloads. One client, closed loop, no extra threads; the
//! operation types of a workload take turns through the whole run, so
//! every metric sees the same mix of the host's fast and slow phases.
//!
//! * `restart` — each sample is a fresh child process that opens one
//!   tenant and returns the first answer on one route (`exist` is in the
//!   rotation too: its open shows whether a store outside Definition 9
//!   can be reopened).
//! * `serve` — handles opened once in set-up; warm answers on all four
//!   routes, no writes.
//! * `ingest` — durable single-row writes (and a 64-row batch every 8th
//!   write) on `fo`, `chase` and `general`, each followed by the first
//!   answer after it on that tenant's route.

use crate::check::{of_answers, Answer, Fingerprint};
use crate::ops::{
    facade_answer, facade_write, layered_answer, layered_extras, layered_open, layered_write,
    Counts, LayeredTenant, Route, Write,
};
use crate::stats::{
    calibration_factor, highest_supported, kernel_ms, median, peak_rss_mb, percentile, Laps,
};
use crate::tenants::{create_store, dir_bytes, generate, user_bytes, Tenant, TenantSpec, MEMBERS};
use crate::trace::Tracer;
use cqa::core::{
    consistent_answers_enumerated_governed, AnswerSemantics, CqaCaches, QueryNullSemantics,
    RepairConfig,
};
use cqa::relational::CancelToken;
use cqa::Database;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Set-ups per run: one before the timed loop, the rest spread through
/// it; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Traced ops whose counters are summed, per workload: whole rotations
/// (restart, serve) or enough ingest periods to span compactions. A
/// traced run goes on until its window is complete, so every count
/// repeats exactly between runs of one seed. Ingest also takes its store
/// size after this many ops, at a period boundary, in both modes.
fn count_window(w: Workload) -> usize {
    match w {
        Workload::Restart => 10,
        Workload::Serve => 16,
        Workload::Ingest => 20 * 32,
    }
}

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Restart,
    Serve,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Restart, Workload::Serve, Workload::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Restart => "restart",
            Workload::Serve => "serve",
            Workload::Ingest => "ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn tenants(self) -> &'static [Tenant] {
        match self {
            Workload::Restart => &Tenant::ALL,
            _ => &[Tenant::Fo, Tenant::Chase, Tenant::General],
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the run's stores (inside the checkout).
    pub run_dir: PathBuf,
    /// The benchmark executable, which restart samples run as children.
    pub exe: PathBuf,
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Samples of one run, by series name.
#[derive(Debug, Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    /// `name: median, p-high, n` for every series.
    fn notes(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(name, v)| match highest_supported(v.len()) {
                Some(p) => format!(
                    "  {name}: median {:.4}, p{} {:.4}, n={}",
                    median(v),
                    p * 100.0,
                    percentile(v, p),
                    v.len()
                ),
                None => format!("  {name}: median {:.4}, n={}", median(v), v.len()),
            })
            .collect()
    }
}

/// Open handles by tenant.
pub type Handles = BTreeMap<Tenant, Database>;

/// Stores created, never-closed handles, and expected answers.
pub struct Built {
    pub specs: BTreeMap<Tenant, TenantSpec>,
    pub handles: Handles,
    pub expected: BTreeMap<Route, Fingerprint>,
    /// Repairs of `exist`, if built.
    pub exist: Option<Fingerprint>,
}

/// Generate `tenants` from `seed` and create their stores under `dir`,
/// then take the expected answer on every route from the never-closed
/// handles. `exist` must answer there (two repairs). Each tenant and
/// each route is one lap of `laps`.
pub fn build(seed: u64, dir: &Path, tenants: &[Tenant], laps: &mut Laps) -> Result<Built, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut specs = BTreeMap::new();
    let mut handles = BTreeMap::new();
    for &t in tenants {
        let spec = generate(t, seed);
        let db = create_store(&spec, &dir.join(t.name())).map_err(|e| e.to_string())?;
        specs.insert(t, spec);
        handles.insert(t, db);
        laps.lap();
    }
    let mut expected = BTreeMap::new();
    for route in Route::ALL {
        if let Some(db) = handles.get(&route.tenant()) {
            expected.insert(route, facade_answer(db, route)?.1);
            laps.lap();
        }
    }
    let mut exist = None;
    if let Some(db) = handles.get(&Tenant::Exist) {
        let repairs = db.repairs().map_err(|e| e.to_string())?;
        if repairs.len() != 2 {
            return Err(format!(
                "exist tenant: expected 2 repairs, got {}",
                repairs.len()
            ));
        }
        exist = Some(Answer::Repairs(repairs).fingerprint(db.instance()));
    }
    Ok(Built {
        specs,
        handles,
        expected,
        exist,
    })
}

/// Cross-check the fast-path answers of `fo` and `chase` against repair
/// enumeration on the same state.
pub fn cross_check(handles: &Handles) -> Result<(), String> {
    for route in [Route::Fo, Route::Chase] {
        let db = &handles[&route.tenant()];
        let (_, fast) = facade_answer(db, route)?;
        let q = cqa::sql::parse_query(db.schema(), route.query()).map_err(|e| e.to_string())?;
        let enumerated = consistent_answers_enumerated_governed(
            db.instance(),
            db.constraints(),
            &q,
            RepairConfig::default(),
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
            &CqaCaches::new(),
            &CancelToken::never(),
        )
        .map_err(|e| e.to_string())?;
        if of_answers(&enumerated.tuples) != fast {
            return Err(format!("{} answer differs from enumeration", route.name()));
        }
    }
    Ok(())
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload {
        Workload::Restart => restart(cfg),
        Workload::Serve => serve(cfg),
        Workload::Ingest => ingest(cfg),
    }
}

/// The run's clock, calibration and samples. Every timed op is
/// bracketed by the calibration kernel: one run right before it (the
/// previous op's "after") and one right after it. Its timings are scaled
/// by [`calibration_factor`] of the two, and kept raw beside them as
/// `raw/<series>`. Set-ups are scaled the same way.
struct Run {
    start: Instant,
    seconds: f64,
    /// Kernel time measured right after the previous op.
    kernel: f64,
    samples: Samples,
    setups: Vec<f64>,
}

/// Run `setup` step by step; returns its output and its calibrated
/// duration in seconds.
fn timed_setup<T>(setup: impl FnOnce(&mut Laps) -> Result<T, String>) -> Result<(T, f64), String> {
    let mut laps = Laps::start();
    let out = setup(&mut laps)?;
    Ok((out, laps.finish()))
}

impl Run {
    /// Time the first set-up.
    fn start<T>(
        seconds: f64,
        setup: impl FnOnce(&mut Laps) -> Result<T, String>,
    ) -> Result<(Run, T), String> {
        let (out, secs) = timed_setup(setup)?;
        let run = Run {
            start: Instant::now(),
            seconds,
            kernel: kernel_ms(),
            samples: Samples::default(),
            setups: vec![secs],
        };
        Ok((run, out))
    }

    /// Start the timed loop's clock (after set-up checks), with a fresh
    /// kernel time for the first op's bracket.
    fn begin_loop(&mut self) {
        self.start = Instant::now();
        self.kernel = kernel_ms();
    }

    fn done(&self) -> bool {
        self.start.elapsed().as_secs_f64() >= self.seconds
    }

    /// Close one op of this process: run the kernel and record the op's
    /// raw timings (none if it failed), scaled by the kernels around it.
    fn op_done(&mut self, timings: &[(String, f64)]) {
        let after = kernel_ms();
        let factor = calibration_factor(self.kernel, after);
        for (series, raw) in timings {
            self.record(series, *raw, raw * factor);
        }
        self.kernel = after;
    }

    /// Record one timing, calibrated and raw.
    fn record(&mut self, series: &str, raw: f64, calibrated: f64) {
        self.samples.push(series, calibrated);
        self.samples.push(&format!("raw/{series}"), raw);
    }

    /// Run an identical set-up into a throwaway directory if the next one
    /// is due, so set-ups spread over the run.
    fn maybe_setup(
        &mut self,
        dir: &Path,
        setup: impl FnOnce(&Path, &mut Laps) -> Result<(), String>,
    ) -> Result<(), String> {
        let due = self.setups.len() as f64 * self.seconds / SETUPS as f64;
        if self.setups.len() >= SETUPS || self.start.elapsed().as_secs_f64() < due {
            return Ok(());
        }
        let rep = dir.join(format!("setup-{}", self.setups.len()));
        let ((), secs) = timed_setup(|laps| setup(&rep, laps))?;
        self.setups.push(secs);
        std::fs::remove_dir_all(&rep).map_err(|e| e.to_string())?;
        self.kernel = kernel_ms();
        Ok(())
    }
}

/// Store directory bytes and live user bytes of `handles`' tenants.
fn sizes(handles: &Handles, dir: &Path) -> (u64, u64) {
    let store = handles.keys().map(|t| dir_bytes(&dir.join(t.name()))).sum();
    let user = handles.values().map(|db| user_bytes(db.instance())).sum();
    (store, user)
}

/// End-to-end metrics common to all workloads, in `BENCHMARK.json` order.
fn end_to_end(
    setup: &[f64],
    rss_mb: f64,
    routes: &Samples,
    store_bytes: u64,
    user: u64,
) -> Vec<Metric> {
    let mut m = vec![
        Metric {
            name: "setup_s",
            value: median(setup),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss_mb,
            unit: "MiB",
        },
    ];
    for (name, route) in [
        ("fo_ms", Route::Fo),
        ("chase_ms", Route::Chase),
        ("enum_ms", Route::Enum),
        ("program_ms", Route::Program),
    ] {
        m.push(Metric {
            name,
            value: routes.median(route.name()),
            unit: "ms",
        });
    }
    m.push(Metric {
        name: "store_bytes_per_user_byte",
        value: store_bytes as f64 / user.max(1) as f64,
        unit: "ratio",
    });
    m
}

// ---------------------------------------------------------------- restart

/// What a restart sample runs in its child process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildKind {
    Answer(Route),
    Exist,
}

impl ChildKind {
    fn name(self) -> &'static str {
        match self {
            ChildKind::Answer(r) => r.name(),
            ChildKind::Exist => "exist",
        }
    }

    pub fn parse(s: &str) -> Option<ChildKind> {
        if s == "exist" {
            Some(ChildKind::Exist)
        } else {
            Route::parse(s).map(ChildKind::Answer)
        }
    }

    fn tenant(self) -> Tenant {
        match self {
            ChildKind::Answer(r) => r.tenant(),
            ChildKind::Exist => Tenant::Exist,
        }
    }
}

/// Raw and calibrated ms of one step of a restart sample.
type Step = (f64, f64);

/// A restart sample's steps and answer.
struct Ttfa {
    open: Step,
    answer: Step,
    fp: Fingerprint,
}

/// A failed restart sample: its steps so far, summed, and the error.
type Failed = (Step, String);

fn sum(a: Step, b: Step) -> Step {
    (a.0 + b.0, a.1 + b.1)
}

/// The child process of a restart sample: open `dir`, answer, print one
/// `RESULT` line (and, traced, its `SPAN` and `COUNT` lines).
pub fn child_main(kind: ChildKind, dir: &Path, traced: bool) {
    let mut fields: Vec<(String, String)> = Vec::new();
    let mut put = |k: &str, v: String| fields.push((k.to_string(), v));
    // Calibrate in the child itself, step by step: the kernel runs in this
    // fresh process right before the open, between the open and the first
    // answer, and right after the answer.
    let mut laps = Laps::start();
    let outcome = if traced {
        traced_ttfa(kind, dir, &mut laps)
    } else {
        facade_ttfa(kind, dir, &mut laps)
    };
    match outcome {
        Ok(ttfa) => {
            let total = sum(ttfa.open, ttfa.answer);
            put("status", "ok".into());
            put("open_ms", format!("{}", ttfa.open.0));
            put("open_cal", format!("{}", ttfa.open.1));
            put("ttfa_ms", format!("{}", total.0));
            put("ttfa_cal", format!("{}", total.1));
            put("count", ttfa.fp.count.to_string());
            put("hash", ttfa.fp.hash.to_string());
        }
        Err((spent, e)) => {
            put("status", "error".into());
            put("fail_ms", format!("{}", spent.0));
            put("fail_cal", format!("{}", spent.1));
            put("error", e.replace(['\t', '\n'], " "));
        }
    }
    put("rss_mb", format!("{}", peak_rss_mb()));
    let line: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("RESULT\t{}", line.join("\t"));
}

/// Open and first answer through the facade.
fn facade_ttfa(kind: ChildKind, dir: &Path, laps: &mut Laps) -> Result<Ttfa, Failed> {
    let opened = Database::open(dir);
    let open = laps.lap();
    let db = opened.map_err(|e| (open, e.to_string()))?;
    let answered = match kind {
        ChildKind::Answer(route) => facade_answer(&db, route),
        ChildKind::Exist => {
            let t = Instant::now();
            exist_repairs(db.instance(), db.constraints()).map(|answer| {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                (ms, answer.fingerprint(db.instance()))
            })
        }
    };
    let answer = match &answered {
        Ok((ms, _)) => laps.lap_of(*ms),
        Err(_) => laps.lap(),
    };
    let (_, fp) = answered.map_err(|e| (sum(open, answer), e))?;
    Ok(Ttfa { open, answer, fp })
}

/// Open and first answer layer by layer, in spans; prints the spans and
/// counts on success.
fn traced_ttfa(kind: ChildKind, dir: &Path, laps: &mut Laps) -> Result<Ttfa, Failed> {
    let mut t = Tracer::new();
    let mut counts = Counts::default();
    let root = t.begin_op("op.ttfa");
    let opened = layered_open(&mut t, dir, &mut counts);
    // The kernel between the steps has a span of its own, so that the
    // root's self time leaves it out.
    let open = t.span("calibration", || laps.lap());
    let lt = match opened {
        Ok(lt) => lt,
        Err(e) => return Err((open, e)),
    };
    let answered = match kind {
        ChildKind::Answer(route) => layered_answer(
            &mut t,
            route,
            &lt.instance,
            &lt.ics,
            &lt.caches,
            &mut counts,
        ),
        ChildKind::Exist => exist_repairs(&lt.instance, &lt.ics),
    };
    t.exit(root);
    let answer = laps.lap();
    let failed = |e| (sum(open, answer), e);
    let fp = answered.map_err(failed)?.fingerprint(&lt.instance);
    if let ChildKind::Answer(route) = kind {
        layered_extras(
            &mut t,
            route,
            &lt.instance,
            &lt.ics,
            &lt.caches,
            &mut counts,
        )
        .map_err(failed)?;
    }
    for line in t.lines().chain(counts.lines()) {
        println!("{line}");
    }
    Ok(Ttfa { open, answer, fp })
}

/// Once `exist` reopens, its answer is its repair set.
fn exist_repairs(
    d: &cqa::relational::Instance,
    ics: &cqa::constraints::IcSet,
) -> Result<Answer, String> {
    cqa::core::repairs_with_config_in(d, ics, RepairConfig::default(), &CqaCaches::new())
        .map(Answer::Repairs)
        .map_err(|e| e.to_string())
}

/// Spawn one restart sample and wait for it.
fn spawn_child(
    exe: &Path,
    kind: ChildKind,
    dir: &Path,
    traced: bool,
) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let out = Command::new(exe)
        .args(["child", kind.name()])
        .arg(dir)
        .arg(if traced { "1" } else { "0" })
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = lines
        .iter()
        .find_map(|l| l.strip_prefix("RESULT\t"))
        .ok_or_else(|| {
            format!(
                "child {} printed no result (exit {:?}): {}",
                kind.name(),
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
    let fields = result
        .split('\t')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok((fields, lines))
}

fn restart(cfg: &Config) -> Result<Report, String> {
    let tenants = Workload::Restart.tenants();
    let dir = cfg.run_dir.join("stores");
    let (mut run, built) = Run::start(cfg.seconds, |laps| build(cfg.seed, &dir, tenants, laps))?;
    cross_check(&built.handles)?;
    run.begin_loop();
    let (store_bytes, user) = sizes(&built.handles, &dir);
    let (expected, exist) = (built.expected.clone(), built.exist);
    drop(built);

    let rotation = [
        ChildKind::Answer(Route::Fo),
        ChildKind::Answer(Route::Chase),
        ChildKind::Answer(Route::Enum),
        ChildKind::Answer(Route::Program),
        ChildKind::Exist,
    ];
    let variants: &[bool] = if cfg.trace { &[false, true] } else { &[false] };
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut traced_ops = 0usize;
    let mut unavailable = 0u64;
    let mut rss = Vec::new();
    let window = count_window(cfg.workload);
    loop {
        for kind in rotation {
            for &traced in variants {
                let (fields, lines) =
                    spawn_child(&cfg.exe, kind, &dir.join(kind.tenant().name()), traced)?;
                report.attempted += 1;
                let field = |k: &str| fields.get(k).map(String::as_str).unwrap_or("");
                let num = |k: &str| field(k).parse::<f64>().unwrap_or(f64::NAN);
                if let Ok(v) = field("rss_mb").parse::<f64>() {
                    rss.push(v);
                }
                let series = if traced { "traced" } else { "untraced" };
                if field("status") != "ok" {
                    if kind == ChildKind::Exist && field("error").contains("Definition-9") {
                        // The known availability defect: a store outside
                        // Definition 9 answers but cannot be reopened.
                        unavailable += 1;
                        run.record(
                            &format!("{series}/exist_fail_ms"),
                            num("fail_ms"),
                            num("fail_cal"),
                        );
                    } else {
                        report.failed += 1;
                        report
                            .notes
                            .push(format!("failed {}: {}", kind.name(), field("error")));
                    }
                } else {
                    let got = Fingerprint {
                        count: field("count").parse().unwrap_or(usize::MAX),
                        hash: field("hash").parse().unwrap_or(0),
                    };
                    let want = match kind {
                        ChildKind::Answer(r) => expected[&r],
                        ChildKind::Exist => exist.unwrap_or_default(),
                    };
                    if got != want {
                        report.failed += 1;
                        report
                            .notes
                            .push(format!("wrong answer on {}", kind.name()));
                    } else {
                        run.record(
                            &format!("{series}/{}", kind.name()),
                            num("ttfa_ms"),
                            num("ttfa_cal"),
                        );
                        if !traced {
                            run.record(
                                &format!("open_ms/{}", kind.name()),
                                num("open_ms"),
                                num("open_cal"),
                            );
                        } else {
                            traced_ops += 1;
                            tracer.absorb_lines(lines.iter().map(String::as_str));
                            if traced_ops <= window {
                                for l in &lines {
                                    counts.absorb_line(l);
                                }
                            }
                        }
                    }
                }
            }
        }
        run.maybe_setup(&cfg.run_dir, |rep, laps| {
            build(cfg.seed, rep, tenants, laps).map(drop)
        })?;
        if run.done() && !(cfg.trace && traced_ops < window) {
            break;
        }
    }
    report.notes.push(format!(
        "restart: {} of {} samples could not open `exist` (a store outside Definition 9)",
        unavailable, report.attempted
    ));
    finish(
        cfg,
        report,
        &run,
        median(&rss),
        store_bytes,
        user,
        &tracer,
        &counts,
    )
}

// ------------------------------------------------------------------ serve

/// Serve set-up: build, reopen every tenant, touch every route once.
fn serve_setup(
    seed: u64,
    dir: &Path,
    laps: &mut Laps,
) -> Result<(Handles, BTreeMap<Route, Fingerprint>), String> {
    let tenants = Workload::Serve.tenants();
    let built = build(seed, dir, tenants, laps)?;
    let expected = built.expected.clone();
    drop(built);
    let mut handles = BTreeMap::new();
    for &t in tenants {
        handles.insert(
            t,
            Database::open(dir.join(t.name())).map_err(|e| e.to_string())?,
        );
        laps.lap();
    }
    for route in Route::ALL {
        if facade_answer(&handles[&route.tenant()], route)?.1 != expected[&route] {
            return Err(format!("reopened {} answers differently", route.name()));
        }
        laps.lap();
    }
    Ok((handles, expected))
}

fn serve(cfg: &Config) -> Result<Report, String> {
    let dir = cfg.run_dir.join("stores");
    let (mut run, (handles, expected)) =
        Run::start(cfg.seconds, |laps| serve_setup(cfg.seed, &dir, laps))?;
    cross_check(&handles)?;
    run.begin_loop();
    let (store_bytes, user) = sizes(&handles, &dir);

    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut traced_ops = 0usize;
    let window = count_window(cfg.workload);
    loop {
        for route in Route::ALL {
            let db = &handles[&route.tenant()];
            report.attempted += 1;
            let mut timings = Vec::new();
            match facade_answer(db, route) {
                Ok((ms, fp)) if fp == expected[&route] => {
                    timings.push((format!("untraced/{}", route.name()), ms))
                }
                Ok(_) => {
                    report.failed += 1;
                    report
                        .notes
                        .push(format!("wrong answer on {}", route.name()));
                }
                Err(e) => {
                    report.failed += 1;
                    report.notes.push(format!("failed {}: {e}", route.name()));
                }
            }
            run.op_done(&timings);
            if cfg.trace {
                report.attempted += 1;
                traced_ops += 1;
                let mut c = Counts::default();
                let root = tracer.begin_op("op.answer");
                let res = layered_answer(
                    &mut tracer,
                    route,
                    db.instance(),
                    db.constraints(),
                    db.caches(),
                    &mut c,
                );
                tracer.exit(root);
                let res = res.and_then(|answer| {
                    let fp = answer.fingerprint(db.instance());
                    layered_extras(
                        &mut tracer,
                        route,
                        db.instance(),
                        db.constraints(),
                        db.caches(),
                        &mut c,
                    )
                    .map(|()| fp)
                });
                match res {
                    Ok(fp) if fp == expected[&route] => run
                        .op_done(&[(format!("traced/{}", route.name()), tracer.duration_ms(root))]),
                    _ => {
                        report.failed += 1;
                        run.op_done(&[]);
                    }
                }
                if traced_ops <= window {
                    counts.merge(&c);
                }
            }
        }
        run.maybe_setup(&cfg.run_dir, |rep, laps| {
            serve_setup(cfg.seed, rep, laps).map(drop)
        })?;
        if run.done() && !(cfg.trace && traced_ops < window) {
            break;
        }
    }
    finish(
        cfg,
        report,
        &run,
        peak_rss_mb(),
        store_bytes,
        user,
        &tracer,
        &counts,
    )
}

// ----------------------------------------------------------------- ingest

/// One step of the ingest workload: a write and the route re-answered
/// on the written tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOp {
    pub tenant: Tenant,
    pub write: Write,
    pub route: Route,
}

/// Cycles in one period of the ingest op sequence.
pub const INGEST_CYCLES: usize = 4;

/// One period of the ingest op sequence: `INGEST_CYCLES` cycles of 8
/// writes, the 8th a 64-row batch. Every write changes the state, and
/// the state after a period equals the state before it, so the expected
/// answers of one period hold for every period.
///
/// Per cycle `c` (member `m = c % 2`):
/// `fo +m`, `chase +0`, `general +m` (enum), `fo −m`, `chase −0`,
/// `general −m` (program), `chase ±1`, then the batch: insert on `fo`,
/// insert on `general`, delete on `fo`, delete on `general`.
pub fn ingest_plan(specs: &BTreeMap<Tenant, TenantSpec>) -> Vec<IngestOp> {
    let (fo, ch, g) = (
        &specs[&Tenant::Fo],
        &specs[&Tenant::Chase],
        &specs[&Tenant::General],
    );
    let op = |tenant, write, route| IngestOp {
        tenant,
        write,
        route,
    };
    let mut plan = Vec::new();
    for c in 0..INGEST_CYCLES {
        let m = c % MEMBERS;
        plan.push(op(
            Tenant::Fo,
            Write::Insert(fo.members[m].clone()),
            Route::Fo,
        ));
        plan.push(op(
            Tenant::Chase,
            Write::Insert(ch.members[0].clone()),
            Route::Chase,
        ));
        plan.push(op(
            Tenant::General,
            Write::Insert(g.members[m].clone()),
            Route::Enum,
        ));
        plan.push(op(
            Tenant::Fo,
            Write::Delete(fo.members[m].clone()),
            Route::Fo,
        ));
        plan.push(op(
            Tenant::Chase,
            Write::Delete(ch.members[0].clone()),
            Route::Chase,
        ));
        plan.push(op(
            Tenant::General,
            Write::Delete(g.members[m].clone()),
            Route::Program,
        ));
        let toggle = if c % 2 == 0 {
            Write::Insert
        } else {
            Write::Delete
        };
        plan.push(op(
            Tenant::Chase,
            toggle(ch.members[1].clone()),
            Route::Chase,
        ));
        plan.push(match c % 4 {
            0 => op(Tenant::Fo, Write::InsertAll(fo.batch.clone()), Route::Fo),
            1 => op(
                Tenant::General,
                Write::InsertAll(g.batch.clone()),
                Route::Program,
            ),
            2 => op(Tenant::Fo, Write::DeleteAll(fo.batch.clone()), Route::Fo),
            _ => op(
                Tenant::General,
                Write::DeleteAll(g.batch.clone()),
                Route::Program,
            ),
        });
    }
    plan
}

/// Expected answer after each op of one period, replayed on in-memory
/// copies of the never-closed handles, one lap per op.
fn ingest_expected(
    built: &Built,
    plan: &[IngestOp],
    laps: &mut Laps,
) -> Result<Vec<Fingerprint>, String> {
    let mut mem: BTreeMap<Tenant, Database> = built
        .handles
        .iter()
        .map(|(t, db)| {
            (
                *t,
                Database::new(db.instance().clone(), db.constraints().clone()),
            )
        })
        .collect();
    let mut out = Vec::with_capacity(plan.len());
    for op in plan {
        let db = mem.get_mut(&op.tenant).expect("planned tenant exists");
        let rows = facade_write(db, &op.write).map_err(|e| e.to_string())?;
        if rows != op.write.rows().len() {
            return Err(format!("ingest op {op:?} changed {rows} rows"));
        }
        out.push(facade_answer(db, op.route)?.1);
        laps.lap();
    }
    for (t, db) in &mem {
        if db.instance() != built.handles[t].instance() {
            return Err(format!(
                "ingest period does not return {} to its state",
                t.name()
            ));
        }
    }
    Ok(out)
}

struct IngestSetup {
    built: Built,
    plan: Vec<IngestOp>,
    expected: Vec<Fingerprint>,
}

fn ingest_setup(seed: u64, dir: &Path, laps: &mut Laps) -> Result<IngestSetup, String> {
    let built = build(seed, dir, Workload::Ingest.tenants(), laps)?;
    let plan = ingest_plan(&built.specs);
    let expected = ingest_expected(&built, &plan, laps)?;
    Ok(IngestSetup {
        built,
        plan,
        expected,
    })
}

fn ingest(cfg: &Config) -> Result<Report, String> {
    let tenants = Workload::Ingest.tenants();
    let dir = cfg.run_dir.join("stores");
    let (mut run, setup) = Run::start(cfg.seconds, |laps| ingest_setup(cfg.seed, &dir, laps))?;
    let IngestSetup {
        built,
        plan,
        expected,
    } = setup;
    cross_check(&built.handles)?;
    let mut handles = built.handles;

    // The traced run drives a second, identical set of stores through
    // the layered ops, in step with the facade handles.
    let layered_dir = cfg.run_dir.join("layered");
    let mut layered: BTreeMap<Tenant, LayeredTenant> = BTreeMap::new();
    if cfg.trace {
        drop(build(cfg.seed, &layered_dir, tenants, &mut Laps::start())?);
        for &t in tenants {
            let lt = layered_open(
                &mut Tracer::new(),
                &layered_dir.join(t.name()),
                &mut Counts::default(),
            )?;
            layered.insert(t, lt);
        }
    }

    run.begin_loop();
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut rows_total = 0usize;
    let mut loop_s = 0.0;
    let mut i = 0usize;
    let window = count_window(cfg.workload);
    let mut sized = None;
    while !run.done() || i < window {
        if i == window {
            sized = Some(sizes(&handles, &dir));
        }
        let k = i % plan.len();
        let op = &plan[k];
        let kind = if op.write.is_batch() {
            "batch"
        } else {
            op.route.name()
        };
        report.attempted += 1;
        let db = handles.get_mut(&op.tenant).expect("planned tenant exists");
        let t0 = Instant::now();
        let res = facade_write(db, &op.write)
            .map_err(|e| e.to_string())
            .and_then(|rows| {
                Ok((
                    rows,
                    t0.elapsed().as_secs_f64() * 1e3,
                    facade_answer(db, op.route)?,
                ))
            });
        let mut timings = Vec::new();
        match res {
            Ok((rows, write_ms, (answer_ms, fp)))
                if fp == expected[k] && rows == op.write.rows().len() =>
            {
                loop_s += (write_ms + answer_ms) / 1e3;
                rows_total += rows;
                timings.push((format!("untraced/{kind}"), write_ms + answer_ms));
                if !op.write.is_batch() {
                    timings.push(("write_ms".to_string(), write_ms));
                    timings.push((format!("reanswer_ms/{kind}"), answer_ms));
                }
            }
            Ok(_) => {
                report.failed += 1;
                report
                    .notes
                    .push(format!("wrong answer after ingest op {k}"));
            }
            Err(e) => {
                report.failed += 1;
                report.notes.push(format!("failed ingest op {k}: {e}"));
            }
        }
        run.op_done(&timings);
        if cfg.trace {
            report.attempted += 1;
            let lt = layered.get_mut(&op.tenant).expect("planned tenant exists");
            let mut c = Counts::default();
            let root = tracer.begin_op("op.ingest");
            let res = layered_write(
                &mut tracer,
                lt,
                &layered_dir.join(op.tenant.name()),
                &op.write,
                &mut c,
            )
            .and_then(|_| {
                layered_answer(
                    &mut tracer,
                    op.route,
                    &lt.instance,
                    &lt.ics,
                    &lt.caches,
                    &mut c,
                )
            });
            tracer.exit(root);
            let res = res.and_then(|answer| {
                let fp = answer.fingerprint(&lt.instance);
                layered_extras(
                    &mut tracer,
                    op.route,
                    &lt.instance,
                    &lt.ics,
                    &lt.caches,
                    &mut c,
                )
                .map(|()| fp)
            });
            match res {
                Ok(fp) if fp == expected[k] => {
                    run.op_done(&[(format!("traced/{kind}"), tracer.duration_ms(root))])
                }
                _ => {
                    report.failed += 1;
                    run.op_done(&[]);
                }
            }
            if i < window {
                counts.merge(&c);
            }
        }
        i += 1;
        if i.is_multiple_of(8) {
            run.maybe_setup(&cfg.run_dir, |rep, laps| {
                ingest_setup(cfg.seed, rep, laps).map(drop)
            })?;
        }
    }
    report.notes.push(format!(
        "ingest: {rows_total} rows acknowledged; {:.1} rows/s over the timed ops",
        rows_total as f64 / loop_s.max(1e-9)
    ));
    let (store_bytes, user) = sized.unwrap_or_else(|| sizes(&handles, &dir));
    for (t, db) in &handles {
        if let Some(s) = db.storage_stats() {
            report.notes.push(format!(
                "ingest: {} compactions, {} appends, {} fsyncs on {}",
                s.compactions,
                s.appends,
                s.fsyncs,
                t.name()
            ));
        }
    }
    finish(
        cfg,
        report,
        &run,
        peak_rss_mb(),
        store_bytes,
        user,
        &tracer,
        &counts,
    )
}

// ---------------------------------------------------------------- report

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order:
/// `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 33] = [
    ("storage.open_ms", "ms", "lower"),
    ("storage.frames_replayed", "count", "lower"),
    ("storage.append_ms", "ms", "lower"),
    ("storage.fsyncs_per_write", "count", "lower"),
    ("storage.group_batch_mean", "count", "higher"),
    ("storage.compactions", "count", "lower"),
    ("storage.compact_ms", "ms", "lower"),
    ("storage.segments_reused_ratio", "ratio", "higher"),
    ("storage.bytes_written_per_user_byte", "ratio", "lower"),
    ("relational.apply_ms", "ms", "lower"),
    ("ground.scratch_ms", "ms", "lower"),
    ("ground.reground_ms", "ms", "lower"),
    ("ground.hit_ratio", "ratio", "higher"),
    ("ground.rebuilds", "count", "lower"),
    ("solve.ms", "ms", "lower"),
    ("solve.partition_hit_ratio", "ratio", "higher"),
    ("solve.learned_reused", "count", "higher"),
    ("solve.models", "count", "lower"),
    ("engine.search_ms", "ms", "lower"),
    ("engine.repairs", "count", "lower"),
    ("engine.worklist_hit_ratio", "ratio", "higher"),
    ("cqa.intersect_ms", "ms", "lower"),
    ("rewrite.answer_ms", "ms", "lower"),
    ("chase.classify_ms", "ms", "lower"),
    ("chase.classify_cold_ms", "ms", "lower"),
    ("constraints.scan_ms", "ms", "lower"),
    ("constraints.violations", "count", "lower"),
    ("query.eval_ms", "ms", "lower"),
    ("plan.classify_us", "us", "lower"),
    ("plan.fast_route_share", "ratio", "higher"),
    ("sql.parse_us", "us", "lower"),
    ("facade.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `cqa.enumerated` minus `engine.search` of the same op: the
/// intersection share of an enumerated answer.
fn intersect_ms(tracer: &Tracer) -> Vec<f64> {
    let mut by_op: BTreeMap<u64, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for s in tracer.spans() {
        let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
        match s.name.as_str() {
            "cqa.enumerated" => by_op.entry(s.op).or_default().0 = Some(ms),
            "engine.search" => by_op.entry(s.op).or_default().1 = Some(ms),
            _ => {}
        }
    }
    by_op
        .values()
        .filter_map(|(e, s)| Some(e.as_ref()? - s.as_ref()?))
        .collect()
}

/// Traced-over-untraced median ratio per op kind, averaged, as a percent.
fn overhead_pct(samples: &Samples) -> f64 {
    let ratios: Vec<f64> = samples
        .0
        .keys()
        .filter_map(|k| k.strip_prefix("traced/"))
        .filter_map(|kind| {
            let untraced = samples.median(&format!("untraced/{kind}"));
            let traced = samples.median(&format!("traced/{kind}"));
            (untraced > 0.0).then(|| traced / untraced)
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        100.0 * (ratios.iter().sum::<f64>() / ratios.len() as f64 - 1.0)
    }
}

fn per_layer(tracer: &Tracer, counts: &Counts, samples: &Samples) -> Vec<Metric> {
    let by = tracer.self_ms_by_name();
    let med = |name: &str| by.get(name).map_or(0.0, |v| median(v));
    let roots: Vec<f64> = by
        .iter()
        .filter(|(k, _)| k.starts_with("op."))
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    let c = |name: &str| counts.get(name);
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "storage.open_ms" => med("storage.open"),
                "storage.frames_replayed" => {
                    ratio(c("storage.frames_replayed"), c("storage.opens"))
                }
                "storage.append_ms" => med("storage.append"),
                "storage.fsyncs_per_write" => ratio(c("storage.fsyncs"), c("storage.writes")),
                "storage.group_batch_mean" => {
                    ratio(c("storage.group_frames"), c("storage.group_commits"))
                }
                "storage.compactions" => c("storage.compactions"),
                "storage.compact_ms" => med("storage.compact"),
                "storage.segments_reused_ratio" => ratio(
                    c("storage.segments_reused"),
                    c("storage.segments_reused") + c("storage.segments_written"),
                ),
                "storage.bytes_written_per_user_byte" => {
                    ratio(c("storage.bytes_written"), c("storage.user_bytes"))
                }
                "relational.apply_ms" => med("relational.apply"),
                "ground.scratch_ms" => med("ground.scratch"),
                "ground.reground_ms" => med("ground.reground"),
                "ground.hit_ratio" => ratio(c("ground.hits"), c("ground.lookups")),
                "ground.rebuilds" => c("ground.rebuilds"),
                "solve.ms" => med("solve"),
                "solve.partition_hit_ratio" => {
                    ratio(c("solve.partition_hits"), c("solve.partitions"))
                }
                "solve.learned_reused" => c("solve.learned_reused"),
                "solve.models" => ratio(c("solve.models"), c("solve.calls")),
                "engine.search_ms" => med("engine.search"),
                "engine.repairs" => ratio(c("engine.repairs"), c("engine.searches")),
                "engine.worklist_hit_ratio" => ratio(c("worklist.hits"), c("worklist.lookups")),
                "cqa.intersect_ms" => median(&intersect_ms(tracer)),
                "rewrite.answer_ms" => med("rewrite.answer"),
                "chase.classify_ms" => med("chase.classify"),
                "chase.classify_cold_ms" => med("chase.classify_cold"),
                "constraints.scan_ms" => med("constraints.scan"),
                "constraints.violations" => {
                    ratio(c("constraints.violations"), c("constraints.scans"))
                }
                "query.eval_ms" => med("query.eval"),
                "plan.classify_us" => med("plan.classify") * 1e3,
                "plan.fast_route_share" => ratio(c("plan.fast"), c("plan.planned")),
                "sql.parse_us" => med("sql.parse") * 1e3,
                "facade.self_ms" => median(&roots),
                "trace.overhead_pct" => overhead_pct(samples),
                _ => unreachable!("every per-layer metric is computed"),
            };
            Metric { name, value, unit }
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn finish(
    cfg: &Config,
    mut report: Report,
    run: &Run,
    rss_mb: f64,
    store_bytes: u64,
    user: u64,
    tracer: &Tracer,
    counts: &Counts,
) -> Result<Report, String> {
    let samples = &run.samples;
    let setup = run.setups.as_slice();
    // Route samples of the untraced ops (ingest: single-row writes only).
    let mut routes = Samples::default();
    for route in Route::ALL {
        for &v in samples.get(&format!("untraced/{}", route.name())) {
            routes.push(route.name(), v);
        }
    }
    report
        .notes
        .push(format!("{} samples:", cfg.workload.name()));
    report.notes.extend(samples.notes());
    report.notes.push(format!(
        "  setup_s: {:?}",
        setup
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    report.notes.push(format!(
        "{}: failed {} of {} attempted",
        cfg.workload.name(),
        report.failed,
        report.attempted
    ));
    if cfg.trace {
        let path = cfg
            .run_dir
            .parent()
            .unwrap_or(&cfg.run_dir)
            .join("trace")
            .join(format!("{}-seed{}.tsv", cfg.workload.name(), cfg.seed));
        tracer.write_out(&path).map_err(|e| e.to_string())?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
        report.metrics = per_layer(tracer, counts, samples);
    } else {
        report.metrics = end_to_end(setup, rss_mb, &routes, store_bytes, user);
    }
    Ok(report)
}
