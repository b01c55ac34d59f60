//! The benchmark's own tests: determinism of its inputs, pinned planner
//! routes, and the metric names and units it prints.

use cqa_perfbench::ops::{facade_answer, facade_write, planner_diff, Route};
use cqa_perfbench::result_json;
use cqa_perfbench::stats::Laps;
use cqa_perfbench::tenants::{dir_files, generate, Tenant};
use cqa_perfbench::workloads::{build, ingest_plan, run, Config, Workload};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with
/// plain string scanning (the benchmark has no JSON dependency).
fn declared(section: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field present");
                let rest = &entry[at + key.len() + 2..];
                let open = rest.find('"').expect("string value") + 1;
                let close = open + rest[open..].find('"').expect("closing quote");
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn same_seed_same_inputs_and_store_bytes_other_seed_differs() {
    for t in Tenant::ALL {
        let (a, b, c) = (generate(t, 7), generate(t, 7), generate(t, 8));
        assert_eq!(a.instance, b.instance, "{}", t.name());
        assert_eq!(a.tail, b.tail, "{}", t.name());
        assert_eq!(
            (&a.members, &a.batch),
            (&b.members, &b.batch),
            "{}",
            t.name()
        );
        assert_ne!(a.instance, c.instance, "{}", t.name());
    }
    let tenants = [Tenant::Fo, Tenant::Chase, Tenant::General];
    let (da, db, dc) = (scratch("det-a"), scratch("det-b"), scratch("det-c"));
    let a = build(7, &da, &tenants, &mut Laps::start()).unwrap();
    let b = build(7, &db, &tenants, &mut Laps::start()).unwrap();
    let c = build(8, &dc, &tenants, &mut Laps::start()).unwrap();
    assert_eq!(ingest_plan(&a.specs), ingest_plan(&b.specs));
    assert_ne!(ingest_plan(&a.specs), ingest_plan(&c.specs));
    assert_eq!(a.expected, b.expected);
    assert_ne!(a.expected, c.expected);
    let contents = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        tenants
            .iter()
            .flat_map(|t| {
                let d = dir.join(t.name());
                dir_files(&d).into_iter().map(move |(name, _)| {
                    (
                        format!("{}/{name}", t.name()),
                        std::fs::read(d.join(&name)).unwrap(),
                    )
                })
            })
            .collect()
    };
    assert_eq!(
        contents(&da),
        contents(&db),
        "store bytes differ for one seed"
    );
    assert_ne!(
        contents(&da),
        contents(&dc),
        "store bytes equal across seeds"
    );
}

#[test]
fn every_op_keeps_its_planner_route() {
    let dir = scratch("routes");
    let mut built = build(
        3,
        &dir,
        &[Tenant::Fo, Tenant::Chase, Tenant::General],
        &mut Laps::start(),
    )
    .unwrap();
    for route in Route::ALL {
        let db = &built.handles[&route.tenant()];
        let before = db.planner_stats();
        facade_answer(db, route).unwrap();
        assert_eq!(
            planner_diff(before, db.planner_stats()),
            route.planner_delta(),
            "{}",
            route.name()
        );
    }
    // Through one ingest period, every re-answer stays on its route.
    for op in ingest_plan(&built.specs) {
        let db = built.handles.get_mut(&op.tenant).unwrap();
        facade_write(db, &op.write).unwrap();
        let before = db.planner_stats();
        facade_answer(db, op.route).unwrap();
        assert_eq!(
            planner_diff(before, db.planner_stats()),
            op.route.planner_delta()
        );
    }
}

fn quick(workload: Workload, trace: bool, tag: &str) -> cqa_perfbench::workloads::Report {
    let cfg = Config {
        workload,
        seed: 5,
        seconds: 0.2,
        trace,
        run_dir: scratch(tag),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    };
    let report = run(&cfg).unwrap();
    let _ = std::fs::remove_dir_all(&cfg.run_dir);
    report
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = quick(
                workload,
                trace,
                &format!("names-{}-{trace}", workload.name()),
            );
            assert_eq!(report.failed, 0, "{}", workload.name());
            let printed: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, declared(section), "{} {section}", workload.name());
            let line = result_json(&report);
            for (name, unit) in &printed {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
            if !trace {
                assert!(
                    report.metrics.iter().all(|m| m.value > 0.0),
                    "{}",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    let counts = |tag: &str| -> Vec<(String, f64)> {
        quick(Workload::Serve, true, tag)
            .metrics
            .into_iter()
            .filter(|m| m.unit == "count" || m.unit == "ratio")
            .map(|m| (m.name.to_string(), m.value))
            .collect()
    };
    assert_eq!(counts("counts-a"), counts("counts-b"));
}
