//! End-to-end benchmark of the `cqa::Database` facade.
//!
//! `perfbench --workload <restart|serve|ingest> --seed <n> --seconds <s>
//! --trace <0|1>` builds seeded tenants, drives one workload for the
//! given time and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones of the traced run. See `README.md` beside this crate
//! for the workloads, the metrics and how they map onto each other.

pub mod check;
pub mod ops;
pub mod stats;
pub mod tenants;
pub mod trace;
pub mod workloads;

use workloads::Report;

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
