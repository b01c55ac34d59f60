//! Bench regression gate: compare a freshly recorded `BENCH_JSON` file
//! against the committed baseline and fail (exit 1) if a guarded series
//! regressed beyond tolerance.
//!
//! Usage:
//!
//! ```text
//! bench_check <current.json> <baseline.json> [tolerance]
//! ```
//!
//! Both files are the JSON-lines format written by
//! [`cqa_bench::harness::Harness::finish`]. The guarded series are the
//! headline numbers of the index/interning PRs
//! (`repair_instance_size_axis` / `incremental/800`) and of the parallel
//! search PR (`repair_parallel` / `threads/4` at clean=800). `tolerance`
//! is the allowed slowdown factor (default 1.25 — “fail if >25% slower
//! than the committed baseline”). When both `repair_parallel` thread
//! endpoints are present in the *current* file, the threads=4-vs-1
//! speedup is reported alongside the gate for CI-log visibility (it is
//! informational: wall-clock scaling is a property of the host's core
//! count, not of the code under test). The parser is a purpose-built
//! extractor for the harness's own fixed output shape, not a general JSON
//! reader — this workspace is dependency-free by construction.

use std::process::ExitCode;

/// Series guarded against regression: (group, name).
const GUARDED: &[(&str, &str)] = &[
    ("repair_instance_size_axis", "incremental/800"),
    ("repair_parallel", "threads/4"),
    ("program_route", "reground_delta/800"),
    ("program_route", "reground_mixed_churn/800"),
    ("program_route", "resolve_delta/800"),
    ("recovery_replay", "open/1000"),
    ("fast_path", "fast_path/80000"),
];

/// Entries whose *baseline* median exceeds this are gated on `min_ns`
/// instead of `median_ns`. Slow payloads get few samples, so their median
/// is a high-variance order statistic (the committed `BENCH_6.json`
/// recorded `repair_parallel/threads/2` at median 302 ms vs min 107 ms
/// from a 2-sample run); the minimum is the stablest point estimate a
/// small sample offers and is what criterion-style harnesses fall back
/// to for exactly this reason.
const SLOW_ENTRY_NS: u128 = 200_000_000;

/// Within-run cap on `threads/4 ÷ threads/1`. Host-independent, so it can
/// be a hard gate — but it must hold on a *single-core* host too, where
/// the pool degrades to sequential plus bounded scheduler overhead
/// (measured ~1.15x); 1.5x leaves noise headroom there while still
/// catching the real failure modes (lost stealing, lock contention,
/// busy-spin), which overshoot it immediately.
const PARALLEL_RATIO_TOLERANCE: f64 = 1.5;

/// Within-run cap on `reground_delta/800 ÷ ground_scratch/800` and on
/// `reground_delete/800 ÷ ground_scratch/800` in the `program_route`
/// group. Host-independent (the series run on the same machine in the
/// same process), so it is a hard gate: the incremental grounder must
/// make regrounding after a single-fact insertion *or deletion* at
/// clean=800 at least 4× cheaper than grounding from scratch — the PR-4
/// (insert) and PR-5 (DRed delete) acceptance criteria. Measured ~0.04x
/// on the recording host for both directions; 0.25 leaves wide margin
/// while still catching a grounder that silently falls back to full
/// rematerialisation.
const REGROUND_RATIO_TOLERANCE: f64 = 0.25;

/// Within-run cap on `resolve_delta/800 ÷ solve/800` in the
/// `program_route` group. Host-independent like the reground gates: a
/// warm `SolverState` resolving after a one-fact reground reuses every
/// unchanged partition's cached model set and only re-enumerates the
/// component the delta touched, so it must come in at least 4× under a
/// scratch enumeration of the same ground program.
const RESOLVE_RATIO_TOLERANCE: f64 = 0.25;

/// Within-run cap on `fast_path/800 ÷ enumeration/800` in the
/// `fast_path` group. Host-independent like the other ratio gates: on a
/// key-FD workload with 8 conflicting pairs (2⁸ = 256 repairs), the
/// planner's FO-rewrite route answers by index probes over `D` while the
/// enumeration baseline materialises all 256 repairs and intersects their
/// answers, so the fast path must come in at least 20× under enumeration
/// at clean=800. Measured ~0.002x on the recording host; a planner that
/// silently falls back to enumeration converges on 1x and trips this
/// immediately.
const FAST_PATH_RATIO_TOLERANCE: f64 = 0.05;

/// Within-run cap on `append_group/8 ÷ append_solo/8` in the
/// `storage_write` group — the ISSUE-10 acceptance gate "grouped ≥ 3×
/// per-append-fsync at batch width 8 under `Always`". Host-independent:
/// both series run the identical 8-writer append burst on the same
/// filesystem in the same process; only the fsync schedule differs
/// (one per append vs one leader fsync per batch). Absolute
/// `storage_write` numbers are *not* in [`GUARDED`] on purpose — they
/// are fsync-bound, and fsync latency varies orders of magnitude
/// across hosts, which would turn a committed-baseline comparison into
/// hardware lottery. Measured ~0.19x on the recording host.
const GROUP_COMMIT_RATIO_TOLERANCE: f64 = 1.0 / 3.0;

/// Within-run cap on `compact_incremental/20 ÷ compact_full/20` in the
/// `storage_write` group: compacting with 2 of 20 relations dirty must
/// rewrite only the dirty segments (plus the manifest) and re-reference
/// the other 18 — O(changed relations). A compactor that silently
/// rewrites everything converges on the full series and trips this.
/// Measured ~0.17x on the recording host.
const INCREMENTAL_COMPACT_RATIO_TOLERANCE: f64 = 0.3;

/// Within-run cap on `open/1000 ÷ cold_rebuild/1000` in the
/// `recovery_replay` group. Host-independent for the same reason as the
/// reground gates. `Database::open` decodes and replays a 1000-delta
/// WAL over a ~6000-atom snapshot and derives nothing; `cold_rebuild`
/// is the same open plus a scratch grounding of the recovered state.
/// If `open` starts grounding again, the series converge and the ratio
/// jumps to ~1. Measured ~0.006 on the recording host.
const OPEN_RATIO_TOLERANCE: f64 = 0.1;

/// Median (ns) of `name` within `group` in a harness JSON-lines dump.
fn median_ns(json: &str, group: &str, name: &str) -> Option<u128> {
    stat_ns(json, group, name, "median_ns")
}

/// Fastest sample (ns) of `name` within `group`.
fn min_ns(json: &str, group: &str, name: &str) -> Option<u128> {
    stat_ns(json, group, name, "min_ns")
}

/// Numeric field `field` of `name` within `group` in a harness JSON-lines
/// dump. Field lookup is anchored at the record's unique
/// `{"name":"…","median_ns":` prefix so sibling records never shadow it.
fn stat_ns(json: &str, group: &str, name: &str, field: &str) -> Option<u128> {
    let group_tag = format!("{{\"group\":\"{group}\",");
    let line = json.lines().find(|l| l.starts_with(&group_tag))?;
    let name_tag = format!("{{\"name\":\"{name}\",\"median_ns\":");
    let at = line.find(&name_tag)?;
    let record = &line[at..];
    let field_tag = format!("\"{field}\":");
    let at = record.find(&field_tag)? + field_tag.len();
    let digits: String = record[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn run(current_path: &str, baseline_path: &str, tolerance: f64) -> Result<(), String> {
    let current = std::fs::read_to_string(current_path)
        .map_err(|e| format!("cannot read {current_path}: {e}"))?;
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    for (group, name) in GUARDED {
        let base_median = median_ns(&baseline, group, name)
            .ok_or_else(|| format!("{baseline_path}: no record of {group}/{name}"))?;
        // Slow entries run with few samples; compare their stablest
        // statistic (the minimum) instead of a 2-of-5 order statistic.
        let (stat, cur, base) = if base_median > SLOW_ENTRY_NS {
            let cur = min_ns(&current, group, name)
                .ok_or_else(|| format!("{current_path}: no record of {group}/{name}"))?;
            let base = min_ns(&baseline, group, name)
                .ok_or_else(|| format!("{baseline_path}: no record of {group}/{name}"))?;
            ("min", cur, base)
        } else {
            let cur = median_ns(&current, group, name)
                .ok_or_else(|| format!("{current_path}: no record of {group}/{name}"))?;
            ("median", cur, base_median)
        };
        let ratio = cur as f64 / base as f64;
        println!(
            "{group}/{name}: current {stat} {:.3} ms vs baseline {:.3} ms ({ratio:.2}x, tolerance {tolerance:.2}x)",
            cur as f64 / 1e6,
            base as f64 / 1e6,
        );
        if ratio > tolerance {
            return Err(format!(
                "{group}/{name} regressed: {ratio:.2}x the committed baseline (> {tolerance:.2}x)"
            ));
        }
    }
    // Within-run parallel-scaling gate. Absolute ns comparisons against a
    // committed baseline are only meaningful on similar hardware, but the
    // *ratio* of threads=4 to threads=1 inside one run is host-independent:
    // a scheduler regression (lock contention, lost stealing, busy-spin)
    // shows up as threads=4 falling behind threads=1 on any host. On
    // multi-core hosts the ratio sits well under 1 and the printed speedup
    // is the headline number.
    if let (Some(t1), Some(t4)) = (
        median_ns(&current, "repair_parallel", "threads/1"),
        median_ns(&current, "repair_parallel", "threads/4"),
    ) {
        let ratio = t4 as f64 / t1.max(1) as f64;
        println!(
            "repair_parallel threads=4 vs threads=1: {:.2}x speedup on this host",
            t1 as f64 / t4.max(1) as f64
        );
        if ratio > PARALLEL_RATIO_TOLERANCE {
            return Err(format!(
                "repair_parallel threads/4 is {ratio:.2}x threads/1 in the same run \
                 (> {PARALLEL_RATIO_TOLERANCE:.2}x): parallel scheduler regression"
            ));
        }
    }
    // Within-run incremental-grounding gates: reground-after-Δ — in both
    // the insert and the DRed delete direction — must stay a small
    // fraction of ground-from-scratch at the largest size.
    for (series, what) in [
        ("reground_delta/800", "insert"),
        ("reground_delete/800", "delete"),
    ] {
        if let (Some(scratch), Some(reground)) = (
            median_ns(&current, "program_route", "ground_scratch/800"),
            median_ns(&current, "program_route", series),
        ) {
            let ratio = reground as f64 / scratch.max(1) as f64;
            println!(
                "program_route {what}-reground vs scratch at clean=800: {:.1}x faster ({ratio:.3}x)",
                scratch as f64 / reground.max(1) as f64
            );
            if ratio > REGROUND_RATIO_TOLERANCE {
                return Err(format!(
                    "program_route {series} is {ratio:.3}x ground_scratch/800 in the same \
                     run (> {REGROUND_RATIO_TOLERANCE:.2}x): incremental grounding regression"
                ));
            }
        }
    }
    // Within-run incremental-solving gate: enumerating stable models
    // after a 1-fact reground with a warm `SolverState` (partition model
    // cache + premise-tracked learned clauses) must stay a small fraction
    // of solving the same program from scratch. Host-independent like the
    // reground gates; a resolver that silently re-enumerates every
    // partition converges on the scratch series and trips this.
    if let (Some(scratch), Some(resolve)) = (
        median_ns(&current, "program_route", "solve/800"),
        median_ns(&current, "program_route", "resolve_delta/800"),
    ) {
        let ratio = resolve as f64 / scratch.max(1) as f64;
        println!(
            "program_route delta-resolve vs scratch solve at clean=800: {:.1}x faster ({ratio:.3}x)",
            scratch as f64 / resolve.max(1) as f64
        );
        if ratio > RESOLVE_RATIO_TOLERANCE {
            return Err(format!(
                "program_route resolve_delta/800 is {ratio:.3}x solve/800 in the same \
                 run (> {RESOLVE_RATIO_TOLERANCE:.2}x): incremental solving regression"
            ));
        }
    }
    // Within-run planner gate: the FO-rewrite fast path must stay a small
    // fraction of repair enumeration on the same workload in the same run.
    if let (Some(enumerated), Some(fast)) = (
        median_ns(&current, "fast_path", "enumeration/800"),
        median_ns(&current, "fast_path", "fast_path/800"),
    ) {
        let ratio = fast as f64 / enumerated.max(1) as f64;
        println!(
            "fast_path planner vs enumeration at clean=800: {:.1}x faster ({ratio:.4}x)",
            enumerated as f64 / fast.max(1) as f64
        );
        if ratio > FAST_PATH_RATIO_TOLERANCE {
            return Err(format!(
                "fast_path fast_path/800 is {ratio:.3}x enumeration/800 in the same run \
                 (> {FAST_PATH_RATIO_TOLERANCE:.2}x): planner fast-path regression"
            ));
        }
    }
    // Within-run group-commit gate: the 8-writer append burst with one
    // leader fsync per batch must beat the same burst paying one fsync
    // per append by at least 3x.
    if let (Some(solo), Some(grouped)) = (
        median_ns(&current, "storage_write", "append_solo/8"),
        median_ns(&current, "storage_write", "append_group/8"),
    ) {
        let ratio = grouped as f64 / solo.max(1) as f64;
        println!(
            "storage_write group commit vs per-append fsync at width 8: {:.1}x faster ({ratio:.3}x)",
            solo as f64 / grouped.max(1) as f64
        );
        if ratio > GROUP_COMMIT_RATIO_TOLERANCE {
            return Err(format!(
                "storage_write append_group/8 is {ratio:.3}x append_solo/8 in the same run \
                 (> {GROUP_COMMIT_RATIO_TOLERANCE:.2}x): group commit no longer coalesces fsyncs"
            ));
        }
    }
    // Within-run incremental-compaction gate: folding the WAL with 2 of
    // 20 relations dirty must stay well under a full rewrite of every
    // segment.
    if let (Some(full), Some(incremental)) = (
        median_ns(&current, "storage_write", "compact_full/20"),
        median_ns(&current, "storage_write", "compact_incremental/20"),
    ) {
        let ratio = incremental as f64 / full.max(1) as f64;
        println!(
            "storage_write incremental vs full compaction at 2/20 dirty: {:.1}x faster ({ratio:.3}x)",
            full as f64 / incremental.max(1) as f64
        );
        if ratio > INCREMENTAL_COMPACT_RATIO_TOLERANCE {
            return Err(format!(
                "storage_write compact_incremental/20 is {ratio:.3}x compact_full/20 in the \
                 same run (> {INCREMENTAL_COMPACT_RATIO_TOLERANCE:.2}x): compaction is no \
                 longer O(changed relations)"
            ));
        }
    }
    // Within-run reopen gate: opening a store with a 1000-delta WAL
    // loads data only, so it must stay a small fraction of the same open
    // followed by a cold grounding of the recovered state.
    if let (Some(cold), Some(opened)) = (
        median_ns(&current, "recovery_replay", "cold_rebuild/1000"),
        median_ns(&current, "recovery_replay", "open/1000"),
    ) {
        let ratio = opened as f64 / cold.max(1) as f64;
        println!(
            "recovery_replay open vs cold rebuild at wal=1000: {:.1}x faster ({ratio:.3}x)",
            cold as f64 / opened.max(1) as f64
        );
        if ratio > OPEN_RATIO_TOLERANCE {
            return Err(format!(
                "recovery_replay open/1000 is {ratio:.3}x cold_rebuild/1000 in the same \
                 run (> {OPEN_RATIO_TOLERANCE:.2}x): open derives state again"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (current, baseline) = match (args.get(1), args.get(2)) {
        (Some(c), Some(b)) => (c.clone(), b.clone()),
        _ => {
            eprintln!("usage: bench_check <current.json> <baseline.json> [tolerance]");
            return ExitCode::from(2);
        }
    };
    let tolerance: f64 = match args.get(3) {
        Some(t) => match t.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("bad tolerance `{t}`");
                return ExitCode::from(2);
            }
        },
        None => 1.25,
    };
    match run(&current, &baseline, tolerance) {
        Ok(()) => {
            println!("bench gate OK");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("bench gate FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"group\":\"other\",\"results\":[{\"name\":\"incremental/800\",\"median_ns\":1,\"mean_ns\":1,\"min_ns\":1,\"samples\":7,\"iters\":1}]}\n",
        "{\"group\":\"repair_instance_size_axis\",\"results\":[",
        "{\"name\":\"incremental/80\",\"median_ns\":11,\"mean_ns\":11,\"min_ns\":11,\"samples\":7,\"iters\":1},",
        "{\"name\":\"incremental/800\",\"median_ns\":2962000,\"mean_ns\":3000000,\"min_ns\":2900000,\"samples\":7,\"iters\":6}",
        "]}\n"
    );

    #[test]
    fn extracts_the_right_series() {
        assert_eq!(
            median_ns(SAMPLE, "repair_instance_size_axis", "incremental/800"),
            Some(2_962_000)
        );
        // Exact-name match: the /80 record does not shadow /800.
        assert_eq!(
            median_ns(SAMPLE, "repair_instance_size_axis", "incremental/80"),
            Some(11)
        );
        assert_eq!(median_ns(SAMPLE, "no_such_group", "incremental/800"), None);
        assert_eq!(
            median_ns(SAMPLE, "repair_instance_size_axis", "missing"),
            None
        );
    }

    #[test]
    fn extracts_min_ns_of_the_right_record() {
        // min_ns lookup is anchored at its record, not at the line: the
        // /80 record's min (11) must not shadow the /800 record's min.
        assert_eq!(
            min_ns(SAMPLE, "repair_instance_size_axis", "incremental/800"),
            Some(2_900_000)
        );
        assert_eq!(
            min_ns(SAMPLE, "repair_instance_size_axis", "incremental/80"),
            Some(11)
        );
    }
}
