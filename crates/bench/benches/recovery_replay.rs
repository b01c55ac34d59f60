//! Bench: what a reopen costs, end to end through `Database::open`, on
//! the WAL-length axis — against the cold grounding it no longer pays.
//!
//! `Database::open` decodes the snapshot and replays the surviving WAL
//! frames; nothing else. The grounding and worklist caches fill on first
//! use. Two series per WAL length N ∈ {10, 100, 1000} over a ~6000-atom
//! snapshot (Example-19 shape, conflicts fixed), nothing warmed in
//! untimed setup:
//!
//! * `open/N` — `Database::open` on the store, then drop.
//! * `cold_rebuild/N` — the same open, followed by a scratch
//!   `warm_caches_in` on the recovered state: the grounding Π(D, IC) and
//!   the root violation scan a first program-route call would build.
//!   This is what every reopen cost while `open` warmed eagerly.
//!
//! `bench_check` enforces `open/1000 ≤ 0.1 × cold_rebuild/1000` within
//! the same run (host-independent): if `open` starts deriving state
//! again, the two series converge and the gate trips.

use cqa::Database;
use cqa_bench::harness::Harness;
use cqa_core::{warm_caches_in, ProgramStyle};
use cqa_relational::s;
use cqa_storage::{FsyncPolicy, StoreOptions};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Clean pairs in the snapshot: ~2·N + 3 atoms, large enough that a
/// cold grounding clearly dominates decode and replay.
const CLEAN: usize = 3000;

fn options() -> StoreOptions {
    StoreOptions {
        // Open cost is the subject, not fsync latency; and compaction
        // must not fold the WAL away mid-recording.
        fsync: FsyncPolicy::Never,
        compact_min_wal_bytes: u64::MAX,
        ..StoreOptions::default()
    }
}

/// A store whose snapshot holds the base workload and whose WAL holds
/// `n` single-insert deltas (fresh R rows, never conflicting).
fn store_with_wal(n: usize, w: cqa_bench::Workload) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cqa-bench-recovery-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::persistent_with(&dir, w.instance, w.ics, options()).unwrap();
    for k in 0..n {
        assert!(db.insert("R", [s(&format!("w{k}")), s("wy")]).unwrap());
    }
    db.sync().unwrap();
    dir
}

fn open(dir: &Path) -> Database {
    Database::open_with(dir, options()).unwrap()
}

fn recovery_replay() {
    let mut group = Harness::new("recovery_replay");
    let mut gate_ratio = f64::NAN;
    for &n in &[10usize, 100, 1000] {
        let dir = store_with_wal(n, cqa_bench::example19_scaled(CLEAN, 2, 1, 31));

        let opened = group
            .bench(format!("open/{n}"), || {
                black_box(open(&dir).instance().len())
            })
            .median_ns;

        let cold = group
            .bench(format!("cold_rebuild/{n}"), || {
                let db = open(&dir);
                let style = ProgramStyle::default();
                warm_caches_in(db.instance(), db.constraints(), style, db.caches()).unwrap();
                black_box(db.instance().len())
            })
            .median_ns;

        let ratio = opened as f64 / cold.max(1) as f64;
        println!(
            "  -> open vs cold rebuild at wal={n}: {:.1}x faster ({ratio:.3}x)",
            cold as f64 / opened.max(1) as f64
        );
        if n == 1000 {
            gate_ratio = ratio;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("  open/cold_rebuild ratio at wal=1000: {gate_ratio:.3} (target: <= 0.1)");
    group.finish();
}

fn main() {
    recovery_replay();
}
