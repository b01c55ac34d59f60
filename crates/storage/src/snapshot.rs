//! Snapshots: a small **manifest** plus one **segment file per
//! relation**, so compaction rewrites only the relations that changed
//! since the last snapshot and reuses the rest by reference — O(changed
//! relations) instead of O(instance).
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/manifest            the snapshot's root of trust
//! <dir>/seg-<rel>-<epoch>   one per relation, named by relation index
//!                           and the compaction epoch that wrote it
//! <dir>/manifest.tmp        transient; swept on open
//!
//! manifest := [ magic "CQAMANI1" : 8 bytes ]
//!             [ body_len : u64 LE ]
//!             [ body     : body_len bytes ]
//!             [ crc32(body) : u32 LE ]
//!
//! manifest body := [ last_seq : u64 ]   highest WAL seq folded in
//!                  [ epoch    : u64 ]   compaction counter (names fresh
//!                                       segment files)
//!                  [ schema ]           relation names + attr names
//!                  [ symbol table ]     for constraint constants
//!                  [ constraints ]      structural Ic / Nnc encoding
//!                  [ segments ]         per relation, in rel-id order:
//!                                       file name, file length, body
//!                                       CRC, tuple count
//!
//! segment  := [ magic "CQASEG01" : 8 bytes ]
//!             [ body_len : u64 LE ]
//!             [ body     : body_len bytes ]
//!             [ crc32(body) : u32 LE ]
//!
//! segment body := [ rel_index : u32 ]   cross-check vs the manifest slot
//!                 [ symbol table ]
//!                 [ tuple_count : u32 ][ packed tuples ]
//! ```
//!
//! ## Writer protocol
//!
//! A snapshot *commits at the manifest rename*:
//!
//! 1. Write each changed relation's segment to a **fresh name**
//!    (`seg-<rel>-<epoch>`, epoch = previous + 1) and fsync it. Fresh
//!    names never collide with files the live manifest references, so a
//!    crash mid-write damages nothing that is reachable.
//! 2. Fsync the directory, persisting the new names.
//! 3. Write `manifest.tmp` (referencing new segments for changed
//!    relations and the *previous* segment files for unchanged ones),
//!    fsync it, rename over `manifest`, fsync the directory.
//! 4. Best-effort delete the replaced segment files. A failure here is
//!    harmless — unreferenced `seg-*` files are swept on open.
//!
//! A crash at any point leaves either the complete old snapshot or the
//! complete new one. Both the manifest and each segment are
//! all-or-nothing (failed checksum or short body is
//! [`StorageError::Corrupt`]); the manifest additionally pins each
//! segment's expected length and body CRC, so a segment file swapped or
//! truncated behind the manifest's back is detected as a unit.
//!
//! ## Constraint encoding
//!
//! Constraints are stored *structurally* and rebuilt through
//! [`Ic::builder`](cqa_constraints::Ic) on load (see
//! [`codec::decode_constraint`](crate::codec::decode_constraint)), so
//! the rebuilt set is `Eq`-equal to the one that was saved — including
//! derived metadata, which is recomputed rather than trusted from disk.

use crate::codec::{
    crc32, decode_constraints, encode_constraints, Reader, SymbolSink, SymbolSource, Writer,
};
use crate::error::StorageError;
use crate::vfs::{RealVfs, Vfs};
use cqa_constraints::IcSet;
use cqa_relational::{Instance, RelId, Schema, Tuple};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Manifest file magic: identifies the snapshot root and its version.
pub const MANIFEST_MAGIC: &[u8; 8] = b"CQAMANI1";

/// Segment file magic.
pub const SEGMENT_MAGIC: &[u8; 8] = b"CQASEG01";

/// One relation's segment as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Segment file name within the store directory.
    pub name: String,
    /// Expected file length in bytes (header + body + CRC).
    pub file_len: u64,
    /// Expected CRC32 of the segment body.
    pub crc: u32,
    /// Tuples in the segment.
    pub tuples: u64,
}

/// The snapshot's file-level shape: what the manifest references. The
/// store keeps the live layout in memory so an incremental compaction
/// can re-reference unchanged segments without reading them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotLayout {
    /// Highest WAL sequence number folded into this snapshot.
    pub last_seq: u64,
    /// Compaction epoch that wrote the manifest; fresh segments of the
    /// next compaction are named with `epoch + 1`.
    pub epoch: u64,
    /// Per-relation segments, in relation-id order.
    pub segments: Vec<SegmentEntry>,
    /// Manifest + referenced segment bytes (drives the compaction
    /// ratio).
    pub total_bytes: u64,
}

impl SnapshotLayout {
    /// `true` iff `name` is one of this layout's segment files.
    pub fn references(&self, name: &str) -> bool {
        self.segments.iter().any(|s| s.name == name)
    }
}

/// A decoded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The persisted instance, rebuilt over a fresh schema `Arc`.
    pub instance: Instance,
    /// The persisted constraint set.
    pub ics: IcSet,
    /// The manifest's file-level shape (also carries `last_seq`).
    pub layout: SnapshotLayout,
}

/// What a snapshot write did: the new layout plus how many segments
/// were freshly written vs reused by reference.
#[derive(Debug)]
pub struct WriteOutcome {
    /// The committed layout.
    pub layout: SnapshotLayout,
    /// Segment files written by this snapshot.
    pub segments_written: u64,
    /// Segment entries reused from the previous layout.
    pub segments_reused: u64,
}

/// The manifest path inside a store directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest")
}

fn segment_name(rel_index: usize, epoch: u64) -> String {
    format!("seg-{rel_index}-{epoch}")
}

// ---------------------------------------------------------------------
// Segment encoding
// ---------------------------------------------------------------------

fn encode_segment(rel_index: usize, tuples: &BTreeSet<Tuple>) -> (Vec<u8>, u32) {
    let mut sink = SymbolSink::new();
    let mut staged = Writer::new();
    staged.u32(tuples.len() as u32);
    for t in tuples {
        sink.tuple(&mut staged, t);
    }
    let mut body = Writer::new();
    body.u32(rel_index as u32);
    sink.encode_table(&mut body);
    body.raw(&staged.into_bytes());
    let body = body.into_bytes();
    let crc = crc32(&body);

    let mut out = Vec::with_capacity(8 + 8 + body.len() + 4);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc.to_le_bytes());
    (out, crc)
}

/// Verify the framing of a file in `[magic][body_len][body][crc]`
/// layout and return the body slice.
fn checked_body<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    what: &'static str,
) -> Result<&'a [u8], StorageError> {
    if bytes.len() < 8 + 8 + 4 || &bytes[..8] != magic {
        return Err(StorageError::corrupt(
            what,
            "missing or wrong magic (not the expected file kind)",
        ));
    }
    let body_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8")) as usize;
    let expected_total = 8 + 8 + body_len + 4;
    if bytes.len() != expected_total {
        return Err(StorageError::corrupt(
            what,
            format!(
                "file is {} bytes, header says {expected_total}",
                bytes.len()
            ),
        ));
    }
    let body = &bytes[16..16 + body_len];
    let stored_crc = u32::from_le_bytes(bytes[16 + body_len..].try_into().expect("4"));
    if crc32(body) != stored_crc {
        return Err(StorageError::corrupt(what, "checksum mismatch"));
    }
    Ok(body)
}

fn decode_segment(
    bytes: &[u8],
    rel_index: usize,
    entry: &SegmentEntry,
) -> Result<BTreeSet<Tuple>, StorageError> {
    if bytes.len() as u64 != entry.file_len {
        return Err(StorageError::corrupt(
            "segment",
            format!(
                "{} is {} bytes, manifest says {}",
                entry.name,
                bytes.len(),
                entry.file_len
            ),
        ));
    }
    let body = checked_body(bytes, SEGMENT_MAGIC, "segment")?;
    if crc32(body) != entry.crc {
        return Err(StorageError::corrupt(
            "segment",
            format!("{} does not match the manifest's CRC", entry.name),
        ));
    }
    let mut r = Reader::new(body, "segment body");
    let stored_index = r.u32()? as usize;
    if stored_index != rel_index {
        return Err(StorageError::corrupt(
            "segment body",
            format!(
                "{} holds relation {stored_index}, expected {rel_index}",
                entry.name
            ),
        ));
    }
    let source = SymbolSource::decode_table(&mut r)?;
    let tuple_count = r.len_u32()? as usize;
    if tuple_count as u64 != entry.tuples {
        return Err(StorageError::corrupt(
            "segment body",
            format!(
                "{} holds {tuple_count} tuples, manifest says {}",
                entry.name, entry.tuples
            ),
        ));
    }
    let mut tuples = BTreeSet::new();
    for _ in 0..tuple_count {
        tuples.insert(source.tuple(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(StorageError::corrupt(
            "segment body",
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(tuples)
}

// ---------------------------------------------------------------------
// Manifest encoding
// ---------------------------------------------------------------------

fn encode_manifest_body(
    instance: &Instance,
    ics: &IcSet,
    last_seq: u64,
    epoch: u64,
    segments: &[SegmentEntry],
) -> Vec<u8> {
    // Constraint constants intern through the sink, so their bytes land
    // in a staging buffer; the table — known only once they are encoded
    // — is written first in the final layout.
    let mut sink = SymbolSink::new();
    let mut staged = Writer::new();
    encode_constraints(&mut sink, &mut staged, ics);

    let mut body = Writer::new();
    body.u64(last_seq);
    body.u64(epoch);
    let schema = instance.schema();
    body.u32(schema.len() as u32);
    for (_, rel) in schema.iter() {
        body.str(rel.name());
        body.u32(rel.arity() as u32);
        for attr in rel.attrs() {
            body.str(attr);
        }
    }
    sink.encode_table(&mut body);
    body.raw(&staged.into_bytes());
    for seg in segments {
        body.str(&seg.name);
        body.u64(seg.file_len);
        body.u32(seg.crc);
        body.u64(seg.tuples);
    }
    body.into_bytes()
}

struct DecodedManifest {
    schema: Arc<Schema>,
    ics: IcSet,
    layout: SnapshotLayout,
}

fn decode_manifest_body(bytes: &[u8], manifest_len: u64) -> Result<DecodedManifest, StorageError> {
    let mut r = Reader::new(bytes, "manifest body");
    let last_seq = r.u64()?;
    let epoch = r.u64()?;

    let rel_count = r.len_u32()? as usize;
    let mut builder = Schema::builder();
    for _ in 0..rel_count {
        let name = r.str()?.to_string();
        let arity = r.len_u32()? as usize;
        let mut attrs = Vec::with_capacity(arity.min(r.remaining()));
        for _ in 0..arity {
            attrs.push(r.str()?.to_string());
        }
        builder = builder.relation(name, attrs);
    }
    let schema: Arc<Schema> = builder.finish()?.into_shared();

    let source = SymbolSource::decode_table(&mut r)?;
    let ics = decode_constraints(&source, &mut r, &schema)?;

    let mut segments = Vec::with_capacity(rel_count.min(r.remaining()));
    let mut total_bytes = manifest_len;
    for _ in 0..rel_count {
        let name = r.str()?.to_string();
        let file_len = r.u64()?;
        let crc = r.u32()?;
        let tuples = r.u64()?;
        total_bytes += file_len;
        segments.push(SegmentEntry {
            name,
            file_len,
            crc,
            tuples,
        });
    }
    if !r.is_exhausted() {
        return Err(StorageError::corrupt(
            "manifest body",
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(DecodedManifest {
        schema,
        ics,
        layout: SnapshotLayout {
            last_seq,
            epoch,
            segments,
            total_bytes,
        },
    })
}

// ---------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------

/// Write a snapshot of `instance` + `ics` into `dir`, committing at the
/// manifest rename. With `prev = Some((layout, dirty))` only relations
/// in `dirty` get fresh segment files; every other relation's entry is
/// reused from `layout` by reference. With `prev = None` every segment
/// is written (a *full* snapshot — store creation, or the explicit
/// full-rewrite path).
pub fn write_with(
    vfs: &dyn Vfs,
    dir: &Path,
    instance: &Instance,
    ics: &IcSet,
    last_seq: u64,
    prev: Option<(&SnapshotLayout, &BTreeSet<RelId>)>,
) -> Result<WriteOutcome, StorageError> {
    let epoch = prev.map(|(l, _)| l.epoch + 1).unwrap_or(0);
    let schema = instance.schema();
    let mut segments = Vec::with_capacity(schema.len());
    let mut segments_written = 0u64;
    let mut segments_reused = 0u64;
    let mut segment_bytes = 0u64;

    for rel in schema.rel_ids() {
        let idx = rel.index();
        if let Some((prev_layout, dirty)) = prev {
            if !dirty.contains(&rel) {
                let entry = prev_layout.segments[idx].clone();
                segment_bytes += entry.file_len;
                segments.push(entry);
                segments_reused += 1;
                continue;
            }
        }
        let (bytes, crc) = encode_segment(idx, instance.relation(rel));
        let name = segment_name(idx, epoch);
        {
            // Fresh epoch-stamped names never collide with files the
            // live manifest references, so a plain create-truncate is
            // safe (a retry after a failed attempt overwrites only its
            // own garbage).
            let mut f = vfs.create_truncate(&dir.join(&name))?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        segment_bytes += bytes.len() as u64;
        segments.push(SegmentEntry {
            name,
            file_len: bytes.len() as u64,
            crc,
            tuples: instance.relation(rel).len() as u64,
        });
        segments_written += 1;
    }
    if segments_written > 0 {
        // Persist the new segment *names* before any manifest
        // references them.
        vfs.sync_dir(dir)?;
    }

    let body = encode_manifest_body(instance, ics, last_seq, epoch, &segments);
    let mut out = Vec::with_capacity(8 + 8 + body.len() + 4);
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());

    let path = manifest_path(dir);
    let tmp = path.with_extension("tmp");
    {
        let mut f = vfs.create_truncate(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
    }
    vfs.rename(&tmp, &path)?;
    // Persist the rename itself; without the directory fsync the new
    // name can vanish in a power loss even though the data blocks
    // survived.
    vfs.sync_dir(dir)?;

    Ok(WriteOutcome {
        layout: SnapshotLayout {
            last_seq,
            epoch,
            segments,
            total_bytes: out.len() as u64 + segment_bytes,
        },
        segments_written,
        segments_reused,
    })
}

/// [`write_with`] on the real filesystem.
pub fn write(
    dir: &Path,
    instance: &Instance,
    ics: &IcSet,
    last_seq: u64,
    prev: Option<(&SnapshotLayout, &BTreeSet<RelId>)>,
) -> Result<WriteOutcome, StorageError> {
    write_with(&RealVfs, dir, instance, ics, last_seq, prev)
}

/// Read and verify the snapshot rooted at `dir`'s manifest: the
/// manifest itself, then every referenced segment (length, CRC and
/// relation index all cross-checked against the manifest's record).
pub fn read_with(vfs: &dyn Vfs, dir: &Path) -> Result<Snapshot, StorageError> {
    let bytes = vfs.read(&manifest_path(dir))?;
    let body = checked_body(&bytes, MANIFEST_MAGIC, "manifest")?;
    let decoded = decode_manifest_body(body, bytes.len() as u64)?;

    let mut relations = Vec::with_capacity(decoded.schema.len());
    for rel in decoded.schema.rel_ids() {
        let idx = rel.index();
        let entry = &decoded.layout.segments[idx];
        let seg_bytes = vfs.read(&dir.join(&entry.name))?;
        relations.push(decode_segment(&seg_bytes, idx, entry)?);
    }
    // Bulk-load: one validated construction instead of per-tuple inserts.
    let instance = Instance::from_relations(decoded.schema.clone(), relations)?;
    Ok(Snapshot {
        instance,
        ics: decoded.ics,
        layout: decoded.layout,
    })
}

/// [`read_with`] on the real filesystem.
pub fn read(dir: &Path) -> Result<Snapshot, StorageError> {
    read_with(&RealVfs, dir)
}

/// Delete snapshot debris in `dir`: a stale `manifest.tmp` and any
/// `seg-*` file the live `layout` does not reference (left by a crash
/// mid-compaction, or by housekeeping deletes that failed). Returns how
/// many files were removed.
pub fn sweep_with(vfs: &dyn Vfs, dir: &Path, layout: &SnapshotLayout) -> Result<u64, StorageError> {
    let mut removed = 0u64;
    for name in vfs.read_dir_names(dir)? {
        let stale =
            name == "manifest.tmp" || (name.starts_with("seg-") && !layout.references(&name));
        if stale {
            vfs.remove_file(&dir.join(&name))?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{c, v, CmpOp, Ic, Nnc};
    use cqa_relational::{i, null, s};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cqa-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn example_state() -> (Instance, IcSet) {
        let schema = Schema::builder()
            .relation("r", ["x", "y"])
            .relation("s", ["u", "v"])
            .finish()
            .unwrap()
            .into_shared();
        let mut inst = Instance::empty(schema.clone());
        inst.insert_named("r", [s("a"), s("b")]).unwrap();
        inst.insert_named("r", [s("a"), s("c")]).unwrap();
        inst.insert_named("s", [null(), s("a")]).unwrap();
        inst.insert_named("s", [i(7), i(-3)]).unwrap();
        let mut ics = IcSet::default();
        ics.push(
            Ic::builder(&schema, "key_r")
                .body_atom("r", [v("x"), v("y")])
                .body_atom("r", [v("x"), v("z")])
                .builtin(v("y"), CmpOp::Eq, v("z"))
                .finish()
                .unwrap(),
        );
        ics.push(
            Ic::builder(&schema, "fk_s_r")
                .body_atom("s", [v("u"), v("w")])
                .head_atom("r", [v("w"), v("t")])
                .finish()
                .unwrap(),
        );
        ics.push(
            Ic::builder(&schema, "with_const")
                .body_atom("r", [v("x"), c(s("b"))])
                .builtin(v("x"), CmpOp::Neq, c(i(0)))
                .finish()
                .unwrap(),
        );
        ics.push(Nnc::new(&schema, "nn_r_x", "r", 0).unwrap());
        (inst, ics)
    }

    #[test]
    fn snapshot_roundtrips_instance_and_constraints() {
        let dir = tmpdir("roundtrip");
        let (inst, ics) = example_state();
        let out = write(&dir, &inst, &ics, 42, None).unwrap();
        assert_eq!(out.segments_written, 2, "one segment per relation");
        assert_eq!(out.segments_reused, 0);
        assert!(out.layout.total_bytes > 0);
        assert!(!dir.join("manifest.tmp").exists(), "tmp cleaned up");

        let snap = read(&dir).unwrap();
        assert_eq!(snap.layout.last_seq, 42);
        assert_eq!(snap.layout, out.layout);
        assert_eq!(snap.instance, inst);
        assert_eq!(snap.ics, ics, "constraints rebuilt Eq-equal");
        // The rebuilt schema carries attribute names too.
        let r = snap.instance.schema().require("r").unwrap();
        assert_eq!(snap.instance.schema().relation(r).attrs(), &["x", "y"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_write_reuses_clean_segments() {
        let dir = tmpdir("incremental");
        let (mut inst, ics) = example_state();
        let full = write(&dir, &inst, &ics, 5, None).unwrap();
        let r_name = full.layout.segments[0].name.clone();
        let s_entry = full.layout.segments[1].clone();

        // Only relation r changes; s's segment must be reused verbatim.
        inst.insert_named("r", [s("new"), s("row")]).unwrap();
        let rel_r = inst.schema().require("r").unwrap();
        let dirty: BTreeSet<RelId> = [rel_r].into_iter().collect();
        let inc = write(&dir, &inst, &ics, 9, Some((&full.layout, &dirty))).unwrap();
        assert_eq!((inc.segments_written, inc.segments_reused), (1, 1));
        assert_eq!(inc.layout.epoch, full.layout.epoch + 1);
        assert_ne!(inc.layout.segments[0].name, r_name, "r rewritten fresh");
        assert_eq!(inc.layout.segments[1], s_entry, "s reused by reference");

        let snap = read(&dir).unwrap();
        assert_eq!(snap.layout.last_seq, 9);
        assert_eq!(snap.instance, inst, "reads merge new + reused segments");
        assert_eq!(snap.ics, ics);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_checksum_detects_bit_flip() {
        let dir = tmpdir("flip");
        let (inst, ics) = example_state();
        write(&dir, &inst, &ics, 1, None).unwrap();
        let path = manifest_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = read(&dir).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_tampering_is_detected() {
        let dir = tmpdir("segflip");
        let (inst, ics) = example_state();
        let out = write(&dir, &inst, &ics, 1, None).unwrap();
        let seg = dir.join(&out.layout.segments[0].name);

        // A flipped byte fails the CRC.
        let pristine = fs::read(&seg).unwrap();
        let mut bytes = pristine.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(read(&dir), Err(StorageError::Corrupt { .. })));

        // A truncated segment fails the manifest's length pin.
        fs::write(&seg, &pristine[..pristine.len() - 3]).unwrap();
        assert!(matches!(read(&dir), Err(StorageError::Corrupt { .. })));

        // A *valid* segment holding the wrong relation fails the
        // cross-check even if lengths happen to collide.
        fs::write(&seg, &pristine).unwrap();
        assert!(read(&dir).is_ok(), "restored snapshot reads again");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_truncation_is_corrupt_not_a_panic() {
        let dir = tmpdir("trunc");
        let (inst, ics) = example_state();
        write(&dir, &inst, &ics, 1, None).unwrap();
        let path = manifest_path(&dir);
        let bytes = fs::read(&path).unwrap();
        for keep in [0, 4, 12, 20, bytes.len() - 1] {
            fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                matches!(read(&dir), Err(StorageError::Corrupt { .. })),
                "truncation to {keep} bytes must be Corrupt"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_counts_are_bounded_by_input() {
        // A relation count, then one relation's arity, of MAX_SECTION_LEN
        // followed by a few bytes: Corrupt, never an oversized allocation.
        let with_count = |relation: bool| {
            let mut w = Writer::new();
            w.u64(0); // last_seq
            w.u64(1); // epoch
            if relation {
                w.u32(1);
                w.str("r");
            }
            w.u32(crate::codec::MAX_SECTION_LEN);
            w.raw(&[1, 0, 0, 0, b'x']);
            w.into_bytes()
        };
        for relation in [false, true] {
            let bytes = with_count(relation);
            assert!(
                matches!(
                    decode_manifest_body(&bytes, 0),
                    Err(StorageError::Corrupt { .. })
                ),
                "huge {} count must be Corrupt",
                if relation { "arity" } else { "relation" }
            );
        }
    }

    #[test]
    fn sweep_removes_unreferenced_debris_only() {
        let dir = tmpdir("sweep");
        let (inst, ics) = example_state();
        let out = write(&dir, &inst, &ics, 3, None).unwrap();
        fs::write(dir.join("manifest.tmp"), b"half-written garbage").unwrap();
        fs::write(dir.join("seg-0-99"), b"orphaned segment").unwrap();
        fs::write(dir.join("wal"), b"not snapshot debris").unwrap();

        let removed = sweep_with(&RealVfs, &dir, &out.layout).unwrap();
        assert_eq!(removed, 2);
        assert!(!dir.join("manifest.tmp").exists());
        assert!(!dir.join("seg-0-99").exists());
        assert!(dir.join("wal").exists(), "non-snapshot files untouched");
        for seg in &out.layout.segments {
            assert!(dir.join(&seg.name).exists(), "live segments survive");
        }
        assert_eq!(read(&dir).unwrap().instance, inst);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_instance_and_no_constraints_roundtrip() {
        let dir = tmpdir("empty");
        let schema = Schema::builder()
            .relation("only", ["a"])
            .finish()
            .unwrap()
            .into_shared();
        let inst = Instance::empty(schema);
        write(&dir, &inst, &IcSet::default(), 0, None).unwrap();
        let snap = read(&dir).unwrap();
        assert!(snap.instance.is_empty());
        assert!(snap.ics.is_empty());
        assert_eq!(snap.layout.last_seq, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
