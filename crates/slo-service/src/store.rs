//! The persistent analysis store: an append-only, crash-safe segment
//! store for serialized [`Analysis`] records, keyed by the same FNV
//! content fingerprints as the in-memory cache
//! ([`slo::analysis_cache_key`]).
//!
//! The store is the durable tier beneath [`crate::cache::AnalysisCache`]:
//! an LRU miss falls through to disk before recomputing, and a fresh
//! computation is written back, so analysis results survive process
//! restarts and SIGKILL — the warm-start half of ROADMAP item 2.
//!
//! # On-disk format
//!
//! A store directory holds numbered segment files. The active segment
//! (`seg-NNNNNN.open`) receives appends; once it reaches the seal
//! threshold it is fsync'd and atomically renamed to `seg-NNNNNN.seg`,
//! so a sealed segment is always a complete, durable prefix and a kill
//! at any point leaves at worst a torn tail on the active segment.
//! Each record is self-describing:
//!
//! ```text
//! [4B magic "SLOR"] [8B key LE] [4B payload len LE] [payload] [8B FNV-1a LE]
//! ```
//!
//! The trailing checksum covers the header *and* the payload, and is
//! verified on every read — including re-reads of records that scanned
//! clean at open time, because bit rot does not schedule itself around
//! `open`. A record that fails the checksum (or fails
//! [`slo::decode_analysis`]'s structural validation) is dropped from
//! the index, counted in [`StoreCounters::corrupt_drops`], and the
//! caller recomputes: a corrupt record is never served. This extends
//! the cache's `get_checked` re-verification discipline to disk, where
//! the fingerprint alone would not suffice ([`ipa_fingerprint`] digests
//! only the planner-relevant subset of an analysis).
//!
//! # Replay
//!
//! Opening scans every segment in order. A record whose checksum fails
//! but whose frame is intact is skipped and counted (interior bit rot);
//! a frame that no longer parses — bad magic, impossible length,
//! missing bytes — ends the scan of that segment (torn tail). Later
//! segments still replay: damage is contained to the segment it
//! happened in.
//!
//! # Compaction
//!
//! [`AnalysisStore::compact`] rewrites live records into a fresh sealed
//! segment and deletes the old files, reclaiming space held by dead
//! (superseded or corrupt) records. It runs under an exclusive
//! `store.lock` file carrying the owner's pid; a lock whose owner is no
//! longer alive is stale and is reclaimed, so a compactor killed
//! mid-pass never wedges the store.
//!
//! # Fault injection
//!
//! Three [`Site`]s prove the robustness claims deterministically:
//! [`Site::StoreTornWrite`] truncates a put mid-body (and rolls the
//! segment, as a crash would), [`Site::StoreBitRot`] flips one byte of
//! a just-written record on disk, and [`Site::StoreLockStale`] plants a
//! dead compactor's lock file before compaction acquires it.
//!
//! [`ipa_fingerprint`]: slo::analysis::ipa_fingerprint

use slo::Analysis;
use slo_chaos::{FaultPlan, Site};
use slo_ir::Fnv64;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of one store record frame.
const RECORD_MAGIC: [u8; 4] = *b"SLOR";
/// Frame header bytes before the payload (magic + key + len).
const HEADER_BYTES: usize = 4 + 8 + 4;
/// Frame trailer bytes after the payload (checksum).
const TRAILER_BYTES: usize = 8;
/// Upper bound on one record's payload — a length field beyond this is
/// frame damage, not data.
const MAX_PAYLOAD_BYTES: u32 = 256 * 1024 * 1024;
/// Default seal threshold for the active segment.
const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Point-in-time store counters, mirrored into the service metrics as
/// the `slo_store_*` Prometheus families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Reads that verified and decoded.
    pub hits: u64,
    /// Reads of keys the store does not hold.
    pub misses: u64,
    /// Records dropped by checksum or structural verification — at
    /// open-time scan, on read, or during compaction.
    pub corrupt_drops: u64,
    /// Completed compaction passes.
    pub compactions: u64,
    /// Bytes appended to segments since open (live + since-dead).
    pub bytes_written: u64,
}

#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: u64,
    offset: u64,
    /// Whole frame length (header + payload + trailer).
    frame: u32,
}

/// The append-only segment store. See the module docs for the format
/// and the crash-safety story.
#[derive(Debug)]
pub struct AnalysisStore {
    dir: PathBuf,
    index: HashMap<u64, Loc>,
    active: File,
    active_id: u64,
    active_len: u64,
    seal_bytes: u64,
    counters: StoreCounters,
    trace: slo_obs::Recorder,
    faults: FaultPlan,
}

impl AnalysisStore {
    /// Open (creating if needed) the store at `dir`, replaying every
    /// segment into the in-memory index. Any active segment left by a
    /// dead process is sealed as-is — its valid prefix replays, its
    /// torn tail (if any) is skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or segment reads;
    /// damaged *records* are never fatal, only counted.
    pub fn open(dir: &Path, trace: slo_obs::Recorder, faults: FaultPlan) -> std::io::Result<Self> {
        let rec = trace.clone();
        let mut span = rec.span("store", "open");
        fs::create_dir_all(dir)?;
        // Orphaned active segments (a previous process died holding
        // one) become sealed segments: rename first so the scan below
        // only ever sees one namespace.
        let mut ids = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(id) = segment_id(&name, ".open") {
                let sealed = dir.join(segment_name(id, ".seg"));
                fs::rename(entry.path(), sealed)?;
                ids.push(id);
            } else if let Some(id) = segment_id(&name, ".seg") {
                ids.push(id);
            }
        }
        ids.sort_unstable();

        let mut index = HashMap::new();
        let mut counters = StoreCounters::default();
        for &id in &ids {
            scan_segment(
                &dir.join(segment_name(id, ".seg")),
                id,
                &mut index,
                &mut counters,
            )?;
        }

        let active_id = ids.last().map_or(0, |m| m + 1);
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(segment_name(active_id, ".open")))?;
        span.arg("records", index.len() as i64);
        span.arg("segments", ids.len() as i64);
        Ok(AnalysisStore {
            dir: dir.to_path_buf(),
            index,
            active,
            active_id,
            active_len: 0,
            seal_bytes: DEFAULT_SEGMENT_BYTES,
            counters,
            trace,
            faults,
        })
    }

    /// Override the active-segment seal threshold (tests and compaction
    /// experiments use small segments to force frequent seals).
    pub fn set_segment_bytes(&mut self, bytes: u64) {
        self.seal_bytes = bytes.max(1);
    }

    /// Number of live (indexed) records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no live records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// A copy of the counters.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read the record for `key`, re-verifying its checksum against the
    /// bytes on disk and structurally decoding it. A record that fails
    /// either check is dropped from the index and counted — the caller
    /// sees a miss and recomputes; corrupt data is never returned.
    pub fn get(&mut self, key: u64) -> Option<Arc<Analysis>> {
        let mut span = self.trace.span("store", "get");
        let Some(loc) = self.index.get(&key).copied() else {
            self.counters.misses += 1;
            span.arg("outcome", "miss");
            return None;
        };
        match self.read_frame(key, loc) {
            Some(analysis) => {
                self.counters.hits += 1;
                span.arg("outcome", "hit");
                Some(Arc::new(analysis))
            }
            None => {
                // Checksum or decode failure: drop, count, let the
                // caller recompute (and re-put a healthy copy).
                self.index.remove(&key);
                self.counters.corrupt_drops += 1;
                self.counters.misses += 1;
                span.arg("outcome", "corrupt-drop");
                None
            }
        }
    }

    /// Append the record for `key`. A key already present is left alone
    /// (the stored copy is content-addressed — equal by construction).
    /// Seals and rolls the active segment past the size threshold.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the append, flush, or seal.
    pub fn put(&mut self, key: u64, analysis: &Analysis) -> std::io::Result<()> {
        if self.index.contains_key(&key) {
            return Ok(());
        }
        let rec = self.trace.clone();
        let mut span = rec.span("store", "put");
        let frame = encode_frame(key, &slo::encode_analysis(analysis));
        span.arg("bytes", frame.len() as i64);

        if self.faults.should_fire(Site::StoreTornWrite) {
            // A torn write: only a prefix of the frame reaches disk, as
            // if the process died mid-append. The record is not
            // indexed, and the segment rolls so the damage sits where
            // real crash damage sits — at a sealed segment's tail.
            let cut = 1 + self
                .faults
                .magnitude(Site::StoreTornWrite, frame.len() as u64 - 2)
                as usize;
            self.active.write_all(&frame[..cut])?;
            self.active.flush()?;
            self.active_len += cut as u64;
            self.counters.bytes_written += cut as u64;
            span.arg("fault", "torn-write");
            return self.roll_segment();
        }

        let offset = self.active_len;
        self.active.write_all(&frame)?;
        self.active.flush()?;
        self.active_len += frame.len() as u64;
        self.counters.bytes_written += frame.len() as u64;
        self.index.insert(
            key,
            Loc {
                seg: self.active_id,
                offset,
                frame: frame.len() as u32,
            },
        );

        if self.faults.should_fire(Site::StoreBitRot) {
            // Flip one bit of the just-written frame on disk. The index
            // keeps pointing at it: the *read* path must catch this.
            let at = offset
                + self
                    .faults
                    .magnitude(Site::StoreBitRot, frame.len() as u64 - 1);
            let path = self.dir.join(segment_name(self.active_id, ".open"));
            let mut f = OpenOptions::new().read(true).write(true).open(path)?;
            let mut byte = [0u8; 1];
            f.seek(SeekFrom::Start(at))?;
            f.read_exact(&mut byte)?;
            byte[0] ^= 1 << (at % 8);
            f.seek(SeekFrom::Start(at))?;
            f.write_all(&byte)?;
            span.arg("fault", "bit-rot");
        }

        if self.active_len >= self.seal_bytes {
            self.roll_segment()?;
        }
        Ok(())
    }

    /// Rewrite live records into a fresh sealed segment and delete the
    /// old segment files, under the stale-safe exclusive lock. Records
    /// that fail verification during the rewrite are dropped and
    /// counted, like any other read.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::WouldBlock`] when another live process
    /// holds the compaction lock; otherwise propagates I/O errors.
    pub fn compact(&mut self) -> std::io::Result<()> {
        let rec = self.trace.clone();
        let mut span = rec.span("store", "compact");
        if self.faults.should_fire(Site::StoreLockStale) {
            // Plant a dead compactor's lock: a pid that cannot be
            // alive. Acquisition below must treat it as stale.
            fs::write(self.lock_path(), format!("{}\n", u32::MAX))?;
            span.arg("fault", "lock-stale");
        }
        self.acquire_lock()?;
        let result = self.compact_locked(&mut span);
        let _ = fs::remove_file(self.lock_path());
        result
    }

    fn compact_locked(&mut self, span: &mut slo_obs::SpanGuard<'_>) -> std::io::Result<()> {
        // Everything live moves into one fresh segment; seal the active
        // one first so the old namespace is all `.seg`.
        self.roll_segment()?;
        let old_segments: Vec<u64> = {
            let mut ids: Vec<u64> = self
                .index
                .values()
                .map(|l| l.seg)
                .chain(existing_segments(&self.dir)?)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.retain(|&id| id != self.active_id);
            ids
        };

        // Survivors re-verify on the way through — compaction never
        // copies damage forward.
        let mut keys: Vec<u64> = self.index.keys().copied().collect();
        keys.sort_unstable();
        let new_id = self.active_id + 1;
        let tmp = self.dir.join(segment_name(new_id, ".cpt"));
        let mut out = File::create(&tmp)?;
        let mut new_index = HashMap::new();
        let mut offset = 0u64;
        for key in keys {
            let loc = self.index[&key];
            match self.read_frame_bytes(key, loc) {
                Some(frame) => {
                    out.write_all(&frame)?;
                    new_index.insert(
                        key,
                        Loc {
                            seg: new_id,
                            offset,
                            frame: frame.len() as u32,
                        },
                    );
                    offset += frame.len() as u64;
                    self.counters.bytes_written += frame.len() as u64;
                }
                None => self.counters.corrupt_drops += 1,
            }
        }
        out.sync_all()?;
        drop(out);
        fs::rename(&tmp, self.dir.join(segment_name(new_id, ".seg")))?;

        for id in old_segments {
            let _ = fs::remove_file(self.dir.join(segment_name(id, ".seg")));
        }
        self.index = new_index;
        self.counters.compactions += 1;

        // Fresh active segment above the compacted one.
        self.active_id = new_id + 1;
        self.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(segment_name(self.active_id, ".open")))?;
        self.active_len = 0;
        span.arg("live_records", self.index.len() as i64);
        span.arg("live_bytes", offset as i64);
        Ok(())
    }

    fn lock_path(&self) -> PathBuf {
        self.dir.join("store.lock")
    }

    /// Take the exclusive compaction lock, reclaiming it if its owner
    /// is dead (stale). `WouldBlock` if a live owner holds it.
    fn acquire_lock(&self) -> std::io::Result<()> {
        for _ in 0..2 {
            match OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(self.lock_path())
            {
                Ok(mut f) => {
                    writeln!(f, "{}", std::process::id())?;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let owner = fs::read_to_string(self.lock_path())
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    if owner.is_some_and(pid_alive) {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WouldBlock,
                            "compaction lock held by a live process",
                        ));
                    }
                    // Unreadable, unparseable or dead owner: stale.
                    let _ = fs::remove_file(self.lock_path());
                }
                Err(e) => return Err(e),
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "compaction lock contended",
        ))
    }

    /// Seal the active segment (flush, fsync, atomic rename to `.seg`)
    /// and open a fresh one. A kill between any two steps leaves either
    /// a replayable `.open` or a complete `.seg` — never a half-name.
    fn roll_segment(&mut self) -> std::io::Result<()> {
        self.active.flush()?;
        self.active.sync_all()?;
        let open = self.dir.join(segment_name(self.active_id, ".open"));
        let sealed = self.dir.join(segment_name(self.active_id, ".seg"));
        fs::rename(open, sealed)?;
        self.active_id += 1;
        self.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(segment_name(self.active_id, ".open")))?;
        self.active_len = 0;
        Ok(())
    }

    /// Read and fully verify one indexed frame; `None` on any damage.
    fn read_frame(&self, key: u64, loc: Loc) -> Option<Analysis> {
        let frame = self.read_frame_bytes(key, loc)?;
        let payload = &frame[HEADER_BYTES..frame.len() - TRAILER_BYTES];
        slo::decode_analysis(payload).ok()
    }

    /// Read one frame's raw bytes and verify magic, key and checksum;
    /// `None` on any damage (including the file having vanished).
    fn read_frame_bytes(&self, key: u64, loc: Loc) -> Option<Vec<u8>> {
        let path = self.segment_path(loc.seg)?;
        let mut f = File::open(path).ok()?;
        f.seek(SeekFrom::Start(loc.offset)).ok()?;
        let mut frame = vec![0u8; loc.frame as usize];
        f.read_exact(&mut frame).ok()?;
        verify_frame(&frame, Some(key))?;
        Some(frame)
    }

    fn segment_path(&self, seg: u64) -> Option<PathBuf> {
        let sealed = self.dir.join(segment_name(seg, ".seg"));
        if sealed.exists() {
            return Some(sealed);
        }
        let open = self.dir.join(segment_name(seg, ".open"));
        open.exists().then_some(open)
    }
}

/// Whether `pid` names a live process (the stale-lock test). Outside
/// procfs platforms the conservative answer is "alive": a lock is then
/// only reclaimed when its content is damaged.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        // Our own pid on the lock can only be a leftover from a crashed
        // predecessor that recycled onto us: we never hold the lock
        // while acquiring it.
        return false;
    }
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

fn segment_name(id: u64, ext: &str) -> String {
    format!("seg-{id:06}{ext}")
}

fn segment_id(name: &str, ext: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(ext)?.parse().ok()
}

fn existing_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(id) = segment_id(&name.to_string_lossy(), ".seg") {
            ids.push(id);
        }
    }
    Ok(ids)
}

/// Build one record frame: header, payload, trailing checksum over
/// everything before it.
fn encode_frame(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    frame.extend_from_slice(&RECORD_MAGIC);
    frame.extend_from_slice(&key.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let sum = Fnv64::hash_bytes(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

/// Verify one complete frame's magic, length, checksum and (when the
/// caller knows it) key. Returns the record key on success.
fn verify_frame(frame: &[u8], expect_key: Option<u64>) -> Option<u64> {
    if frame.len() < HEADER_BYTES + TRAILER_BYTES || frame[..4] != RECORD_MAGIC {
        return None;
    }
    let key = u64::from_le_bytes(frame[4..12].try_into().unwrap());
    let len = u32::from_le_bytes(frame[12..16].try_into().unwrap()) as usize;
    if frame.len() != HEADER_BYTES + len + TRAILER_BYTES {
        return None;
    }
    let body = &frame[..HEADER_BYTES + len];
    let sum = u64::from_le_bytes(frame[HEADER_BYTES + len..].try_into().unwrap());
    if Fnv64::hash_bytes(body) != sum || expect_key.is_some_and(|k| k != key) {
        return None;
    }
    Some(key)
}

/// Replay one sealed segment into the index. Interior records with an
/// intact frame but a bad checksum are skipped and counted; frame
/// damage (bad magic, impossible length, missing bytes) ends the scan
/// — the torn-tail case.
fn scan_segment(
    path: &Path,
    seg: u64,
    index: &mut HashMap<u64, Loc>,
    counters: &mut StoreCounters,
) -> std::io::Result<()> {
    let bytes = fs::read(path)?;
    let mut pos = 0usize;
    while bytes.len() - pos >= HEADER_BYTES + TRAILER_BYTES {
        let head = &bytes[pos..];
        if head[..4] != RECORD_MAGIC {
            counters.corrupt_drops += 1;
            break;
        }
        let len = u32::from_le_bytes(head[12..16].try_into().unwrap());
        if len > MAX_PAYLOAD_BYTES {
            counters.corrupt_drops += 1;
            break;
        }
        let frame_len = HEADER_BYTES + len as usize + TRAILER_BYTES;
        if bytes.len() - pos < frame_len {
            // Torn tail: the final append never finished.
            counters.corrupt_drops += 1;
            break;
        }
        let frame = &bytes[pos..pos + frame_len];
        match verify_frame(frame, None) {
            Some(key) => {
                index.insert(
                    key,
                    Loc {
                        seg,
                        offset: pos as u64,
                        frame: frame_len as u32,
                    },
                );
            }
            None => {
                // Checksum mismatch with an intact frame: interior bit
                // rot. Skip just this record; later ones still replay.
                counters.corrupt_drops += 1;
            }
        }
        pos += frame_len;
    }
    if pos < bytes.len() && bytes.len() - pos < HEADER_BYTES + TRAILER_BYTES && pos == 0 {
        // A tail too short to even hold a header on an otherwise empty
        // segment still counts as damage observed.
        counters.corrupt_drops += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo::analysis::WeightScheme;
    use slo::PipelineConfig;
    use slo_chaos::ChaosConfig;
    use slo_ir::parser::parse;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "slo-store-test-{}-{:?}-{name}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn analysis_for(ret: i64) -> Analysis {
        let src = format!("func main() -> i64 {{\nbb0:\n  ret {ret}\n}}\n");
        let p = parse(&src).expect("parse");
        slo::analyze(&p, &WeightScheme::Ispbo, &PipelineConfig::default())
    }

    fn open(dir: &Path) -> AnalysisStore {
        AnalysisStore::open(dir, slo_obs::Recorder::disabled(), FaultPlan::disabled())
            .expect("open store")
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = tmp("roundtrip");
        let mut s = open(&dir);
        assert!(s.is_empty());
        s.put(1, &analysis_for(1)).expect("put");
        s.put(2, &analysis_for(2)).expect("put");
        assert_eq!(s.len(), 2);
        assert!(s.get(1).is_some());
        assert!(s.get(3).is_none());
        assert_eq!(s.counters().hits, 1);
        assert_eq!(s.counters().misses, 1);
        drop(s);

        // A second process sees both records (the active segment's
        // flushed prefix replays).
        let mut s = open(&dir);
        assert_eq!(s.len(), 2);
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_some());
        assert_eq!(s.counters().corrupt_drops, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_skipped_on_replay() {
        let dir = tmp("torn");
        let mut s = open(&dir);
        s.put(1, &analysis_for(1)).expect("put");
        s.put(2, &analysis_for(2)).expect("put");
        drop(s);
        // Chop the (single) segment mid-record, as a kill would.
        let seg = fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .expect("segment")
            .path();
        let bytes = fs::read(&seg).expect("read");
        fs::write(&seg, &bytes[..bytes.len() - 20]).expect("truncate");

        let mut s = open(&dir);
        assert_eq!(s.len(), 1, "complete record survives, torn one dropped");
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_none());
        assert_eq!(s.counters().corrupt_drops, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_rot_is_dropped_on_read_and_healed_by_reput() {
        let dir = tmp("bitrot");
        let mut s = open(&dir);
        s.put(1, &analysis_for(1)).expect("put");
        // Rot one payload byte on disk behind the index's back.
        let seg = s.segment_path(s.index[&1].seg).expect("segment path");
        let mut bytes = fs::read(&seg).expect("read");
        let at = HEADER_BYTES + 3;
        bytes[at] ^= 0x40;
        fs::write(&seg, &bytes).expect("write");

        assert!(s.get(1).is_none(), "rotted record must not be served");
        assert_eq!(s.counters().corrupt_drops, 1);
        // The recompute path re-puts; the key is live again.
        s.put(1, &analysis_for(1)).expect("re-put");
        assert!(s.get(1).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_bit_rot_spares_later_records_on_replay() {
        let dir = tmp("interior");
        let mut s = open(&dir);
        for k in 1..=3u64 {
            s.put(k, &analysis_for(k as i64)).expect("put");
        }
        let seg = s.segment_path(s.index[&1].seg).expect("segment path");
        let second = s.index[&2];
        drop(s);
        let mut bytes = fs::read(&seg).expect("read");
        let at = second.offset as usize + HEADER_BYTES + 1;
        bytes[at] ^= 0x01;
        fs::write(&seg, &bytes).expect("write");

        let mut s = open(&dir);
        assert_eq!(s.len(), 2, "only the rotted interior record is lost");
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_none());
        assert!(s.get(3).is_some(), "records after the damage still replay");
        assert_eq!(s.counters().corrupt_drops, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_dead_records_and_keeps_live_ones() {
        let dir = tmp("compact");
        let mut s = open(&dir);
        s.set_segment_bytes(1); // seal after every put: many segments
        for k in 1..=4u64 {
            s.put(k, &analysis_for(k as i64)).expect("put");
        }
        // Kill one record via simulated rot + drop; its bytes are dead.
        let seg = s.segment_path(s.index[&2].seg).expect("segment path");
        let mut bytes = fs::read(&seg).expect("read");
        bytes[HEADER_BYTES] ^= 0xff;
        fs::write(&seg, &bytes).expect("write");
        assert!(s.get(2).is_none());

        let disk_before: u64 = dir_bytes(&dir);
        s.compact().expect("compact");
        let disk_after: u64 = dir_bytes(&dir);
        assert!(
            disk_after < disk_before,
            "compaction must reclaim bytes ({disk_before} -> {disk_after})"
        );
        assert_eq!(s.counters().compactions, 1);
        for k in [1u64, 3, 4] {
            assert!(s.get(k).is_some(), "live record {k} survives compaction");
        }
        assert!(!s.lock_path().exists(), "lock released");
        drop(s);
        let mut s = open(&dir);
        assert_eq!(s.len(), 3, "compacted store replays");
        assert!(s.get(3).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    fn dir_bytes(dir: &Path) -> u64 {
        fs::read_dir(dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    #[test]
    fn stale_lock_is_reclaimed_live_lock_blocks() {
        let dir = tmp("lock");
        let mut s = open(&dir);
        s.put(1, &analysis_for(1)).expect("put");
        // Dead owner: u32::MAX can never be a live pid.
        fs::write(s.lock_path(), format!("{}\n", u32::MAX)).expect("plant stale lock");
        s.compact().expect("stale lock must be reclaimed");
        assert_eq!(s.counters().compactions, 1);

        if cfg!(target_os = "linux") {
            // Live owner: pid 1 always exists on Linux.
            fs::write(s.lock_path(), "1\n").expect("plant live lock");
            let err = s.compact().expect_err("live lock must block");
            assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
            let _ = fs::remove_file(s.lock_path());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_torn_write_never_indexes_and_replays_clean() {
        let dir = tmp("chaos-torn");
        let plan = FaultPlan::with_config(7, ChaosConfig::never().rate(Site::StoreTornWrite, 1024));
        let mut s =
            AnalysisStore::open(&dir, slo_obs::Recorder::disabled(), plan.clone()).expect("open");
        s.put(1, &analysis_for(1)).expect("torn put");
        assert_eq!(plan.injected(Site::StoreTornWrite), 1);
        assert!(s.get(1).is_none(), "a torn record is never indexed");
        drop(s);
        let mut s = open(&dir);
        assert!(s.is_empty());
        assert_eq!(
            s.counters().corrupt_drops,
            1,
            "the torn tail is observed and counted on replay"
        );
        assert!(s.get(1).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_bit_rot_is_caught_by_the_read_path() {
        let dir = tmp("chaos-rot");
        let plan = FaultPlan::with_config(9, ChaosConfig::never().rate(Site::StoreBitRot, 1024));
        let mut s =
            AnalysisStore::open(&dir, slo_obs::Recorder::disabled(), plan.clone()).expect("open");
        s.put(1, &analysis_for(1)).expect("put");
        assert_eq!(plan.injected(Site::StoreBitRot), 1);
        assert!(s.get(1).is_none(), "rotted record dropped, not served");
        assert_eq!(s.counters().corrupt_drops, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_stale_lock_site_exercises_takeover() {
        let dir = tmp("chaos-lock");
        let plan = FaultPlan::with_config(3, ChaosConfig::never().rate(Site::StoreLockStale, 1024));
        let mut s =
            AnalysisStore::open(&dir, slo_obs::Recorder::disabled(), plan.clone()).expect("open");
        s.put(1, &analysis_for(1)).expect("put");
        s.compact().expect("compact through the planted stale lock");
        assert_eq!(plan.injected(Site::StoreLockStale), 1);
        assert_eq!(s.counters().compactions, 1);
        assert!(s.get(1).is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
