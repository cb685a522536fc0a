//! The segmented on-disk tier: an append-only directory of checksummed
//! segment files, built for a long-running daemon sharing one store
//! across many concurrent sessions.
//!
//! Layout: a directory of `seg-NNNNNNNN.json` files, each a self-
//! contained document with a header (`format`, `version`, `seq`) and a
//! list of checksummed entries. Writers only ever *add* segments, and
//! every segment is written to a temporary sibling and renamed into
//! place — a crash mid-write can leave a stray temp file (ignored on
//! load) but never a torn, checksum-failing segment under a live name.
//!
//! Readers are concurrent and lock-free: loading lists the directory,
//! reads segments in ascending sequence order (later segments win on key
//! collisions) and *skips* — with a counted warning, never an error —
//! any segment that is truncated, unparsable or carries the wrong
//! header. A segment deleted between listing and reading (by a racing
//! compactor) is treated as already-compacted, not as damage.
//!
//! Compaction is single-writer by construction: a mutex serialises
//! [`SegmentedDiskStore::compact`], which merges every live segment into
//! one (newest entry per key wins), applies the optional byte budget by
//! evicting oldest-first, writes the merged segment atomically and only
//! then unlinks the inputs. Telemetry (compaction count, budget
//! evictions, resulting disk bytes) lands in the attached store's
//! [`crate::StoreStats`].

use crate::codec::{entry_from_json, entry_to_json, write_atomic};
use crate::entry::Entry;
use crate::json::Json;
use crate::key::ObligationKey;
use crate::store::CertStore;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Format marker and version written to every segment file.
const FORMAT: &str = "cmc-store-seg";
const VERSION: u64 = 1;

/// A segmented certificate store directory on disk.
#[derive(Debug)]
pub struct SegmentedDiskStore {
    dir: PathBuf,
    /// Serialises sequence allocation (appends) and compaction; readers
    /// never take it.
    writer: Mutex<u64>,
}

/// Outcome of one [`SegmentedDiskStore::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Segments merged away (including the inputs of a no-op merge).
    pub segments_merged: usize,
    /// Distinct entries surviving the merge.
    pub entries_kept: usize,
    /// Entries evicted (oldest first) to respect the byte budget.
    pub budget_evicted: usize,
    /// Bytes occupied by the merged segment.
    pub disk_bytes: u64,
}

impl SegmentedDiskStore {
    /// Open (creating if necessary) the segment directory at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let next = next_sequence(&dir)?;
        Ok(SegmentedDiskStore {
            dir,
            writer: Mutex::new(next),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append `entries` as one new segment, written atomically
    /// (temp file + rename). Returns the segment's sequence number.
    pub fn append(&self, entries: &[(ObligationKey, Entry)]) -> io::Result<u64> {
        let mut next = self.writer.lock().expect("segment writer poisoned");
        let seq = *next;
        let items: Vec<Json> = entries
            .iter()
            .map(|(key, entry)| entry_to_json(*key, entry))
            .collect();
        let doc = segment_doc(seq, items);
        write_atomic(&self.segment_path(seq), doc.to_pretty().as_bytes())?;
        *next = seq + 1;
        Ok(seq)
    }

    /// Append every resident entry of `store` as one new segment and
    /// record the resulting disk footprint in the store's stats.
    pub fn save_snapshot(&self, store: &CertStore) -> io::Result<u64> {
        let seq = self.append(&store.snapshot())?;
        store.note_disk_bytes(self.disk_bytes()?);
        Ok(seq)
    }

    /// Load every readable segment into `store`, in ascending sequence
    /// order (later segments override earlier ones on key collisions).
    /// A truncated/garbled segment or one with a foreign header is
    /// skipped with a counted warning ([`crate::StoreStats::segments_skipped`]);
    /// individual entries failing their checksum count `disk_rejects`.
    /// Returns the number of entries accepted.
    pub fn load_into(&self, store: &CertStore) -> io::Result<usize> {
        let mut accepted = 0usize;
        for (seq, path) in self.list_segments()? {
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                // Unlinked by a racing compactor after we listed the
                // directory: its contents live on in the merged segment.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let Some(items) = parse_segment(&text, seq) else {
                store.count_segment_skip();
                continue;
            };
            for item in items {
                match entry_from_json(&item) {
                    Some((key, entry)) => {
                        store.install_from_disk(key, entry);
                        accepted += 1;
                    }
                    None => store.count_disk_reject(),
                }
            }
        }
        store.note_disk_bytes(self.disk_bytes()?);
        Ok(accepted)
    }

    /// Merge every live segment into one, newest entry per key winning.
    /// With a byte budget, oldest entries are evicted until the merged
    /// segment fits. Telemetry is recorded into `store`'s stats. Safe to
    /// race with concurrent `load_into` readers; concurrent compactors
    /// are serialised by the writer mutex.
    pub fn compact(
        &self,
        store: &CertStore,
        budget_bytes: Option<u64>,
    ) -> io::Result<CompactReport> {
        let mut next = self.writer.lock().expect("segment writer poisoned");
        let segments = self.list_segments()?;
        // Newest-wins merge preserving first-write (oldest) order for
        // budget eviction.
        let mut order: Vec<ObligationKey> = Vec::new();
        let mut merged: HashMap<ObligationKey, Entry> = HashMap::new();
        for (seq, path) in &segments {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let Some(items) = parse_segment(&text, *seq) else {
                store.count_segment_skip();
                continue;
            };
            for item in items {
                if let Some((key, entry)) = entry_from_json(&item) {
                    if merged.insert(key, entry).is_none() {
                        order.push(key);
                    }
                } else {
                    store.count_disk_reject();
                }
            }
        }

        // Apply the byte budget: serialised entry sizes, evict oldest
        // until the projected segment fits.
        let mut rendered: Vec<(ObligationKey, Json)> = order
            .iter()
            .map(|key| (*key, entry_to_json(*key, &merged[key])))
            .collect();
        let mut budget_evicted = 0usize;
        if let Some(budget) = budget_bytes {
            let mut total: u64 = rendered
                .iter()
                .map(|(_, json)| json.to_compact().len() as u64)
                .sum();
            while total > budget && !rendered.is_empty() {
                let (_, json) = rendered.remove(0);
                total -= json.to_compact().len() as u64;
                budget_evicted += 1;
            }
        }

        let seq = *next;
        let items: Vec<Json> = rendered.iter().map(|(_, json)| json.clone()).collect();
        let entries_kept = items.len();
        let doc = segment_doc(seq, items);
        write_atomic(&self.segment_path(seq), doc.to_pretty().as_bytes())?;
        *next = seq + 1;
        // The merged segment is durable under its live name; only now
        // unlink the inputs. A reader racing this sees merged + some
        // inputs (harmless: newest-wins) but never an empty window.
        for (_, path) in &segments {
            std::fs::remove_file(path).ok();
        }
        let disk_bytes = self.disk_bytes()?;
        store.count_compaction(budget_evicted as u64, disk_bytes);
        Ok(CompactReport {
            segments_merged: segments.len(),
            entries_kept,
            budget_evicted,
            disk_bytes,
        })
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> io::Result<usize> {
        Ok(self.list_segments()?.len())
    }

    /// Total bytes across live segments.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        let mut total = 0u64;
        for (_, path) in self.list_segments()? {
            match std::fs::metadata(&path) {
                Ok(meta) => total += meta.len(),
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    fn segment_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("seg-{seq:08}.json"))
    }

    /// Live segments as `(sequence, path)`, ascending. Temp files and
    /// foreign names are ignored.
    fn list_segments(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = parse_segment_name(name) {
                out.push((seq, dirent.path()));
            }
        }
        out.sort();
        Ok(out)
    }
}

/// A background thread periodically snapshotting a [`CertStore`] into a
/// [`SegmentedDiskStore`] and compacting it under a byte budget — the
/// daemon's single-compactor loop.
pub struct Compactor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Compactor {
    /// Spawn the compactor: every `interval` (and once at shutdown) it
    /// appends the store's current snapshot as a fresh segment, then —
    /// whenever more than `max_segments` accumulated — compacts under
    /// `budget_bytes`. Passes are dirty-gated on the store's insertion
    /// counter: an idle store writes nothing, however long it idles.
    pub fn spawn(
        disk: Arc<SegmentedDiskStore>,
        store: Arc<CertStore>,
        interval: Duration,
        max_segments: usize,
        budget_bytes: Option<u64>,
    ) -> Compactor {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cmc-store-compactor".to_string())
            .spawn(move || {
                let tick = Duration::from_millis(25).min(interval);
                let mut elapsed = Duration::ZERO;
                // `insertions` counts only fresh verdicts (disk loads
                // install without bumping it), so "flushed through 0"
                // correctly treats a just-loaded store as clean and any
                // pre-spawn insert as dirty.
                let mut flushed = 0u64;
                loop {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(tick);
                    elapsed += tick;
                    if elapsed < interval {
                        continue;
                    }
                    elapsed = Duration::ZERO;
                    let now = store.stats().insertions;
                    if now != flushed {
                        flushed = now;
                        Self::pass(&disk, &store, max_segments, budget_bytes);
                    }
                }
                // Final pass: flush anything unflushed and merge down to
                // one tidy, budget-respecting segment.
                if store.stats().insertions != flushed {
                    disk.save_snapshot(&store).ok();
                }
                if disk.segment_count().map(|n| n > 1).unwrap_or(false) {
                    disk.compact(&store, budget_bytes).ok();
                }
            })
            .expect("spawn compactor thread");
        Compactor {
            stop,
            handle: Some(handle),
        }
    }

    fn pass(
        disk: &SegmentedDiskStore,
        store: &CertStore,
        max_segments: usize,
        budget_bytes: Option<u64>,
    ) {
        // Disk errors inside the background loop degrade to a cold tier;
        // they must never take the daemon down.
        if disk.save_snapshot(store).is_err() {
            return;
        }
        if disk
            .segment_count()
            .map(|n| n > max_segments)
            .unwrap_or(false)
        {
            disk.compact(store, budget_bytes).ok();
        }
    }

    /// Signal the thread and wait for its final flush/compaction.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

fn segment_doc(seq: u64, items: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("format".to_string(), Json::Str(FORMAT.to_string())),
        ("version".to_string(), Json::int(VERSION)),
        ("seq".to_string(), Json::int(seq)),
        ("entries".to_string(), Json::Arr(items)),
    ])
}

/// Parse a segment document, checking header and sequence; `None` means
/// the segment is damaged or foreign and must be skipped.
fn parse_segment(text: &str, seq: u64) -> Option<Vec<Json>> {
    let doc = Json::parse(text).ok()?;
    let header_ok = doc.get("format").and_then(Json::as_str) == Some(FORMAT)
        && doc.get("version").and_then(Json::as_num) == Some(VERSION as f64)
        && doc.get("seq").and_then(Json::as_num) == Some(seq as f64);
    if !header_ok {
        return None;
    }
    Some(doc.get("entries")?.as_arr()?.to_vec())
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".json")?;
    if rest.len() != 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

fn next_sequence(dir: &Path) -> io::Result<u64> {
    let mut max = None;
    for dirent in std::fs::read_dir(dir)? {
        let dirent = dirent?;
        if let Some(name) = dirent.file_name().to_str() {
            if let Some(seq) = parse_segment_name(name) {
                max = Some(max.map_or(seq, |m: u64| m.max(seq)));
            }
        }
    }
    Ok(max.map_or(0, |m| m + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{StoredCertificate, StoredStep, StoredSubstitution};
    use cmc_kripke::{Alphabet, System};
    use std::io::Write as _;

    fn key(n: u128) -> ObligationKey {
        ObligationKey(n)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cmc-segstore-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn sample_store() -> CertStore {
        let store = CertStore::new();
        store.insert(ObligationKey(42), Entry::verdict(true));
        store.insert(
            ObligationKey(7),
            Entry::with_certificate(
                false,
                StoredCertificate {
                    goal: "ring(3) ⊨ AG ¬(t0 ∧ t1)".to_string(),
                    steps: vec![
                        StoredStep {
                            description: "component station0 ⊨ inv".to_string(),
                            ok: true,
                            compositional: true,
                            backend: Some("explicit".to_string()),
                        },
                        StoredStep {
                            description: "monolithic fallback".to_string(),
                            ok: false,
                            compositional: false,
                            backend: None,
                        },
                    ],
                    valid: false,
                    abstractions: vec![],
                },
            ),
        );
        store
    }

    fn toggler(name: &str) -> System {
        let mut m = System::new(Alphabet::new([name]));
        m.add_transition_named(&[], &[name]);
        m.add_transition_named(&[name], &[]);
        m
    }

    fn substituted_store() -> CertStore {
        let mut concrete = System::new(Alphabet::new(["x", "scratch"]));
        concrete.add_transition_named(&[], &["scratch"]);
        concrete.add_transition_named(&["scratch"], &["x"]);
        let abstraction = {
            let mut m = System::new(Alphabet::new(["x"]));
            m.add_transition_named(&[], &["x"]);
            m
        };
        let store = CertStore::new();
        store.insert(
            ObligationKey(9),
            Entry::with_certificate(
                true,
                StoredCertificate {
                    goal: "system ⊨ AG x via abstraction".to_string(),
                    steps: vec![StoredStep {
                        description: "server ⊑ idealised server".to_string(),
                        ok: true,
                        compositional: true,
                        backend: Some("explicit".to_string()),
                    }],
                    valid: true,
                    abstractions: vec![StoredSubstitution {
                        component: "server".to_string(),
                        abstraction_key: ObligationKey::system(&abstraction).to_hex(),
                        concrete,
                        abstraction,
                        rest: vec![toggler("y")],
                        init: "!x".to_string(),
                        fairness: vec!["x | !x".to_string()],
                        formula: "AG (x -> AX x)".to_string(),
                    }],
                },
            ),
        );
        store
    }

    /// Snapshot `store` into a fresh directory, load it back, snapshot
    /// the reload into a second fresh directory, and return both segments'
    /// bytes and the reloaded store.
    fn snapshot_twice(name: &str, store: &CertStore) -> (Vec<u8>, Vec<u8>, CertStore) {
        let (first, second) = (tmp_dir(&format!("{name}-1")), tmp_dir(&format!("{name}-2")));
        let disk = SegmentedDiskStore::open(&first).unwrap();
        let seq = disk.save_snapshot(store).unwrap();
        let bytes1 = std::fs::read(disk.segment_path(seq)).unwrap();
        let reloaded = CertStore::new();
        assert_eq!(disk.load_into(&reloaded).unwrap(), store.len());
        let again = SegmentedDiskStore::open(&second).unwrap();
        let seq = again.save_snapshot(&reloaded).unwrap();
        let bytes2 = std::fs::read(again.segment_path(seq)).unwrap();
        std::fs::remove_dir_all(&first).ok();
        std::fs::remove_dir_all(&second).ok();
        (bytes1, bytes2, reloaded)
    }

    /// Rewrite segment `seq` of `disk` through `edit`, asserting it changed.
    fn rewrite_segment(disk: &SegmentedDiskStore, seq: u64, edit: impl Fn(&str) -> String) {
        let path = disk.segment_path(seq);
        let text = std::fs::read_to_string(&path).unwrap();
        let edited = edit(&text);
        assert_ne!(text, edited, "test setup: nothing replaced");
        std::fs::write(&path, edited).unwrap();
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let store = sample_store();
        let (bytes1, bytes2, reloaded) = snapshot_twice("bit-identical", &store);
        assert_eq!(reloaded.snapshot(), store.snapshot());
        assert_eq!(reloaded.stats().disk_loads, 2);
        assert_eq!(reloaded.stats().disk_rejects, 0);
        assert_eq!(bytes1, bytes2, "save → load → save must be bit-identical");
    }

    #[test]
    fn substituted_certificate_round_trips() {
        let store = substituted_store();
        let (bytes1, bytes2, reloaded) = snapshot_twice("substituted", &store);
        assert_eq!(reloaded.snapshot(), store.snapshot());
        assert_eq!(bytes1, bytes2, "save → load → save must be bit-identical");
    }

    #[test]
    fn substitution_free_certificates_omit_the_abstractions_field() {
        let (bytes, _, _) = snapshot_twice("no-abstractions", &sample_store());
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            !text.contains("abstractions"),
            "the field must only appear when non-empty"
        );
    }

    #[test]
    fn tampered_verdict_is_rejected() {
        let dir = tmp_dir("tamper");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        let seq = disk.save_snapshot(&sample_store()).unwrap();
        // Flip the stored verdict of the certificate-free entry.
        rewrite_segment(&disk, seq, |text| {
            text.replacen("\"verdict\": true", "\"verdict\": false", 1)
        });

        let store = CertStore::new();
        let accepted = disk.load_into(&store).unwrap();
        assert_eq!(accepted, 1, "only the untouched entry survives");
        assert_eq!(store.stats().disk_rejects, 1);
        assert_eq!(store.stats().segments_skipped, 0);
        assert!(store.lookup(&ObligationKey(42)).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_abstraction_is_rejected() {
        let dir = tmp_dir("tamper-abs");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        let seq = disk.save_snapshot(&substituted_store()).unwrap();
        // Rewrite the recorded abstract transition 0 -> 1 ("0>1") to point
        // somewhere else: the checksum must catch the swap.
        rewrite_segment(&disk, seq, |text| text.replacen("\"0>1\"", "\"1>0\"", 1));

        let store = CertStore::new();
        assert_eq!(disk.load_into(&store).unwrap(), 0);
        assert_eq!(store.stats().disk_rejects, 1);
        assert_eq!(store.stats().segments_skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_or_mismatched_segment_headers_are_skipped() {
        let dir = tmp_dir("headers");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        let good = disk.append(&[(key(1), Entry::verdict(true))]).unwrap();
        let foreign = disk.append(&[(key(2), Entry::verdict(true))]).unwrap();
        let future = disk.append(&[(key(3), Entry::verdict(true))]).unwrap();
        let misnumbered = disk.append(&[(key(4), Entry::verdict(true))]).unwrap();
        rewrite_segment(&disk, foreign, |text| {
            text.replacen(&format!("\"{FORMAT}\""), "\"cmc-store\"", 1)
        });
        rewrite_segment(&disk, future, |text| {
            text.replacen(&format!("\"version\": {VERSION}"), "\"version\": 99", 1)
        });
        // A segment whose header names another sequence number than its
        // file name (e.g. copied in from another directory).
        rewrite_segment(&disk, misnumbered, |text| {
            text.replacen(&format!("\"seq\": {misnumbered}"), "\"seq\": 0", 1)
        });

        let store = CertStore::new();
        assert_eq!(
            disk.load_into(&store).unwrap(),
            1,
            "only segment {good} loads"
        );
        assert!(store.lookup(&key(1)).is_some());
        for k in 2..=4 {
            assert!(store.lookup(&key(k)).is_none(), "key {k} must be skipped");
        }
        let stats = store.stats();
        assert_eq!(stats.segments_skipped, 3, "each bad header is counted");
        assert_eq!(
            stats.disk_rejects, 0,
            "no entry of a skipped segment is read"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_load_round_trip_across_segments() {
        let dir = tmp_dir("roundtrip");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        disk.append(&[(key(1), Entry::verdict(true))]).unwrap();
        disk.append(&[(key(2), Entry::verdict(false))]).unwrap();
        assert_eq!(disk.segment_count().unwrap(), 2);

        let store = CertStore::new();
        assert_eq!(disk.load_into(&store).unwrap(), 2);
        assert!(store.lookup(&key(1)).unwrap().verdict);
        assert!(!store.lookup(&key(2)).unwrap().verdict);
        assert!(store.stats().disk_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn later_segments_win_on_key_collision() {
        let dir = tmp_dir("newest-wins");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        disk.append(&[(key(9), Entry::verdict(false))]).unwrap();
        disk.append(&[(key(9), Entry::verdict(true))]).unwrap();
        let store = CertStore::new();
        disk.load_into(&store).unwrap();
        assert!(store.lookup(&key(9)).unwrap().verdict);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_segment_is_skipped_with_counted_warning() {
        let dir = tmp_dir("truncated");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        let s0 = disk.append(&[(key(1), Entry::verdict(true))]).unwrap();
        let s1 = disk.append(&[(key(2), Entry::verdict(true))]).unwrap();

        // Tear segment 1 in half, as a crashed non-atomic writer would.
        let path = disk.segment_path(s1);
        let bytes = std::fs::read(&path).unwrap();
        let mut file = std::fs::File::create(&path).unwrap();
        file.write_all(&bytes[..bytes.len() / 2]).unwrap();
        drop(file);

        let store = CertStore::new();
        let accepted = disk.load_into(&store).unwrap();
        assert_eq!(accepted, 1, "the intact segment still loads");
        assert!(store.lookup(&key(1)).is_some());
        assert!(store.lookup(&key(2)).is_none());
        let stats = store.stats();
        assert_eq!(stats.segments_skipped, 1, "skip is counted, not fatal");
        assert_eq!(stats.disk_rejects, 0);
        let _ = s0;
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_temp_files_are_ignored() {
        let dir = tmp_dir("straytmp");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        disk.append(&[(key(3), Entry::verdict(true))]).unwrap();
        // A crash between write and rename leaves a temp sibling behind.
        std::fs::write(dir.join(".tmp-12345-seg-00000009.json"), "torn{{{").unwrap();
        std::fs::write(dir.join("notes.txt"), "not a segment").unwrap();
        let store = CertStore::new();
        assert_eq!(disk.load_into(&store).unwrap(), 1);
        assert_eq!(store.stats().segments_skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_merges_newest_wins_and_unlinks_inputs() {
        let dir = tmp_dir("compact");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        disk.append(&[
            (key(1), Entry::verdict(false)),
            (key(2), Entry::verdict(true)),
        ])
        .unwrap();
        disk.append(&[(key(1), Entry::verdict(true))]).unwrap();
        let store = CertStore::new();
        let report = disk.compact(&store, None).unwrap();
        assert_eq!(report.segments_merged, 2);
        assert_eq!(report.entries_kept, 2);
        assert_eq!(report.budget_evicted, 0);
        assert_eq!(disk.segment_count().unwrap(), 1);

        let reloaded = CertStore::new();
        disk.load_into(&reloaded).unwrap();
        assert!(reloaded.lookup(&key(1)).unwrap().verdict);
        assert!(reloaded.lookup(&key(2)).unwrap().verdict);
        assert_eq!(store.stats().compactions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_budget_evicts_oldest_first_with_telemetry() {
        let dir = tmp_dir("budget");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        for n in 0..8u128 {
            disk.append(&[(key(n), Entry::verdict(true))]).unwrap();
        }
        let store = CertStore::new();
        // Budget sized for roughly half the entries.
        let one_entry = entry_to_json(key(0), &Entry::verdict(true))
            .to_compact()
            .len() as u64;
        let report = disk.compact(&store, Some(one_entry * 4)).unwrap();
        assert_eq!(report.budget_evicted, 4);
        assert_eq!(report.entries_kept, 4);

        let reloaded = CertStore::new();
        disk.load_into(&reloaded).unwrap();
        // Oldest keys went first; the newest four survive.
        for n in 0..4u128 {
            assert!(
                reloaded.lookup(&key(n)).is_none(),
                "key {n} should be evicted"
            );
        }
        for n in 4..8u128 {
            assert!(reloaded.lookup(&key(n)).is_some(), "key {n} should survive");
        }
        let stats = store.stats();
        assert_eq!(stats.budget_evictions, 4);
        assert_eq!(stats.compactions, 1);
        assert!(stats.disk_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_readers_survive_a_racing_compactor() {
        let dir = tmp_dir("race");
        let disk = Arc::new(SegmentedDiskStore::open(&dir).unwrap());
        for n in 0..16u128 {
            disk.append(&[(key(n), Entry::verdict(n % 2 == 0))])
                .unwrap();
        }
        let telemetry = CertStore::new();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let disk = Arc::clone(&disk);
                scope.spawn(move || {
                    for _ in 0..10 {
                        let store = CertStore::new();
                        disk.load_into(&store).unwrap();
                        // Whatever interleaving we hit, entries are never
                        // corrupt and verdicts never flip.
                        for (k, entry) in store.snapshot() {
                            assert_eq!(entry.verdict, k.0 % 2 == 0);
                        }
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..5 {
                    disk.compact(&telemetry, None).unwrap();
                }
            });
        });
        let store = CertStore::new();
        assert_eq!(disk.load_into(&store).unwrap(), 16);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compactor_thread_flushes_and_compacts_on_stop() {
        let dir = tmp_dir("compactor");
        let disk = Arc::new(SegmentedDiskStore::open(&dir).unwrap());
        let store = Arc::new(CertStore::new());
        store.insert(key(5), Entry::verdict(true));
        let compactor = Compactor::spawn(
            Arc::clone(&disk),
            Arc::clone(&store),
            Duration::from_millis(5),
            2,
            None,
        );
        std::thread::sleep(Duration::from_millis(60));
        compactor.stop();
        assert_eq!(
            disk.segment_count().unwrap(),
            1,
            "stop leaves one tidy segment"
        );
        let reloaded = CertStore::new();
        disk.load_into(&reloaded).unwrap();
        assert!(reloaded.lookup(&key(5)).unwrap().verdict);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_the_sequence() {
        let dir = tmp_dir("reopen");
        {
            let disk = SegmentedDiskStore::open(&dir).unwrap();
            disk.append(&[(key(1), Entry::verdict(true))]).unwrap();
        }
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        let seq = disk.append(&[(key(2), Entry::verdict(true))]).unwrap();
        assert_eq!(seq, 1, "sequence resumes past existing segments");
        std::fs::remove_dir_all(&dir).ok();
    }
}
