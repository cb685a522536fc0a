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
//! then unlinks the inputs. The budget counts the merged segment's bytes
//! as written, frame included, and one pass from the newest entry back
//! renders each kept entry once and cuts the oldest prefix. Telemetry
//! (compaction count, budget evictions, resulting disk bytes) lands in
//! the attached store's [`crate::StoreStats`].

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
        let rendered: Vec<String> = entries
            .iter()
            .map(|(key, entry)| render_entry(*key, entry))
            .collect();
        write_atomic(
            &self.segment_path(seq),
            segment_text(seq, &rendered).as_bytes(),
        )?;
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
    /// Returns the number of entries installed, which a full store can
    /// make smaller than the number read: a new key arriving at capacity
    /// is dropped, while a resident one is still overridden.
    pub fn load_into(&self, store: &CertStore) -> io::Result<usize> {
        let mut accepted = 0usize;
        read_segments(&self.list_segments()?, store, |key, entry| {
            accepted += usize::from(store.install_from_disk(key, entry));
        })?;
        store.note_disk_bytes(self.disk_bytes()?);
        Ok(accepted)
    }

    /// Merge every live segment into one, newest entry per key winning.
    /// With a byte budget, the oldest entries are evicted until the merged
    /// segment, as written, fits; it exceeds the budget only when it keeps
    /// no entry. Telemetry is recorded into `store`'s stats. Safe to
    /// race with concurrent `load_into` readers; concurrent compactors
    /// are serialised by the writer mutex.
    pub fn compact(
        &self,
        store: &CertStore,
        budget_bytes: Option<u64>,
    ) -> io::Result<CompactReport> {
        let mut next = self.writer.lock().expect("segment writer poisoned");
        let segments = self.list_segments()?;
        // Newest-wins merge, each key at the place of its first write, so
        // `merged` runs oldest first.
        let mut merged: Vec<(ObligationKey, Entry)> = Vec::new();
        let mut place: HashMap<ObligationKey, usize> = HashMap::new();
        read_segments(&segments, store, |key, entry| match place.get(&key) {
            Some(&i) => merged[i].1 = entry,
            None => {
                place.insert(key, merged.len());
                merged.push((key, entry));
            }
        })?;
        drop(place);

        // Keep the newest entries while the segment they make fits the
        // budget: a segment of k ≥ 1 entries is the frame around one
        // empty entry plus each entry's text and one separator, less the
        // separator the first entry goes without.
        let seq = *next;
        let total = merged.len();
        let mut size = (segment_text(seq, &[String::new()]).len() - ENTRY_SEP.len()) as u64;
        let mut kept: Vec<String> = Vec::with_capacity(total);
        for (key, entry) in merged.into_iter().rev() {
            let text = render_entry(key, &entry);
            size += (text.len() + ENTRY_SEP.len()) as u64;
            if budget_bytes.is_some_and(|budget| size > budget) {
                break;
            }
            kept.push(text);
        }
        kept.reverse();
        let budget_evicted = total - kept.len();
        let entries_kept = kept.len();
        let text = segment_text(seq, &kept);
        drop(kept);
        write_atomic(&self.segment_path(seq), text.as_bytes())?;
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
    /// whenever more than `max_segments` accumulated or the tier outgrew
    /// `budget_bytes` — compacts under `budget_bytes`. Passes are
    /// dirty-gated on the store's insertion counter: an idle store writes
    /// nothing, however long it idles.
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
                // one tidy, budget-respecting segment (a lone segment over
                // the budget is compacted too).
                if store.stats().insertions != flushed {
                    disk.save_snapshot(&store).ok();
                }
                if Self::over_budget(&disk, budget_bytes)
                    || disk.segment_count().is_ok_and(|n| n > 1)
                {
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
        if Self::over_budget(disk, budget_bytes)
            || disk.segment_count().is_ok_and(|n| n > max_segments)
        {
            disk.compact(store, budget_bytes).ok();
        }
    }

    /// Does the tier hold more bytes than a set budget? Always false
    /// without a budget, so an unbudgeted tier never stats its segments
    /// here.
    fn over_budget(disk: &SegmentedDiskStore, budget_bytes: Option<u64>) -> bool {
        budget_bytes.is_some_and(|budget| disk.disk_bytes().is_ok_and(|n| n > budget))
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

/// Indent of an entry's first line in a segment (two levels deep).
const ENTRY_INDENT: &str = "    ";
/// What separates two entries in a segment's entry list.
const ENTRY_SEP: &str = ",\n";

/// One entry exactly as a segment file holds it: pretty-printed two
/// levels deep, first-line indent included.
fn render_entry(key: ObligationKey, entry: &Entry) -> String {
    let mut out = String::from(ENTRY_INDENT);
    entry_to_json(key, entry).write_pretty(&mut out, 2);
    out
}

/// The segment document around entries rendered by [`render_entry`]:
/// byte for byte the pretty-printed object with fields `format`,
/// `version`, `seq` and `entries`.
fn segment_text(seq: u64, rendered: &[String]) -> String {
    let mut out = format!(
        "{{\n  \"format\": \"{FORMAT}\",\n  \"version\": {VERSION},\n  \"seq\": {seq},\n  \"entries\": "
    );
    // Room for every entry, its separator and the closing brackets.
    out.reserve(
        rendered
            .iter()
            .map(|text| text.len() + ENTRY_SEP.len())
            .sum::<usize>()
            + "[\n\n  ]\n}\n".len(),
    );
    if rendered.is_empty() {
        out.push_str("[]");
    } else {
        out.push_str("[\n");
        for (i, text) in rendered.iter().enumerate() {
            if i > 0 {
                out.push_str(ENTRY_SEP);
            }
            out.push_str(text);
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

/// Read `segments` in the order given, handing every entry that passes
/// its checksum to `each` as it is decoded. The damage policy shared by
/// loading and compaction: a segment unlinked after listing (by a racing
/// compactor, so its contents live on in the merged segment) is passed
/// over; a torn, garbled or foreign segment counts
/// [`crate::StoreStats::segments_skipped`]; an entry failing its checksum
/// counts [`crate::StoreStats::disk_rejects`].
fn read_segments(
    segments: &[(u64, PathBuf)],
    store: &CertStore,
    mut each: impl FnMut(ObligationKey, Entry),
) -> io::Result<()> {
    for (seq, path) in segments {
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
            match entry_from_json(&item) {
                Some((key, entry)) => each(key, entry),
                None => store.count_disk_reject(),
            }
        }
    }
    Ok(())
}

/// Parse a segment document, checking header and sequence, and take its
/// entry list out of the document; `None` means the segment is damaged
/// or foreign and must be skipped.
fn parse_segment(text: &str, seq: u64) -> Option<Vec<Json>> {
    let doc = Json::parse(text).ok()?;
    let header_ok = doc.get("format").and_then(Json::as_str) == Some(FORMAT)
        && doc.get("version").and_then(Json::as_num) == Some(VERSION as f64)
        && doc.get("seq").and_then(Json::as_num) == Some(seq as f64);
    if !header_ok {
        return None;
    }
    let Json::Obj(fields) = doc else {
        return None;
    };
    match fields.into_iter().find(|(name, _)| name == "entries")?.1 {
        Json::Arr(items) => Some(items),
        _ => None,
    }
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

    /// Cut segment `seq` of `disk` in half, as a crashed non-atomic writer
    /// would leave it.
    fn tear_segment(disk: &SegmentedDiskStore, seq: u64) {
        let path = disk.segment_path(seq);
        let bytes = std::fs::read(&path).unwrap();
        let mut file = std::fs::File::create(&path).unwrap();
        file.write_all(&bytes[..bytes.len() / 2]).unwrap();
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

    /// At capacity, a later segment still overrides a resident key in
    /// place, a new key is dropped, and `load_into` counts only the
    /// entries it installed.
    #[test]
    fn full_store_reload_overrides_resident_keys_and_counts_installs() {
        let dir = tmp_dir("full-reload");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        disk.append(&[
            (key(1), Entry::verdict(true)),
            (key(2), Entry::verdict(true)),
        ])
        .unwrap();
        disk.append(&[
            (key(1), Entry::verdict(false)),
            (key(3), Entry::verdict(true)),
        ])
        .unwrap();
        let store = CertStore::with_capacity(2);
        let installed = disk.load_into(&store).unwrap();
        assert!(
            !store.lookup(&key(1)).unwrap().verdict,
            "later segment lost"
        );
        assert!(store.lookup(&key(3)).is_none());
        assert_eq!(store.len(), 2);
        assert_eq!(installed as u64, store.stats().disk_loads);
        assert_eq!(installed, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_segment_is_skipped_with_counted_warning() {
        let dir = tmp_dir("truncated");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        disk.append(&[(key(1), Entry::verdict(true))]).unwrap();
        let s1 = disk.append(&[(key(2), Entry::verdict(true))]).unwrap();
        tear_segment(&disk, s1);

        let store = CertStore::new();
        let accepted = disk.load_into(&store).unwrap();
        assert_eq!(accepted, 1, "the intact segment still loads");
        assert!(store.lookup(&key(1)).is_some());
        assert!(store.lookup(&key(2)).is_none());
        let stats = store.stats();
        assert_eq!(stats.segments_skipped, 1, "skip is counted, not fatal");
        assert_eq!(stats.disk_rejects, 0);
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

    /// Compaction reads under loading's damage policy: a torn segment and
    /// a tampered entry count the same in both, and only intact entries
    /// reach the merged segment.
    #[test]
    fn compaction_counts_damage_as_loading_does() {
        let dir = tmp_dir("compact-damage");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        let tampered = disk.save_snapshot(&sample_store()).unwrap();
        rewrite_segment(&disk, tampered, |text| {
            text.replacen("\"verdict\": true", "\"verdict\": false", 1)
        });
        let torn = disk.append(&[(key(2), Entry::verdict(true))]).unwrap();
        tear_segment(&disk, torn);

        let loaded = CertStore::new();
        assert_eq!(disk.load_into(&loaded).unwrap(), 1);
        let compacted = CertStore::new();
        let report = disk.compact(&compacted, None).unwrap();
        assert_eq!(report.segments_merged, 2);
        assert_eq!(report.entries_kept, 1);
        for stats in [loaded.stats(), compacted.stats()] {
            assert_eq!(stats.segments_skipped, 1, "the torn segment");
            assert_eq!(stats.disk_rejects, 1, "the tampered entry");
        }

        let reloaded = CertStore::new();
        assert_eq!(disk.load_into(&reloaded).unwrap(), 1);
        assert!(reloaded.lookup(&ObligationKey(7)).is_some());
        assert_eq!(reloaded.stats().segments_skipped, 0);
        assert_eq!(reloaded.stats().disk_rejects, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A budgeted tier is compacted whenever a pass leaves it over the
    /// budget, not only once segments pile up: after every pass it fits,
    /// unless the merged segment keeps no entry.
    #[test]
    fn budgeted_passes_keep_the_tier_within_its_budget() {
        let dir = tmp_dir("pass-budget");
        let disk = SegmentedDiskStore::open(&dir).unwrap();
        let store = CertStore::new();
        // Room for the newest four entries (all of one size) as written.
        let four: Vec<String> = (0..4u128)
            .map(|n| render_entry(key(n), &Entry::verdict(true)))
            .collect();
        let budget = segment_text(99, &four).len() as u64;
        for batch in 0..6u128 {
            for n in 0..3 {
                store.insert(key(10 * batch + n), Entry::verdict(true));
            }
            Compactor::pass(&disk, &store, 8, Some(budget));
            let bytes = disk.disk_bytes().unwrap();
            let kept = disk.load_into(&CertStore::new()).unwrap();
            assert!(
                bytes <= budget || kept == 0,
                "batch {batch}: {bytes} bytes on disk over a budget of {budget}"
            );
        }
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
        // Budget sized for half the entries as written: the merged
        // segment (number 8) holding the newest four.
        let newest: Vec<String> = (4..8u128)
            .map(|n| render_entry(key(n), &Entry::verdict(true)))
            .collect();
        let budget = segment_text(8, &newest).len() as u64;
        let report = disk.compact(&store, Some(budget)).unwrap();
        assert_eq!(report.budget_evicted, 4);
        assert_eq!(report.entries_kept, 4);
        assert!(report.disk_bytes <= budget, "the merged segment fits");

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
        assert!(stats.disk_bytes <= budget);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The segment writer's frame is the JSON writer's: assembling
    /// pre-rendered entries gives the pretty-printed document's bytes.
    #[test]
    fn segment_text_is_the_pretty_printed_document() {
        let entries = substituted_store()
            .snapshot()
            .into_iter()
            .chain(sample_store().snapshot())
            .collect::<Vec<_>>();
        for seq in [0, 7, 12_345_678] {
            for n in 0..=entries.len() {
                let doc = Json::Obj(vec![
                    ("format".to_string(), Json::Str(FORMAT.to_string())),
                    ("version".to_string(), Json::int(VERSION)),
                    ("seq".to_string(), Json::int(seq)),
                    (
                        "entries".to_string(),
                        Json::Arr(
                            entries[..n]
                                .iter()
                                .map(|(k, e)| entry_to_json(*k, e))
                                .collect(),
                        ),
                    ),
                ]);
                let rendered: Vec<String> = entries[..n]
                    .iter()
                    .map(|(k, e)| render_entry(*k, e))
                    .collect();
                assert_eq!(segment_text(seq, &rendered), doc.to_pretty());
            }
        }
    }

    /// Under any budget the merged segment keeps the longest newest run
    /// of entries whose written form fits, and fits unless it keeps none.
    #[test]
    fn compaction_keeps_the_newest_entries_that_fit_as_written() {
        // Entries of unequal sizes: certificates on every third key.
        let cert = |n: u128| StoredCertificate {
            goal: format!("goal {n}"),
            steps: vec![],
            valid: true,
            abstractions: vec![],
        };
        let entries: Vec<(ObligationKey, Entry)> = (0..9u128)
            .map(|n| {
                let entry = if n % 3 == 0 {
                    Entry::with_certificate(n % 2 == 0, cert(n))
                } else {
                    Entry::verdict(n % 2 == 0)
                };
                (key(n), entry)
            })
            .collect();
        // Three input segments, so the merged one is number 3; key 1 is
        // rewritten last but keeps the place of its first write.
        let write = |disk: &SegmentedDiskStore| {
            disk.append(&entries[..4]).unwrap();
            disk.append(&entries[4..]).unwrap();
            disk.append(&[(key(1), Entry::verdict(true))]).unwrap();
        };
        let mut merged = entries.clone();
        merged[1].1 = Entry::verdict(true);
        let written = |k: usize| {
            let rendered: Vec<String> = merged[merged.len() - k..]
                .iter()
                .map(|(key, entry)| render_entry(*key, entry))
                .collect();
            segment_text(3, &rendered).len() as u64
        };
        let full = written(merged.len());
        for budget in (0..=full + 40)
            .step_by(37)
            .chain([written(1), written(5), full])
        {
            let dir = tmp_dir(&format!("fit-{budget}"));
            let disk = SegmentedDiskStore::open(&dir).unwrap();
            write(&disk);
            let report = disk.compact(&CertStore::new(), Some(budget)).unwrap();
            let kept = report.entries_kept;
            assert_eq!(kept + report.budget_evicted, merged.len());
            assert_eq!(report.disk_bytes, written(kept), "budget {budget}");
            assert!(kept == 0 || report.disk_bytes <= budget, "budget {budget}");
            assert!(
                kept == merged.len() || written(kept + 1) > budget,
                "budget {budget}: one more entry would have fit"
            );
            let reloaded = CertStore::new();
            disk.load_into(&reloaded).unwrap();
            assert_eq!(
                reloaded.snapshot(),
                {
                    let mut newest = merged[merged.len() - kept..].to_vec();
                    newest.sort_by_key(|(k, _)| *k);
                    newest
                },
                "budget {budget}: the newest entries survive"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
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
