//! Persistent, content-addressed result store.
//!
//! The engine's four in-memory cache layers die with the process; this
//! module gives the three *result* layers — sim, annotation, policy —
//! a disk tier keyed by the same platform-stable identities
//! ([`MachineConfig::fingerprint`](fuleak_uarch::MachineConfig::fingerprint),
//! [`MachineConfig::frontend_fingerprint`](fuleak_uarch::MachineConfig::frontend_fingerprint),
//! [`EnergyModel`](fuleak_core::EnergyModel) fingerprints) that make
//! the in-memory keys sound. Payloads are the [`fuleak_core::codec`]
//! binary encodings, so a round-trip through disk is field-exact and
//! stdout stays byte-identical with the store on or off.
//!
//! On-disk layout (`DESIGN.md` §11):
//!
//! ```text
//! <root>/
//!   sim/<shard>/<batch>    one batch of SimResults per file
//!   ann/<batch>            one AnnotatedTrace per file
//!   policy/<batch>         one PolicyRun per file
//!   resp/<batch>           one rendered response per file
//!   tmp/                   atomic-write staging
//! ```
//!
//! Every file is a batch: `magic "FLKB" | format version u32 | codec
//! version u32 | batch key (length-prefixed) | record count u64 |
//! (fingerprint, length, FNV-1a) u64 triples ascending by fingerprint
//! | FNV-1a checksum u64 over that header`, then the records back to
//! back. `<batch>` is the FNV-1a of the batch key plus its sorted
//! fingerprints, as 16 hex digits.
//!
//! Simulation results are written a batch at a time: every point one
//! [`ResultStore::save_sims`] call persists for the same `(bench,
//! budget, front-end geometry)` shard goes into one immutable batch
//! file keyed by the shard key, with one record per machine
//! fingerprint, so a cold 32-point sweep creates one file, not 32.
//! `<shard>` is the FNV-1a of the shard key. A new batch absorbs the
//! shard's smaller batches before it is written and deletes them
//! after, so repeated sweeps of one geometry keep its shard at
//! O(log n) files for n points. A read lists its shard once per call
//! and opens batches until every wanted point is found. An
//! annotation, policy run or response is a one-record batch keyed by
//! the entry's full key, with fingerprint 0, directly under its kind's
//! directory. Hit, miss and write counters count records, not files.
//!
//! A reader takes the header and index in one bounded read and then
//! reads only the records it wants, each checked against its own
//! checksum, so a miss costs the shard's indexes, not its records.
//! Reads verify magic, versions, key and checksums; *any* anomaly —
//! short file, bad checksum, version skew, a record that does not
//! decode, or a filename-hash collision caught by the stored key — is
//! a miss for every record the file would have served, never a panic
//! and never a wrong result; a file that fails them for any reason but
//! version skew is deleted when first found. Files no reader opens —
//! per-point sim files directly under `sim/` and per-key `FLKS`
//! entries, both from older layouts — are reclaimed by `repro store
//! gc` like any cold entry. Writes go through a unique temp file plus
//! `rename`, so readers only ever observe complete files (a reader
//! that lists a batch just before another writer absorbs and deletes
//! it sees a miss for its points and re-simulates them).
//! Eviction is size-budgeted LRU by access time over whole files
//! ([`ResultStore::gc`]); read hits re-touch their entry's access
//! time so hot entries survive, with mtime as the fallback ordering
//! on filesystems that don't track atime.

use crate::harness::Budget;
use crate::scenario::Scenario;
use fuleak_core::accounting::PolicyRun;
use fuleak_core::codec::{fnv1a, put_bytes, put_u32, put_u64, put_u8, ByteReader};
use fuleak_core::policy_eval::PolicyForm;
use fuleak_core::{Codec, CODEC_VERSION};
use fuleak_uarch::SimResult;
use fuleak_workloads::AnnotatedTrace;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Version of the store's *container* format (the batch header and
/// directory layout). Orthogonal to [`CODEC_VERSION`], which names
/// the record encodings: either moving invalidates old entries.
/// Version 2 moved simulation results into per-shard batch files;
/// the one-record batches of the other kinds share that layout.
pub const FORMAT_VERSION: u32 = 2;

/// Temp-file sequence numbers, shared by every store in the process so
/// two stores opened on one root never stage into the same file.
static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);

/// The result kinds the store persists, each in its own subdirectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Timing-simulation results ([`SimResult`]).
    Sim,
    /// Annotated traces ([`AnnotatedTrace`]).
    Annotation,
    /// Policy evaluations ([`PolicyRun`]).
    Policy,
    /// Canonical rendered responses (the serving tier's exact
    /// `to_json()`/`to_csv()` bytes, keyed by the canonicalized
    /// request; see [`crate::respcache`]).
    Response,
}

impl StoreKind {
    /// Every kind, in display order.
    pub const ALL: [StoreKind; 4] = [
        StoreKind::Sim,
        StoreKind::Annotation,
        StoreKind::Policy,
        StoreKind::Response,
    ];

    /// The kind's subdirectory name (doubles as its display name).
    pub fn dir(self) -> &'static str {
        match self {
            StoreKind::Sim => "sim",
            StoreKind::Annotation => "ann",
            StoreKind::Policy => "policy",
            StoreKind::Response => "resp",
        }
    }

    /// The kind's key-tag byte (first byte of every key, so a key can
    /// never alias across kinds even if the files were shuffled).
    fn tag(self) -> u8 {
        match self {
            StoreKind::Sim => 1,
            StoreKind::Annotation => 2,
            StoreKind::Policy => 3,
            StoreKind::Response => 4,
        }
    }

    /// The kind's index into per-kind counter arrays ([`StoreKind::ALL`]
    /// order).
    fn idx(self) -> usize {
        match self {
            StoreKind::Sim => 0,
            StoreKind::Annotation => 1,
            StoreKind::Policy => 2,
            StoreKind::Response => 3,
        }
    }
}

/// Per-kind occupancy, from a directory scan ([`ResultStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Entry files present.
    pub entries: usize,
    /// Total bytes they occupy.
    pub bytes: u64,
}

/// Whole-store occupancy, from a directory scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Per-kind occupancy, in [`StoreKind::ALL`] order.
    pub kinds: [KindStats; 4],
}

impl StoreStats {
    /// Entry files across all kinds.
    pub fn entries(&self) -> usize {
        self.kinds.iter().map(|k| k.entries).sum()
    }

    /// Bytes across all kinds.
    pub fn bytes(&self) -> u64 {
        self.kinds.iter().map(|k| k.bytes).sum()
    }
}

/// What one [`ResultStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries deleted (oldest access first).
    pub evicted: usize,
    /// Occupancy before the pass.
    pub bytes_before: u64,
    /// Occupancy after the pass.
    pub bytes_after: u64,
}

/// Entry access (or modification) timestamps, read back from file
/// metadata. They order LRU eviction only — results never depend on
/// them, which is why the wallclock exemption is confined to this
/// alias.
type Atime = std::time::SystemTime; // lint:allow(wallclock)

/// A content-addressed on-disk result store (see the [module
/// docs](self)). Cheap to share: all methods take `&self`, and the
/// counters are atomics, so one store serves every engine worker.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    hits: [AtomicUsize; 4],
    misses: [AtomicUsize; 4],
    writes: AtomicUsize,
    evictions: AtomicUsize,
    corrupt: AtomicUsize,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] if the directory tree
    /// cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        for kind in StoreKind::ALL {
            fs::create_dir_all(root.join(kind.dir()))?;
        }
        fs::create_dir_all(root.join("tmp"))?;
        Ok(ResultStore {
            root,
            hits: Default::default(),
            misses: Default::default(),
            writes: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            corrupt: AtomicUsize::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Read hits since construction, across all kinds.
    pub fn hits(&self) -> usize {
        self.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }

    /// Read misses since construction (absent, stale, or rejected
    /// entries), across all kinds.
    pub fn misses(&self) -> usize {
        self.misses.iter().map(|m| m.load(Ordering::Relaxed)).sum()
    }

    /// Read hits for one kind since construction.
    pub fn hits_for(&self, kind: StoreKind) -> usize {
        self.hits[kind.idx()].load(Ordering::Relaxed)
    }

    /// Read misses for one kind since construction.
    pub fn misses_for(&self, kind: StoreKind) -> usize {
        self.misses[kind.idx()].load(Ordering::Relaxed)
    }

    /// Entries written since construction (each simulation result in
    /// a batch counts once).
    pub fn writes(&self) -> usize {
        self.writes.load(Ordering::Relaxed)
    }

    /// Entries evicted by [`ResultStore::gc`] since construction.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Structurally invalid entries encountered since construction (a
    /// subset of the misses; version skew is *not* counted here).
    pub fn corrupt(&self) -> usize {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// The cached [`SimResult`] for a scenario, if present and valid.
    pub fn load_sim(&self, s: &Scenario) -> Option<SimResult> {
        self.load_sims(&[s]).pop().flatten()
    }

    /// The cached [`SimResult`] of each scenario, in input order. Each
    /// shard the scenarios touch is listed once and its batch files
    /// read until every point of the shard is found; every scenario
    /// counts one hit or one miss.
    pub fn load_sims(&self, points: &[&Scenario]) -> Vec<Option<SimResult>> {
        let mut out: Vec<Option<SimResult>> = vec![None; points.len()];
        for (key, members) in shards(points.iter().copied()) {
            let mut wanted: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            for i in members {
                let fingerprint = points[i].machine.fingerprint();
                wanted.entry(fingerprint).or_default().push(i);
            }
            for (path, _) in self.batch_files(&key) {
                if wanted.is_empty() {
                    break;
                }
                // The first read takes the header and index (a small
                // batch whole); later reads fetch only wanted records.
                let Some(mut batch) = self.open_batch(&path, &key) else {
                    continue;
                };
                let mut served = false;
                for i in 0..batch.index.len() {
                    let fingerprint = batch.index[i].0;
                    let Some(slots) = wanted.remove(&fingerprint) else {
                        continue;
                    };
                    // A record that fails its checksum, or passes it and
                    // still does not decode (a codec mismatch the version
                    // header failed to catch), condemns its batch.
                    let Some(result) = batch.record(i).and_then(|b| SimResult::from_bytes(&b).ok())
                    else {
                        wanted.insert(fingerprint, slots);
                        self.reject(&path);
                        served = false;
                        break;
                    };
                    for &i in &slots {
                        out[i] = Some(result.clone());
                    }
                    served = true;
                }
                if served {
                    self.touch(&path);
                }
            }
        }
        let hits = out.iter().filter(|r| r.is_some()).count();
        let idx = StoreKind::Sim.idx();
        self.hits[idx].fetch_add(hits, Ordering::Relaxed);
        self.misses[idx].fetch_add(out.len() - hits, Ordering::Relaxed);
        out
    }

    /// Persists simulation results, one batch file per shard
    /// (best-effort: I/O errors degrade to future misses). Each result
    /// passed in counts one write.
    ///
    /// The new batch absorbs the shard's existing batches, smallest
    /// first, while each is at most twice the size of what the new
    /// batch holds so far; the absorbed files are deleted once the new
    /// one is in place. Like a binary counter, a shard that has taken
    /// `n` points holds O(log n) files, and each point is rewritten
    /// O(log n) times. A file another writer deletes first is skipped
    /// (its points live on in that writer's batch), and a file from
    /// another store version is left for [`ResultStore::gc`].
    pub fn save_sims(&self, results: &[(&Scenario, Arc<SimResult>)]) {
        for (key, members) in shards(results.iter().map(|(s, _)| *s)) {
            let mut records: BTreeMap<u64, Vec<u8>> = members
                .iter()
                .map(|&i| (results[i].0.machine.fingerprint(), results[i].1.to_bytes()))
                .collect();
            let written = records.len();
            let mut size = batch_len(&key, &records);
            let mut absorbed = Vec::new();
            for (path, len) in self.batch_files(&key) {
                if len > 2 * size {
                    break;
                }
                let Some(mut batch) = self.open_batch(&path, &key) else {
                    continue;
                };
                let Some(old) = (0..batch.index.len())
                    .map(|i| Some((batch.index[i].0, batch.record(i)?)))
                    .collect::<Option<Vec<_>>>()
                else {
                    self.reject(&path);
                    continue;
                };
                for (fingerprint, bytes) in old {
                    records.entry(fingerprint).or_insert(bytes);
                }
                size += len;
                absorbed.push(path);
            }
            let dir = self.shard_dir(&key);
            let path = dir.join(batch_name(&key, records.keys().copied()));
            let bytes = encode_batch(FORMAT_VERSION, CODEC_VERSION, &key, &records);
            if fs::create_dir_all(&dir).is_ok() && self.write_file(&path, &bytes) {
                self.writes.fetch_add(written, Ordering::Relaxed);
                for old in absorbed.iter().filter(|&old| *old != path) {
                    let _ = fs::remove_file(old);
                }
            }
        }
    }

    /// The cached [`AnnotatedTrace`] for `(bench, budget, geometry)`,
    /// if present and valid.
    pub fn load_annotation(
        &self,
        bench: &str,
        budget: Budget,
        geometry: u64,
    ) -> Option<AnnotatedTrace> {
        let key = annotation_key(bench, budget, geometry);
        self.load_one(StoreKind::Annotation, &key, |b| {
            AnnotatedTrace::from_bytes(&b).ok()
        })
    }

    /// Persists an annotated trace (best-effort).
    pub fn save_annotation(
        &self,
        bench: &str,
        budget: Budget,
        geometry: u64,
        ann: &AnnotatedTrace,
    ) {
        let key = annotation_key(bench, budget, geometry);
        self.save_one(StoreKind::Annotation, &key, ann.to_bytes());
    }

    /// The cached [`PolicyRun`] for `(scenario, policy form, energy
    /// model)`, if present and valid.
    pub fn load_policy(&self, s: &Scenario, form: PolicyForm, model_fp: u64) -> Option<PolicyRun> {
        let key = policy_key(s, form, model_fp);
        self.load_one(StoreKind::Policy, &key, |b| PolicyRun::from_bytes(&b).ok())
    }

    /// Persists a policy evaluation (best-effort).
    pub fn save_policy(&self, s: &Scenario, form: PolicyForm, model_fp: u64, run: PolicyRun) {
        let key = policy_key(s, form, model_fp);
        self.save_one(StoreKind::Policy, &key, run.to_bytes());
    }

    /// The cached rendered response bytes for a canonical request
    /// key (see [`crate::respcache`]), if present and valid. The
    /// record is the exact body the renderer produced, so "valid" is
    /// the container's version, key and checksum checks alone.
    pub fn load_response(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.load_one(StoreKind::Response, key, Some)
    }

    /// Persists rendered response bytes under a canonical request key
    /// (best-effort).
    pub fn save_response(&self, key: &[u8], body: &[u8]) {
        self.save_one(StoreKind::Response, key, body.to_vec());
    }

    /// Reads the one record of a key-addressed entry, counting one hit
    /// or miss. A record that fails its checksum, or passes it and
    /// still fails `decode`, condemns its file, as in
    /// [`ResultStore::load_sims`].
    fn load_one<T>(
        &self,
        kind: StoreKind,
        key: &[u8],
        decode: impl FnOnce(Vec<u8>) -> Option<T>,
    ) -> Option<T> {
        let path = self.one_path(kind, key);
        let value = self.open_batch(&path, key).and_then(|mut batch| {
            let value = matches!(batch.index[..], [(0, ..)])
                .then(|| batch.record(0))
                .flatten()
                .and_then(decode);
            match value {
                Some(_) => self.touch(&path),
                None => self.reject(&path),
            }
            value
        });
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter[kind.idx()].fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Writes a key-addressed entry as a one-record batch (record
    /// fingerprint 0), counting one write on success.
    fn save_one(&self, kind: StoreKind, key: &[u8], record: Vec<u8>) {
        let bytes = encode_batch(
            FORMAT_VERSION,
            CODEC_VERSION,
            key,
            &BTreeMap::from([(0, record)]),
        );
        if self.write_file(&self.one_path(kind, key), &bytes) {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The file of a key-addressed entry: `<kind>/<batch name>`, with
    /// no shard directory.
    fn one_path(&self, kind: StoreKind, key: &[u8]) -> PathBuf {
        self.root.join(kind.dir()).join(batch_name(key, [0]))
    }

    /// Writes one file atomically: unique temp file, then `rename`.
    /// Best-effort — on I/O failure the file simply stays absent and
    /// this returns false.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> bool {
        let tmp = self.root.join("tmp").join(format!(
            "{}-{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&tmp, bytes).is_ok() && fs::rename(&tmp, path).is_ok() {
            true
        } else {
            let _ = fs::remove_file(&tmp);
            false
        }
    }

    /// The directory holding one shard's batch files.
    fn shard_dir(&self, key: &[u8]) -> PathBuf {
        self.root
            .join(StoreKind::Sim.dir())
            .join(format!("{:016x}", fnv1a(key)))
    }

    /// One shard's batch files with their lengths, smallest first
    /// (ties by name). Empty if the shard was never written.
    fn batch_files(&self, key: &[u8]) -> Vec<(PathBuf, u64)> {
        let Ok(dir) = fs::read_dir(self.shard_dir(key)) else {
            return Vec::new();
        };
        let mut files: Vec<_> = dir
            .flatten()
            .filter_map(|e| Some((e.metadata().ok()?.len(), e.path())))
            .collect();
        files.sort();
        files.into_iter().map(|(len, path)| (path, len)).collect()
    }

    /// Counts a structurally damaged entry file and deletes it: no
    /// version of the store can read it, and deleting it means it is
    /// read and counted once rather than on every later miss. Writes
    /// are atomic, so a damaged file is never one still being written.
    fn reject(&self, path: &Path) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(path);
    }

    /// Opens one batch file and verifies its header against `key`,
    /// reading at most the first [`BATCH_HEAD`] bytes unless the index
    /// is longer. Structural damage counts as corruption and deletes
    /// the file; version skew and a missing file do neither.
    fn open_batch(&self, path: &Path, key: &[u8]) -> Option<Batch> {
        match Batch::open(path, key) {
            Ok(batch) => batch,
            Err(Damaged) => {
                self.reject(path);
                None
            }
        }
    }

    /// Re-touches an entry's access time on a read hit, so LRU
    /// eviction sees it as recently used even on `noatime` mounts.
    /// Best-effort; failure only makes eviction ordering coarser.
    fn touch(&self, path: &Path) {
        // The access time feeds only `gc`'s eviction order, never a
        // result — the wallclock read cannot reach stdout.
        let now = std::time::SystemTime::now(); // lint:allow(wallclock)
        if let Ok(f) = fs::File::options().append(true).open(path) {
            let _ = f.set_times(fs::FileTimes::new().set_accessed(now));
        }
    }

    /// Scans the store's occupancy (entry counts and bytes per kind).
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for (i, kind) in StoreKind::ALL.into_iter().enumerate() {
            for (_, _, len) in self.scan(kind) {
                stats.kinds[i].entries += 1;
                stats.kinds[i].bytes += len;
            }
        }
        stats
    }

    /// Deletes every entry and shard directory (the `repro store
    /// clear` operation), returning how many entry files were removed.
    ///
    /// # Errors
    ///
    /// Returns the first [`io::Error`] hit while deleting; entries
    /// already removed stay removed.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0;
        for kind in StoreKind::ALL {
            for (path, _, _) in self.scan(kind) {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        self.remove_empty_shards();
        Ok(removed)
    }

    /// Evicts least-recently-accessed entry files until the store fits
    /// in `max_bytes` (the `repro store gc` operation), then removes
    /// shard directories left empty. A sim batch file goes as a whole.
    /// Ordering is `(access time, path)` — mtime standing in where
    /// atime is unavailable, the path breaking ties deterministically.
    pub fn gc(&self, max_bytes: u64) -> GcReport {
        let mut entries: Vec<(Atime, PathBuf, u64)> = Vec::new();
        for kind in StoreKind::ALL {
            for (path, accessed, len) in self.scan(kind) {
                entries.push((accessed, path, len));
            }
        }
        entries.sort();
        let bytes_before: u64 = entries.iter().map(|&(_, _, len)| len).sum();
        let mut report = GcReport {
            evicted: 0,
            bytes_before,
            bytes_after: bytes_before,
        };
        for (_, path, len) in entries {
            if report.bytes_after <= max_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                report.bytes_after -= len;
                report.evicted += 1;
            }
        }
        self.remove_empty_shards();
        self.evictions.fetch_add(report.evicted, Ordering::Relaxed);
        report
    }

    /// Removes every shard directory that holds no batch file
    /// (`remove_dir` refuses non-empty ones).
    fn remove_empty_shards(&self) {
        if let Ok(dir) = fs::read_dir(self.root.join(StoreKind::Sim.dir())) {
            for e in dir.flatten() {
                if e.file_type().is_ok_and(|t| t.is_dir()) {
                    let _ = fs::remove_dir(e.path());
                }
            }
        }
    }

    /// Lists one kind's entry files — including the batch files one
    /// level down in shard directories — as `(path, accessed-or-mtime,
    /// len)`, in path order (unreadable entries are skipped).
    fn scan(&self, kind: StoreKind) -> Vec<(PathBuf, Atime, u64)> {
        let listing = |dir: &Path| -> Vec<(PathBuf, fs::Metadata)> {
            let Ok(entries) = fs::read_dir(dir) else {
                return Vec::new();
            };
            entries
                .flatten()
                .filter_map(|e| Some((e.path(), e.metadata().ok()?)))
                .collect()
        };
        let mut out = Vec::new();
        for (path, meta) in listing(&self.root.join(kind.dir())) {
            let files = if meta.is_dir() {
                listing(&path)
            } else {
                vec![(path, meta)]
            };
            for (path, meta) in files.into_iter().filter(|(_, m)| m.is_file()) {
                if let Ok(when) = meta.accessed().or_else(|_| meta.modified()) {
                    out.push((path, when, meta.len()));
                }
            }
        }
        out.sort();
        out
    }
}

/// Writes one batch per shard as replayed points arrive: each shard's
/// batch goes to the store the moment its last expected point does,
/// so an interrupted sweep keeps every shard it finished.
pub(crate) struct ShardWriter<'a> {
    store: &'a ResultStore,
    /// Per shard key: points still expected, and the finished ones.
    open: Mutex<BTreeMap<Vec<u8>, (usize, Finished<'a>)>>,
}

/// A shard's finished points, waiting for the rest.
type Finished<'a> = Vec<(&'a Scenario, Arc<SimResult>)>;

impl<'a> ShardWriter<'a> {
    /// A writer expecting exactly `points`.
    pub(crate) fn new(store: &'a ResultStore, points: &[&'a Scenario]) -> Self {
        let open = shards(points.iter().copied())
            .into_iter()
            .map(|(key, members)| (key, (members.len(), Vec::new())))
            .collect();
        ShardWriter {
            store,
            open: Mutex::new(open),
        }
    }

    /// Takes one finished point, writing its shard's batch if it was
    /// the last one expected there.
    pub(crate) fn finish(&self, s: &'a Scenario, result: Arc<SimResult>) {
        let key = shard_key(s);
        let batch = {
            let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
            let Some((left, done)) = open.get_mut(&key) else {
                return;
            };
            done.push((s, result));
            *left -= 1;
            if *left > 0 {
                return;
            }
            open.remove(&key).map(|(_, done)| done)
        };
        if let Some(batch) = batch {
            self.store.save_sims(&batch);
        }
    }
}

/// One scenario's shard key: kind tag, benchmark name, instruction
/// count, and the machine's front-end geometry fingerprint. A record
/// inside the shard is keyed by the full-configuration fingerprint.
/// `Quick` deliberately aliases `Custom(500_000)` — they are the same
/// simulation.
fn shard_key(s: &Scenario) -> Vec<u8> {
    let mut key = Vec::new();
    put_u8(&mut key, StoreKind::Sim.tag());
    put_bytes(&mut key, s.bench.as_bytes());
    put_u64(&mut key, s.budget.instructions());
    put_u64(&mut key, s.machine.frontend_fingerprint());
    key
}

/// Groups scenarios (by index) under their shard keys, in key order.
fn shards<'a>(points: impl Iterator<Item = &'a Scenario>) -> BTreeMap<Vec<u8>, Vec<usize>> {
    let mut out: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
    for (i, s) in points.enumerate() {
        out.entry(shard_key(s)).or_default().push(i);
    }
    out
}

/// A batch file's name: the FNV-1a of the batch key and every
/// fingerprint in the batch, as 16 hex digits. The same batch always
/// gets the same name.
fn batch_name(key: &[u8], fingerprints: impl IntoIterator<Item = u64>) -> String {
    let mut content = key.to_vec();
    for fingerprint in fingerprints {
        put_u64(&mut content, fingerprint);
    }
    format!("{:016x}", fnv1a(&content))
}

/// The batch-file magic.
const BATCH_MAGIC: &[u8; 4] = b"FLKB";

/// Bytes a batch read takes in one go: the header and index of any
/// batch up to a few thousand points, and every record of a small one.
const BATCH_HEAD: u64 = 64 * 1024;

/// Serializes one batch file: `magic "FLKB" | format version u32 |
/// codec version u32 | key (length-prefixed) | record count u64 |
/// (fingerprint u64, length u64, FNV-1a u64) per record, ascending by
/// fingerprint | FNV-1a u64 over everything before it`, then the
/// records back to back in index order.
fn encode_batch(format: u32, codec: u32, key: &[u8], records: &BTreeMap<u64, Vec<u8>>) -> Vec<u8> {
    let mut out = Vec::with_capacity(batch_len(key, records) as usize);
    out.extend_from_slice(BATCH_MAGIC);
    put_u32(&mut out, format);
    put_u32(&mut out, codec);
    put_bytes(&mut out, key);
    put_u64(&mut out, records.len() as u64);
    for (&fingerprint, r) in records {
        put_u64(&mut out, fingerprint);
        put_u64(&mut out, r.len() as u64);
        put_u64(&mut out, fnv1a(r));
    }
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    for r in records.values() {
        out.extend_from_slice(r);
    }
    out
}

/// The length of the file [`encode_batch`] writes for `records`.
fn batch_len(key: &[u8], records: &BTreeMap<u64, Vec<u8>>) -> u64 {
    let fixed = BATCH_MAGIC.len() + 4 + 4 + 8 + key.len() + 8 + 8;
    (fixed + records.values().map(|r| 24 + r.len()).sum::<usize>()) as u64
}

/// A batch file that fails a structural check.
struct Damaged;

/// An open batch file whose header and index passed their checksum.
struct Batch {
    file: fs::File,
    /// The file's first bytes: the header, and whatever records fit.
    head: Vec<u8>,
    /// `(fingerprint, offset, length, FNV-1a)` of each record, offsets
    /// from the start of the file, ascending by fingerprint.
    index: Vec<(u64, u64, u64, u64)>,
}

impl Batch {
    /// Opens and verifies a batch's header: `Ok(None)` if the file is
    /// gone or was written by another format or codec version.
    fn open(path: &Path, key: &[u8]) -> Result<Option<Batch>, Damaged> {
        let Ok(mut file) = fs::File::open(path) else {
            return Ok(None);
        };
        let len = file.metadata().map_err(|_| Damaged)?.len();
        let mut head = vec![0; len.min(BATCH_HEAD) as usize];
        file.read_exact(&mut head).map_err(|_| Damaged)?;
        let mut r = ByteReader::new(&head);
        if r.bytes(BATCH_MAGIC.len()).map_err(|_| Damaged)? != BATCH_MAGIC {
            return Err(Damaged);
        }
        let (Ok(format), Ok(codec)) = (r.u32(), r.u32()) else {
            return Err(Damaged);
        };
        if (format, codec) != (FORMAT_VERSION, CODEC_VERSION) {
            // Written by another version: stale, not damage.
            return Ok(None);
        }
        let stored_key = r.len(1).and_then(|n| r.bytes(n)).map_err(|_| Damaged)?;
        if stored_key != key {
            // A filename-hash collision: another shard's batch.
            return Err(Damaged);
        }
        let count = r.u64().map_err(|_| Damaged)?;
        let index_at = (head.len() - r.remaining()) as u64;
        let header_len = count
            .checked_mul(24)
            .and_then(|n| n.checked_add(index_at + 8))
            .filter(|&n| n <= len)
            .ok_or(Damaged)?;
        if header_len > head.len() as u64 {
            let at = head.len();
            head.resize(header_len as usize, 0);
            file.read_exact(&mut head[at..]).map_err(|_| Damaged)?;
        }
        let (body, tail) = head[..header_len as usize].split_at(header_len as usize - 8);
        if fnv1a(body) != u64::from_le_bytes(tail.try_into().expect("8-byte checksum")) {
            return Err(Damaged);
        }
        let mut r = ByteReader::new(&body[index_at as usize..]);
        let mut offset = header_len;
        let mut index = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let (fingerprint, n, sum) = (r.u64(), r.u64(), r.u64());
            let (Ok(fingerprint), Ok(n), Ok(sum)) = (fingerprint, n, sum) else {
                return Err(Damaged);
            };
            index.push((fingerprint, offset, n, sum));
            offset = offset.checked_add(n).ok_or(Damaged)?;
        }
        if offset != len {
            return Err(Damaged);
        }
        Ok(Some(Batch { file, head, index }))
    }

    /// Record `i`'s bytes, read from the head or the file and checked
    /// against its checksum; `None` if either fails.
    fn record(&mut self, i: usize) -> Option<Vec<u8>> {
        let (_, offset, len, sum) = self.index[i];
        let (start, end) = (offset as usize, (offset + len) as usize);
        let bytes = if end <= self.head.len() {
            self.head[start..end].to_vec()
        } else {
            let mut bytes = vec![0; len as usize];
            self.file.seek(SeekFrom::Start(offset)).ok()?;
            self.file.read_exact(&mut bytes).ok()?;
            bytes
        };
        (fnv1a(&bytes) == sum).then_some(bytes)
    }
}

/// An annotation key: kind tag, benchmark, instruction count, and the
/// front-end geometry fingerprint — the same identity the in-memory
/// [`crate::scenario::AnnotationCache`] keys by.
fn annotation_key(bench: &str, budget: Budget, geometry: u64) -> Vec<u8> {
    let mut key = Vec::new();
    put_u8(&mut key, StoreKind::Annotation.tag());
    put_bytes(&mut key, bench.as_bytes());
    put_u64(&mut key, budget.instructions());
    put_u64(&mut key, geometry);
    key
}

/// A policy key: the sim identity plus the policy form's canonical
/// `(discriminant, param, param)` triple and the energy model's
/// fingerprint — mirroring the in-memory
/// [`crate::policy::PolicyCache`] key.
fn policy_key(s: &Scenario, form: PolicyForm, model_fp: u64) -> Vec<u8> {
    let mut key = Vec::new();
    put_u8(&mut key, StoreKind::Policy.tag());
    put_bytes(&mut key, s.bench.as_bytes());
    put_u64(&mut key, s.budget.instructions());
    put_u64(&mut key, s.machine.fingerprint());
    let (disc, a, b) = form_key(form);
    put_u8(&mut key, disc);
    put_u64(&mut key, a);
    put_u64(&mut key, b);
    put_u64(&mut key, model_fp);
    key
}

/// [`PolicyForm`] as a canonical `(discriminant, param, param)`
/// triple, `f64` parameters by bit pattern (the same shape the core
/// crate hashes the form by).
fn form_key(form: PolicyForm) -> (u8, u64, u64) {
    match form {
        PolicyForm::AlwaysActive => (0, 0, 0),
        PolicyForm::MaxSleep => (1, 0, 0),
        PolicyForm::NoOverhead => (2, 0, 0),
        PolicyForm::GradualSleep { slices } => (3, u64::from(slices), 0),
        PolicyForm::TimeoutSleep { timeout } => (4, timeout, 0),
        PolicyForm::AdaptiveSleep { breakeven, weight } => {
            (5, breakeven.to_bits(), weight.to_bits())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Engine;
    use fuleak_core::IntervalSpectrum;
    use fuleak_uarch::MachineConfig;
    use std::sync::atomic::AtomicUsize;

    /// A unique scratch directory per test, under the target-adjacent
    /// temp root (no wall clock or RNG needed: pid + counter).
    fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "fuleak-store-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_sim() -> SimResult {
        SimResult {
            cycles: 500,
            committed: 400,
            fu_idle: vec![IntervalSpectrum::from_lengths(&[2, 2, 30])],
            fu_active: vec![466],
            ..SimResult::default()
        }
    }

    fn scenario() -> Scenario {
        Scenario::paper("mst", 2, 12, Budget::Custom(5_000))
    }

    /// Saves `points` as one batch, each with [`sample_sim`].
    fn save_batch(store: &ResultStore, points: &[&Scenario]) {
        let results: Vec<_> = points
            .iter()
            .map(|&s| (s, Arc::new(sample_sim())))
            .collect();
        store.save_sims(&results);
    }

    /// `s` with [`sample_sim`], as the records of a one-point batch.
    fn one_record(s: &Scenario) -> BTreeMap<u64, Vec<u8>> {
        BTreeMap::from([(s.machine.fingerprint(), sample_sim().to_bytes())])
    }

    /// The one batch file of `s`'s shard.
    fn only_batch(store: &ResultStore, s: &Scenario) -> PathBuf {
        let files = store.batch_files(&shard_key(s));
        assert_eq!(files.len(), 1, "one batch file in the shard");
        files[0].0.clone()
    }

    /// Every file under `sim/`, shard directories included.
    fn sim_files(store: &ResultStore) -> Vec<PathBuf> {
        store
            .scan(StoreKind::Sim)
            .into_iter()
            .map(|(p, _, _)| p)
            .collect()
    }

    fn sample_ann() -> AnnotatedTrace {
        let mut ann = AnnotatedTrace::with_capacity(1);
        ann.push_meta(fuleak_workloads::annotated::KIND_INT);
        ann.set_totals(0, 0, 0, 0);
        ann
    }

    /// Damages the saved entry of `key` every way a file can be
    /// damaged, checking each time that `hit` (a load of that entry)
    /// misses. Damage counts once as corruption and deletes the file;
    /// version skew counts nothing and leaves it for `gc`. Each load
    /// counts one hit or one miss.
    fn assert_damage_misses(
        store: &ResultStore,
        kind: StoreKind,
        key: &[u8],
        record: Vec<u8>,
        hit: impl Fn() -> bool,
    ) {
        let path = store.one_path(kind, key);
        let one = BTreeMap::from([(0, record)]);
        let pristine = encode_batch(FORMAT_VERSION, CODEC_VERSION, key, &one);
        assert_eq!(fs::read(&path).unwrap(), pristine, "a one-record batch");
        let (hits, misses) = (store.hits_for(kind), store.misses_for(kind));
        let check = |bytes: &[u8], damaged: bool, what: &str| {
            fs::write(&path, bytes).unwrap();
            let corrupt = store.corrupt();
            assert!(!hit(), "{what} must miss");
            assert_eq!(store.corrupt() - corrupt, usize::from(damaged), "{what}");
            assert_eq!(path.exists(), !damaged, "{what}");
        };
        for i in 0..pristine.len() {
            let mut bent = pristine.clone();
            bent[i] ^= 0x40;
            // Bytes 4..12 are the format and codec versions: a flip
            // there reads as an entry of another version.
            check(&bent, !(4..12).contains(&i), &format!("flip at {i}"));
            check(&pristine[..i], true, &format!("truncation to {i}"));
        }
        for (format, codec) in [
            (FORMAT_VERSION + 1, CODEC_VERSION),
            (FORMAT_VERSION, CODEC_VERSION + 1),
        ] {
            let skewed = encode_batch(format, codec, key, &one);
            check(&skewed, false, &format!("version {format}/{codec}"));
        }
        // A filename-hash collision: the right name, another key.
        let other = [key, b"!"].concat();
        let collision = encode_batch(FORMAT_VERSION, CODEC_VERSION, &other, &one);
        check(&collision, true, "a wrong stored key");
        fs::write(&path, &pristine).unwrap();
        assert!(hit(), "the pristine entry hits again");
        assert_eq!(store.hits_for(kind) - hits, 1);
        assert_eq!(store.misses_for(kind) - misses, 2 * pristine.len() + 3);
    }

    #[test]
    fn key_addressed_entries_share_the_batch_damage_path() {
        let dir = scratch("one-record");
        let store = ResultStore::open(&dir).unwrap();
        let budget = Budget::Custom(5_000);
        let ann = sample_ann();
        store.save_annotation("mst", budget, 42, &ann);
        let load = || store.load_annotation("mst", budget, 42);
        let key = annotation_key("mst", budget, 42);
        assert_damage_misses(&store, StoreKind::Annotation, &key, ann.to_bytes(), || {
            load().is_some()
        });
        assert_eq!(load(), Some(ann));

        // A record that passes its checksum and does not decode
        // condemns its file like any other damage.
        let garbage = BTreeMap::from([(0, vec![0xff; 16])]);
        let path = store.one_path(StoreKind::Annotation, &key);
        fs::write(
            &path,
            encode_batch(FORMAT_VERSION, CODEC_VERSION, &key, &garbage),
        )
        .unwrap();
        let corrupt = store.corrupt();
        assert_eq!(load(), None);
        assert_eq!(store.corrupt(), corrupt + 1);
        assert!(!path.exists());

        let key = b"\x04route".to_vec();
        let body = b"{\"rows\": []}\n".to_vec();
        store.save_response(&key, &body);
        assert_damage_misses(&store, StoreKind::Response, &key, body.clone(), || {
            store.load_response(&key).is_some()
        });
        assert_eq!(store.load_response(&key), Some(body));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_legacy_entry_file_is_a_silent_miss_that_gc_reclaims() {
        let dir = scratch("legacy");
        let store = ResultStore::open(&dir).unwrap();
        let budget = Budget::Custom(5_000);
        // An entry of the older one-file-per-key container, at its
        // old name: nothing opens it.
        let key = annotation_key("mst", budget, 42);
        let legacy = dir.join("ann").join(format!("{:016x}", fnv1a(&key)));
        fs::write(
            &legacy,
            [b"FLKS".as_slice(), &sample_ann().to_bytes()].concat(),
        )
        .unwrap();
        assert_eq!(store.load_annotation("mst", budget, 42), None);
        assert_eq!(store.corrupt(), 0, "an unread file is not corrupt");
        assert!(legacy.exists());
        assert_eq!(store.stats().kinds[1].entries, 1);
        assert_eq!(store.gc(0).evicted, 1);
        assert!(!legacy.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn round_trips_each_kind() {
        let dir = scratch("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        let s = scenario();

        assert_eq!(store.load_sim(&s), None);
        save_batch(&store, &[&s]);
        assert_eq!(store.load_sim(&s), Some(sample_sim()));

        let ann = sample_ann();
        store.save_annotation("mst", Budget::Custom(5_000), 42, &ann);
        assert_eq!(
            store.load_annotation("mst", Budget::Custom(5_000), 42),
            Some(ann)
        );
        assert_eq!(
            store.load_annotation("mst", Budget::Custom(5_000), 43),
            None
        );

        let run = PolicyRun {
            active_cycles: 7,
            ..PolicyRun::default()
        };
        store.save_policy(&s, PolicyForm::MaxSleep, 9, run);
        assert_eq!(store.load_policy(&s, PolicyForm::MaxSleep, 9), Some(run));
        assert_eq!(store.load_policy(&s, PolicyForm::AlwaysActive, 9), None);

        assert_eq!(store.load_response(b"\x04route"), None);
        store.save_response(b"\x04route", b"{}\n");
        assert_eq!(store.load_response(b"\x04route"), Some(b"{}\n".to_vec()));

        assert_eq!(store.writes(), 4);
        assert_eq!(store.hits(), 4);
        assert_eq!(store.misses(), 4, "one pre-save probe per kind");
        assert_eq!(store.corrupt(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batches_count_records_and_read_each_shard_once() {
        let dir = scratch("records");
        let store = ResultStore::open(&dir).unwrap();
        let points: Vec<Scenario> = (1..=4)
            .map(|fus| Scenario::paper("mst", fus, 12, Budget::Custom(5_000)))
            .collect();
        let other = Scenario::paper("gzip", 1, 12, Budget::Custom(5_000));
        let refs: Vec<&Scenario> = points.iter().chain([&other]).collect();
        save_batch(&store, &refs);
        assert_eq!(store.writes(), 5, "writes count records");
        assert_eq!(sim_files(&store).len(), 2, "one batch file per shard");
        // A duplicate and an absent point ride along in one read.
        let absent = Scenario::paper("mst", 1, 32, Budget::Custom(5_000));
        let loaded = store.load_sims(&[&points[2], &absent, &other, &points[2]]);
        let expect = Some(sample_sim());
        assert_eq!(loaded, vec![expect.clone(), None, expect.clone(), expect]);
        assert_eq!((store.hits(), store.misses()), (3, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quick_budget_aliases_its_instruction_count() {
        // Budget::Quick and Budget::Custom(500_000) run the same
        // simulation, so on disk they are deliberately one entry.
        let dir = scratch("alias");
        let store = ResultStore::open(&dir).unwrap();
        let quick = Scenario::paper("mst", 2, 12, Budget::Quick);
        let custom = Scenario::paper("mst", 2, 12, Budget::Custom(500_000));
        save_batch(&store, &[&quick]);
        assert_eq!(store.load_sim(&custom), Some(sample_sim()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_bump_invalidates_but_is_not_corruption() {
        let dir = scratch("versions");
        let store = ResultStore::open(&dir).unwrap();
        let s = scenario();
        save_batch(&store, &[&s]);
        let path = only_batch(&store, &s);
        let key = shard_key(&s);
        let records = one_record(&s);
        for (format, codec) in [
            (FORMAT_VERSION + 1, CODEC_VERSION),
            (FORMAT_VERSION, CODEC_VERSION + 1),
        ] {
            let entry = encode_batch(format, codec, &key, &records);
            fs::write(&path, entry).unwrap();
            assert_eq!(store.load_sim(&s), None, "{format}/{codec} must miss");
        }
        assert_eq!(store.corrupt(), 0, "version skew is stale, not corrupt");
        // The current version over the same key and records hits.
        let entry = encode_batch(FORMAT_VERSION, CODEC_VERSION, &key, &records);
        fs::write(&path, entry).unwrap();
        assert_eq!(store.load_sim(&s), Some(sample_sim()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_a_miss_never_a_crash() {
        let dir = scratch("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        let s = scenario();
        save_batch(&store, &[&s]);
        let path = only_batch(&store, &s);
        let pristine = fs::read(&path).unwrap();

        // Flip every byte in turn; truncate at every length. Always a
        // clean miss.
        for i in 0..pristine.len() {
            let mut bent = pristine.clone();
            bent[i] ^= 0x40;
            fs::write(&path, &bent).unwrap();
            assert_eq!(store.load_sim(&s), None, "bit flip at {i} must miss");
            fs::write(&path, &pristine[..i]).unwrap();
            assert_eq!(store.load_sim(&s), None, "truncation to {i} must miss");
        }
        assert!(store.corrupt() > 0);
        // A key-colliding entry (right name, different stored key) is
        // rejected by the key check, not served.
        let other = Scenario::paper("gzip", 2, 12, Budget::Custom(5_000));
        let entry = encode_batch(
            FORMAT_VERSION,
            CODEC_VERSION,
            &shard_key(&other),
            &one_record(&s),
        );
        fs::write(&path, entry).unwrap();
        assert_eq!(store.load_sim(&s), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_batch_misses_only_its_own_points() {
        let dir = scratch("corrupt-batch");
        let store = ResultStore::open(&dir).unwrap();
        let points: Vec<Scenario> = (1..=4)
            .map(|fus| Scenario::paper("mst", fus, 12, Budget::Custom(5_000)))
            .collect();
        // Two batches in one shard (the second too small to absorb the
        // first), then the first one damaged.
        save_batch(&store, &[&points[0], &points[1], &points[2]]);
        let first = only_batch(&store, &points[0]);
        save_batch(&store, &[&points[3]]);
        assert_eq!(sim_files(&store).len(), 2);
        let mut bent = fs::read(&first).unwrap();
        bent[20] ^= 0x01;
        fs::write(&first, bent).unwrap();

        let loaded = store.load_sims(&points.iter().collect::<Vec<_>>());
        assert_eq!(loaded, vec![None, None, None, Some(sample_sim())]);
        assert_eq!(store.corrupt(), 1);
        // The damaged batch is gone after that one read, so a second
        // read neither opens nor counts it again.
        assert!(!first.exists());
        let again = store.load_sims(&points.iter().collect::<Vec<_>>());
        assert_eq!(again, loaded);
        assert_eq!(store.corrupt(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_batches_into_one_shard_stay_few_files() {
        let dir = scratch("absorb");
        let store = ResultStore::open(&dir).unwrap();
        let budget = Budget::Custom(5_000);
        // Sixteen sweeps of one geometry, four new points each, then
        // sixteen single points: after n batches the shard holds at
        // most 1 + log2(n) files, and every point stays loadable.
        let mut points = Vec::new();
        let mut batches = 0u32;
        let mut save = |batch: Vec<Scenario>, points: &mut Vec<Scenario>| {
            save_batch(&store, &batch.iter().collect::<Vec<_>>());
            points.extend(batch);
            batches += 1;
            let files = sim_files(&store).len() as u32;
            assert!(
                files <= 1 + batches.ilog2(),
                "{files} files after {batches}"
            );
        };
        for sweep in 0..16u64 {
            let batch = (1..=4)
                .map(|fus| Scenario::paper("mst", fus, 100 + sweep, budget))
                .collect();
            save(batch, &mut points);
        }
        for l2 in 0..16 {
            save(
                vec![Scenario::paper("mst", 1, 200 + l2, budget)],
                &mut points,
            );
        }
        assert_eq!(store.writes(), 80, "writes count new records only");
        let records = one_record(&points[0]);
        let key = shard_key(&points[0]);
        let entry = encode_batch(FORMAT_VERSION, CODEC_VERSION, &key, &records);
        assert_eq!(batch_len(&key, &records), entry.len() as u64);
        let loaded = store.load_sims(&points.iter().collect::<Vec<_>>());
        assert!(loaded.iter().all(|r| r.as_ref() == Some(&sample_sim())));
        assert_eq!(store.corrupt(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engines_priming_overlapping_batches_leave_every_point_loadable() {
        let dir = scratch("overlap");
        let budget = Budget::Custom(5_000);
        let points: Vec<Scenario> = (1..=4)
            .map(|fus| Scenario::paper("mst", fus, 12, budget))
            .collect();
        // Two engines, each with its own store handle on one root,
        // prime overlapping batches at the same time.
        std::thread::scope(|scope| {
            for range in [0..3, 1..4] {
                let (dir, points) = (&dir, &points);
                scope.spawn(move || {
                    let engine = Engine::new(2);
                    engine.set_store(Some(Arc::new(ResultStore::open(dir).unwrap())));
                    engine.prime(&points[range]);
                });
            }
        });
        let store = ResultStore::open(&dir).unwrap();
        let loaded = store.load_sims(&points.iter().collect::<Vec<_>>());
        let fresh = Engine::new(1);
        for (s, r) in points.iter().zip(loaded) {
            assert_eq!(r.as_ref(), Some(&*fresh.result(s.clone())), "{s:?}");
        }
        assert_eq!(store.corrupt(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_large_batch_reads_its_index_and_only_the_wanted_records() {
        let dir = scratch("large");
        fs::create_dir_all(&dir).unwrap();
        let key = shard_key(&scenario());
        // 64 records of 4 KiB: the index fits in the first read, most
        // records do not.
        let records: BTreeMap<u64, Vec<u8>> =
            (0..64u64).map(|fp| (fp, vec![fp as u8; 4096])).collect();
        let path = dir.join("big");
        let mut bytes = encode_batch(FORMAT_VERSION, CODEC_VERSION, &key, &records);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let Ok(Some(mut batch)) = Batch::open(&path, &key) else {
            panic!("the header is intact");
        };
        assert_eq!(batch.head.len() as u64, BATCH_HEAD);
        assert_eq!(batch.index.len(), 64);
        for i in [0, 1, 40, 62] {
            assert_eq!(batch.record(i).as_ref(), Some(&records[&(i as u64)]));
        }
        // The damaged last record fails its own checksum.
        assert_eq!(batch.record(63), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_into_one_shard_lose_no_point() {
        let dir = scratch("writers");
        let budget = Budget::Custom(5_000);
        // Four store handles on one root each write twelve two-point
        // batches into the same shard at once, absorbing and deleting
        // each other's files as they go.
        let points: Vec<Vec<Scenario>> = (0..4u64)
            .map(|w| {
                (0..24u64)
                    .map(|i| Scenario::paper("mst", 1 + (i % 2) as usize, 100 + 24 * w + i, budget))
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            for mine in &points {
                let dir = &dir;
                scope.spawn(move || {
                    let store = ResultStore::open(dir).unwrap();
                    for pair in mine.chunks(2) {
                        save_batch(&store, &pair.iter().collect::<Vec<_>>());
                    }
                });
            }
        });
        let store = ResultStore::open(&dir).unwrap();
        let all: Vec<&Scenario> = points.iter().flatten().collect();
        let loaded = store.load_sims(&all);
        assert!(loaded.iter().all(|r| r.as_ref() == Some(&sample_sim())));
        assert_eq!(store.corrupt(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_shard_is_written_when_its_last_point_finishes() {
        let dir = scratch("writer");
        let store = ResultStore::open(&dir).unwrap();
        let budget = Budget::Custom(5_000);
        let mst: Vec<Scenario> = (1..=3)
            .map(|fus| Scenario::paper("mst", fus, 12, budget))
            .collect();
        let gzip: Vec<Scenario> = (1..=2)
            .map(|fus| Scenario::paper("gzip", fus, 12, budget))
            .collect();
        let all: Vec<&Scenario> = mst.iter().chain(&gzip).collect();
        let writer = ShardWriter::new(&store, &all);
        // A sweep cut short after the mst shard and half of gzip: the
        // finished shard is on disk, the unfinished one not yet.
        for s in mst.iter().chain(&gzip[..1]) {
            writer.finish(s, Arc::new(sample_sim()));
        }
        assert_eq!(sim_files(&store).len(), 1);
        let loaded = store.load_sims(&all);
        assert_eq!(loaded.iter().filter(|r| r.is_some()).count(), 3);
        writer.finish(&gzip[1], Arc::new(sample_sim()));
        assert_eq!(sim_files(&store).len(), 2);
        assert!(store.load_sims(&all).iter().all(|r| r.is_some()));
        assert_eq!(store.writes(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn machine_variants_key_separate_entries() {
        let dir = scratch("variants");
        let store = ResultStore::open(&dir).unwrap();
        let budget = Budget::Custom(5_000);
        let narrow = Scenario::new(
            "mst",
            MachineConfig::derived(|c| c.width = 2).unwrap(),
            budget,
        );
        let wide = Scenario::new("mst", MachineConfig::baseline(), budget);
        save_batch(&store, &[&narrow]);
        assert_eq!(store.load_sim(&wide), None, "variants must not alias");
        assert_eq!(store.load_sim(&narrow), Some(sample_sim()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_clear_and_gc() {
        let dir = scratch("maintenance");
        let store = ResultStore::open(&dir).unwrap();
        // Four one-point batches, each on its own front-end geometry
        // (so its own shard, and none absorbs another), all of one
        // size.
        let scenarios: Vec<Scenario> = [512, 1024, 2048, 4096]
            .into_iter()
            .map(|bimodal| {
                let machine = MachineConfig::derived(|c| c.bimodal_entries = bimodal).unwrap();
                Scenario::new("mst", machine, Budget::Custom(5_000))
            })
            .collect();
        for s in &scenarios {
            save_batch(&store, &[s]);
        }
        let stats = store.stats();
        assert_eq!(stats.entries(), 4);
        assert_eq!(stats.kinds[0].entries, 4);
        assert!(stats.bytes() > 0);

        // Age the first two entries far into the past; gc to a budget
        // that only two entries fit, and exactly the aged pair dies.
        let entry_len = stats.kinds[0].bytes / 4;
        let past = std::time::SystemTime::UNIX_EPOCH; // lint:allow(wallclock)
        let files = sim_files(&store);
        for s in &scenarios[..2] {
            let path = store
                .shard_dir(&shard_key(s))
                .join(batch_name(&shard_key(s), one_record(s).keys().copied()));
            assert!(files.contains(&path));
            let f = fs::File::options().append(true).open(path).unwrap();
            f.set_times(fs::FileTimes::new().set_accessed(past).set_modified(past))
                .unwrap();
        }
        let report = store.gc(2 * entry_len);
        assert_eq!(report.evicted, 2);
        assert_eq!(report.bytes_after, report.bytes_before - 2 * entry_len);
        assert_eq!(store.evictions(), 2);
        assert_eq!(store.load_sim(&scenarios[0]), None);
        assert_eq!(store.load_sim(&scenarios[3]), Some(sample_sim()));

        // gc with room to spare is a no-op; clear removes the rest.
        assert_eq!(store.gc(u64::MAX).evicted, 0);
        assert_eq!(store.clear().unwrap(), 2);
        assert_eq!(store.stats().entries(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_evicts_whole_batches_and_empty_shards() {
        let dir = scratch("gc-shards");
        let store = ResultStore::open(&dir).unwrap();
        let budget = Budget::Custom(5_000);
        let mst: Vec<Scenario> = (1..=3)
            .map(|fus| Scenario::paper("mst", fus, 12, budget))
            .collect();
        let gzip = Scenario::paper("gzip", 1, 12, budget);
        save_batch(&store, &mst.iter().collect::<Vec<_>>());
        save_batch(&store, &[&gzip]);
        // A per-point file from the older flat layout is never read,
        // but it is an entry that gc reclaims.
        fs::write(dir.join("sim").join("00000000deadbeef"), b"old entry").unwrap();
        assert_eq!(store.stats().kinds[0].entries, 3);

        // Age the gzip shard and the old file; a budget that fits
        // only the three-point batch evicts both, whole.
        let past = std::time::SystemTime::UNIX_EPOCH; // lint:allow(wallclock)
        for path in [only_batch(&store, &gzip), dir.join("sim/00000000deadbeef")] {
            let f = fs::File::options().append(true).open(path).unwrap();
            f.set_times(fs::FileTimes::new().set_accessed(past).set_modified(past))
                .unwrap();
        }
        let keep = fs::metadata(only_batch(&store, &mst[0])).unwrap().len();
        let report = store.gc(keep);
        assert_eq!(report.evicted, 2);
        assert_eq!(report.bytes_after, keep);
        assert!(
            !store.shard_dir(&shard_key(&gzip)).exists(),
            "empty shard removed"
        );
        assert!(store.shard_dir(&shard_key(&mst[0])).exists());
        let loaded = store.load_sims(&mst.iter().chain([&gzip]).collect::<Vec<_>>());
        assert_eq!(loaded.iter().filter(|r| r.is_some()).count(), 3);

        // Evicting everything leaves no shard directory behind.
        assert_eq!(store.gc(0).evicted, 1);
        assert!(fs::read_dir(dir.join("sim")).unwrap().next().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
