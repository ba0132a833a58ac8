//! The measurement database — the `loupedb` analogue (§3.3: "Sharing
//! Loupe Results").
//!
//! Results are final for a fixed build of the software, its workload and
//! kernel, so they are worth persisting and sharing. This crate is one
//! typed artifact store: every stored type — baseline and
//! restricted-environment [`AppReport`]s, matrix cells, conformance
//! suites, static reports and plan validations — is an [`Artifact`] that
//! knows its namespace's path ↔ key layout, the key a value is stored
//! under and how a new value composes with the stored one. One generic
//! family serves them all: [`Database::put`] composes (baselines merge
//! conservatively, matrix cells keep the tiers a new cell did not
//! measure, everything else overwrites), [`Database::replace`]
//! overwrites, and [`Database::get`], [`Database::keys`] and
//! [`Database::all`] read. Entries are JSON files in a directory tree
//! (baselines at `<root>/<app>/<workload>.json`). OS support specs are
//! imported/exported in the paper's one-syscall-per-line CSV form.
//!
//! On top of the JSON tree sit two derived layers that make warm sweeps
//! incremental and fast:
//!
//! * a **cache manifest** ([`manifest`]) recording, per stored artifact,
//!   the fingerprints of the inputs that produced it — so a sweep stage
//!   can answer "is this cell current?" with one map lookup, and an edit
//!   to one OS profile invalidates exactly its downstream cells; and
//! * **binary namespace snapshots** ([`snapshot`]) so bulk reads load a
//!   whole namespace from one compact file instead of re-parsing
//!   hundreds of JSON entries, rebuilt automatically whenever the
//!   content-addressed state they were written against changes.
//!
//! Both layers are derived and disposable: deleting `manifest.json` or
//! `index/` costs one rebuild, never correctness.
//!
//! # Examples
//!
//! ```
//! use loupe_core::AppReport;
//! use loupe_db::Database;
//!
//! let dir = std::env::temp_dir().join("loupedb-doc-example");
//! let db = Database::open(&dir).unwrap();
//! for key in db.keys::<AppReport>().unwrap() {
//!     assert!(db.get::<AppReport>(&key).unwrap().is_some());
//! }
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use loupe_apps::Workload;
use loupe_core::{fingerprint_of, AppReport, FeatureClass, Fingerprint, Impact};
use loupe_gentests::ConformanceSuite;
use loupe_plan::{AppRequirement, MatrixCell, OsSpec};
use loupe_static::{Level, StaticReport};

mod artifact;
pub mod lock;
pub mod manifest;
pub mod snapshot;

pub use artifact::{baseline_key, env_key, matrix_key, plan_key, static_key, suite_key, Artifact};
use artifact::{SlotState, Slots, SnapshotSlot, LAYOUTS};
pub use lock::{FileLock, LOCK_FILE};
pub use manifest::{
    ns, ArtifactRecord, CacheCounters, CacheStats, Decision, Manifest, Provenance, MANIFEST_VERSION,
};

/// A directory-backed measurement database.
///
/// Cloning is cheap and clones share one in-process state (manifest,
/// snapshots, writer lock), so a `Database` can be handed to worker
/// threads freely. Writers are additionally serialised *across
/// processes* by an advisory file lock ([`lock`]), so concurrent
/// read-modify-write saves from two processes can never drop each
/// other's data. Provenance is still per-process: two independent
/// `open()`s of the same root keep independent manifests and the last
/// flush wins (derived data — the cost is re-measurement, never
/// corruption, since the flush itself is atomic).
pub struct Database {
    shared: Arc<Shared>,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("root", &self.shared.root)
            .finish()
    }
}

struct Shared {
    root: PathBuf,
    manifest: Mutex<ManifestState>,
    stats: Mutex<CacheStats>,
    /// Single-writer guard: every save composes read-modify-write
    /// (merge / tier composition), so writers must exclude each other.
    /// Extended across processes by the advisory [`lock::FileLock`]
    /// taken with it (see [`Shared::lock_writers`]).
    write_lock: Mutex<()>,
    slots: Slots,
}

struct ManifestState {
    manifest: Manifest,
    /// Monotonic per-namespace counters, bumped whenever a namespace's
    /// content changes — the freshness signal for in-memory snapshots.
    generations: BTreeMap<String, u64>,
    /// Memoised [`Shared::namespace_state`] per namespace, valid for
    /// the generation it was computed at. Point reads consult the
    /// state on every snapshot probe; without the memo each probe
    /// would re-hash the whole record table.
    state_memo: BTreeMap<String, (u64, Fingerprint)>,
    dirty: bool,
}

/// Both writer guards held together: the in-process mutex and the
/// cross-process advisory file lock. Acquired in that order everywhere
/// (process mutex, then file lock, then the manifest mutex as needed)
/// so writers can never deadlock.
struct WriteGuard<'a> {
    _process: std::sync::MutexGuard<'a, ()>,
    _file: lock::FileLock,
}

impl Shared {
    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// Excludes every other database writer — threads of this process
    /// via the mutex, other processes via `flock` on the root's lock
    /// file — for the duration of the returned guard.
    fn lock_writers(&self) -> Result<WriteGuard<'_>, DbError> {
        let process = self.write_lock.lock().expect("writer lock");
        let file = lock::FileLock::acquire(&self.root)?;
        Ok(WriteGuard {
            _process: process,
            _file: file,
        })
    }

    fn with_manifest<R>(&self, f: impl FnOnce(&mut ManifestState) -> R) -> R {
        let mut state = self.manifest.lock().expect("manifest lock");
        f(&mut state)
    }

    fn generation(&self, namespace: &str) -> u64 {
        self.with_manifest(|s| s.generations.get(namespace).copied().unwrap_or(0))
    }

    /// Content-addressed state of a namespace: the fingerprint of every
    /// `(key, output-fingerprint)` pair. This is what binary snapshots
    /// are tagged with, making their staleness check survive process
    /// boundaries.
    fn namespace_state(&self, namespace: &str) -> Fingerprint {
        self.with_manifest(|s| {
            let generation = s.generations.get(namespace).copied().unwrap_or(0);
            if let Some((g, fp)) = s.state_memo.get(namespace) {
                if *g == generation {
                    return *fp;
                }
            }
            let pairs: Vec<(String, String)> = s
                .manifest
                .records
                .get(namespace)
                .map(|records| {
                    records
                        .iter()
                        .map(|(k, r)| (k.clone(), r.output.to_hex()))
                        .collect()
                })
                .unwrap_or_default();
            let fp = fingerprint_of(&pairs);
            s.state_memo.insert(namespace.to_owned(), (generation, fp));
            fp
        })
    }

    /// Updates the record for a just-written artifact. If the stored
    /// output fingerprint is unchanged, the record (including its
    /// provenance) is kept — content-addressed identity. Otherwise the
    /// record's inputs become unknown until a sweep stage re-attaches
    /// them via [`Database::record_provenance`].
    fn record_artifact<T: serde::Serialize>(&self, namespace: &str, key: &str, artifact: &T) {
        let output = fingerprint_of(artifact);
        self.with_manifest(|s| {
            let records = s.manifest.records.entry(namespace.to_owned()).or_default();
            if let Some(rec) = records.get(key) {
                if rec.output == output {
                    return;
                }
            }
            records.insert(
                key.to_owned(),
                ArtifactRecord {
                    inputs: None,
                    output,
                    meta: BTreeMap::new(),
                },
            );
            *s.generations.entry(namespace.to_owned()).or_insert(0) += 1;
            s.dirty = true;
        });
    }

    /// Reconciles a namespace's records with the entries found on disk
    /// during a bulk rebuild: records gain/refresh output fingerprints,
    /// records whose content changed out-of-band lose their provenance,
    /// and records for deleted files are dropped.
    fn adopt_outputs<T: serde::Serialize>(&self, namespace: &str, entries: &[(String, T)]) {
        let outputs: Vec<(&String, Fingerprint)> = entries
            .iter()
            .map(|(k, v)| (k, fingerprint_of(v)))
            .collect();
        self.with_manifest(|s| {
            let records = s.manifest.records.entry(namespace.to_owned()).or_default();
            let mut fresh: BTreeMap<String, ArtifactRecord> = BTreeMap::new();
            let mut changed = false;
            for (key, output) in outputs {
                let rec = match records.get(key) {
                    Some(rec) if rec.output == output => rec.clone(),
                    _ => {
                        changed = true;
                        ArtifactRecord {
                            inputs: None,
                            output,
                            meta: BTreeMap::new(),
                        }
                    }
                };
                fresh.insert(key.clone(), rec);
            }
            changed |= fresh.len() != records.len();
            if changed {
                *records = fresh;
                *s.generations.entry(namespace.to_owned()).or_insert(0) += 1;
                s.dirty = true;
            }
        });
    }

    fn flush_manifest(&self) -> Result<(), DbError> {
        if self.with_manifest(|s| !s.dirty) {
            return Ok(());
        }
        // File lock before the manifest mutex (the writer ordering), and
        // an atomic temp-file + rename so a concurrent reader — a serve
        // daemon polling for generation changes — can never observe a
        // torn manifest.
        let _file = lock::FileLock::acquire(&self.root)?;
        let path = self.manifest_path();
        self.with_manifest(|s| {
            if !s.dirty {
                return Ok(());
            }
            let json = serde_json::to_string_pretty(&s.manifest).map_err(|e| DbError::Corrupt {
                path: path.clone(),
                message: e.to_string(),
            })?;
            let tmp = path.with_extension("json.tmp");
            fs::write(&tmp, json)?;
            fs::rename(&tmp, &path)?;
            s.dirty = false;
            Ok(())
        })
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // Best-effort durability: provenance learned this session is
        // derived data, so a failed flush costs re-measurement, not
        // correctness.
        let _ = self.flush_manifest();
    }
}

/// Database errors.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem error.
    Io(io::Error),
    /// Malformed stored JSON.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// Parser message.
        message: String,
    },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "database I/O error: {e}"),
            DbError::Corrupt { path, message } => {
                write!(f, "corrupt database entry {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e)
    }
}

/// Key order: segment by segment, so `redis/health` sorts before
/// `redis-sentinel/health`.
fn key_order(a: &str, b: &str) -> std::cmp::Ordering {
    a.split('/').cmp(b.split('/'))
}

fn read_json<T: serde::Deserialize>(path: &Path) -> Result<Option<T>, DbError> {
    match fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| DbError::Corrupt {
                path: path.to_path_buf(),
                message: e.to_string(),
            }),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), DbError> {
    fs::create_dir_all(path.parent().expect("entry path has parent"))?;
    let json = serde_json::to_string_pretty(value).map_err(|e| DbError::Corrupt {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    fs::write(path, json)?;
    Ok(())
}

impl Database {
    /// Opens (creating if needed) a database rooted at `root`. A missing
    /// `manifest.json` starts an empty manifest.
    ///
    /// # Errors
    ///
    /// Directory-creation failures, and a `manifest.json` that exists
    /// but cannot be read (the error names it).
    pub fn open(root: impl AsRef<Path>) -> Result<Database, DbError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let path = root.join("manifest.json");
        let manifest = match fs::read_to_string(&path) {
            Ok(text) => Manifest::from_json(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Manifest::new(),
            Err(e) => {
                let message = format!("reading {}: {e}", path.display());
                return Err(DbError::Io(io::Error::new(e.kind(), message)));
            }
        };
        Ok(Database {
            shared: Arc::new(Shared {
                root,
                manifest: Mutex::new(ManifestState {
                    manifest,
                    generations: BTreeMap::new(),
                    state_memo: BTreeMap::new(),
                    dirty: false,
                }),
                stats: Mutex::new(CacheStats::default()),
                write_lock: Mutex::new(()),
                slots: Slots::new(),
            }),
        })
    }

    /// The database root directory.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    /// Stores `value` under its key, composed with the stored entry by
    /// the type's policy: a report merges conservatively with the stored
    /// measurement of the same environment (§3.1: a feature stays
    /// stubbable or fakeable only if *every* measurement agrees), a
    /// matrix cell keeps the stored verdicts of the tiers it did not
    /// measure, and every other type overwrites without reading.
    /// Returns what is now stored.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures, and a corrupt stored entry.
    pub fn put<T: Artifact>(&self, value: T) -> Result<T, DbError> {
        let _writer = self.shared.lock_writers()?;
        let key = value.key();
        let value = match T::COMPOSE {
            Some(compose) => match self.get(&key)? {
                Some(stored) => compose(stored, value),
                None => value,
            },
            None => value,
        };
        self.store_locked(&key, value)
    }

    /// Stores `value` under its key, *replacing* the stored entry — the
    /// path a sweep stage takes when the stored entry's recorded inputs
    /// no longer match (composing with content produced by outdated
    /// inputs would poison the fresh one). Returns what is now stored.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn replace<T: Artifact>(&self, value: T) -> Result<T, DbError> {
        let _writer = self.shared.lock_writers()?;
        self.store_locked(&value.key(), value)
    }

    /// Writes `value` as the artifact at `key` and updates its manifest
    /// record. Callers hold the writer lock.
    fn store_locked<T: Artifact>(&self, key: &str, value: T) -> Result<T, DbError> {
        let layout = T::layout(key);
        write_json(&layout.path(self.root(), key), &value)?;
        self.shared.record_artifact(layout.ns, key, &value);
        Ok(value)
    }

    /// The entry stored under `key`, if any (`None` for a key of another
    /// shape). An entry is only served under the key its own value
    /// derives: a restricted-environment report at a baseline path
    /// (written by tooling predating the segregation) is not a baseline,
    /// so it is re-measured and then superseded rather than merged.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn get<T: Artifact>(&self, key: &str) -> Result<Option<T>, DbError> {
        let layout = T::layout(key);
        if !layout.fits(key) {
            return Ok(None);
        }
        let value = match T::slot(&self.shared.slots) {
            Some(slot) if layout.ns == T::LAYOUT.ns => self.point(slot, key)?,
            _ => T::read(self.root(), key)?,
        };
        Ok(value.filter(|value| value.key() == key))
    }

    /// Every key stored in `T`'s namespace, in key order.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn keys<T: Artifact>(&self) -> Result<Vec<String>, DbError> {
        let mut keys: Vec<String> = T::LAYOUT.keys(self.root())?.into_iter().collect();
        keys.sort_by(|a, b| key_order(a, b));
        Ok(keys)
    }

    /// Every entry stored in `T`'s namespace, in key order — from the
    /// namespace's snapshot where it keeps one.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn all<T: Artifact>(&self) -> Result<Vec<T>, DbError> {
        self.select(|_| true)
    }

    /// The entries of `T`'s namespace that `keep` accepts, in key order.
    fn select<T: Artifact>(&self, keep: impl Fn(&T) -> bool) -> Result<Vec<T>, DbError> {
        let Some(slot) = T::slot(&self.shared.slots) else {
            let mut out = Vec::new();
            for key in self.keys::<T>()? {
                out.extend(self.get(&key)?.filter(&keep));
            }
            return Ok(out);
        };
        let map = self.bulk(slot)?;
        let mut entries: Vec<(&String, &T)> = map
            .iter()
            .filter(|(key, value)| keep(value) && value.key() == **key)
            .collect();
        entries.sort_by(|a, b| key_order(a.0, b.0));
        Ok(entries
            .into_iter()
            .map(|(_, value)| value.clone())
            .collect())
    }

    /// On-disk binary index of one namespace.
    fn index_path(&self, namespace: &str) -> PathBuf {
        self.shared
            .root
            .join("index")
            .join(format!("{namespace}.bin"))
    }

    /// Reads one entry of a snapshotted namespace: from the snapshot if
    /// one is fresh and holds the key, else from the JSON file. The
    /// first point read at a generation lazily *maps* the disk snapshot
    /// (no value decode) and subsequent reads decode single values out
    /// of the mapping; a full decode only happens on bulk loads.
    /// Anything else (no snapshot, stale, key absent, malformed value)
    /// falls back to the JSON file — files written out-of-band stay
    /// visible.
    fn point<T: Artifact>(&self, slot: &SnapshotSlot<T>, key: &str) -> Result<Option<T>, DbError> {
        let namespace = T::LAYOUT.ns;
        let mut guard = slot.lock().expect("snapshot lock");
        let generation = self.shared.generation(namespace);
        let hit = match &*guard {
            SlotState::Decoded(g, map) if *g == generation => map.get(key).cloned(),
            SlotState::Mapped(g, snap) if *g == generation => {
                snap.get(key).and_then(|v| T::from_value(&v).ok())
            }
            SlotState::Unavailable(g) if *g == generation => None,
            _ => {
                let expected = self.shared.namespace_state(namespace);
                match snapshot::MappedSnapshot::open(&self.index_path(namespace), expected) {
                    Some(snap) => {
                        let hit = snap.get(key).and_then(|v| T::from_value(&v).ok());
                        *guard = SlotState::Mapped(generation, snap);
                        hit
                    }
                    None => {
                        *guard = SlotState::Unavailable(generation);
                        None
                    }
                }
            }
        };
        drop(guard);
        match hit {
            Some(hit) => Ok(Some(hit)),
            None => T::read(self.root(), key),
        }
    }

    /// Bulk-loads a whole namespace: in-memory snapshot if fresh, else
    /// the binary disk snapshot if its content-addressed state matches,
    /// else a rebuild from the JSON tree (which also backfills the
    /// manifest and rewrites the disk snapshot).
    fn bulk<T: Artifact>(
        &self,
        slot: &SnapshotSlot<T>,
    ) -> Result<Arc<BTreeMap<String, T>>, DbError> {
        let namespace = T::LAYOUT.ns;
        let mut guard = slot.lock().expect("snapshot lock");
        let generation = self.shared.generation(namespace);
        if let SlotState::Decoded(g, map) = &*guard {
            if *g == generation {
                return Ok(Arc::clone(map));
            }
        }
        let path = self.index_path(namespace);
        let expected = self.shared.namespace_state(namespace);
        // Reuse a fresh mapping installed by an earlier point read;
        // otherwise map the disk snapshot now.
        let snap = match std::mem::replace(&mut *guard, SlotState::Empty) {
            SlotState::Mapped(g, snap) if g == generation => Some(snap),
            _ => snapshot::MappedSnapshot::open(&path, expected),
        };
        let decoded = snap.and_then(|snap| snap.decode_all()).and_then(|entries| {
            let mut map = BTreeMap::new();
            for (key, value) in entries {
                match T::from_value(&value) {
                    Ok(t) => {
                        map.insert(key, t);
                    }
                    // Undecodable snapshot (schema drift): rebuild.
                    Err(_) => return None,
                }
            }
            Some(map)
        });
        let map = match decoded {
            Some(map) => map,
            None => {
                let mut entries = Vec::new();
                for key in T::LAYOUT.keys(self.root())? {
                    if let Some(value) = T::read(self.root(), &key)? {
                        entries.push((key, value));
                    }
                }
                self.shared.adopt_outputs(namespace, &entries);
                let map: BTreeMap<String, T> = entries.into_iter().collect();
                let state = self.shared.namespace_state(namespace);
                let encoded: Vec<(&String, serde::Value)> =
                    map.iter().map(|(k, v)| (k, v.to_value())).collect();
                // Best-effort: a failed snapshot write only costs the
                // next rebuild.
                let _ = snapshot::write(&path, state, encoded.iter().map(|(k, v)| (k.as_str(), v)));
                map
            }
        };
        let generation = self.shared.generation(namespace);
        let map = Arc::new(map);
        *guard = SlotState::Decoded(generation, Arc::clone(&map));
        Ok(map)
    }

    /// Warms every namespace snapshot (building binary indices as
    /// needed) so subsequent point and bulk reads are served from
    /// memory. Sweeps call this once up front.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn preload(&self) -> Result<(), DbError> {
        let slots = &self.shared.slots;
        self.bulk(&slots.baselines)?;
        self.bulk(&slots.matrix)?;
        self.bulk(&slots.suites)?;
        self.bulk(&slots.statics)?;
        Ok(())
    }

    /// Every stored full-Linux baseline of one workload, sorted by app
    /// name.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_workload(&self, workload: Workload) -> Result<Vec<AppReport>, DbError> {
        self.select(|r: &AppReport| r.workload == workload)
    }

    /// Every stored baseline of `workload` as planner requirements.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn requirements(&self, workload: Workload) -> Result<Vec<AppRequirement>, DbError> {
        Ok(self
            .load_workload(workload)?
            .iter()
            .map(AppRequirement::from_report)
            .collect())
    }

    /// Every stored matrix cell, sorted by `(os, app, workload)`.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_matrix(&self) -> Result<Vec<MatrixCell>, DbError> {
        self.all()
    }

    /// Every stored conformance suite, sorted by `(os, workload, app)`.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_suites(&self) -> Result<Vec<ConformanceSuite>, DbError> {
        self.all()
    }

    /// Every stored static report of one level, sorted by app name.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt entries.
    pub fn load_static_level(&self, level: Level) -> Result<Vec<StaticReport>, DbError> {
        self.select(|r: &StaticReport| r.level == level)
    }

    /// Stores a matrix cell, replacing any stored one.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn save_matrix_cell_replacing(&self, cell: &MatrixCell) -> Result<(), DbError> {
        self.replace(cell.clone()).map(drop)
    }

    /// Writes an OS support spec in CSV form under `<root>/os/<name>.csv`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn save_os_spec(&self, spec: &OsSpec) -> Result<PathBuf, DbError> {
        let dir = self.shared.root.join("os");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", spec.name));
        fs::write(&path, spec.to_csv())?;
        Ok(path)
    }

    /// Reads an OS support spec back from CSV.
    ///
    /// # Errors
    ///
    /// I/O failures and unknown syscalls in the file.
    pub fn load_os_spec(&self, name: &str) -> Result<Option<OsSpec>, DbError> {
        let path = self.shared.root.join("os").join(format!("{name}.csv"));
        match fs::read_to_string(&path) {
            Ok(text) => {
                OsSpec::from_csv(name, "db", &text)
                    .map(Some)
                    .map_err(|e| DbError::Corrupt {
                        path,
                        message: e.to_string(),
                    })
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    // ----- cache manifest: provenance, currency, invalidation -----

    /// What the manifest holds for `(namespace, key)` against freshly
    /// computed `inputs` — the one question a sweep stage asks before
    /// its hit/miss/stale decision. Artifacts without provenance (raw
    /// saves, pre-manifest databases) are never current.
    pub fn provenance(
        &self,
        namespace: &str,
        key: &str,
        inputs: &BTreeMap<String, Fingerprint>,
    ) -> Provenance {
        self.shared.with_manifest(|s| {
            match s
                .manifest
                .records
                .get(namespace)
                .and_then(|records| records.get(key))
            {
                None => Provenance::Absent,
                Some(rec) if rec.inputs.as_ref() == Some(inputs) => {
                    Provenance::Current(rec.meta.clone())
                }
                Some(_) => Provenance::Outdated,
            }
        })
    }

    /// Attaches provenance (and optional metadata) to an existing
    /// artifact record — called by sweep stages right after a save, once
    /// they know which inputs produced the artifact. A no-op if no
    /// record exists.
    pub fn record_provenance(
        &self,
        namespace: &str,
        key: &str,
        inputs: BTreeMap<String, Fingerprint>,
        meta: BTreeMap<String, String>,
    ) {
        self.shared.with_manifest(|s| {
            let Some(rec) = s
                .manifest
                .records
                .get_mut(namespace)
                .and_then(|records| records.get_mut(key))
            else {
                return;
            };
            if rec.inputs.as_ref() == Some(&inputs) && rec.meta == meta {
                return;
            }
            rec.inputs = Some(inputs);
            rec.meta = meta;
            s.dirty = true;
        });
    }

    /// The recorded output fingerprint of `(namespace, key)`, if any.
    pub fn recorded_output(&self, namespace: &str, key: &str) -> Option<Fingerprint> {
        self.shared.with_manifest(|s| {
            s.manifest
                .records
                .get(namespace)
                .and_then(|records| records.get(key))
                .map(|rec| rec.output)
        })
    }

    /// Force-invalidates provenance: every record whose key matches the
    /// given OS and/or app filters (both `None` = everything) loses its
    /// inputs, so the next sweep re-measures it. Artifact files are
    /// untouched. Returns `(namespace, records invalidated)` for every
    /// tracked namespace.
    pub fn invalidate_matching(&self, os: Option<&str>, app: Option<&str>) -> Vec<(String, usize)> {
        self.shared.with_manifest(|s| {
            let mut out = Vec::new();
            for layout in LAYOUTS {
                let mut count = 0;
                if let Some(records) = s.manifest.records.get_mut(layout.ns) {
                    for (key, rec) in records.iter_mut() {
                        if rec.inputs.is_none() || !layout.matches(key, os, app) {
                            continue;
                        }
                        rec.inputs = None;
                        count += 1;
                        s.dirty = true;
                    }
                }
                out.push((layout.ns.to_owned(), count));
            }
            out
        })
    }

    /// Per-namespace `(entries tracked, entries with provenance)` counts.
    pub fn cache_entry_counts(&self) -> Vec<(String, usize, usize)> {
        self.shared.with_manifest(|s| {
            ns::ALL
                .iter()
                .map(|namespace| {
                    let (total, with) = s
                        .manifest
                        .records
                        .get(*namespace)
                        .map(|records| {
                            (
                                records.len(),
                                records.values().filter(|r| r.inputs.is_some()).count(),
                            )
                        })
                        .unwrap_or((0, 0));
                    ((*namespace).to_owned(), total, with)
                })
                .collect()
        })
    }

    /// Records one cache decision in this session's counters.
    pub fn note(&self, namespace: &str, decision: Decision) {
        self.shared
            .stats
            .lock()
            .expect("stats lock")
            .note(namespace, decision);
    }

    /// This session's accumulated cache counters.
    pub fn session_cache_stats(&self) -> CacheStats {
        self.shared.stats.lock().expect("stats lock").clone()
    }

    /// Persists this session's counters as the manifest's "last sweep"
    /// stats (shown by `loupe cache stats`) and flushes the manifest.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn persist_sweep_stats(&self) -> Result<(), DbError> {
        let stats = self.session_cache_stats();
        self.shared.with_manifest(|s| {
            if s.manifest.last_sweep.as_ref() != Some(&stats) {
                s.manifest.last_sweep = Some(stats);
                s.dirty = true;
            }
        });
        self.flush()
    }

    /// The counters persisted by the last completed sweep, if any.
    pub fn last_sweep_stats(&self) -> Option<CacheStats> {
        self.shared.with_manifest(|s| s.manifest.last_sweep.clone())
    }

    /// Writes the manifest to disk if it changed. Also runs on drop;
    /// call it explicitly when the error matters.
    ///
    /// # Errors
    ///
    /// I/O and serialisation failures.
    pub fn flush(&self) -> Result<(), DbError> {
        self.shared.flush_manifest()
    }
}

/// Conservative merge of two measurements of the same (app, workload):
/// traced counts accumulate; stub/fake capability is the logical AND
/// (anything that failed once is not safe); confirmation requires both;
/// conflict lists union (a conflict seen once is real); impact
/// annotations keep the worst observation of every metric; run
/// accounting accumulates (the merged entry cost both analyses).
pub fn merge_reports(a: &AppReport, b: &AppReport) -> AppReport {
    let mut merged = a.clone();
    merged.stats.absorb(&b.stats);
    for (s, n) in &b.traced {
        *merged.traced.entry(*s).or_insert(0) += *n;
    }
    // Fallback requirements union: a fallback path observed by either
    // measurement must be honoured by plans built on the merged entry.
    merged.fallbacks = a.fallbacks.union(&b.fallbacks);
    // Environment boundary counters accumulate like traced counts; the
    // first rejection of the earlier measurement stays first.
    for (s, n) in &b.rejections {
        *merged.rejections.entry(*s).or_insert(0) += *n;
    }
    for (s, n) in &b.fake_hits {
        *merged.fake_hits.entry(*s).or_insert(0) += *n;
    }
    if merged.first_rejection.is_none() {
        merged.first_rejection = b.first_rejection;
    }
    for (s, class_b) in &b.classes {
        let entry = merged.classes.entry(*s).or_insert(*class_b);
        *entry = FeatureClass {
            stub_ok: entry.stub_ok && class_b.stub_ok,
            fake_ok: entry.fake_ok && class_b.fake_ok,
        };
    }
    // Conflicts union, keeping a's feature order and appending b's new
    // entries in b's order: a feature that conflicted in either
    // measurement stays flagged in the merged entry.
    for s in &b.conflicts {
        if !merged.conflicts.contains(s) {
            merged.conflicts.push(*s);
        }
    }
    for (s, rec_b) in &b.impacts {
        let entry = merged.impacts.entry(*s).or_default();
        entry.stub = merge_impact(entry.stub, rec_b.stub);
        entry.fake = merge_impact(entry.fake, rec_b.fake);
    }
    for (key, class_b) in &b.sub_features {
        match merged.sub_features.iter_mut().find(|(k, _)| k == key) {
            Some((_, c)) => {
                *c = FeatureClass {
                    stub_ok: c.stub_ok && class_b.stub_ok,
                    fake_ok: c.fake_ok && class_b.fake_ok,
                }
            }
            None => merged.sub_features.push((*key, *class_b)),
        }
    }
    for (path, class_b) in &b.pseudo_files {
        let entry = merged.pseudo_files.entry(path.clone()).or_insert(*class_b);
        *entry = FeatureClass {
            stub_ok: entry.stub_ok && class_b.stub_ok,
            fake_ok: entry.fake_ok && class_b.fake_ok,
        };
    }
    merged.confirmed = a.confirmed && b.confirmed;
    merged
}

/// Conservative merge of two optional impact observations of the same
/// (syscall, mode): success only if every measured run succeeded, and
/// for each metric the worst (largest-magnitude) observed deviation —
/// repeated measurement must never make an impact look milder.
fn merge_impact(a: Option<Impact>, b: Option<Impact>) -> Option<Impact> {
    let worst = |x: f64, y: f64| if y.abs() > x.abs() { y } else { x };
    match (a, b) {
        (Some(a), Some(b)) => Some(Impact {
            success: a.success && b.success,
            tests_passed: match (a.tests_passed, b.tests_passed) {
                (Some(x), Some(y)) => Some(x && y),
                (known, None) | (None, known) => known,
            },
            perf_delta: worst(a.perf_delta, b.perf_delta),
            rss_delta: worst(a.rss_delta, b.rss_delta),
            fd_delta: worst(a.fd_delta, b.fd_delta),
        }),
        (only, None) | (None, only) => only,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{BASELINES, ENV, MATRIX, PLANS, STATIC, SUITES};
    use loupe_apps::registry;
    use loupe_core::{AnalysisConfig, Engine, ImpactRecord};
    use std::collections::BTreeMap;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("loupedb-test-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_report() -> AppReport {
        let app = registry::find("hello-musl-static").unwrap();
        Engine::new(AnalysisConfig::fast())
            .analyze(app.as_ref(), Workload::HealthCheck)
            .unwrap()
    }

    /// One namespace's row of the table: `first` and `second` share a
    /// key, and `composed` is what `put(second)` stores over `first`.
    /// Returns the key.
    fn put_get_replace<T: Artifact + PartialEq + fmt::Debug>(
        db: &Database,
        first: T,
        second: T,
        composed: T,
    ) -> String {
        let key = first.key();
        assert_eq!(second.key(), key);
        assert_eq!(
            db.get::<T>(&key).unwrap(),
            None,
            "{key}: nothing stored yet"
        );
        assert_eq!(db.put(first.clone()).unwrap(), first, "{key}: first put");
        assert_eq!(db.get::<T>(&key).unwrap().as_ref(), Some(&first));
        assert_eq!(db.put(second.clone()).unwrap(), composed, "{key}: policy");
        assert_eq!(db.get::<T>(&key).unwrap().as_ref(), Some(&composed));
        assert_eq!(db.replace(second.clone()).unwrap(), second, "{key}");
        assert_eq!(db.get::<T>(&key).unwrap().as_ref(), Some(&second));
        key
    }

    /// `T`'s namespace lists exactly `value`, under its key.
    fn lists_only<T: Artifact + PartialEq + fmt::Debug>(db: &Database, value: &T) {
        assert_eq!(db.keys::<T>().unwrap(), vec![value.key()]);
        assert_eq!(db.all::<T>().unwrap(), vec![value.clone()]);
    }

    /// A baseline report stored alongside another namespace's entries,
    /// so each namespace test can check both directions of segregation.
    fn db_with_baseline(tag: &str) -> (PathBuf, Database, AppReport) {
        let dir = tmpdir(tag);
        let db = Database::open(&dir).unwrap();
        let baseline = sample_report();
        db.put(baseline.clone()).unwrap();
        (dir, db, baseline)
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let db = Database::open(&dir).unwrap();

        // Reports: `put` merges conservatively, `replace` overwrites; a
        // restricted-environment report is keyed by its environment.
        let baseline = sample_report();
        let merged = merge_reports(&baseline, &baseline);
        let key = put_get_replace(&db, baseline.clone(), baseline.clone(), merged);
        assert_eq!(key, "hello-musl-static/health");
        let restricted = AppReport {
            env: "kerla-step3".into(),
            ..sample_report()
        };
        let merged = merge_reports(&restricted, &restricted);
        let key = put_get_replace(&db, restricted.clone(), restricted.clone(), merged);
        assert_eq!(key, "kerla-step3/hello-musl-static/health");

        // The restricted report is no baseline.
        lists_only(&db, &baseline);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suite_namespace_roundtrips_and_stays_segregated() {
        let (dir, db, baseline) = db_with_baseline("suites");

        // Suites overwrite: a suite is a deterministic compilation.
        let spec = loupe_plan::os::find("kerla").unwrap();
        let suite = ConformanceSuite::generate(&spec, &baseline, None);
        let mut shorter = suite.clone();
        shorter.cases.truncate(1);
        put_get_replace(&db, suite, shorter.clone(), shorter.clone());

        lists_only(&db, &shorter);
        lists_only(&db, &baseline);
        assert_eq!(
            db.get::<ConformanceSuite>(&suite_key("gvisor", &baseline.app, Workload::HealthCheck))
                .unwrap(),
            None
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_validation_roundtrip_and_listing() {
        use loupe_plan::{InitialVerdict, PlanValidation, StepVerdict, SupportPlan};
        let (dir, db, baseline) = db_with_baseline("plans");
        assert!(db.keys::<PlanValidation>().unwrap().is_empty());

        // Validations overwrite: one deterministic replay.
        let validation = PlanValidation {
            os: "kerla".into(),
            workload: Workload::HealthCheck,
            plan: SupportPlan {
                os: "kerla".into(),
                initially_supported: vec!["hello".into()],
                steps: vec![],
            },
            initial: vec![InitialVerdict {
                app: "hello".into(),
                passes: true,
            }],
            steps: vec![StepVerdict {
                index: 1,
                app: "redis".into(),
                unlocked: true,
                locked_before: Some(true),
            }],
        };
        let mut relocked = validation.clone();
        relocked.steps[0].unlocked = false;
        let key = put_get_replace(&db, validation, relocked.clone(), relocked.clone());
        assert_eq!(key, "kerla/health");

        lists_only(&db, &relocked);
        lists_only(&db, &baseline);
        assert_eq!(
            db.get::<PlanValidation>(&plan_key("kerla", Workload::Benchmark))
                .unwrap(),
            None
        );
        // A key of another namespace's shape is simply absent.
        assert_eq!(
            db.get::<PlanValidation>("kerla/redis/health").unwrap(),
            None
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn static_reports_live_in_their_own_level_keyed_namespace() {
        use loupe_static::{BinaryAnalyzer, SourceAnalyzer, StaticAnalyzer};
        let (dir, db, baseline) = db_with_baseline("static");

        // Static reports overwrite: analysis is a pure function.
        let redis = registry::find("redis").unwrap();
        let l0 = BinaryAnalyzer::new().analyze(redis.as_ref());
        let emptied = StaticReport {
            syscalls: loupe_syscalls::SysnoSet::new(),
            ..l0.clone()
        };
        let key = put_get_replace(&db, l0, emptied.clone(), emptied.clone());
        assert_eq!(key, static_key(Level::L0, "redis"));
        lists_only(&db, &emptied);

        // Levels do not collide with each other…
        let l3 = SourceAnalyzer::new().analyze(redis.as_ref());
        db.put(l3.clone()).unwrap();
        assert_eq!(
            db.get::<StaticReport>(&static_key(Level::L0, "redis"))
                .unwrap(),
            Some(emptied.clone())
        );
        assert_eq!(db.load_static_level(Level::L3).unwrap(), vec![l3.clone()]);
        assert_eq!(
            db.keys::<StaticReport>().unwrap(),
            vec![emptied.key(), l3.key()]
        );
        // …nor with the dynamic namespace.
        lists_only(&db, &baseline);
        assert_eq!(
            db.get::<AppReport>(&baseline_key("redis", Workload::HealthCheck))
                .unwrap(),
            None
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_cells_roundtrip_compose_and_stay_segregated() {
        use loupe_plan::TierOutcome;
        let (dir, db, baseline) = db_with_baseline("matrix");
        assert!(db.load_matrix().unwrap().is_empty());

        // Matrix cells: `put` keeps the stored tiers the new cell did
        // not measure.
        let vanilla_only = MatrixCell {
            os: "kerla".into(),
            app: "redis".into(),
            workload: Workload::HealthCheck,
            linux_pass: true,
            missing_required: [loupe_syscalls::Sysno::futex].into_iter().collect(),
            vanilla: Some(TierOutcome {
                pass: false,
                rejections: [(loupe_syscalls::Sysno::futex, 3)].into_iter().collect(),
                first_rejection: Some(loupe_syscalls::Sysno::futex),
                ..TierOutcome::default()
            }),
            planned: None,
            missing_required_flags: Vec::new(),
        };
        let planned_only = MatrixCell {
            vanilla: None,
            planned: Some(TierOutcome {
                pass: true,
                ..TierOutcome::default()
            }),
            ..vanilla_only.clone()
        };
        let both = MatrixCell {
            vanilla: vanilla_only.vanilla.clone(),
            ..planned_only.clone()
        };
        put_get_replace(&db, vanilla_only, planned_only.clone(), both);

        // The cell under `env/kerla/` is no restricted report, and the
        // baseline namespace sees only its own entry.
        lists_only(&db, &planned_only);
        lists_only(&db, &baseline);
        assert_eq!(db.get::<AppReport>("kerla/redis/health").unwrap(), None);
        assert_eq!(
            db.get::<MatrixCell>(&matrix_key("kerla", "redis", Workload::Benchmark))
                .unwrap(),
            None
        );
        // A key of another namespace's shape is simply absent.
        assert_eq!(db.get::<MatrixCell>("kerla/health").unwrap(), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_manifest_fails_open_naming_it() {
        let dir = tmpdir("manifest-dir");
        fs::create_dir_all(dir.join("manifest.json")).unwrap();
        let err = Database::open(&dir).unwrap_err().to_string();
        assert!(err.contains("manifest.json"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_is_conservative() {
        let report = sample_report();
        let mut looser = report.clone();
        let first = *looser.classes.keys().next().unwrap();
        looser.classes.insert(
            first,
            FeatureClass {
                stub_ok: true,
                fake_ok: true,
            },
        );
        let mut stricter = report.clone();
        stricter.classes.insert(
            first,
            FeatureClass {
                stub_ok: false,
                fake_ok: true,
            },
        );
        // Conflicts seen by only one measurement must survive the merge
        // (regression: merge_reports used to drop b's conflicts wholesale).
        let second = *report.classes.keys().nth(1).unwrap();
        looser.conflicts = vec![first];
        stricter.conflicts = vec![first, second];
        // Impacts too: one side measured a stub impact the other missed,
        // and where both measured, the worse observation must win.
        let mild = Impact {
            success: true,
            tests_passed: Some(true),
            perf_delta: 0.01,
            rss_delta: 0.0,
            fd_delta: 0.0,
        };
        let harsh = Impact {
            success: false,
            tests_passed: Some(false),
            perf_delta: -0.40,
            rss_delta: 0.10,
            fd_delta: 0.0,
        };
        looser.impacts.clear();
        stricter.impacts.clear();
        looser.impacts.insert(
            first,
            ImpactRecord {
                stub: Some(mild),
                fake: None,
            },
        );
        stricter.impacts.insert(
            first,
            ImpactRecord {
                stub: Some(harsh),
                fake: None,
            },
        );
        stricter.impacts.insert(
            second,
            ImpactRecord {
                stub: None,
                fake: Some(mild),
            },
        );

        let merged = merge_reports(&looser, &stricter);
        let class = merged.classes[&first];
        assert!(!class.stub_ok, "one failed stub disqualifies");
        assert!(class.fake_ok);
        // Counts accumulate — including the run accounting.
        assert_eq!(merged.traced[&first], report.traced[&first] * 2);
        assert_eq!(
            merged.stats.total_runs(),
            report.stats.total_runs() * 2,
            "a merged entry cost both analyses"
        );
        assert_eq!(
            merged.conflicts,
            vec![first, second],
            "conflict lists union, keeping feature order"
        );
        let rec = merged.impacts[&first];
        let stub = rec.stub.expect("stub impact survives the merge");
        assert!(!stub.success, "one failed observation disqualifies");
        assert_eq!(stub.tests_passed, Some(false));
        assert_eq!(stub.perf_delta, -0.40, "worst deviation wins");
        assert_eq!(stub.rss_delta, 0.10);
        assert_eq!(
            merged.impacts[&second].fake,
            Some(mild),
            "an impact measured on only one side is kept"
        );
    }

    #[test]
    fn saving_twice_merges() {
        let dir = tmpdir("merge");
        let db = Database::open(&dir).unwrap();
        let report = sample_report();
        db.put(report.clone()).unwrap();
        db.put(report.clone()).unwrap();
        let back = db
            .get::<AppReport>(&baseline_key(&report.app, Workload::HealthCheck))
            .unwrap()
            .unwrap();
        let first = *report.traced.keys().next().unwrap();
        assert_eq!(back.traced[&first], report.traced[&first] * 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn os_spec_roundtrip() {
        let dir = tmpdir("os");
        let db = Database::open(&dir).unwrap();
        let spec = loupe_plan::os::find("kerla").unwrap();
        db.save_os_spec(&spec).unwrap();
        let back = db.load_os_spec("kerla").unwrap().unwrap();
        assert_eq!(back.supported, spec.supported);
        assert!(db.load_os_spec("nonexistent").unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restricted_env_reports_are_segregated_from_baselines() {
        let dir = tmpdir("env-seg");
        let db = Database::open(&dir).unwrap();
        let mut restricted = sample_report();
        restricted.env = "kerla-step3".into();
        db.put(restricted.clone()).unwrap();

        // The dynamic (baseline) path must not see it: the cache key now
        // includes the execution environment.
        assert!(db
            .get::<AppReport>(&baseline_key(&restricted.app, Workload::HealthCheck))
            .unwrap()
            .is_none());
        assert!(db.keys::<AppReport>().unwrap().is_empty());
        // But the segregated namespace holds it.
        let back = db
            .get::<AppReport>(&env_key(
                "kerla-step3",
                &restricted.app,
                Workload::HealthCheck,
            ))
            .unwrap()
            .unwrap();
        assert_eq!(back, restricted);

        // Saving the Linux baseline afterwards does not merge with the
        // restricted entry: both coexist, each under its own key.
        let baseline = sample_report();
        db.put(baseline.clone()).unwrap();
        let served = db
            .get::<AppReport>(&baseline_key(&baseline.app, Workload::HealthCheck))
            .unwrap()
            .unwrap();
        assert_eq!(served, baseline, "baseline unpolluted by restricted run");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_restricted_entry_at_baseline_path_is_rejected() {
        // A database written before the env segregation could hold a
        // restricted-kernel measurement at the baseline path. The dynamic
        // load must reject (not serve) it, and a fresh save self-heals.
        let dir = tmpdir("env-legacy");
        let db = Database::open(&dir).unwrap();
        let mut stale = sample_report();
        stale.env = "restricted-os".into();
        let path = dir.join(&stale.app).join("health.json");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, serde_json::to_string(&stale).unwrap()).unwrap();

        assert!(
            db.get::<AppReport>(&baseline_key(&stale.app, Workload::HealthCheck))
                .unwrap()
                .is_none(),
            "restricted entry must not be served as a Linux baseline"
        );
        let fresh = sample_report();
        db.put(fresh.clone()).unwrap();
        let served = db
            .get::<AppReport>(&baseline_key(&fresh.app, Workload::HealthCheck))
            .unwrap()
            .unwrap();
        assert_eq!(
            served, fresh,
            "fresh baseline overwrites the stale entry instead of merging"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_ladder_static_paths_stay_readable() {
        use loupe_static::{BinaryAnalyzer, SourceAnalyzer, StaticAnalyzer};
        let dir = tmpdir("static-legacy");
        let redis = registry::find("redis").unwrap();
        let nginx = registry::find("nginx").unwrap();
        let legacy_l0 = BinaryAnalyzer::new().analyze(redis.as_ref());
        let legacy_l3 = SourceAnalyzer::new().analyze(redis.as_ref());
        let shadowed = BinaryAnalyzer::new().analyze(nginx.as_ref());
        let write = |rel: &str, report: &StaticReport| {
            let path = dir.join("static").join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, serde_json::to_string_pretty(report).unwrap()).unwrap();
        };
        write("binary/redis.json", &legacy_l0);
        write("source/redis.json", &legacy_l3);
        // A ladder entry wins over its pre-ladder twin.
        let mut ladder = shadowed.clone();
        ladder.syscalls = loupe_syscalls::SysnoSet::new();
        write("binary/nginx.json", &shadowed);
        write("l0/nginx.json", &ladder);

        let db = Database::open(&dir).unwrap();
        assert_eq!(
            db.keys::<StaticReport>().unwrap(),
            vec![
                static_key(Level::L0, "nginx"),
                static_key(Level::L0, "redis"),
                static_key(Level::L3, "redis")
            ]
        );
        assert_eq!(
            db.get(&static_key(Level::L0, "redis")).unwrap(),
            Some(legacy_l0.clone())
        );
        assert_eq!(
            db.get(&static_key(Level::L3, "redis")).unwrap(),
            Some(legacy_l3)
        );
        assert_eq!(
            db.load_static_level(Level::L0).unwrap(),
            vec![ladder, legacy_l0]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_cells_coexist_with_env_reports_of_the_same_os() {
        use loupe_plan::MatrixCell;
        let dir = tmpdir("matrix-env");
        let db = Database::open(&dir).unwrap();
        let mut restricted = sample_report();
        restricted.env = "kerla".into();
        db.put(restricted.clone()).unwrap();
        let cell = MatrixCell {
            os: "kerla".into(),
            app: restricted.app.clone(),
            workload: Workload::HealthCheck,
            linux_pass: true,
            missing_required: loupe_syscalls::SysnoSet::new(),
            vanilla: None,
            planned: None,
            missing_required_flags: Vec::new(),
        };
        db.put(cell.clone()).unwrap();
        // Both live under env/kerla/ without shadowing each other.
        assert!(db
            .get::<AppReport>(&env_key("kerla", &restricted.app, Workload::HealthCheck))
            .unwrap()
            .is_some());
        assert_eq!(db.load_matrix().unwrap(), vec![cell]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_entry_is_none() {
        let dir = tmpdir("missing");
        let db = Database::open(&dir).unwrap();
        assert!(db
            .get::<AppReport>(&baseline_key("ghost", Workload::Benchmark))
            .unwrap()
            .is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn provenance_lifecycle_tracks_saves_and_invalidation() {
        let dir = tmpdir("provenance");
        let db = Database::open(&dir).unwrap();
        let report = sample_report();
        let key = baseline_key(&report.app, report.workload);
        let mut inputs = BTreeMap::new();
        inputs.insert("app".to_owned(), fingerprint_of(&report.app));

        // Before any save: no record, nothing current.
        assert!(db.recorded_output(ns::BASELINES, &key).is_none());
        assert_eq!(
            db.provenance(ns::BASELINES, &key, &inputs),
            Provenance::Absent
        );

        // A raw save records the output but no provenance — the artifact
        // exists, yet is not current until a stage attaches inputs.
        db.put(report.clone()).unwrap();
        let output = db.recorded_output(ns::BASELINES, &key).unwrap();
        assert_eq!(output, fingerprint_of(&report));
        assert_eq!(
            db.provenance(ns::BASELINES, &key, &inputs),
            Provenance::Outdated
        );

        db.record_provenance(
            ns::BASELINES,
            &key,
            inputs.clone(),
            [("note".to_owned(), "x".to_owned())].into(),
        );
        assert_eq!(
            db.provenance(ns::BASELINES, &key, &inputs),
            Provenance::Current([("note".to_owned(), "x".to_owned())].into())
        );
        // Different inputs → not current.
        let mut other = inputs.clone();
        other.insert("extra".to_owned(), fingerprint_of(&1u64));
        assert_eq!(
            db.provenance(ns::BASELINES, &key, &other),
            Provenance::Outdated
        );

        // A subsequent save changes the content (merge doubles counts),
        // so the provenance is wiped until re-attached.
        db.put(report.clone()).unwrap();
        assert_eq!(
            db.provenance(ns::BASELINES, &key, &inputs),
            Provenance::Outdated
        );
        assert_ne!(db.recorded_output(ns::BASELINES, &key), Some(output));

        // Provenance survives a flush + reopen (manifest.json).
        db.record_provenance(ns::BASELINES, &key, inputs.clone(), BTreeMap::new());
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert!(matches!(
            db.provenance(ns::BASELINES, &key, &inputs),
            Provenance::Current(_)
        ));

        // Force-invalidation strips provenance without touching files.
        let counts = db.invalidate_matching(None, Some(&report.app));
        assert!(counts.contains(&(ns::BASELINES.to_owned(), 1)));
        assert_eq!(
            db.provenance(ns::BASELINES, &key, &inputs),
            Provenance::Outdated
        );
        assert!(db
            .get::<AppReport>(&baseline_key(&report.app, report.workload))
            .unwrap()
            .is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalidation_filters_respect_key_shapes() {
        assert!(MATRIX.matches("kerla/redis/health", Some("kerla"), None));
        assert!(!MATRIX.matches("gvisor/redis/health", Some("kerla"), None));
        assert!(MATRIX.matches("kerla/redis/health", None, Some("redis")));
        assert!(SUITES.matches("kerla/health/redis", Some("kerla"), Some("redis")));
        assert!(!SUITES.matches("kerla/health/redis", None, Some("health")));
        assert!(BASELINES.matches("redis/health", None, Some("redis")));
        // Baselines carry no OS dimension: an --os filter never hits them.
        assert!(!BASELINES.matches("redis/health", Some("kerla"), None));
        assert!(PLANS.matches("kerla/health", Some("kerla"), None));
        assert!(!PLANS.matches("kerla/health", None, Some("redis")));
        assert!(STATIC.matches("binary/redis", None, Some("redis")));
        // A restricted environment counts as an OS.
        assert!(ENV.matches("kerla/redis/health", Some("kerla"), Some("redis")));
        assert!(LAYOUTS.iter().map(|l| l.ns).eq(ns::ALL.iter().copied()));
        // No filters → everything matches.
        assert!(MATRIX.matches("kerla/redis/health", None, None));
    }

    #[test]
    fn concurrent_tier_saves_do_not_drop_a_tier() {
        use loupe_plan::{MatrixCell, TierOutcome};
        // Regression: putting a matrix cell composes read-modify-write; two
        // concurrent single-tier saves used to be able to interleave so
        // the second read missed the first write, dropping a tier.
        let dir = tmpdir("race");
        let db = Database::open(&dir).unwrap();
        let base = MatrixCell {
            os: "kerla".into(),
            app: "redis".into(),
            workload: Workload::HealthCheck,
            linux_pass: true,
            missing_required: loupe_syscalls::SysnoSet::new(),
            vanilla: None,
            planned: None,
            missing_required_flags: Vec::new(),
        };
        for round in 0..16 {
            let vanilla = MatrixCell {
                app: format!("redis{round}"),
                vanilla: Some(TierOutcome {
                    pass: true,
                    ..TierOutcome::default()
                }),
                ..base.clone()
            };
            let planned = MatrixCell {
                app: format!("redis{round}"),
                planned: Some(TierOutcome {
                    pass: false,
                    ..TierOutcome::default()
                }),
                ..base.clone()
            };
            let (db1, db2) = (db.clone(), db.clone());
            let t1 = std::thread::spawn(move || db1.put(vanilla).unwrap());
            let t2 = std::thread::spawn(move || db2.put(planned).unwrap());
            t1.join().unwrap();
            t2.join().unwrap();
            let cell = db
                .get::<MatrixCell>(&matrix_key(
                    "kerla",
                    &format!("redis{round}"),
                    Workload::HealthCheck,
                ))
                .unwrap()
                .unwrap();
            assert!(cell.vanilla.is_some(), "vanilla tier lost in round {round}");
            assert!(cell.planned.is_some(), "planned tier lost in round {round}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn point_reads_decode_lazily_from_the_mapped_index() {
        use loupe_plan::{MatrixCell, TierOutcome};
        let dir = tmpdir("lazypoint");
        let db = Database::open(&dir).unwrap();
        for app in ["alpha", "beta"] {
            db.put(MatrixCell {
                os: "kerla".into(),
                app: app.into(),
                workload: Workload::HealthCheck,
                linux_pass: true,
                missing_required: loupe_syscalls::SysnoSet::new(),
                vanilla: Some(TierOutcome {
                    pass: true,
                    ..TierOutcome::default()
                }),
                planned: None,
                missing_required_flags: Vec::new(),
            })
            .unwrap();
        }
        db.load_matrix().unwrap(); // materialise the binary index
        drop(db);

        // Remove one JSON entry out-of-band WITHOUT touching the
        // manifest: the index still matches the recorded state, so a
        // fresh process's *point* read must be served from the mapped
        // snapshot — no bulk decode, no JSON file needed.
        fs::remove_file(
            dir.join("env")
                .join("kerla")
                .join("matrix")
                .join("alpha")
                .join("health.json"),
        )
        .unwrap();
        let db = Database::open(&dir).unwrap();
        let cell = db
            .get::<MatrixCell>(&matrix_key("kerla", "alpha", Workload::HealthCheck))
            .unwrap()
            .expect("point read served from the mapped index");
        assert_eq!(cell.app, "alpha");
        // A key the index does not hold falls back to JSON (absent).
        assert!(db
            .get::<MatrixCell>(&matrix_key("kerla", "gamma", Workload::HealthCheck))
            .unwrap()
            .is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_snapshot_serves_bulk_reads_and_heals_on_corruption() {
        use loupe_plan::{MatrixCell, TierOutcome};
        let dir = tmpdir("binsnap");
        let db = Database::open(&dir).unwrap();
        let mut cells = Vec::new();
        for app in ["alpha", "beta", "gamma"] {
            let cell = MatrixCell {
                os: "kerla".into(),
                app: app.into(),
                workload: Workload::Benchmark,
                linux_pass: true,
                missing_required: loupe_syscalls::SysnoSet::new(),
                vanilla: Some(TierOutcome {
                    pass: app != "beta",
                    ..TierOutcome::default()
                }),
                planned: None,
                missing_required_flags: Vec::new(),
            };
            cells.push(db.put(cell).unwrap());
        }
        let loaded = db.load_matrix().unwrap();
        assert_eq!(loaded, cells);
        let bin = dir.join("index").join("matrix.bin");
        assert!(bin.is_file(), "bulk load materialises the binary index");
        drop(db);

        // A fresh process serves the same bytes from the snapshot.
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.load_matrix().unwrap(), cells);
        drop(db);

        // Corrupting the snapshot only costs a rebuild, never wrong data.
        fs::write(&bin, b"LOUPEBINgarbage").unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.load_matrix().unwrap(), cells);
        drop(db);

        // An out-of-band JSON edit is invisible while the snapshot still
        // matches the manifest (documented limitation); the remedy —
        // deleting the index — forces a rebuild that sees the new truth
        // and clears the edited cell's provenance.
        let db = Database::open(&dir).unwrap();
        db.record_provenance(
            ns::MATRIX,
            &matrix_key("kerla", "beta", Workload::Benchmark),
            BTreeMap::new(),
            BTreeMap::new(),
        );
        drop(db);
        let path = dir
            .join("env")
            .join("kerla")
            .join("matrix")
            .join("beta")
            .join("bench.json");
        let mut edited = cells[1].clone();
        edited.linux_pass = false;
        fs::write(&path, serde_json::to_string_pretty(&edited).unwrap()).unwrap();
        fs::remove_file(&bin).unwrap();

        let db = Database::open(&dir).unwrap();
        let reloaded = db.load_matrix().unwrap();
        assert_eq!(reloaded[1], edited, "rebuild sees the out-of-band edit");
        assert_eq!(
            db.provenance(
                ns::MATRIX,
                &matrix_key("kerla", "beta", Workload::Benchmark),
                &BTreeMap::new()
            ),
            Provenance::Outdated,
            "rebuild clears provenance of out-of-band-edited artifacts"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
