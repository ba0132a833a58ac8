//! The one contract every stored type meets ([`Artifact`]): the
//! path ↔ key [`Layout`] of its namespace, the key a value is stored
//! under, whether the namespace keeps a binary snapshot, and how a new
//! value folds into the stored one.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use loupe_apps::Workload;
use loupe_core::{AppReport, LINUX_ENV};
use loupe_gentests::ConformanceSuite;
use loupe_plan::{MatrixCell, PlanValidation};
use loupe_static::{Level, StaticReport};

use crate::{merge_reports, ns, read_json, snapshot, DbError};

/// A type the database stores. Implemented for full-Linux baseline and
/// restricted-environment [`AppReport`]s, [`MatrixCell`]s,
/// [`ConformanceSuite`]s, [`StaticReport`]s and [`PlanValidation`]s;
/// [`Database::get`](crate::Database::get),
/// [`put`](crate::Database::put), [`keys`](crate::Database::keys) and
/// [`all`](crate::Database::all) work over any of them.
pub trait Artifact: Clone + serde::Serialize + serde::Deserialize {
    /// Layout of the namespace `keys` and `all` address.
    const LAYOUT: &'static Layout;

    /// How `put` folds the stored entry (first argument) into a new
    /// value; `None` overwrites without reading the stored entry.
    const COMPOSE: Option<fn(Self, Self) -> Self> = None;

    /// The key `self` is stored under.
    fn key(&self) -> String;

    /// The layout holding `key`'s entry.
    fn layout(_key: &str) -> &'static Layout {
        Self::LAYOUT
    }

    /// The in-memory snapshot of the namespace; `None` keeps the type
    /// JSON-only.
    fn slot(_slots: &Slots) -> Option<&SnapshotSlot<Self>> {
        None
    }

    /// Reads one stored entry from its JSON file.
    fn read(root: &Path, key: &str) -> Result<Option<Self>, DbError> {
        read_json(&Self::layout(key).path(root, key))
    }
}

/// Baselines merge conservatively (§3.1) and live at the root;
/// restricted-environment reports (three-segment keys) live under
/// `env/`, segregated so they are never served as a baseline.
impl Artifact for AppReport {
    const LAYOUT: &'static Layout = &BASELINES;
    const COMPOSE: Option<fn(Self, Self) -> Self> =
        Some(|stored, new| merge_reports(&stored, &new));

    fn key(&self) -> String {
        if self.env == LINUX_ENV {
            baseline_key(&self.app, self.workload)
        } else {
            env_key(&self.env, &self.app, self.workload)
        }
    }

    fn layout(key: &str) -> &'static Layout {
        if key.matches('/').count() == 2 {
            &ENV
        } else {
            &BASELINES
        }
    }

    fn slot(slots: &Slots) -> Option<&SnapshotSlot<Self>> {
        Some(&slots.baselines)
    }
}

/// Tiers the new cell did not measure (`None`) keep the stored verdict,
/// so a vanilla-only sweep followed by a planned one yields one
/// complete cell.
impl Artifact for MatrixCell {
    const LAYOUT: &'static Layout = &MATRIX;
    const COMPOSE: Option<fn(Self, Self) -> Self> = Some(|stored, mut new| {
        new.vanilla = new.vanilla.or(stored.vanilla);
        new.planned = new.planned.or(stored.planned);
        new
    });

    fn key(&self) -> String {
        matrix_key(&self.os, &self.app, self.workload)
    }

    fn slot(slots: &Slots) -> Option<&SnapshotSlot<Self>> {
        Some(&slots.matrix)
    }
}

/// Overwrites: a suite is a deterministic compilation of the corpus.
impl Artifact for ConformanceSuite {
    const LAYOUT: &'static Layout = &SUITES;

    fn key(&self) -> String {
        suite_key(&self.os, &self.app, self.workload)
    }

    fn slot(slots: &Slots) -> Option<&SnapshotSlot<Self>> {
        Some(&slots.suites)
    }
}

/// Overwrites: static analysis is a pure function of the app's code.
impl Artifact for StaticReport {
    const LAYOUT: &'static Layout = &STATIC;

    fn key(&self) -> String {
        static_key(self.level, &self.app)
    }

    fn slot(slots: &Slots) -> Option<&SnapshotSlot<Self>> {
        Some(&slots.statics)
    }

    /// Falls back to the pre-ladder location (`static/binary/`,
    /// `static/source/`), so databases written before the L0–L3 ladder
    /// keep serving their artifacts; writes always use the ladder path.
    fn read(root: &Path, key: &str) -> Result<Option<Self>, DbError> {
        if let Some(report) = read_json(&STATIC.path(root, key))? {
            return Ok(Some(report));
        }
        let (label, app) = key.split_once('/').expect("static key is level/app");
        match level_of(label).and_then(Level::legacy_label) {
            Some(legacy) => read_json(&STATIC.path(root, &format!("{legacy}/{app}"))),
            None => Ok(None),
        }
    }
}

/// Overwrites: a validation describes one deterministic replay.
impl Artifact for PlanValidation {
    const LAYOUT: &'static Layout = &PLANS;

    fn key(&self) -> String {
        plan_key(&self.os, self.workload)
    }
}

/// Manifest key of a full-Linux baseline report.
pub fn baseline_key(app: &str, workload: Workload) -> String {
    format!("{app}/{}", workload.label())
}

/// Manifest key of a restricted-environment report.
pub fn env_key(env: &str, app: &str, workload: Workload) -> String {
    format!("{env}/{app}/{}", workload.label())
}

/// Manifest key of a fleet × OS matrix cell.
pub fn matrix_key(os: &str, app: &str, workload: Workload) -> String {
    format!("{os}/{app}/{}", workload.label())
}

/// Manifest key of a conformance suite (mirrors the on-disk layout:
/// `gentests/<os>/<workload>/<app>.json`).
pub fn suite_key(os: &str, app: &str, workload: Workload) -> String {
    format!("{os}/{}/{app}", workload.label())
}

/// Manifest key of a static-analysis report.
pub fn static_key(level: Level, app: &str) -> String {
    format!("{}/{app}", level.label())
}

/// Manifest key of a plan validation.
pub fn plan_key(os: &str, workload: Workload) -> String {
    format!("{os}/{}", workload.label())
}

/// In-memory snapshot cache of one namespace, keyed by the manifest
/// generation it reflects.
pub type SnapshotSlot<T> = Mutex<SlotState<T>>;

/// What the process currently knows about one namespace's snapshot.
/// The states form a ladder — `Empty` → (`Unavailable` | `Mapped`) →
/// `Decoded` — climbed lazily: a point read maps the disk snapshot and
/// decodes single values out of it; only a bulk read pays for decoding
/// the whole namespace. Any generation bump resets the ladder.
pub enum SlotState<T> {
    /// Nothing learned yet.
    Empty,
    /// No usable disk snapshot at this generation — point reads go
    /// straight to the JSON files without re-probing the index.
    Unavailable(u64),
    /// Disk snapshot memory-mapped and validated; values decode
    /// per-key on demand.
    Mapped(u64, snapshot::MappedSnapshot),
    /// Whole namespace decoded into memory.
    Decoded(u64, Arc<BTreeMap<String, T>>),
}

/// The snapshot slots of the snapshotted namespaces. Plans and
/// restricted-environment reports are JSON-only.
pub struct Slots {
    pub(crate) baselines: SnapshotSlot<AppReport>,
    pub(crate) matrix: SnapshotSlot<MatrixCell>,
    pub(crate) suites: SnapshotSlot<ConformanceSuite>,
    pub(crate) statics: SnapshotSlot<StaticReport>,
}

impl Slots {
    pub(crate) fn new() -> Slots {
        Slots {
            baselines: Mutex::new(SlotState::Empty),
            matrix: Mutex::new(SlotState::Empty),
            suites: Mutex::new(SlotState::Empty),
            statics: Mutex::new(SlotState::Empty),
        }
    }
}

/// One piece of a namespace's on-disk path.
#[derive(Clone, Copy, PartialEq)]
enum Seg {
    /// A literal directory name.
    Dir(&'static str),
    /// A key segment naming an OS (or a restricted environment).
    Os,
    /// A key segment naming an application.
    App,
    /// A key segment that must be a workload label.
    Workload,
    /// A key segment that must be a static-analysis level label; the
    /// pre-ladder `binary`/`source` directories read as L0/L3.
    Level,
}

impl Seg {
    /// The key segment a stored directory or file stem stands for, if
    /// it is a valid one.
    fn canonical(self, name: &str) -> Option<String> {
        match self {
            Seg::Workload => workload_of(name).map(|_| name.to_owned()),
            Seg::Level => level_of(name).map(|l| l.label().to_owned()),
            Seg::Dir(_) | Seg::Os | Seg::App => Some(name.to_owned()),
        }
    }
}

/// Path ↔ key layout of one namespace, relative to the database root:
/// the key's segments appear in the path in key order, and the last
/// one names the `.json` file.
pub struct Layout {
    pub(crate) ns: &'static str,
    path: &'static [Seg],
}

/// Full-Linux baselines at the root, the shape every loupedb has always
/// had: `<app>/<wl>.json`.
pub(crate) const BASELINES: Layout = Layout {
    ns: ns::BASELINES,
    path: &[Seg::App, Seg::Workload],
};
/// Restricted-environment reports, segregated so they can never be
/// confused with a baseline: `env/<env>/<app>/<wl>.json`.
pub(crate) const ENV: Layout = Layout {
    ns: ns::ENV,
    path: &[Seg::Dir("env"), Seg::Os, Seg::App, Seg::Workload],
};
/// Matrix cells inside their OS's environment (no app may be called
/// `matrix`): `env/<os>/matrix/<app>/<wl>.json`.
pub(crate) const MATRIX: Layout = Layout {
    ns: ns::MATRIX,
    path: &[
        Seg::Dir("env"),
        Seg::Os,
        Seg::Dir("matrix"),
        Seg::App,
        Seg::Workload,
    ],
};
/// `plans/<os>/<wl>.json`.
pub(crate) const PLANS: Layout = Layout {
    ns: ns::PLANS,
    path: &[Seg::Dir("plans"), Seg::Os, Seg::Workload],
};
/// `gentests/<os>/<wl>/<app>.json`.
pub(crate) const SUITES: Layout = Layout {
    ns: ns::SUITES,
    path: &[Seg::Dir("gentests"), Seg::Os, Seg::Workload, Seg::App],
};
/// `static/<level>/<app>.json`.
pub(crate) const STATIC: Layout = Layout {
    ns: ns::STATIC,
    path: &[Seg::Dir("static"), Seg::Level, Seg::App],
};

/// Every tracked namespace's layout, in [`ns::ALL`] order.
pub(crate) const LAYOUTS: &[&Layout] = &[&BASELINES, &ENV, &MATRIX, &PLANS, &STATIC, &SUITES];

/// Root directories that belong to other namespaces (or to none), so
/// never to a baseline app.
const RESERVED: &[&str] = &["env", "plans", "os", "static", "gentests", "index"];

impl Layout {
    /// The file holding `key`'s artifact under `root`.
    pub(crate) fn path(&self, root: &Path, key: &str) -> PathBuf {
        let mut parts = key.split('/');
        let mut path = root.to_path_buf();
        for (i, seg) in self.path.iter().enumerate() {
            let part = match seg {
                Seg::Dir(dir) => dir,
                _ => parts.next().expect("key has one segment per layout slot"),
            };
            if i + 1 == self.path.len() {
                path.push(format!("{part}.json"));
            } else {
                path.push(part);
            }
        }
        path
    }

    /// Whether `key` has one segment per key slot of the layout.
    pub(crate) fn fits(&self, key: &str) -> bool {
        let slots = self.path.iter().filter(|s| !matches!(s, Seg::Dir(_)));
        slots.count() == key.split('/').count()
    }

    /// Every key stored under `root`, sorted. A pre-ladder static entry
    /// and its ladder twin are one key.
    pub(crate) fn keys(&self, root: &Path) -> Result<BTreeSet<String>, DbError> {
        let mut out = BTreeSet::new();
        walk(root, self.path, true, &mut Vec::new(), &mut out)?;
        Ok(out)
    }

    /// Whether `key` names the given OS and/or app. A `None` filter
    /// matches everything; a set filter matches only layouts whose keys
    /// carry that dimension (baselines have no OS, plans no app).
    pub(crate) fn matches(&self, key: &str, os: Option<&str>, app: Option<&str>) -> bool {
        let named = |want: Seg| {
            self.path
                .iter()
                .filter(|s| !matches!(s, Seg::Dir(_)))
                .zip(key.split('/'))
                .find_map(|(&seg, part)| (seg == want).then_some(part))
        };
        os.is_none_or(|want| named(Seg::Os) == Some(want))
            && app.is_none_or(|want| named(Seg::App) == Some(want))
    }
}

/// The one namespace walker: descends `segs` from `dir`, collecting the
/// key of every entry that fits the layout.
fn walk(
    dir: &Path,
    segs: &[Seg],
    top: bool,
    key: &mut Vec<String>,
    out: &mut BTreeSet<String>,
) -> Result<(), DbError> {
    let Some((&seg, rest)) = segs.split_first() else {
        out.insert(key.join("/"));
        return Ok(());
    };
    if let Seg::Dir(name) = seg {
        return walk(&dir.join(name), rest, false, key, out);
    }
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let stem = if rest.is_empty() {
            name.strip_suffix(".json")
        } else if entry.file_type()?.is_dir() && !(top && RESERVED.contains(&name.as_str())) {
            Some(name.as_str())
        } else {
            None
        };
        let Some(part) = stem.and_then(|stem| seg.canonical(stem)) else {
            continue;
        };
        key.push(part);
        walk(&entry.path(), rest, false, key, out)?;
        key.pop();
    }
    Ok(())
}

/// The [`Workload`] a stored label names.
fn workload_of(label: &str) -> Option<Workload> {
    Workload::ALL.iter().copied().find(|w| w.label() == label)
}

/// The [`Level`] a stored label names, ladder or pre-ladder.
fn level_of(label: &str) -> Option<Level> {
    Level::ALL
        .into_iter()
        .find(|l| l.label() == label || l.legacy_label() == Some(label))
}
