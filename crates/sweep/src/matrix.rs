//! The fleet × OS empirical compatibility matrix (§5 at production
//! scale): sweep every application × workload across every curated OS
//! kernel profile, under remediation tiers.
//!
//! `plan --os X` answers the paper's headline question — "how much of
//! real-world software does each compatibility layer actually run, and
//! how much cheaper is stub/fake-based support than full
//! implementation?" — *analytically*, from Linux measurements. This
//! module answers it *empirically*: for each OS in
//! [`loupe_plan::os::db`], each workload and each app, the workload is
//! executed on a restricted kernel exposing
//!
//! * **vanilla** — only the syscalls the OS implements today, and
//! * **planned** — vanilla plus the support plan's stub/fake guidance
//!   for the app (no new implementations — the cheap tier),
//!
//! with the stored full-Linux baseline as the reference tier. Cells
//! persist under the database's `env/<os>/matrix/` namespace with
//! skip-if-cached semantics, riding the same bounded worker pool as the
//! dynamic and static sweeps, and aggregate into per-OS "works out of
//! the box" / "works with plan" rates plus per-app failure causes (the
//! first rejected syscall, straight from the restricted kernel's
//! boundary counters).

use std::collections::BTreeMap;

use loupe_apps::{AppModel, Workload};
use loupe_core::{fingerprint_of, AppReport, Fingerprint, TestScript};
use loupe_db::{ns, Database, DbError, Provenance};
use loupe_plan::{measure_cell, os, AppRequirement, MatrixCell, OsSpec, Tier};
use loupe_syscalls::Sysno;

use crate::stage::{self, Derived, Done, Fresh, Inputs, Meta, Served, Stage};
use crate::{sort_failures, JobError, Sweep, SweepConfig, SweepSummary};

/// Configuration of a matrix sweep.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// OS profiles to measure; defaults to the 11 curated specs of §4.1.
    pub oses: Vec<OsSpec>,
    /// Restricts the measurement to one tier: `Some(Vanilla)` skips the
    /// planned runs; `Some(Planned)` and `None` measure both (the
    /// planned tier needs the vanilla verdict — an app passing vanilla
    /// needs no remediation, so its planned verdict *is* vanilla).
    pub tier: Option<Tier>,
    /// The baseline sweep driven first (workloads, workers, force and
    /// engine configuration all apply to the matrix stage too).
    pub sweep: SweepConfig,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            oses: os::db(),
            tier: None,
            sweep: SweepConfig::default(),
        }
    }
}

/// Aggregate of one `(os, workload)` slice of the matrix — one row of
/// the generated `OS_MATRIX.md` table.
#[derive(Debug, Clone, PartialEq)]
pub struct OsWorkloadStats {
    /// OS name.
    pub os: String,
    /// Syscalls the OS implements (the profile size column).
    pub syscalls: usize,
    /// Workload aggregated.
    pub workload: Workload,
    /// Apps measured (cells present).
    pub apps: usize,
    /// Apps passing the full-Linux reference.
    pub linux_pass: usize,
    /// Apps passing with only the OS's implemented syscalls.
    pub vanilla_pass: usize,
    /// Apps passing once the plan's stub/fake guidance is applied.
    pub planned_pass: usize,
    /// Missing *required* syscalls ranked by how many failing apps need
    /// them (count desc, then syscall number) — the "what to implement
    /// next" column.
    pub top_missing: Vec<(Sysno, usize)>,
}

impl OsWorkloadStats {
    /// Vanilla pass rate over measured apps (0 when none measured).
    pub fn vanilla_rate(&self) -> f64 {
        self.vanilla_pass as f64 / self.apps.max(1) as f64
    }

    /// Planned pass rate over measured apps.
    pub fn planned_rate(&self) -> f64 {
        self.planned_pass as f64 / self.apps.max(1) as f64
    }

    /// The plan's value on this OS: apps unlocked by stub/fake work
    /// alone, without implementing a single new syscall. (Saturating:
    /// the aggregation keeps planned ≥ vanilla, but a hand-built stats
    /// row must not panic the renderer.)
    pub fn plan_gain(&self) -> usize {
        self.planned_pass.saturating_sub(self.vanilla_pass)
    }
}

/// Aggregates stored matrix cells into per-`(os, workload)` statistics,
/// ordered by `(os, workload label)`. `sizes` maps OS names to their
/// implemented-syscall counts (unknown OSes get 0). Pure — shared by
/// the sweep summary and the `OS_MATRIX.md` renderer, so both always
/// agree.
pub fn aggregate(cells: &[MatrixCell], sizes: &BTreeMap<String, usize>) -> Vec<OsWorkloadStats> {
    let mut slices: BTreeMap<(&str, &str), Vec<&MatrixCell>> = BTreeMap::new();
    for cell in cells {
        slices
            .entry((cell.os.as_str(), cell.workload.label()))
            .or_default()
            .push(cell);
    }
    slices
        .into_iter()
        .map(|((os_name, _), slice)| {
            let mut missing: BTreeMap<Sysno, usize> = BTreeMap::new();
            for cell in &slice {
                if !cell.planned_at_least() {
                    for s in cell.missing_required.iter() {
                        *missing.entry(s).or_insert(0) += 1;
                    }
                }
            }
            let mut top_missing: Vec<(Sysno, usize)> = missing.into_iter().collect();
            top_missing.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            OsWorkloadStats {
                os: os_name.to_owned(),
                syscalls: sizes.get(os_name).copied().unwrap_or(0),
                workload: slice[0].workload,
                apps: slice.len(),
                linux_pass: slice.iter().filter(|c| c.linux_pass).count(),
                vanilla_pass: slice.iter().filter(|c| c.passes(Tier::Vanilla)).count(),
                // Best-known planned verdict: a measured planned outcome,
                // or the vanilla one as a lower bound — so a `--tier
                // vanilla` sweep never shows "with plan" below vanilla.
                planned_pass: slice.iter().filter(|c| c.planned_at_least()).count(),
                top_missing,
            }
        })
        .collect()
}

/// The matrix section of a [`SweepSummary`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixSummary {
    /// Cells measured fresh in this sweep.
    pub analyzed: usize,
    /// Cells served from the database.
    pub cached: usize,
    /// Per-`(os, workload)` aggregate rows over every cell now stored
    /// for the swept OSes, ordered by `(os, workload label)`.
    pub stats: Vec<OsWorkloadStats>,
}

/// Runs the fleet × OS matrix sweep: first the plain baseline sweep
/// (skip-if-cached, exactly [`Sweep::run`]), then — for every app whose
/// baseline is stored — one cell per `(os, workload)` on the bounded
/// worker pool, with skip-if-cached semantics against the
/// `env/<os>/matrix/` namespace. The returned summary is the baseline
/// summary with [`SweepSummary::matrix`] populated.
///
/// Apps whose baseline failed (including panicking models, which the
/// stage driver isolates into per-app failures) are excluded from the
/// matrix rather than aborting it; their failures stay in
/// [`SweepSummary::failures`].
///
/// # Errors
///
/// Database I/O and corruption errors only.
pub fn sweep_matrix(
    db: &Database,
    apps: Vec<Box<dyn AppModel>>,
    cfg: &MatrixConfig,
) -> Result<SweepSummary, DbError> {
    // Stage 1: full-Linux baselines (pure cache hits when already swept).
    let sweep = Sweep::new(cfg.sweep.clone());
    let mut summary = sweep.run(db, apps)?;

    // One requirement per stored baseline. Models are re-resolved from
    // the registry by name inside each job: the boxed inputs were
    // consumed by the baseline sweep.
    let reqs: Vec<AppRequirement> = summary
        .reports
        .iter()
        .map(AppRequirement::from_report)
        .collect();
    // Fingerprints are computed once per distinct input, not once per
    // job: the cell inputs are the cross product of per-OS and per-app
    // fingerprints, so a warm sweep's per-job cost is lookups only.
    let stage = Cells {
        tier: cfg.tier,
        measures_both: cfg.tier != Some(Tier::Vanilla),
        script: TestScript::default(),
        oses: &cfg.oses,
        reports: &summary.reports,
        os_fps: cfg.oses.iter().map(fingerprint_of).collect(),
        req_fps: (reqs.iter().zip(&summary.reports))
            .map(|(req, r)| (fingerprint_of(req), fingerprint_of(&r.baseline.features)))
            .collect(),
        reqs,
    };
    let jobs: Vec<(usize, usize)> = (0..cfg.oses.len())
        .flat_map(|os| (0..stage.reqs.len()).map(move |r| (os, r)))
        .collect();
    let outcomes = stage::run(&stage, db, &jobs, cfg.sweep.workers, cfg.sweep.force);
    let mut matrix = MatrixSummary::default();
    for outcome in outcomes {
        match outcome {
            Ok(Done::Fresh(())) => matrix.analyzed += 1,
            Ok(Done::Cached(())) => matrix.cached += 1,
            Err(JobError::Failed(f)) => summary.failures.push(f),
            Err(JobError::Db(e)) => return Err(e),
        }
    }
    sort_failures(&mut summary.failures);

    // Aggregate everything now stored for the swept OSes — including
    // cells from earlier (cached) sweeps, so the summary always reflects
    // the database the docs are rendered from.
    let swept: std::collections::BTreeSet<&str> =
        cfg.oses.iter().map(|o| o.name.as_str()).collect();
    let cells: Vec<MatrixCell> = db
        .load_matrix()?
        .into_iter()
        .filter(|c| swept.contains(c.os.as_str()))
        .collect();
    matrix.stats = aggregate(&cells, &os_sizes(&cfg.oses));
    summary.matrix = Some(matrix);
    Ok(summary)
}

/// The matrix stage: one cell per `(os, app, workload)`. A cell's
/// recorded `tiers` meta (`both` or `vanilla`) says which tiers the
/// stored cell covers, so a current cell is answered without reading
/// it.
struct Cells<'a> {
    tier: Option<Tier>,
    measures_both: bool,
    script: TestScript,
    oses: &'a [OsSpec],
    /// The stored baselines, whose feature maps the runs are judged
    /// against.
    reports: &'a [AppReport],
    reqs: Vec<AppRequirement>,
    os_fps: Vec<Fingerprint>,
    /// Requirement and feature-map fingerprints, per baseline.
    req_fps: Vec<(Fingerprint, Fingerprint)>,
}

impl Stage for Cells<'_> {
    const NS: &'static str = ns::MATRIX;
    /// Indices of the OS and the baseline.
    type Job = (usize, usize);
    type Out = ();
    type Error = JobError;

    fn key(&self, &(os, r): &Self::Job) -> (String, Inputs) {
        let (req_fp, features_fp) = self.req_fps[r];
        let mut inputs = Inputs::new();
        inputs.insert("os".to_owned(), self.os_fps[os]);
        inputs.insert("requirement".to_owned(), req_fp);
        inputs.insert("features".to_owned(), features_fp);
        let report = &self.reports[r];
        let key = loupe_db::matrix_key(&self.oses[os].name, &report.app, report.workload);
        (key, inputs)
    }

    /// A cached cell satisfies the sweep only when it covers every tier
    /// this configuration measures.
    fn serve(&self, _: &Database, _: &Self::Job, meta: &Meta) -> Served<Self> {
        let covered = match meta.get("tiers").map(String::as_str) {
            Some("both") => true,
            Some("vanilla") => !self.measures_both,
            _ => false,
        };
        Ok(covered.then_some(()))
    }

    fn derive(&self, db: &Database, &(os, r): &Self::Job, prior: &Provenance) -> Fresh<Self> {
        let (app, workload) = (&self.reports[r].app, self.reports[r].workload);
        let Some(model) = loupe_apps::registry::find(app) else {
            let error = format!("no runnable model for `{app}`");
            return Err(JobError::failed(app, workload, error));
        };
        // The baseline sweep only stores reports whose baseline passed,
        // so every app reaching this point passed on full Linux.
        let cell = measure_cell(
            &self.oses[os],
            &self.reqs[r],
            model.as_ref(),
            workload,
            true,
            self.tier,
            &self.script,
            Some(&self.reports[r].baseline.features),
        );
        // A current cell that merely lacks a tier (a prior `--tier
        // vanilla` sweep) keeps its stored tiers and composes. Anything
        // else — e.g. a cell whose OS profile or baseline changed — is
        // replaced: tiers measured against outdated inputs must not
        // survive tier composition.
        let stored_both = match prior {
            Provenance::Current(meta) => {
                db.put(cell)?;
                meta.get("tiers").is_some_and(|t| t == "both")
            }
            _ => {
                db.replace(cell)?;
                false
            }
        };
        let tiers = if self.measures_both || stored_both {
            "both"
        } else {
            "vanilla"
        };
        let meta = [("tiers".to_owned(), tiers.to_owned())].into();
        Ok(Derived::saved((), Some(meta)))
    }

    fn panicked(&self, &(_, r): &Self::Job, message: String) -> JobError {
        let error = format!("matrix measurement panicked: {message}");
        JobError::failed(&self.reports[r].app, self.reports[r].workload, error)
    }
}

/// OS name → implemented-syscall count, for aggregation.
pub fn os_sizes(oses: &[OsSpec]) -> BTreeMap<String, usize> {
    oses.iter()
        .map(|o| (o.name.clone(), o.supported.len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_apps::registry;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("loupe-matrix-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_cfg(oses: Vec<OsSpec>, workers: usize) -> MatrixConfig {
        MatrixConfig {
            oses,
            tier: None,
            sweep: SweepConfig {
                workloads: vec![Workload::HealthCheck],
                workers,
                ..SweepConfig::default()
            },
        }
    }

    #[test]
    fn matrix_sweep_measures_persists_and_caches() {
        let dir = tmpdir("cache");
        let db = Database::open(&dir).unwrap();
        let oses = vec![os::find("kerla").unwrap(), os::find("gvisor").unwrap()];
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(4).collect() };

        let first = sweep_matrix(&db, apps(), &small_cfg(oses.clone(), 2)).unwrap();
        let matrix = first.matrix.as_ref().expect("matrix section present");
        assert_eq!(matrix.analyzed, 2 * 4, "2 OSes x 4 apps x 1 workload");
        assert_eq!(matrix.cached, 0);
        assert_eq!(matrix.stats.len(), 2);
        for row in &matrix.stats {
            assert_eq!(row.apps, 4);
            assert_eq!(row.linux_pass, 4);
            assert!(row.planned_pass >= row.vanilla_pass, "{row:?}");
        }
        assert!(db
            .get::<MatrixCell>(&loupe_db::matrix_key(
                "kerla",
                "redis",
                Workload::HealthCheck
            ))
            .unwrap()
            .is_some());

        // Second sweep: baselines and cells are all cache hits.
        let second = sweep_matrix(&db, apps(), &small_cfg(oses, 2)).unwrap();
        assert_eq!(second.analyzed, 0);
        let matrix = second.matrix.as_ref().unwrap();
        assert_eq!(matrix.analyzed, 0, "cells cached");
        assert_eq!(matrix.cached, 8);
        assert_eq!(matrix.stats, first.matrix.as_ref().unwrap().stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vanilla_only_sweep_is_completed_by_a_full_sweep() {
        let dir = tmpdir("tier");
        let db = Database::open(&dir).unwrap();
        let oses = vec![os::find("kerla").unwrap()];
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(2).collect() };

        let mut cfg = small_cfg(oses, 1);
        cfg.tier = Some(Tier::Vanilla);
        sweep_matrix(&db, apps(), &cfg).unwrap();
        let key = loupe_db::matrix_key("kerla", apps()[0].name(), Workload::HealthCheck);
        let cell: MatrixCell = db.get(&key).unwrap().unwrap();
        assert!(cell.vanilla.is_some());
        assert!(cell.planned.is_none(), "planned tier not measured yet");

        // A full sweep re-measures only what is missing and composes.
        cfg.tier = None;
        let full = sweep_matrix(&db, apps(), &cfg).unwrap();
        assert_eq!(full.matrix.as_ref().unwrap().analyzed, 2);
        let cell: MatrixCell = db.get(&key).unwrap().unwrap();
        assert!(cell.vanilla.is_some() && cell.planned.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aggregation_is_deterministic_and_invariant_preserving() {
        let dir = tmpdir("agg");
        let db = Database::open(&dir).unwrap();
        let cfg = small_cfg(os::db(), 0);
        let apps: Vec<_> = registry::detailed().into_iter().take(6).collect();
        let summary = sweep_matrix(&db, apps, &cfg).unwrap();
        let matrix = summary.matrix.unwrap();
        assert_eq!(matrix.stats.len(), os::db().len(), "one row per OS");
        for row in &matrix.stats {
            assert!(row.vanilla_pass <= row.planned_pass);
            assert!(row.planned_pass <= row.linux_pass);
            assert!(row.linux_pass <= row.apps);
            assert!(row.syscalls > 0, "{}: profile size rendered", row.os);
            for w in row.top_missing.windows(2) {
                assert!(w[0].1 >= w[1].1, "ranked by blocked-app count");
            }
        }
        // gvisor (211 syscalls) runs at least as much vanilla as browsix (45).
        let rate = |name: &str| {
            matrix
                .stats
                .iter()
                .find(|r| r.os == name)
                .unwrap()
                .vanilla_rate()
        };
        assert!(rate("gvisor") >= rate("browsix"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
