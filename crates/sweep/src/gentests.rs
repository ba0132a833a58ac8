//! Fleet-wide conformance-suite generation on the bounded worker pool:
//! the `loupe gentests` stage.
//!
//! Stage 1 is exactly the fleet × OS matrix sweep ([`sweep_matrix`]) —
//! pure cache hits when the database is already populated. Stage 2 then
//! compiles, for every `(os, workload, app)` cell with a stored
//! baseline, the app's measurement corpus into a
//! [`ConformanceSuite`](loupe_gentests::ConformanceSuite), persisting it
//! under the database's `gentests/<os>/<workload>/<app>.json` namespace
//! with skip-if-identical semantics. Every generated suite is
//! immediately **self-validated**: executed against the OS's vanilla
//! and planned kernel profiles, its verdicts compared with the matrix
//! cell's — a disagreement means the generator, the matrix sweep and
//! the planner no longer tell the same story, and fails the sweep's
//! caller (CI runs this on every push).
//!
//! `--check` mode regenerates in memory and compares against the stored
//! suites without writing: a mismatch (or a missing suite) is reported
//! as *stale*, mirroring `loupe report --check`'s drift contract.

use std::collections::BTreeMap;

use loupe_apps::{AppModel, Workload};
use loupe_core::{fingerprint_of, AppReport, Fingerprint};
use loupe_db::{ns, Database, DbError, Provenance};
use loupe_gentests::ConformanceSuite;
use loupe_plan::{OsSpec, Tier};

use crate::matrix::{sweep_matrix, MatrixConfig};
use crate::stage::{self, Derived, Done, Fresh, Inputs, Meta, Served, Stage};
use crate::{sort_failures, JobError, SweepSummary};

/// Configuration of a conformance-suite generation sweep.
#[derive(Debug, Clone, Default)]
pub struct GentestsConfig {
    /// The matrix sweep driven first; its OS list, workloads, worker
    /// bound and force flag govern suite generation too.
    pub matrix: MatrixConfig,
    /// Drift-check mode: regenerate in memory, compare with stored
    /// suites, write nothing. Mismatching or missing suites are
    /// reported in [`GentestsSummary::stale`].
    pub check: bool,
}

/// Aggregate of one `(os, workload)` slice of generated suites — one
/// row of `docs/CONFORMANCE.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteSliceStats {
    /// OS name.
    pub os: String,
    /// Workload the suites were generated for.
    pub workload: Workload,
    /// Suites in the slice (one per app with a stored baseline).
    pub suites: usize,
    /// Total conformance cases across the slice.
    pub cases: usize,
    /// Suites whose executed vanilla-tier verdict passes.
    pub vanilla_pass: usize,
    /// Suites whose executed planned-tier verdict passes.
    pub planned_pass: usize,
}

/// One `(suite verdict, matrix verdict)` mismatch — the self-validation
/// failure the meta-test asserts never happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// OS of the disagreeing cell.
    pub os: String,
    /// App of the disagreeing cell.
    pub app: String,
    /// Workload of the disagreeing cell.
    pub workload: Workload,
    /// Remediation tier on which the verdicts split.
    pub tier: Tier,
    /// What the executed suite said.
    pub suite_pass: bool,
    /// What the stored matrix cell said.
    pub matrix_pass: bool,
}

/// Outcome of a conformance-suite generation sweep.
#[derive(Debug)]
pub struct GentestsSummary {
    /// The underlying baseline + matrix sweep summary.
    pub base: SweepSummary,
    /// Suites generated (written) fresh in this sweep.
    pub generated: usize,
    /// Suites already stored byte-identically.
    pub cached: usize,
    /// `(os, app, workload)` cells whose stored suite is missing or no
    /// longer matches the corpus (populated only in check mode).
    pub stale: Vec<(String, String, Workload)>,
    /// Per-`(os, workload)` aggregate rows, ordered by
    /// `(os, workload label)`.
    pub stats: Vec<SuiteSliceStats>,
    /// Suite-vs-matrix verdict mismatches (empty means the generator,
    /// the matrix sweep and the planner mutually agree).
    pub disagreements: Vec<Disagreement>,
}

impl GentestsSummary {
    /// Whether the sweep is clean: no stale suites and no verdict
    /// disagreements — the condition CI enforces.
    pub fn is_clean(&self) -> bool {
        self.stale.is_empty() && self.disagreements.is_empty()
    }
}

/// Runs the conformance-suite generation sweep (see the module docs).
///
/// # Errors
///
/// Database I/O and corruption errors only; per-cell panics become
/// [`SweepFailure`](crate::SweepFailure)s on the base summary.
pub fn sweep_gentests(
    db: &Database,
    apps: Vec<Box<dyn AppModel>>,
    cfg: &GentestsConfig,
) -> Result<GentestsSummary, DbError> {
    // Stage 1: baselines + matrix cells (cache hits when populated).
    let mut summary = sweep_matrix(db, apps, &cfg.matrix)?;

    // One job per (os, stored baseline report). A suite is a pure
    // function of (OS spec, measurement report, matrix cell); the cell
    // fingerprint is the one the matrix stage just recorded.
    let os_fps: Vec<Fingerprint> = cfg.matrix.oses.iter().map(fingerprint_of).collect();
    let reports = &summary.reports;
    let report_fps: Vec<Fingerprint> = reports.iter().map(fingerprint_of).collect();
    let mut jobs = Vec::new();
    for (os_idx, os_spec) in cfg.matrix.oses.iter().enumerate() {
        for (r_idx, report) in reports.iter().enumerate() {
            let mut inputs = BTreeMap::new();
            inputs.insert("os".to_owned(), os_fps[os_idx]);
            inputs.insert("report".to_owned(), report_fps[r_idx]);
            let mkey = loupe_db::matrix_key(&os_spec.name, &report.app, report.workload);
            if let Some(fp) = db.recorded_output(ns::MATRIX, &mkey) {
                inputs.insert("cell".to_owned(), fp);
            }
            jobs.push((os_idx, r_idx, inputs));
        }
    }

    let stage = Suites {
        check: cfg.check,
        oses: &cfg.matrix.oses,
        reports,
    };
    let (workers, force) = (cfg.matrix.sweep.workers, cfg.matrix.sweep.force);
    let outcomes = stage::run(&stage, db, &jobs, workers, force);

    let mut generated = 0;
    let mut cached = 0;
    let mut stale = Vec::new();
    let mut disagreements = Vec::new();
    let mut slices: BTreeMap<(String, &'static str), SuiteSliceStats> = BTreeMap::new();
    for (outcome, &(os, r, _)) in outcomes.into_iter().zip(&jobs) {
        let (os, report) = (&cfg.matrix.oses[os], &reports[r]);
        let out = match outcome {
            Ok(Done::Cached(out)) => {
                cached += 1;
                out
            }
            Ok(Done::Fresh(out)) if cfg.check => {
                stale.push((os.name.clone(), report.app.clone(), report.workload));
                out
            }
            Ok(Done::Fresh(out)) => {
                generated += 1;
                out
            }
            Err(JobError::Failed(f)) => {
                summary.failures.push(f);
                continue;
            }
            Err(JobError::Db(e)) => return Err(e),
        };
        for (tier, suite_pass, matrix_pass) in out.disagreements {
            disagreements.push(Disagreement {
                os: os.name.clone(),
                app: report.app.clone(),
                workload: report.workload,
                tier,
                suite_pass,
                matrix_pass,
            });
        }
        let slice = slices
            .entry((os.name.clone(), report.workload.label()))
            .or_insert_with(|| SuiteSliceStats {
                os: os.name.clone(),
                workload: report.workload,
                suites: 0,
                cases: 0,
                vanilla_pass: 0,
                planned_pass: 0,
            });
        slice.suites += 1;
        slice.cases += out.cases;
        slice.vanilla_pass += usize::from(out.vanilla_pass);
        slice.planned_pass += usize::from(out.planned_pass);
    }
    sort_failures(&mut summary.failures);
    stale.sort_by(|a, b| {
        (a.0.as_str(), a.1.as_str(), a.2.label()).cmp(&(b.0.as_str(), b.1.as_str(), b.2.label()))
    });
    disagreements.sort_by(|a, b| {
        (
            a.os.as_str(),
            a.app.as_str(),
            a.workload.label(),
            a.tier.label(),
        )
            .cmp(&(
                b.os.as_str(),
                b.app.as_str(),
                b.workload.label(),
                b.tier.label(),
            ))
    });

    Ok(GentestsSummary {
        base: summary,
        generated,
        cached,
        stale,
        stats: slices.into_values().collect(),
        disagreements,
    })
}

/// What one suite contributes to the summary.
struct SuiteCell {
    cases: usize,
    vanilla_pass: bool,
    planned_pass: bool,
    disagreements: Vec<(Tier, bool, bool)>,
}

/// The suite stage: one conformance suite per `(os, app, workload)`.
/// A suite's recorded meta carries its case count, tier verdicts and
/// disagreement count, so a current suite is answered without
/// regenerating or reading it.
struct Suites<'a> {
    /// Regenerate in memory and write nothing (`--check`).
    check: bool,
    oses: &'a [OsSpec],
    reports: &'a [AppReport],
}

impl Stage for Suites<'_> {
    const NS: &'static str = ns::SUITES;
    /// A forced run re-merges every baseline, outdating its suites:
    /// those count as misses, not as stale.
    const FORCED_IS_MISS: bool = true;
    /// Indices of the OS and the report, and the suite's inputs.
    type Job = (usize, usize, Inputs);
    type Out = SuiteCell;
    type Error = JobError;

    fn key(&self, (os, r, inputs): &Self::Job) -> (String, Inputs) {
        let report = &self.reports[*r];
        let key = loupe_db::suite_key(&self.oses[*os].name, &report.app, report.workload);
        (key, inputs.clone())
    }

    /// Generation is a pure function of the recorded inputs, so this is
    /// valid in check mode too. Only clean suites take this path: one
    /// with a recorded disagreement is always re-derived.
    fn serve(&self, _: &Database, _: &Self::Job, meta: &Meta) -> Served<Self> {
        let (Some(cases), Some(vanilla_pass), Some(planned_pass), Some("0")) = (
            meta.get("cases").and_then(|s| s.parse::<usize>().ok()),
            meta.get("vanilla_pass").map(|s| s == "true"),
            meta.get("planned_pass").map(|s| s == "true"),
            meta.get("disagreements").map(String::as_str),
        ) else {
            return Ok(None);
        };
        Ok(Some(SuiteCell {
            cases,
            vanilla_pass,
            planned_pass,
            disagreements: Vec::new(),
        }))
    }

    /// Regenerates the suite and self-validates it against its OS. A
    /// stored suite with identical content is kept (the driver heals
    /// its provenance); check mode writes and records nothing.
    fn derive(&self, db: &Database, &(os, r, _): &Self::Job, _: &Provenance) -> Fresh<Self> {
        let (os, report) = (&self.oses[os], &self.reports[r]);
        let (app, workload) = (&report.app, report.workload);
        let cell = db.get(&loupe_db::matrix_key(&os.name, app, workload))?;
        let fresh = ConformanceSuite::generate(os, report, cell.as_ref());
        let key = loupe_db::suite_key(&os.name, app, workload);
        let unchanged = db.get(&key)?.as_ref() == Some(&fresh);
        let out = SuiteCell {
            cases: fresh.cases.len(),
            vanilla_pass: fresh.verdict(os, Tier::Vanilla),
            planned_pass: fresh.verdict(os, Tier::Planned),
            disagreements: fresh.disagreements(os),
        };
        if !self.check && !unchanged {
            db.put(fresh)?;
        }
        let meta = (!self.check).then(|| {
            Meta::from([
                ("cases".to_owned(), out.cases.to_string()),
                ("vanilla_pass".to_owned(), out.vanilla_pass.to_string()),
                ("planned_pass".to_owned(), out.planned_pass.to_string()),
                (
                    "disagreements".to_owned(),
                    out.disagreements.len().to_string(),
                ),
            ])
        });
        Ok(Derived {
            out,
            meta,
            unchanged,
        })
    }

    fn panicked(&self, &(_, r, _): &Self::Job, message: String) -> JobError {
        let report = &self.reports[r];
        let error = format!("suite generation panicked: {message}");
        JobError::failed(&report.app, report.workload, error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepConfig;
    use loupe_apps::registry;
    use loupe_plan::os;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("loupe-gentests-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_cfg(oses: Vec<loupe_plan::OsSpec>, workers: usize) -> GentestsConfig {
        GentestsConfig {
            matrix: MatrixConfig {
                oses,
                tier: None,
                sweep: SweepConfig {
                    workloads: vec![Workload::HealthCheck],
                    workers,
                    ..SweepConfig::default()
                },
            },
            check: false,
        }
    }

    #[test]
    fn generates_persists_caches_and_self_validates() {
        let dir = tmpdir("cache");
        let db = Database::open(&dir).unwrap();
        let oses = vec![os::find("kerla").unwrap(), os::find("gvisor").unwrap()];
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(4).collect() };

        let first = sweep_gentests(&db, apps(), &small_cfg(oses.clone(), 2)).unwrap();
        assert_eq!(first.generated, 2 * 4, "2 OSes x 4 apps x 1 workload");
        assert_eq!(first.cached, 0);
        assert!(first.is_clean(), "{:?}", first.disagreements);
        assert_eq!(first.stats.len(), 2);
        for row in &first.stats {
            assert_eq!(row.suites, 4);
            assert!(row.cases > 0);
            assert!(row.vanilla_pass <= row.planned_pass, "{row:?}");
        }
        let stored = db
            .get::<ConformanceSuite>(&loupe_db::suite_key(
                "kerla",
                "redis",
                Workload::HealthCheck,
            ))
            .unwrap()
            .expect("suite persisted");
        assert!(stored.expected.vanilla.is_some(), "verdicts carried");

        // Second sweep: everything is a cache hit; a check passes clean.
        let second = sweep_gentests(&db, apps(), &small_cfg(oses.clone(), 2)).unwrap();
        assert_eq!(second.generated, 0);
        assert_eq!(second.cached, 8);
        assert_eq!(second.stats, first.stats);
        let mut check_cfg = small_cfg(oses, 2);
        check_cfg.check = true;
        let checked = sweep_gentests(&db, apps(), &check_cfg).unwrap();
        assert_eq!(checked.cached, 8);
        assert!(checked.stale.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_mode_flags_corrupted_suites_without_writing() {
        let dir = tmpdir("check");
        let db = Database::open(&dir).unwrap();
        let oses = vec![os::find("kerla").unwrap()];
        let apps = || -> Vec<_> { registry::detailed().into_iter().take(2).collect() };

        sweep_gentests(&db, apps(), &small_cfg(oses.clone(), 1)).unwrap();
        // Tamper with one stored suite.
        let key = loupe_db::suite_key("kerla", apps()[0].name(), Workload::HealthCheck);
        let mut broken: ConformanceSuite = db.get(&key).unwrap().unwrap();
        broken.cases.pop();
        db.put(broken.clone()).unwrap();

        let mut cfg = small_cfg(oses, 1);
        cfg.check = true;
        let checked = sweep_gentests(&db, apps(), &cfg).unwrap();
        assert_eq!(checked.stale.len(), 1);
        assert!(!checked.is_clean());
        // Nothing was repaired in check mode...
        assert_eq!(db.get(&key).unwrap(), Some(broken));
        // ...but a normal sweep heals it.
        cfg.check = false;
        let healed = sweep_gentests(&db, apps(), &cfg).unwrap();
        assert_eq!(healed.generated, 1);
        assert_eq!(healed.cached, 1);
        assert!(healed.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }
}
