//! Fleet-wide support-plan validation: generate the Table 1 plan for
//! every curated OS from the sweep database's measurements, replay each
//! plan on a restricted kernel, and persist the verdicts next to the
//! measurements so the generated `SUPPORT_PLANS.md` can show *validated*
//! rather than merely *predicted* support.

use std::collections::BTreeMap;
use std::fmt;

use loupe_apps::{registry, Workload};
use loupe_core::{fingerprint_of, Fingerprint};
use loupe_db::{ns, Database, DbError, Provenance};
use loupe_plan::{
    os, AppRequirement, OsSpec, PlanValidation, PlanValidator, SupportPlan, ValidateError,
};

use crate::stage::{self, Derived, Done, Fresh, Inputs, Meta, Served, Stage};

/// Errors from a fleet-wide validation pass.
#[derive(Debug)]
pub enum PlanSweepError {
    /// Database I/O or corruption.
    Db(DbError),
    /// A plan referenced an app the registry cannot produce.
    Validate {
        /// OS whose plan failed to validate.
        os: String,
        /// The underlying error.
        error: ValidateError,
    },
}

impl fmt::Display for PlanSweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanSweepError::Db(e) => write!(f, "{e}"),
            PlanSweepError::Validate { os, error } => {
                write!(f, "validating {os} plan: {error}")
            }
        }
    }
}

impl std::error::Error for PlanSweepError {}

impl From<DbError> for PlanSweepError {
    fn from(e: DbError) -> Self {
        PlanSweepError::Db(e)
    }
}

/// Input fingerprints of one plan validation, keyed by role: a
/// validation is a deterministic replay of the plan generated from
/// exactly the OS spec and the workload's requirements.
pub fn plan_inputs(os: Fingerprint, requirements: Fingerprint) -> BTreeMap<String, Fingerprint> {
    let mut inputs = BTreeMap::new();
    inputs.insert("os".to_owned(), os);
    inputs.insert("requirements".to_owned(), requirements);
    inputs
}

/// Validates the support plan of every OS in `oses` against the stored
/// measurements of every workload in `workloads` that has reports, and
/// persists each verdict into `db`. Returns the validations in
/// `(workload, OS)` order. Workloads with no stored measurements are
/// skipped (nothing to plan from).
///
/// # Errors
///
/// Database failures and plans referencing unknown applications.
pub fn validate_plans(
    db: &Database,
    workloads: &[Workload],
    oses: &[OsSpec],
) -> Result<Vec<PlanValidation>, PlanSweepError> {
    let mut reqs = BTreeMap::new();
    for &workload in workloads {
        let workload_reqs = db.requirements(workload)?;
        if !workload_reqs.is_empty() {
            // One requirements fingerprint per workload.
            let fp = fingerprint_of(&workload_reqs);
            reqs.insert(workload, (workload_reqs, fp));
        }
    }
    let stage = Validations {
        validator: PlanValidator::new(),
        oses,
        reqs,
    };
    let jobs: Vec<(Workload, usize)> = workloads
        .iter()
        .filter(|w| stage.reqs.contains_key(w))
        .flat_map(|&w| (0..oses.len()).map(move |os| (w, os)))
        .collect();
    // One worker: validations run serially (running them in parallel
    // is a performance change to measure on its own).
    stage::run(&stage, db, &jobs, 1, false)
        .into_iter()
        .map(|outcome| match outcome? {
            Done::Cached(v) | Done::Fresh(v) => Ok(v),
        })
        .collect()
}

/// The plan stage: one validation per `(workload, OS)`.
struct Validations<'a> {
    validator: PlanValidator,
    oses: &'a [OsSpec],
    /// Each workload's requirements and their fingerprint.
    reqs: BTreeMap<Workload, (Vec<AppRequirement>, Fingerprint)>,
}

impl Stage for Validations<'_> {
    const NS: &'static str = ns::PLANS;
    type Job = (Workload, usize);
    type Out = PlanValidation;
    type Error = PlanSweepError;

    fn key(&self, &(workload, os): &Self::Job) -> (String, Inputs) {
        (
            loupe_db::plan_key(&self.oses[os].name, workload),
            plan_inputs(fingerprint_of(&self.oses[os]), self.reqs[&workload].1),
        )
    }

    fn serve(&self, db: &Database, &(workload, os): &Self::Job, _: &Meta) -> Served<Self> {
        Ok(db.get(&loupe_db::plan_key(&self.oses[os].name, workload))?)
    }

    /// Overwrites: a validation describes one deterministic replay.
    fn derive(&self, db: &Database, &(workload, os): &Self::Job, _: &Provenance) -> Fresh<Self> {
        let spec = &self.oses[os];
        let reqs = &self.reqs[&workload].0;
        let plan = SupportPlan::generate(spec, reqs);
        let validation = self
            .validator
            .validate(spec, &plan, reqs, workload, registry::find)
            .map_err(|error| PlanSweepError::Validate {
                os: spec.name.clone(),
                error,
            })?;
        Ok(Derived::saved(db.put(validation)?, Some(Meta::new())))
    }

    fn panicked(&self, &(workload, os): &Self::Job, message: String) -> PlanSweepError {
        PlanSweepError::Db(DbError::Io(std::io::Error::other(format!(
            "validating the {} plan for {workload} panicked: {message}",
            self.oses[os].name
        ))))
    }
}

/// Validates plans for the curated OS specs of §4.1 — the default set
/// `loupe sweep --validate-plans` runs.
///
/// # Errors
///
/// As for [`validate_plans`].
pub fn validate_curated_plans(
    db: &Database,
    workloads: &[Workload],
) -> Result<Vec<PlanValidation>, PlanSweepError> {
    validate_plans(db, workloads, &os::db())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sweep, SweepConfig};
    use loupe_syscalls::SysnoSet;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("loupe-plans-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn fleet_validation_persists_per_os_verdicts() {
        let dir = tmpdir("fleet");
        let db = Database::open(&dir).unwrap();
        let sweep = Sweep::new(SweepConfig {
            workloads: vec![Workload::HealthCheck],
            ..SweepConfig::default()
        });
        sweep.run(&db, registry::detailed()).unwrap();

        let oses = vec![
            os::find("kerla").unwrap(),
            OsSpec::new("bare", "0", SysnoSet::new()),
        ];
        let validations =
            validate_plans(&db, &[Workload::HealthCheck, Workload::Benchmark], &oses).unwrap();
        // Benchmark has no stored reports: only health validations exist.
        assert_eq!(validations.len(), 2);
        for v in &validations {
            assert_eq!(v.workload, Workload::HealthCheck);
            assert!(
                v.is_valid(),
                "generated plans must replay cleanly:\n{}",
                v.to_table()
            );
            let stored = db
                .get::<PlanValidation>(&loupe_db::plan_key(&v.os, v.workload))
                .unwrap()
                .expect("persisted");
            assert_eq!(&stored, v);
        }
        // Starting from nothing, every app needs a step.
        let bare = validations.iter().find(|v| v.os == "bare").unwrap();
        assert!(bare.initial.is_empty());
        assert_eq!(bare.steps.len(), 12);
        assert_eq!(
            db.keys::<PlanValidation>().unwrap().len(),
            2,
            "one verdict per (os, workload)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
