//! The one cached-stage driver.
//!
//! Every cached sweep stage — baselines, the static ladder, plan
//! validation, matrix cells and conformance suites — is a [`Stage`]: a
//! list of jobs, each deriving one artifact stored under one manifest
//! key from fingerprinted inputs. [`run`] is the only code that decides
//! whether a job is a hit, a miss or stale (and what `force` changes),
//! bumps the session counters (exactly one decision per job), records
//! provenance after a save, picks the worker count and captures panics.
//! A stage only says how to answer a current job from the store and
//! how to derive and save a fresh one.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use loupe_core::Fingerprint;
use loupe_db::{Database, Decision, Provenance};

use crate::pool;

/// Fingerprints of the inputs a job's artifact is derived from, keyed
/// by role.
pub(crate) type Inputs = BTreeMap<String, Fingerprint>;

/// Small facts recorded with an artifact's provenance, which a stage
/// can answer a current job from without loading the artifact.
pub(crate) type Meta = BTreeMap<String, String>;

/// What [`Stage::serve`] returns.
pub(crate) type Served<S> = Result<Option<<S as Stage>::Out>, <S as Stage>::Error>;

/// What [`Stage::derive`] returns.
pub(crate) type Fresh<S> = Result<Derived<<S as Stage>::Out>, <S as Stage>::Error>;

/// One cached sweep stage.
pub(crate) trait Stage: Sync {
    /// Manifest namespace of the stage's artifacts.
    const NS: &'static str;
    /// Whether a forced re-derivation of an outdated entry counts as a
    /// miss rather than as stale.
    const FORCED_IS_MISS: bool = false;
    type Job: Sync;
    type Out: Send;
    type Error: Send;

    /// Manifest key of the job's artifact and the fingerprints of its
    /// inputs.
    fn key(&self, job: &Self::Job) -> (String, Inputs);

    /// Answers a job whose recorded inputs are current, from the store
    /// or from the record's `meta`; `None` when what is stored cannot
    /// answer it, and the job is derived instead.
    fn serve(&self, db: &Database, job: &Self::Job, meta: &Meta) -> Served<Self>;

    /// Derives the job's artifact and saves it. `prior` is what the
    /// manifest held for the key: a stage merges or composes with a
    /// current entry and replaces anything else.
    fn derive(&self, db: &Database, job: &Self::Job, prior: &Provenance) -> Fresh<Self>;

    /// What a job whose stage code panicked with `message` comes to.
    fn panicked(&self, job: &Self::Job, message: String) -> Self::Error;
}

/// A freshly derived job.
pub(crate) struct Derived<O> {
    pub out: O,
    /// Metadata recorded with the job's provenance; `None` when nothing
    /// was saved under the job's key.
    pub meta: Option<Meta>,
    /// The stored artifact already equalled the derived one: unless
    /// forced, the job counts as served (a hit when current, else
    /// stale) and its provenance is healed.
    pub unchanged: bool,
}

impl<O> Derived<O> {
    /// A derived artifact saved under the job's key (`meta: None` when
    /// nothing was saved there).
    pub fn saved(out: O, meta: Option<Meta>) -> Derived<O> {
        Derived {
            out,
            meta,
            unchanged: false,
        }
    }
}

/// What one job came to.
pub(crate) enum Done<O> {
    /// Answered without writing a new artifact.
    Cached(O),
    /// Derived afresh.
    Fresh(O),
}

/// Runs `jobs` of `stage` on `workers` threads (`0` picks
/// `min(available_parallelism, 16)`), returning one result per job in
/// job order regardless of scheduling. `force` re-derives current
/// entries too.
pub(crate) fn run<S: Stage>(
    stage: &S,
    db: &Database,
    jobs: &[S::Job],
    workers: usize,
    force: bool,
) -> Vec<Result<Done<S::Out>, S::Error>> {
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16)
    } else {
        workers
    };
    pool::run_jobs(workers, jobs, |job| {
        let mut decision = Decision::Miss;
        // A panicking job (e.g. a buggy app model) fails alone: the
        // worker and every other job carry on.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let (key, inputs) = stage.key(job);
            let prior = db.provenance(S::NS, &key, &inputs);
            match &prior {
                Provenance::Current(meta) if !force => {
                    if let Some(out) = stage.serve(db, job, meta)? {
                        decision = Decision::Hit;
                        return Ok(Done::Cached(out));
                    }
                }
                Provenance::Outdated if !(force && S::FORCED_IS_MISS) => {
                    decision = Decision::Stale;
                }
                _ => {}
            }
            let derived = stage.derive(db, job, &prior)?;
            let served = derived.unchanged && !force;
            if served {
                decision = match prior {
                    Provenance::Current(_) => Decision::Hit,
                    _ => Decision::Stale,
                };
            }
            if let Some(meta) = derived.meta {
                db.record_provenance(S::NS, &key, inputs, meta);
            }
            Ok(if served {
                Done::Cached(derived.out)
            } else {
                Done::Fresh(derived.out)
            })
        }));
        db.note(S::NS, decision);
        result.unwrap_or_else(|panic| Err(stage.panicked(job, panic_message(&*panic))))
    })
}

/// Renders a panic payload the way `std` does for unwinding panics.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unprintable panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loupe_core::fingerprint_of;

    /// A stage over plain numbers: job `j` stores nothing and yields
    /// `j * 2`, except job 7, which panics.
    struct Doubling;

    impl Stage for Doubling {
        const NS: &'static str = "doubling";
        type Job = usize;
        type Out = usize;
        type Error = String;

        fn key(&self, job: &usize) -> (String, Inputs) {
            (
                job.to_string(),
                [("job".to_owned(), fingerprint_of(job))].into(),
            )
        }

        fn serve(&self, _: &Database, _: &usize, _: &Meta) -> Result<Option<usize>, String> {
            Ok(None)
        }

        fn derive(
            &self,
            _: &Database,
            job: &usize,
            _: &Provenance,
        ) -> Result<Derived<usize>, String> {
            assert!(*job != 7, "job seven exploded");
            Ok(Derived::saved(job * 2, None))
        }

        fn panicked(&self, job: &usize, message: String) -> String {
            format!("job {job}: {message}")
        }
    }

    #[test]
    fn a_panicking_job_fails_alone_and_is_counted_once() {
        let dir = std::env::temp_dir().join(format!("loupe-stage-panic-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = Database::open(&dir).unwrap();
        let jobs: Vec<usize> = (0..16).collect();
        let out = run(&Doubling, &db, &jobs, 4, false);
        for (i, r) in out.iter().enumerate() {
            match r {
                Err(msg) => {
                    assert_eq!(i, 7);
                    assert!(msg.contains("job 7: job seven exploded"), "{msg}");
                }
                Ok(Done::Fresh(v)) => assert_eq!(*v, i * 2, "other jobs unaffected"),
                Ok(Done::Cached(_)) => panic!("nothing is stored"),
            }
        }
        assert!(out[7].is_err());
        let counts = db.session_cache_stats().namespaces["doubling"];
        assert_eq!((counts.hits, counts.misses, counts.stale), (0, 16, 0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
