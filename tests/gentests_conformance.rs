//! The gentests keystone meta-test: for every OS × workload × app cell,
//! executing the generated conformance suite on that OS's kernel
//! profiles must reproduce the empirical matrix verdict exactly — on
//! both remediation tiers. A disagreement would mean the suite
//! generator, the matrix sweep and the planner no longer tell the same
//! story about the same corpus.
//!
//! Plus the golden determinism check: the persisted suite files and the
//! rendered `CONFORMANCE.md` are byte-identical regardless of how many
//! workers generated them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use loupe::apps::{registry, Workload};
use loupe::db::{matrix_key, Database};
use loupe::plan::MatrixCell;
use loupe::plan::{os, Tier};
use loupe::sweep::{report, sweep_gentests, GentestsConfig, MatrixConfig, SweepConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loupe-gtmeta-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn cfg(workloads: Vec<Workload>, oses: Vec<loupe::plan::OsSpec>, workers: usize) -> GentestsConfig {
    GentestsConfig {
        matrix: MatrixConfig {
            oses,
            tier: None,
            sweep: SweepConfig {
                workloads,
                workers,
                ..SweepConfig::default()
            },
        },
        check: false,
    }
}

/// The acceptance criterion: all 11 curated OS profiles × all 3
/// workloads × the full 116-app fleet, and the executed suite verdict
/// equals the measured matrix verdict on the vanilla *and* planned tier
/// of every single cell — zero disagreements.
#[test]
fn generated_suites_reproduce_matrix_verdicts_fleet_wide() {
    let dir = tmpdir("fleet");
    let db = Database::open(&dir).unwrap();
    let summary = sweep_gentests(
        &db,
        registry::dataset(),
        &cfg(Workload::ALL.to_vec(), os::db(), 0),
    )
    .unwrap();

    assert_eq!(
        summary.disagreements,
        Vec::new(),
        "every generated suite agrees with its matrix cell"
    );
    assert!(summary.stale.is_empty());
    assert_eq!(
        summary.stats.len(),
        os::db().len() * Workload::ALL.len(),
        "one slice per OS x workload"
    );
    for row in &summary.stats {
        assert_eq!(row.suites, registry::dataset().len());
        assert!(row.vanilla_pass <= row.planned_pass, "{row:?}");
    }

    // Independent cross-check, not trusting the sweep's own comparison:
    // re-load every stored suite and matrix cell, re-execute the suite
    // on both tiers, and compare verdicts. Along the way, tally the
    // flag-granular machinery: suites carrying per-flag cases, and
    // failures whose first cause is a specific flag rather than a
    // whole syscall.
    let mut cells_checked = 0;
    let mut suites_with_flag_cases = 0;
    let mut flag_precise_failures = 0;
    for suite in db.load_suites().unwrap() {
        let (os_name, app, workload) = (&suite.os, &suite.app, suite.workload);
        let cell = db
            .get::<MatrixCell>(&matrix_key(os_name, app, workload))
            .unwrap()
            .expect("every suite has a matrix cell");
        let spec = os::find(os_name).unwrap();
        for tier in Tier::ALL {
            assert_eq!(
                suite.verdict(&spec, tier),
                cell.passes(tier),
                "suite vs matrix: {os_name} x {app} ({workload}, {} tier)",
                tier.label()
            );
        }
        if suite.cases.iter().any(|c| c.sub_feature.is_some()) {
            suites_with_flag_cases += 1;
        }
        // A vanilla failure on a hole-carrying OS whose suite trips a
        // flag case must name the flag (`fcntl:F_SETLK`), matching the
        // matrix cell's own flag-precise first cause.
        if !suite.verdict(&spec, Tier::Vanilla) && !spec.all_holes().is_empty() {
            let run = suite.run_on_profile(&loupe::plan::vanilla_profile(&spec));
            if let Some(cause) = run.first_failure_cause() {
                if cause.contains(':') {
                    flag_precise_failures += 1;
                    let cell_cause = cell
                        .vanilla
                        .as_ref()
                        .and_then(|t| t.first_cause())
                        .expect("failing vanilla tier names a cause");
                    assert!(
                        cell_cause.contains(':'),
                        "{os_name} x {app}: suite tripped {cause} but the                          matrix cell blames {cell_cause}"
                    );
                }
            }
        }
        cells_checked += 1;
    }
    assert_eq!(
        cells_checked,
        os::db().len() * Workload::ALL.len() * registry::dataset().len(),
        "the cross-check covered the whole matrix"
    );
    assert!(
        suites_with_flag_cases > 0,
        "the fleet exercises per-flag conformance cases"
    );
    assert!(
        flag_precise_failures > 0,
        "at least one vanilla failure is attributed to a specific flag"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Collects `gentests/` namespace files as relative path → raw bytes.
fn suite_files(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(dir: &Path, base: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, base, out);
            } else {
                out.insert(
                    path.strip_prefix(base).unwrap().to_owned(),
                    std::fs::read(&path).unwrap(),
                );
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(&root.join("gentests"), root, &mut out);
    out
}

/// Golden determinism: the same fleet generated with 1 worker and with
/// 4 workers yields byte-identical suite files and a byte-identical
/// rendered `CONFORMANCE.md`.
#[test]
fn suite_output_is_byte_identical_across_worker_counts() {
    let oses = vec![os::find("kerla").unwrap(), os::find("fuchsia").unwrap()];
    let apps = || -> Vec<_> { registry::detailed().into_iter().take(6).collect() };

    let dir_serial = tmpdir("golden-serial");
    let db_serial = Database::open(&dir_serial).unwrap();
    let one = sweep_gentests(
        &db_serial,
        apps(),
        &cfg(vec![Workload::HealthCheck], oses.clone(), 1),
    )
    .unwrap();

    let dir_parallel = tmpdir("golden-parallel");
    let db_parallel = Database::open(&dir_parallel).unwrap();
    let four = sweep_gentests(
        &db_parallel,
        apps(),
        &cfg(vec![Workload::HealthCheck], oses, 4),
    )
    .unwrap();

    assert_eq!(one.generated, 2 * 6);
    assert_eq!(one.generated, four.generated);
    assert_eq!(one.stats, four.stats);

    let files_serial = suite_files(&dir_serial);
    let files_parallel = suite_files(&dir_parallel);
    assert_eq!(files_serial.len(), 12);
    assert_eq!(
        files_serial, files_parallel,
        "persisted suites are byte-identical across worker counts"
    );

    let doc = |db: &Database| {
        report::render(db)
            .unwrap()
            .files
            .into_iter()
            .find(|(p, _)| p == Path::new("CONFORMANCE.md"))
            .expect("CONFORMANCE.md rendered when suites exist")
            .1
    };
    assert_eq!(doc(&db_serial), doc(&db_parallel));
    std::fs::remove_dir_all(&dir_serial).ok();
    std::fs::remove_dir_all(&dir_parallel).ok();
}
