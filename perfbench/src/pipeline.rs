//! The two pipeline workloads: `cold-fleet` (the CI command sequence on
//! an empty database) and `dev-loop` (a no-op re-run of that sequence,
//! then seeded edit → gentests → compare → report cycles).
//!
//! Every stage opens its own `Database`, as each `loupe` CLI call does,
//! so the open cost users pay is inside the measurement.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use loupe_apps::{registry, Workload};
use loupe_db::{ns, Database};
use loupe_plan::{os, OsSpec, SupportPlan, Tier};
use loupe_static::Level;
use loupe_sweep::{report, GentestsConfig, MatrixConfig, Sweep, SweepConfig, TransferConfig};

use crate::{disk_usage, quantile, trace, Env, Metrics, Outcome, Rng, Run, MB};

/// Per-layer counts summed over the stages of the timed part.
#[derive(Default)]
struct Counters {
    engine_runs: u64,
    bisect_runs: u64,
    transfer_skips: u64,
    baselines_analyzed: u64,
    baselines_cached: u64,
    statics_analyzed: u64,
    plans_validated: u64,
    matrix_analyzed: u64,
    matrix_cached: u64,
    matrix_stale: u64,
    suites: u64,
    hits: u64,
    misses: u64,
    stale: u64,
}

/// One database root plus the sweep settings every stage shares.
struct Pipeline<'a> {
    env: &'a Env,
    root: PathBuf,
    sweep: SweepConfig,
    c: Counters,
}

impl<'a> Pipeline<'a> {
    fn new(env: &'a Env, root: PathBuf) -> Pipeline<'a> {
        // Pool workers × probe jobs stays within the host's cores.
        let sweep = SweepConfig {
            workloads: Workload::ALL.to_vec(),
            workers: env.nproc,
            force: false,
            transfer: None,
            analysis: loupe_core::AnalysisConfig {
                jobs: 1,
                ..loupe_core::AnalysisConfig::fast()
            },
        };
        Pipeline {
            env,
            root,
            sweep,
            c: Counters::default(),
        }
    }

    /// Runs one stage the way one CLI call does: open the database, do
    /// the work, drop (flush). `persist` stores the session's cache
    /// tallies first, as `loupe sweep`, `loupe statics` and `loupe
    /// gentests` do; `compare`, `report` and `plan` do not.
    fn stage<T>(
        &mut self,
        name: &str,
        persist: bool,
        f: impl FnOnce(&Database, &mut Counters) -> Result<T, String>,
    ) -> Result<T, String> {
        let (rec, root, c) = (&self.env.rec, &self.root, &mut self.c);
        rec.span(name, || {
            let db = rec
                .span("db.open", || Database::open(root))
                .map_err(|e| e.to_string())?;
            let out = f(&db, c)?;
            if persist {
                db.persist_sweep_stats().map_err(|e| e.to_string())?;
            }
            let t = db.session_cache_stats().total();
            c.hits += t.hits;
            c.misses += t.misses;
            c.stale += t.stale;
            Ok(out)
        })
    }

    fn matrix_cfg(&self, oses: Vec<OsSpec>) -> MatrixConfig {
        MatrixConfig {
            oses,
            tier: None,
            sweep: self.sweep.clone(),
        }
    }

    /// The stages that populate a database, in the CI's order: baseline
    /// sweep with hint transfer, static ladder, plan validation, the
    /// all-OS matrix and the conformance suites.
    fn populate(&mut self, out: &mut Outcome) {
        let mut cfg = self.sweep.clone();
        cfg.transfer = Some(TransferConfig::default());
        let r = self.stage("sweep.baselines", true, |db, c| {
            let s = Sweep::new(cfg)
                .run(db, registry::dataset())
                .map_err(|e| e.to_string())?;
            c.engine_runs += s.runs.total_runs();
            c.bisect_runs += s.runs.bisect_runs;
            c.transfer_skips += s.runs.transfer_skips;
            c.baselines_analyzed += s.analyzed as u64;
            c.baselines_cached += s.cached as u64;
            failures("baseline", &s.failures)
        });
        out.check("sweep.baselines", r);

        let workers = self.sweep.workers;
        let r = self.stage("sweep.statics", true, |db, c| {
            let s = loupe_sweep::sweep_static(db, registry::dataset(), workers, false)
                .map_err(|e| e.to_string())?;
            c.statics_analyzed += s.analyzed as u64;
            Ok(())
        });
        out.check("sweep.statics", r);

        let r = self.stage("sweep.plans", true, |db, c| {
            let v = loupe_sweep::validate_curated_plans(db, Workload::ALL)
                .map_err(|e| e.to_string())?;
            c.plans_validated += v.len() as u64;
            let invalid: Vec<String> = v
                .iter()
                .filter(|v| !v.is_valid())
                .map(|v| format!("{}/{}", v.os, v.workload.label()))
                .collect();
            if invalid.is_empty() {
                Ok(())
            } else {
                Err(format!("invalid support plans: {}", invalid.join(", ")))
            }
        });
        out.check("sweep.plans", r);

        let cfg = self.matrix_cfg(os::db());
        let r = self.stage("sweep.matrix", true, |db, c| {
            let s = loupe_sweep::sweep_matrix(db, registry::dataset(), &cfg)
                .map_err(|e| e.to_string())?;
            note_matrix(c, &s, db);
            failures("matrix", &s.failures)
        });
        out.check("sweep.matrix", r);

        let r = self.gentests("sweep.gentests", os::db(), false);
        out.check("sweep.gentests", r);
    }

    /// `sweep_gentests` over `oses`; clean means no failures, no
    /// suite-vs-matrix disagreements and (in check mode) nothing stale.
    fn gentests(&mut self, name: &str, oses: Vec<OsSpec>, check: bool) -> Result<(), String> {
        let cfg = GentestsConfig {
            matrix: self.matrix_cfg(oses),
            check,
        };
        self.stage(name, true, |db, c| {
            let s = loupe_sweep::sweep_gentests(db, registry::dataset(), &cfg)
                .map_err(|e| e.to_string())?;
            note_matrix(c, &s.base, db);
            c.suites += (s.generated + s.cached + s.stale.len()) as u64;
            failures("gentests", &s.base.failures)?;
            if !s.disagreements.is_empty() {
                let d = &s.disagreements[0];
                return Err(format!(
                    "{} suite verdict(s) disagree with the matrix, first {} x {} ({}, {})",
                    s.disagreements.len(),
                    d.os,
                    d.app,
                    d.workload,
                    d.tier.label()
                ));
            }
            if !s.stale.is_empty() {
                let (o, a, w) = &s.stale[0];
                return Err(format!(
                    "{} stored suite(s) stale, first {o}/{}/{a}",
                    s.stale.len(),
                    w.label()
                ));
            }
            Ok(())
        })
    }

    fn compare(&mut self) -> Result<(), String> {
        self.stage("sweep.compare", false, |db, _| {
            let comparisons = loupe_sweep::compare(db).map_err(|e| e.to_string())?;
            let broken: Vec<String> = comparisons
                .iter()
                .flat_map(|c| c.apps.iter().filter(|a| !a.chain_ok))
                .map(|a| a.app.clone())
                .collect();
            if broken.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0 broken for {}",
                    broken.join(", ")
                ))
            }
        })
    }

    /// `report::check` of `docs`: any drift is a failure.
    fn report_check(&mut self, docs: &Path) -> Result<(), String> {
        self.stage("sweep.report", false, |db, _| {
            let drift = report::check(db, docs).map_err(|e| e.to_string())?;
            if drift.is_empty() {
                Ok(())
            } else {
                let list: Vec<String> = drift.iter().take(5).map(|d| d.to_string()).collect();
                Err(format!(
                    "{} file(s) drifted: {}",
                    drift.len(),
                    list.join(", ")
                ))
            }
        })
    }

    /// The full CI sequence on the current database; returns the wall
    /// time of its last stage (the docs drift check) in seconds.
    fn full_sequence(&mut self, docs: &Path, out: &mut Outcome) -> f64 {
        self.populate(out);
        let r = self.gentests("sweep.gentests_check", os::db(), true);
        out.check("sweep.gentests_check", r);
        let r = self.compare();
        out.check("sweep.compare", r);
        let t = Instant::now();
        let r = self.report_check(docs);
        let check_s = t.elapsed().as_secs_f64();
        out.check("report.check", r);
        check_s
    }
}

fn failures(what: &str, f: &[loupe_sweep::SweepFailure]) -> Result<(), String> {
    match f.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{} {what} failure(s), first {} ({}): {}",
            f.len(),
            first.app,
            first.workload,
            first.error
        )),
    }
}

/// Counts of a matrix sweep (also run inside gentests). Its baseline
/// pass re-runs the engine only for entries the baseline stage lacks.
fn note_matrix(c: &mut Counters, s: &loupe_sweep::SweepSummary, db: &Database) {
    c.engine_runs += s.runs.total_runs();
    c.bisect_runs += s.runs.bisect_runs;
    c.transfer_skips += s.runs.transfer_skips;
    if let Some(m) = &s.matrix {
        c.matrix_analyzed += m.analyzed as u64;
        c.matrix_cached += m.cached as u64;
    }
    if let Some(n) = db.session_cache_stats().namespaces.get(ns::MATRIX) {
        c.matrix_stale += n.stale;
    }
}

/// Bytes this process has passed to `write` so far (`/proc/self/io`).
fn written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Per-layer metrics shared by both pipeline workloads.
fn layer_metrics(m: &mut Metrics, env: &Env, c: &Counters, root: &Path, written: u64) {
    // Only spans of the timed part: not set-up, final oracle or probes.
    let spans: Vec<trace::Span> = env
        .rec
        .spans()
        .into_iter()
        .filter(|s| s.run == "cold-pipeline" || s.run == "recheck" || s.run.starts_with("edit-"))
        .collect();
    let s = |name: &str| trace::total_s(&spans, name);
    m.set("core.engine.runs", c.engine_runs as f64);
    m.set("core.engine.bisect_runs", c.bisect_runs as f64);
    m.set("core.engine.transfer_skips", c.transfer_skips as f64);
    m.set("sweep.baselines.s", s("sweep.baselines"));
    m.set("sweep.baselines.analyzed", c.baselines_analyzed as f64);
    m.set("sweep.baselines.cached", c.baselines_cached as f64);
    m.set("sweep.statics.s", s("sweep.statics"));
    m.set("sweep.statics.analyzed", c.statics_analyzed as f64);
    m.set("sweep.plans.s", s("sweep.plans") + s("plan.generate"));
    m.set("sweep.plans.validated", c.plans_validated as f64);
    m.set("sweep.matrix.s", s("sweep.matrix"));
    m.set("sweep.matrix.analyzed", c.matrix_analyzed as f64);
    m.set("sweep.matrix.cached", c.matrix_cached as f64);
    m.set("sweep.matrix.stale", c.matrix_stale as f64);
    m.set("sweep.gentests.s", s("sweep.gentests"));
    m.set("sweep.gentests.check_s", s("sweep.gentests_check"));
    m.set("sweep.gentests.suites", c.suites as f64);
    m.set("sweep.compare.s", s("sweep.compare"));
    m.set("sweep.report.s", s("sweep.report"));
    m.set("db.open_s", s("db.open"));
    m.set("db.write_mb", written as f64 / MB);
    let (bytes, files) = disk_usage(root);
    m.set("db.size_mb", bytes as f64 / MB);
    m.set("db.files", files as f64);
    m.set("db.cache.hits", c.hits as f64);
    m.set("db.cache.misses", c.misses as f64);
    m.set("db.cache.stale", c.stale as f64);
    let decisions = c.hits + c.misses + c.stale;
    m.set(
        "db.cache.hit_ratio",
        if decisions == 0 {
            0.0
        } else {
            c.hits as f64 / decisions as f64
        },
    );
}

/// Traced probes run after the stages: a lone `report::render`, a
/// `preload`, and one bulk load per namespace, each on a fresh open.
/// Their megabytes are the namespace snapshot the bulk load decodes.
fn probe_metrics(m: &mut Metrics, env: &Env, root: &Path, out: &mut Outcome) {
    let rec = &env.rec;
    rec.set_run("probe");
    let open = || Database::open(root).map_err(|e| e.to_string());
    let mut timed = |name: &str, f: &dyn Fn(&Database) -> Result<(), String>| -> f64 {
        let r = open().and_then(|db| {
            let t = Instant::now();
            rec.span(name, || f(&db))?;
            Ok(t.elapsed().as_secs_f64())
        });
        match r {
            Ok(s) => s,
            Err(e) => {
                out.check(name, Err(e));
                0.0
            }
        }
    };
    let files = std::cell::Cell::new(0);
    let render = timed("probe.report.render", &|db| {
        let docs = report::render(db).map_err(|e| e.to_string())?;
        files.set(docs.files.len());
        Ok(())
    });
    m.set("sweep.report.render_s", render);
    m.set("sweep.report.files", files.get() as f64);
    let preload = timed("probe.db.preload", &|db| {
        db.preload().map_err(|e| e.to_string())
    });
    m.set("db.preload_s", preload);
    type Load<'a> = &'a dyn Fn(&Database) -> Result<(), String>;
    let loads: [(&str, &str, Load); 4] = [
        ("baselines", "baselines.bin", &|db| {
            for &w in Workload::ALL {
                db.load_workload(w).map_err(|e| e.to_string())?;
            }
            Ok(())
        }),
        ("matrix", "matrix.bin", &|db| {
            db.load_matrix().map(drop).map_err(|e| e.to_string())
        }),
        ("suites", "suites.bin", &|db| {
            db.load_suites().map(drop).map_err(|e| e.to_string())
        }),
        ("static", "static.bin", &|db| {
            for &l in &Level::ALL {
                db.load_static_level(l).map_err(|e| e.to_string())?;
            }
            Ok(())
        }),
    ];
    for (ns_name, snapshot, load) in loads {
        let s = timed(&format!("probe.db.load.{ns_name}"), load);
        m.set(&format!("db.load.{ns_name}_s"), s);
        let bytes = std::fs::metadata(root.join("index").join(snapshot)).map_or(0, |md| md.len());
        m.set(&format!("db.load.{ns_name}_mb"), bytes as f64 / MB);
    }
}

/// Generated files of a docs directory (what `report` renders).
fn copy_generated_docs(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to.join("apps"))?;
    for sub in ["", "apps"] {
        for entry in std::fs::read_dir(from.join(sub))? {
            let entry = entry?;
            let name = entry.file_name();
            if entry.file_type()?.is_file() && name.to_string_lossy().ends_with(".md") {
                std::fs::copy(entry.path(), to.join(sub).join(&name))?;
            }
        }
    }
    Ok(())
}

/// Rounds of the `cold-fleet` set-up whose median is reported (about a
/// second of work in all).
const SETUP_ROUNDS: usize = 1000;

/// `cold-fleet`: the CI sequence on an empty database, once. The seed
/// is recorded only: the checked-in `docs/` are the oracle, so the
/// inputs are the fixed dataset.
pub fn cold_fleet(env: &Env) -> Run {
    let mut out = Outcome::default();
    let root = env.work.join("db");
    let docs = env.repo.join("docs");

    // Set-up: open the empty database and build the fleet and OS models
    // in memory. It takes about a millisecond, so it is repeated and the
    // median reported; nothing is written, so every round sees the same
    // empty database.
    let mut setups = Vec::new();
    let mut opened = Ok(());
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let db = Database::open(&root);
        let apps = std::hint::black_box(registry::dataset());
        let oses = std::hint::black_box(os::db());
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = db {
            opened = Err(e.to_string());
        }
        drop((apps, oses));
    }
    let leftover = disk_usage(&root).1;
    if opened.is_ok() && leftover > 0 {
        opened = Err(format!(
            "set-up left {leftover} file(s) in the empty database"
        ));
    }
    out.check("setup", opened);

    env.rec.set_run("cold-pipeline");
    let mut p = Pipeline::new(env, root.clone());
    let w0 = written_bytes();
    let t = Instant::now();
    let check_s = env
        .rec
        .span("pipeline", || p.full_sequence(&docs, &mut out));
    let pipeline_s = t.elapsed().as_secs_f64();
    let written = written_bytes() - w0;

    let mut m = Metrics::default();
    m.set("setup_s", quantile(&setups, 0.5));
    m.set("op_ms", pipeline_s * 1e3);
    m.set("aux_ms", check_s * 1e3);
    if env.rec.enabled() {
        layer_metrics(&mut m, env, &p.c, &root, written);
        probe_metrics(&mut m, env, &root, &mut out);
        m.set("trace.op_ms", pipeline_s * 1e3);
        m.set("trace.aux_ms", check_s * 1e3);
    }
    Run {
        outcome: out,
        metrics: m,
        stamp: vec![
            ("fleet_apps", registry::dataset_names().len().to_string()),
            ("fleet_oses", os::db().len().to_string()),
            ("fleet_workloads", Workload::ALL.len().to_string()),
            ("sweep_workers_x_jobs", format!("{}x1", env.nproc)),
        ],
    }
}

/// Every matrix cell: (vanilla passes, planned passes, recorded output
/// fingerprint), keyed by (os, app, workload).
type MatrixState = BTreeMap<(String, String, Workload), (bool, bool, String)>;

fn matrix_state(root: &Path) -> Result<MatrixState, String> {
    let db = Database::open(root).map_err(|e| e.to_string())?;
    let cells = db.load_matrix().map_err(|e| e.to_string())?;
    Ok(cells
        .into_iter()
        .map(|cell| {
            let key = loupe_db::matrix_key(&cell.os, &cell.app, cell.workload);
            let fp = format!("{:?}", db.recorded_output(ns::MATRIX, &key));
            let passes = (cell.passes(Tier::Vanilla), cell.planned_at_least(), fp);
            ((cell.os, cell.app, cell.workload), passes)
        })
        .collect())
}

/// After an edit that only adds support to `os_name`: no app that
/// passed either tier there stops passing, and no other OS's cell
/// changed its recorded output.
fn edit_oracle(
    os_name: &str,
    before: Result<MatrixState, String>,
    after: Result<MatrixState, String>,
) -> Result<(), String> {
    let (before, after) = (before?, after?);
    let mut changed_elsewhere = 0;
    for (key, (vanilla, planned, fp)) in &before {
        let (os, app, w) = key;
        let Some((v2, p2, fp2)) = after.get(key) else {
            return Err(format!("cell {os}/{app}/{} vanished", w.label()));
        };
        if os == os_name {
            if (*vanilla && !v2) || (*planned && !p2) {
                return Err(format!(
                    "{os}/{app}/{} stopped passing after adding support",
                    w.label()
                ));
            }
        } else if fp != fp2 {
            changed_elsewhere += 1;
        }
    }
    if changed_elsewhere > 0 {
        return Err(format!("{changed_elsewhere} cell(s) of other OSes changed"));
    }
    Ok(())
}

/// Applies the first step of a support plan to the OS's spec: the
/// step's syscalls become supported and its required flag holes close.
fn apply_first_step(spec: &mut OsSpec, plan: &SupportPlan) {
    let Some(step) = plan.steps.first() else {
        return;
    };
    spec.supported.extend(step.implement.iter());
    for (_, holes) in &mut spec.partial {
        holes.retain(|h| !step.implement_flags.contains(h));
    }
    spec.partial.retain(|(_, holes)| !holes.is_empty());
}

/// The next edit: starting at a seeded (OS, workload), the first pair
/// whose support plan still has a step, with that plan.
fn next_edit(
    db: &Database,
    specs: &BTreeMap<String, OsSpec>,
    rng: &mut Rng,
) -> Result<(String, Workload, SupportPlan), String> {
    let names: Vec<&String> = specs.keys().collect();
    let (o, w) = (rng.below(names.len()), rng.below(Workload::ALL.len()));
    let mut reqs = BTreeMap::new();
    for k in 0..names.len() * Workload::ALL.len() {
        let name = names[(o + k / Workload::ALL.len()) % names.len()];
        let workload = Workload::ALL[(w + k) % Workload::ALL.len()];
        if let std::collections::btree_map::Entry::Vacant(e) = reqs.entry(workload) {
            e.insert(db.requirements(workload).map_err(|e| e.to_string())?);
        }
        let plan = SupportPlan::generate(&specs[name], &reqs[&workload]);
        if !plan.steps.is_empty() {
            return Ok((name.clone(), workload, plan));
        }
    }
    Err("no OS has a support-plan step left".into())
}

/// Edit cycles of `dev-loop`. A fixed count, so the edits behind the
/// median do not depend on how fast they run.
const EDITS: usize = 1;

/// `dev-loop`: set-up populates a database as `cold-fleet` does; the
/// timed part is one no-op re-run of the full sequence, then `EDITS`
/// seeded edit cycles (plan, edit an OS spec, gentests for that OS,
/// compare, report). The seed picks the (OS, workload) of each edit;
/// `--seconds` has no effect here.
pub fn dev_loop(env: &Env) -> Run {
    let mut out = Outcome::default();
    let root = env.work.join("db");
    let docs = env.work.join("docs");
    let mut rng = Rng::new(env.seed);

    env.rec.set_run("setup");
    let t = Instant::now();
    let mut setup = Pipeline::new(env, root.clone());
    env.rec.span("setup", || setup.populate(&mut out));
    out.check(
        "setup.docs",
        copy_generated_docs(&env.repo.join("docs"), &docs).map_err(|e| e.to_string()),
    );
    let setup_s = t.elapsed().as_secs_f64();

    // Timed part 1: the no-op re-run. Nothing may be re-analysed and
    // every cache decision must be a hit.
    env.rec.set_run("recheck");
    let mut p = Pipeline::new(env, root.clone());
    let w0 = written_bytes();
    let t = Instant::now();
    env.rec
        .span("pipeline", || p.full_sequence(&docs, &mut out));
    let recheck_s = t.elapsed().as_secs_f64();
    let c = &p.c;
    let reanalysed = c.baselines_analyzed + c.statics_analyzed + c.matrix_analyzed;
    out.check(
        "recheck.noop",
        if reanalysed == 0 && c.misses == 0 && c.stale == 0 && c.engine_runs == 0 {
            Ok(())
        } else {
            Err(format!(
                "no-op re-run analysed {reanalysed} entries, {} engine runs, {} misses, {} stale",
                c.engine_runs, c.misses, c.stale
            ))
        },
    );

    // Timed part 2: edit cycles.
    let mut specs: BTreeMap<String, OsSpec> =
        os::db().into_iter().map(|s| (s.name.clone(), s)).collect();
    let mut cycles = Vec::new();
    for n in 0..EDITS {
        env.rec.set_run(&format!("edit-{n}"));
        let before = matrix_state(&root);

        let t = Instant::now();
        let (os_name, workload, plan) = match p.stage("plan.generate", false, |db, _| {
            next_edit(db, &specs, &mut rng)
        }) {
            Ok(edit) => edit,
            Err(e) => {
                out.check("edit.plan", Err(e));
                break;
            }
        };
        let mut spec = specs[&os_name].clone();
        apply_first_step(&mut spec, &plan);
        let r = p.gentests("sweep.gentests", vec![spec.clone()], false);
        out.check("edit.gentests", r);
        let r = p.compare();
        out.check("edit.compare", r);
        let r = p.stage("sweep.report", false, |db, _| {
            report::write(db, &docs)
                .map(drop)
                .map_err(|e| e.to_string())
        });
        out.check("edit.report", r);
        cycles.push(t.elapsed().as_secs_f64());
        eprintln!(
            "edit {n}: {os_name} += step 1 of its {} plan, {:.2}s",
            workload.label(),
            cycles[n]
        );
        specs.insert(os_name.clone(), spec);
        out.check(
            "edit.oracle",
            edit_oracle(&os_name, before, matrix_state(&root)),
        );
    }
    let written = written_bytes() - w0;

    // The benchmark-owned docs match the edited database.
    env.rec.set_run("final-check");
    let mut last = Pipeline::new(env, root.clone());
    let r = last.report_check(&docs);
    out.check("final.report_check", r);

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("op_ms", quantile(&cycles, 0.5) * 1e3);
    m.set("aux_ms", recheck_s * 1e3);
    if env.rec.enabled() {
        layer_metrics(&mut m, env, &p.c, &root, written);
        probe_metrics(&mut m, env, &root, &mut out);
        m.set("trace.op_ms", quantile(&cycles, 0.5) * 1e3);
        m.set("trace.aux_ms", recheck_s * 1e3);
    }
    Run {
        outcome: out,
        metrics: m,
        stamp: vec![
            ("fleet_apps", registry::dataset_names().len().to_string()),
            ("fleet_oses", os::db().len().to_string()),
            ("fleet_workloads", Workload::ALL.len().to_string()),
            ("edits", cycles.len().to_string()),
            ("sweep_workers_x_jobs", format!("{}x1", env.nproc)),
        ],
    }
}
