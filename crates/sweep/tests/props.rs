//! Property tests for the static-vs-dynamic comparison invariants:
//! whatever the per-app syscall sets look like, as long as the
//! structural containment dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0 holds, every
//! overestimation factor the pipeline computes is ≥ 1 and non-increasing
//! up the ladder, the per-app chain flag agrees, and importance vectors
//! — dynamic and static, both riding the one shared implementation —
//! come out sorted descending and NaN-free. A second family generates
//! random [`ProgramGraph`]s and checks the analyser itself: the ladder
//! is sound (dynamic ⊆ L3) and monotone, and every witness re-walks.

use std::collections::BTreeMap;
use std::path::PathBuf;

use loupe_apps::libc::LibcFlavor;
use loupe_apps::program::{CallEdge, Function, NumberOperand, ProgramGraph, SyscallSite};
use loupe_apps::Workload;
use loupe_core::{AppReport, BaselineStats, FeatureClass, LINUX_ENV};
use loupe_db::Database;
use loupe_plan::importance_fractions;
use loupe_static::{analyze_graph, api_importance, verify_witness, Level, StaticReport};
use loupe_syscalls::{Sysno, SysnoSet};
use proptest::prelude::*;

/// Dense x86-64 syscall range: random index sets overlap enough to
/// exercise sharing and ties.
fn pool() -> Vec<Sysno> {
    (0u32..330).filter_map(Sysno::from_raw).collect()
}

fn pick(idxs: &[usize]) -> SysnoSet {
    let pool = pool();
    idxs.iter().map(|i| pool[i % pool.len()]).collect()
}

/// Builds the nested (dynamic, [L3, L2, L1, L0]) sets from one seed
/// chunk: dynamic ⊆ L3 ⊆ L2 ⊆ L1 ⊆ L0 by construction.
fn nested_sets(chunk: &[usize]) -> (SysnoSet, [SysnoSet; 4]) {
    let fifth = (chunk.len() / 5).max(1);
    let at = |i: usize| (i * fifth).min(chunk.len());
    let dynamic = pick(&chunk[..at(1)]);
    let l3 = dynamic.union(&pick(&chunk[at(1)..at(2)]));
    let l2 = l3.union(&pick(&chunk[at(2)..at(3)]));
    let l1 = l2.union(&pick(&chunk[at(3)..at(4)]));
    let l0 = l1.union(&pick(&chunk[at(4)..]));
    (dynamic, [l3, l2, l1, l0])
}

/// Persists the four ladder reports for `app` (finest set first, as
/// produced by [`nested_sets`]).
fn save_ladder(db: &Database, app: &str, fine_first: &[SysnoSet; 4]) {
    for (i, &level) in Level::ALL.iter().enumerate() {
        db.put(StaticReport {
            app: app.to_owned(),
            level,
            syscalls: fine_first[3 - i].clone(),
            witnesses: Vec::new(),
        })
        .unwrap();
    }
}

/// A synthetic dynamic report whose traced set is `dynamic` and whose
/// required set alternates (every other traced syscall is required, the
/// rest stubbable) — enough structure for plan generation to differ
/// between the dynamic and static requirement definitions.
fn synthetic_report(app: &str, dynamic: &SysnoSet) -> AppReport {
    let mut traced = BTreeMap::new();
    let mut classes = BTreeMap::new();
    for (i, s) in dynamic.iter().enumerate() {
        traced.insert(s, 1 + i as u64);
        classes.insert(
            s,
            FeatureClass {
                stub_ok: i % 2 == 1,
                fake_ok: false,
            },
        );
    }
    AppReport {
        app: app.to_owned(),
        version: "1".into(),
        env: LINUX_ENV.into(),
        workload: Workload::HealthCheck,
        traced,
        classes,
        fallbacks: SysnoSet::new(),
        rejections: BTreeMap::new(),
        fake_hits: BTreeMap::new(),
        first_rejection: None,
        impacts: BTreeMap::new(),
        sub_features: vec![],
        pseudo_files: BTreeMap::new(),
        conflicts: vec![],
        confirmed: true,
        baseline: BaselineStats::default(),
        stats: Default::default(),
    }
}

fn tmpdir(tag: &str, case: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "loupe-sweep-props-{tag}-{case}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #[test]
    fn factors_at_least_one_whenever_containment_holds(
        seed in proptest::collection::vec(0usize..4000, 15..75)
    ) {
        let chunks: Vec<&[usize]> = seed.chunks(15).collect();
        let dir = tmpdir("factors", seed.iter().sum::<usize>() % 7919);
        let db = Database::open(&dir).unwrap();
        for (i, chunk) in chunks.iter().enumerate() {
            let (dynamic, ladder) = nested_sets(chunk);
            let app = format!("prop-app-{i}");
            db.put(synthetic_report(&app, &dynamic)).unwrap();
            save_ladder(&db, &app, &ladder);
        }

        let comparisons = loupe_sweep::compare(&db).unwrap();
        prop_assert_eq!(comparisons.len(), 1);
        let c = &comparisons[0];
        prop_assert_eq!(c.apps.len(), chunks.len());
        prop_assert!(c.invariants_hold());
        for a in &c.apps {
            prop_assert!(a.chain_ok, "{}: containment holds by construction", a.app);
            prop_assert!(a.chain_breaks.is_empty(), "{}", a.app);
            // ≥ 1 at the finest level, non-increasing up the ladder.
            prop_assert!(
                a.level(Level::L3).over_used >= 1.0,
                "{}: {}", a.app, a.level(Level::L3).over_used
            );
            for pair in a.levels.windows(2) {
                prop_assert!(
                    pair[0].over_used >= pair[1].over_used,
                    "{}: {} < {}", a.app, pair[0].level.label(), pair[1].level.label()
                );
            }
            for l in &a.levels {
                prop_assert!(l.over_required >= l.over_used, "{}", a.app);
                prop_assert!(l.over_used.is_finite() && l.over_required.is_finite(), "{}", a.app);
            }
        }
        for i in 0..4 {
            prop_assert!(c.mean_factor[i] >= 1.0 && c.mean_factor[i].is_finite());
            prop_assert!(c.median_factor[i] >= 1.0 && c.median_factor[i].is_finite());
            if i > 0 {
                prop_assert!(c.mean_factor[i - 1] >= c.mean_factor[i]);
            }
        }
        // Static plans can never implement fewer syscalls than the
        // dynamic plan: static requirements are supersets — and coarser
        // levels are supersets of finer ones.
        for d in &c.plan_deltas {
            prop_assert!(d.implemented(Level::L3) >= d.dynamic_implemented, "{}", d.os);
            for pair in Level::ALL.windows(2) {
                prop_assert!(
                    d.implemented(pair[0]) >= d.implemented(pair[1]),
                    "{}: {} < {}", d.os, pair[0].label(), pair[1].label()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_containment_violation_is_flagged_not_hidden(
        seed in proptest::collection::vec(0usize..4000, 10..40)
    ) {
        // L3 deliberately misses part of the dynamic set: the
        // comparison must flag the app rather than report factors as if
        // all were well. The rest of the chain stays intact (the
        // crippled L3 is a subset of the dynamic set, which sits inside
        // every coarser level).
        let (dynamic, ladder) = nested_sets(&seed);
        prop_assume!(dynamic.len() >= 2);
        let crippled: SysnoSet = dynamic.iter().skip(1).collect();
        let dir = tmpdir("violation", seed.iter().sum::<usize>() % 7919);
        let db = Database::open(&dir).unwrap();
        db.put(synthetic_report("broken", &dynamic)).unwrap();
        let broken = [crippled, ladder[1].clone(), ladder[2].clone(), ladder[3].clone()];
        save_ladder(&db, "broken", &broken);

        let comparisons = loupe_sweep::compare(&db).unwrap();
        let c = &comparisons[0];
        prop_assert!(!c.invariants_hold());
        prop_assert!(!c.apps[0].chain_ok);
        let (link, missing) = &c.apps[0].chain_breaks[0];
        prop_assert!(link.contains("l3"), "{link}");
        prop_assert_eq!(missing.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn importance_vectors_sorted_descending_and_nan_free(
        seed in proptest::collection::vec(0usize..4000, 3..60)
    ) {
        let sets: Vec<SysnoSet> = seed.chunks(5).map(pick).collect();
        let dynamic = importance_fractions(&sets);
        let static_reports: Vec<StaticReport> = sets
            .iter()
            .enumerate()
            .map(|(i, s)| StaticReport {
                app: format!("app-{i}"),
                level: Level::Binary,
                syscalls: s.clone(),
                witnesses: Vec::new(),
            })
            .collect();
        let statics = api_importance(&static_reports);

        // Both rankings ride the same shared implementation; identical
        // inputs must give identical output.
        prop_assert_eq!(&dynamic, &statics);
        for ranking in [&dynamic, &statics] {
            for w in ranking.windows(2) {
                prop_assert!(w[0].1 >= w[1].1, "sorted descending: {:?}", w);
                // Deterministic tie-break: ascending syscall number.
                if w[0].1 == w[1].1 {
                    prop_assert!(w[0].0 < w[1].0, "tie-break: {:?}", w);
                }
            }
            for &(s, f) in ranking.iter() {
                prop_assert!(f.is_finite() && !f.is_nan(), "{s}: {f}");
                prop_assert!((0.0..=1.0).contains(&f), "{s}: fraction {f}");
            }
        }
    }

    #[test]
    fn generated_graphs_keep_the_ladder_sound_and_witnessed(
        seeds in proptest::collection::vec(0u64..u64::MAX, 2..24)
    ) {
        // Assemble an arbitrary-but-valid graph: each function is
        // bit-sliced out of one u64 seed (syscall, site shape, flags,
        // signature class, callees), indices are wrapped to range, and
        // `validate()`'s rules are applied as fix-ups afterwards (an
        // indirect `actual` that is not a legal candidate becomes
        // `None`; direct edges from linked code only target linked
        // functions so the dynamic walk stays inside linked code).
        let n = seeds.len();
        let pool = pool();
        let mut functions: Vec<Function> = seeds
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let sysno = pool[(w & 0xFFFF) as usize % pool.len()];
                let sites = match (w >> 16) & 3 {
                    0 => vec![],
                    1 => vec![SyscallSite { number: NumberOperand::Const(sysno) }],
                    2 => vec![SyscallSite {
                        number: NumberOperand::Register { resolvable: Some(sysno) },
                    }],
                    _ => vec![SyscallSite {
                        number: NumberOperand::Register { resolvable: None },
                    }],
                };
                let taken = (w >> 18) & 1 == 1;
                let sig = ((w >> 19) % 14) as u8;
                let direct = (w >> 25) & 1 == 1;
                // The entry function must be source-linked and outside
                // error paths or nothing is dynamically reachable.
                let linked = (w >> 26) & 1 == 1 || i == 0;
                let error = (w >> 27) & 1 == 1 && i != 0;
                let calls = (0..((w >> 28) & 3) as usize)
                    .map(|k| {
                        let target = ((w >> (30 + 7 * k)) & 0x7F) as usize % n;
                        if direct {
                            CallEdge::Direct { target }
                        } else {
                            CallEdge::Indirect { sig, actual: Some(target) }
                        }
                    })
                    .collect();
                Function {
                    name: format!("f{i}"),
                    object: format!("obj{}.o", i % 3),
                    source_linked: linked,
                    address_taken: taken,
                    sig,
                    error_path: error,
                    calls,
                    sites,
                }
            })
            .collect();

        // Fix-ups to satisfy `validate()`: a direct edge from linked
        // code must stay in linked code (drop the edge otherwise), and
        // an indirect `actual` must be a legal dynamic target.
        let snapshot = functions.clone();
        for f in &mut functions {
            if f.source_linked {
                f.calls.retain(|e| match e {
                    CallEdge::Direct { target } => snapshot[*target].source_linked,
                    CallEdge::Indirect { .. } => true,
                });
            }
            for e in &mut f.calls {
                if let CallEdge::Indirect { sig, actual } = e {
                    if let Some(t) = actual {
                        let cand = &snapshot[*t];
                        if !(cand.address_taken
                            && cand.sig == *sig
                            && cand.source_linked
                            && !cand.error_path)
                        {
                            *actual = None;
                        }
                    }
                }
            }
        }

        let graph = ProgramGraph {
            app: "prop".into(),
            libc: LibcFlavor::MuslStatic,
            entry: 0,
            functions,
        };
        prop_assert_eq!(graph.validate(), Ok(()));

        // Soundness and monotonicity of the ladder, witnesses included.
        let reports: Vec<StaticReport> =
            Level::ALL.iter().map(|&l| analyze_graph(&graph, l)).collect();
        for pair in reports.windows(2) {
            prop_assert!(
                pair[1].syscalls.is_subset(&pair[0].syscalls),
                "{} ⊄ {}", pair[1].level.label(), pair[0].level.label()
            );
        }
        let dynamic = graph.dynamic_reachable();
        prop_assert!(
            dynamic.is_subset(&reports[3].syscalls),
            "dynamic ⊄ L3: {:?}",
            dynamic.difference(&reports[3].syscalls)
        );
        for r in &reports {
            prop_assert_eq!(r.witnesses.len(), r.syscalls.len());
            for w in &r.witnesses {
                prop_assert!(r.syscalls.contains(w.sysno));
                if let Err(e) = verify_witness(&graph, r.level, w) {
                    prop_assert!(false, "{} witness for {}: {e}", r.level.label(), w.sysno.name());
                }
            }
        }
    }
}

/// Deterministic anchor, not a sampled property: the containment
/// invariant holds for the *real* fleet — every registry app's
/// source view within its binary view, and the health-check workload's
/// dynamic trace within the source view (the engine-backed half for the
/// full 116-app dataset; heavier workloads are covered for the detailed
/// apps by `loupe-sweep`'s unit tests).
#[test]
fn real_fleet_respects_containment_on_health_checks() {
    use loupe_core::{AnalysisConfig, Engine};
    use loupe_static::{BinaryAnalyzer, SourceAnalyzer, StaticAnalyzer};

    let engine = Engine::new(AnalysisConfig::fast());
    let bin = BinaryAnalyzer::new();
    let src = SourceAnalyzer::new();
    for app in loupe_apps::registry::dataset() {
        let b = bin.analyze(app.as_ref());
        let s = src.analyze(app.as_ref());
        assert!(
            s.syscalls.is_subset(&b.syscalls),
            "{}: source ⊄ binary",
            app.name()
        );
        let report = engine
            .analyze(app.as_ref(), Workload::HealthCheck)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let used = report.traced().union(&report.fallbacks);
        let missing = used.difference(&s.syscalls);
        assert!(
            missing.is_empty(),
            "{}: dynamic ⊄ source, source misses {missing}",
            app.name()
        );
    }
}
