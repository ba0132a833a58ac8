//! Cross-crate integration tests: the full pipeline from app models
//! through the engine, static analysers, planner and database.

use loupe::apps::{registry, Workload};
use loupe::core::{Action, AnalysisConfig, Engine, Interposed, Policy};
use loupe::db::Database;
use loupe::kernel::{Kernel, LinuxSim};
use loupe::plan::{os, AppRequirement, SupportPlan};
use loupe::statics::{BinaryAnalyzer, SourceAnalyzer, StaticAnalyzer};
use loupe::syscalls::Sysno;

fn fast_engine() -> Engine {
    Engine::new(AnalysisConfig::fast())
}

#[test]
fn every_detailed_app_passes_every_workload_baseline() {
    let engine = fast_engine();
    for app in registry::detailed() {
        for workload in [
            Workload::HealthCheck,
            Workload::Benchmark,
            Workload::TestSuite,
        ] {
            let report = engine
                .analyze(app.as_ref(), workload)
                .unwrap_or_else(|e| panic!("{} fails its {} baseline: {e}", app.name(), workload));
            assert!(
                !report.required().is_empty(),
                "{} {}: something must be required",
                app.name(),
                workload
            );
        }
    }
}

#[test]
fn analysis_hierarchy_holds_for_every_detailed_app() {
    // The Fig. 4 invariant: required ⊆ traced ⊆ source view ∪ libc ⊆
    // binary view — dynamic results must be consistent with the static
    // ones for the measurement comparison to make sense.
    let engine = fast_engine();
    let src = SourceAnalyzer::new();
    let bin = BinaryAnalyzer::new();
    for app in registry::detailed() {
        let report = engine.analyze(app.as_ref(), Workload::TestSuite).unwrap();
        let traced = report.traced();
        let required = report.required();
        let binary = bin.analyze(app.as_ref()).syscalls;
        let source = src.analyze(app.as_ref()).syscalls;
        assert!(required.is_subset(&traced), "{}", app.name());
        assert!(
            traced.is_subset(&binary),
            "{}: traced ⊄ binary view: {}",
            app.name(),
            traced.difference(&binary)
        );
        assert!(source.is_subset(&binary), "{}", app.name());
        assert!(
            required.len() < binary.len() / 3,
            "{}: static must heavily overestimate (required {} vs binary {})",
            app.name(),
            required.len(),
            binary.len()
        );
    }
}

#[test]
fn suite_requirements_dominate_benchmark_requirements() {
    // Deeper workloads can only add requirements (§3.2: workloads are
    // levels of guarantee).
    let engine = fast_engine();
    for name in ["redis", "nginx", "sqlite"] {
        let app = registry::find(name).unwrap();
        let bench = engine.analyze(app.as_ref(), Workload::Benchmark).unwrap();
        let suite = engine.analyze(app.as_ref(), Workload::TestSuite).unwrap();
        assert!(
            suite.traced().len() >= bench.traced().len(),
            "{name}: suites trace at least as much"
        );
        assert!(
            suite.required().len() >= bench.required().len(),
            "{name}: suites require at least as much"
        );
    }
}

#[test]
fn fundamental_syscalls_are_required_across_the_board() {
    // §5.2: "certain system calls can (almost) never be stubbed nor
    // faked": execve, the TLS arch_prctl, mmap, and the socket trio for
    // servers.
    let engine = fast_engine();
    for name in ["nginx", "redis", "haproxy", "lighttpd"] {
        let app = registry::find(name).unwrap();
        let required = engine
            .analyze(app.as_ref(), Workload::Benchmark)
            .unwrap()
            .required();
        for s in [
            Sysno::execve,
            Sysno::arch_prctl,
            Sysno::mmap,
            Sysno::socket,
            Sysno::bind,
            Sysno::listen,
        ] {
            assert!(required.contains(s), "{name}: {s} must be required");
        }
    }
}

#[test]
fn identity_setters_are_fakeable_but_not_stubbable_for_nginx() {
    // Fig. 6b's pattern: checked calls abort on -ENOSYS but tolerate a
    // faked success (meaningless in a unikernel).
    let engine = fast_engine();
    let app = registry::find("nginx").unwrap();
    let report = engine.analyze(app.as_ref(), Workload::Benchmark).unwrap();
    for s in [Sysno::prctl, Sysno::setuid, Sysno::setgid, Sysno::setgroups] {
        let class = report.classes[&s];
        assert!(!class.stub_ok, "nginx checks {s}: stub must fail");
        assert!(class.fake_ok, "nginx survives faked {s}");
    }
}

#[test]
fn lighttpd_tolerates_stubbed_privilege_drop_unlike_nginx() {
    // Diversity across apps (Table 1: Kerla *stubs* 105/106/116 for
    // Lighttpd but must fake them for Nginx).
    let engine = fast_engine();
    let lighttpd = registry::find("lighttpd").unwrap();
    let report = engine
        .analyze(lighttpd.as_ref(), Workload::Benchmark)
        .unwrap();
    for s in [Sysno::setuid, Sysno::setgid, Sysno::setgroups] {
        assert!(
            report.classes[&s].stub_ok,
            "lighttpd warns-and-continues on {s}"
        );
    }
}

#[test]
fn full_pipeline_measure_store_plan() {
    // Measure → persist → reload → plan, end to end.
    let dir = std::env::temp_dir().join(format!("loupe-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::open(&dir).unwrap();

    let engine = fast_engine();
    for name in ["weborf", "webfsd", "sqlite"] {
        let app = registry::find(name).unwrap();
        let report = engine.analyze(app.as_ref(), Workload::HealthCheck).unwrap();
        db.put(report.clone()).unwrap();
    }

    let reqs = db.requirements(Workload::HealthCheck).unwrap();
    assert_eq!(reqs.len(), 3);

    let kerla = os::find("kerla").unwrap();
    let plan = SupportPlan::generate(&kerla, &reqs);
    assert_eq!(
        plan.initially_supported.len() + plan.steps.len(),
        3,
        "every app is either supported or planned"
    );
    // Plans are deterministic.
    let plan2 = SupportPlan::generate(&kerla, &reqs);
    assert_eq!(plan, plan2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_count_matches_the_paper_formula() {
    // §3.3: (2 + 2·s) · r runs per analysis.
    for replicas in [1u32, 2] {
        let engine = Engine::new(AnalysisConfig {
            replicas,
            ..AnalysisConfig::fast()
        });
        let app = registry::find("hello-glibc-static").unwrap();
        let report = engine.analyze(app.as_ref(), Workload::HealthCheck).unwrap();
        assert!(report.stats.matches_formula(), "{:?}", report.stats);
        assert_eq!(
            report.stats.total_runs(),
            (2 + 2 * report.stats.features_tested) * u64::from(replicas)
        );
    }
}

#[test]
fn interposed_kernel_behaves_like_plain_kernel_when_allowing_all() {
    let mut plain = LinuxSim::new();
    let mut wrapped = Interposed::new(LinuxSim::new(), Policy::allow_all());
    for sysno in [Sysno::getpid, Sysno::getuid, Sysno::brk, Sysno::uname] {
        let a = plain.syscall(&loupe::kernel::Invocation::new(sysno, [0; 6]));
        let b = wrapped.syscall(&loupe::kernel::Invocation::new(sysno, [0; 6]));
        assert_eq!(a, b, "{sysno}");
    }
}

#[test]
fn confirmation_policy_composes_for_detailed_apps() {
    // The final combined run (§3.1) must hold for the deep-dive apps.
    let engine = fast_engine();
    for name in ["nginx", "redis", "memcached", "sqlite", "weborf"] {
        let app = registry::find(name).unwrap();
        let report = engine.analyze(app.as_ref(), Workload::Benchmark).unwrap();
        assert!(report.confirmed, "{name}: combined stub/fake policy failed");
    }
}

#[test]
fn pseudo_file_interposition_classifies_special_files() {
    let engine = Engine::new(AnalysisConfig {
        explore_pseudo_files: true,
        ..AnalysisConfig::fast()
    });
    let app = registry::find("h2o").unwrap();
    let report = engine.analyze(app.as_ref(), Workload::HealthCheck).unwrap();
    // h2o touches /dev/urandom only in the getrandom fallback; nothing
    // else uses pseudo-files in the health path, so the map may be empty —
    // but when entries exist they must carry a classification.
    for (path, class) in &report.pseudo_files {
        assert!(path.starts_with("/proc") || path.starts_with("/dev") || path.starts_with("/sys"));
        let _ = class.label();
    }
}

#[test]
fn sub_feature_analysis_finds_partial_implementations() {
    // §5.4: fcntl mixes required (F_SETFL) and stubbable (F_SETFD)
    // features; arch_prctl needs only ARCH_SET_FS.
    let engine = Engine::new(AnalysisConfig {
        explore_sub_features: true,
        ..AnalysisConfig::fast()
    });
    let app = registry::find("redis").unwrap();
    let report = engine.analyze(app.as_ref(), Workload::Benchmark).unwrap();
    let setfl = report
        .sub_features
        .iter()
        .find(|(k, _)| k.selector_name() == Some("F_SETFL"));
    let (_, class) = setfl.expect("redis uses fcntl(F_SETFL)");
    assert!(class.is_required(), "F_SETFL is the non-blocking gate");
    let arch = report
        .sub_features
        .iter()
        .find(|(k, _)| k.selector_name() == Some("ARCH_SET_FS"));
    let (_, class) = arch.expect("TLS setup traced");
    assert!(class.is_required());
}

#[test]
fn strict_perf_policy_disqualifies_noisy_stubs() {
    // Under PerfPolicy::Strict, the nginx access-log write stub (which
    // *speeds up* the server by >3%) is no longer an acceptable stub.
    use loupe::core::PerfPolicy;
    let lenient = fast_engine();
    let strict = Engine::new(AnalysisConfig {
        perf_policy: PerfPolicy::Strict,
        ..AnalysisConfig::fast()
    });
    let app = registry::find("nginx").unwrap();
    let l = lenient.analyze(app.as_ref(), Workload::Benchmark).unwrap();
    let s = strict.analyze(app.as_ref(), Workload::Benchmark).unwrap();
    assert!(l.classes[&Sysno::write].stub_ok);
    assert!(
        !s.classes[&Sysno::write].stub_ok,
        "perf deviation disqualifies"
    );
    assert!(
        s.required().len() >= l.required().len(),
        "strict can only require more"
    );
}

#[test]
fn os_database_covers_the_papers_eleven_targets() {
    let names: Vec<String> = os::db().into_iter().map(|o| o.name).collect();
    for expected in [
        "unikraft",
        "fuchsia",
        "kerla",
        "osv",
        "hermitux",
        "gvisor",
        "gramine",
        "linuxulator",
        "browsix",
        "zephyr",
        "nolibc",
    ] {
        assert!(names.iter().any(|n| n == expected), "{expected} missing");
    }
}

#[test]
fn requirement_roundtrip_through_reports() {
    let engine = fast_engine();
    let app = registry::find("memcached").unwrap();
    let report = engine.analyze(app.as_ref(), Workload::Benchmark).unwrap();
    let req = AppRequirement::from_report(&report);
    // The planner's required set includes the fallback syscalls the
    // combined stub/fake policy exercised (untraced in the baseline).
    assert_eq!(req.required, report.plan_required());
    assert!(report.required().is_subset(&req.required));
    assert!(req.required.is_subset(&req.traced));
    assert!(req.stubbable.intersection(&req.fake_only).is_empty());
}

#[test]
fn stubbing_close_leaks_fds_through_the_whole_stack() {
    // The Table 2 mechanism, checked end-to-end through the engine's
    // impact records rather than by poking the kernel directly.
    let engine = fast_engine();
    let app = registry::find("redis").unwrap();
    let report = engine.analyze(app.as_ref(), Workload::Benchmark).unwrap();
    let close = report.impacts[&Sysno::close].fake.unwrap();
    assert!(close.success, "redis tolerates faked close");
    assert!(
        close.fd_delta > 1.0,
        "fds must leak: {:+.2}",
        close.fd_delta
    );
    let futex = report.impacts[&Sysno::futex].fake.unwrap();
    assert!(!futex.success, "faked futex breaks core functioning");
    assert!(
        futex.perf_delta < -0.3,
        "throughput collapses: {:+.2}",
        futex.perf_delta
    );
}

#[test]
fn policy_action_for_respects_action_precedence() {
    let policy = Policy::allow_all()
        .with_syscall(Sysno::ioctl, Action::Stub)
        .with_sub_feature(loupe::syscalls::SubFeature::FIONBIO.key(), Action::Fake);
    let fionbio = loupe::kernel::Invocation::new(Sysno::ioctl, [3, 0x5421, 1, 0, 0, 0]);
    let tcgets = loupe::kernel::Invocation::new(Sysno::ioctl, [1, 0x5401, 0, 0, 0, 0]);
    assert_eq!(
        policy.action_for(&fionbio),
        Action::Fake,
        "sub-feature wins"
    );
    assert_eq!(
        policy.action_for(&tcgets),
        Action::Stub,
        "syscall rule applies"
    );
}
