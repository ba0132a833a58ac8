//! Exit-code regression tests for the `loupe` binary: user errors must
//! exit non-zero with an actionable message on stderr, and happy paths
//! must exit zero — the contract CI scripts and the generated docs'
//! regeneration commands rely on.

use std::path::PathBuf;
use std::process::Command;

fn loupe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_loupe"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loupe-cli-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn sweep_with_unknown_os_exits_nonzero_naming_it() {
    let dir = tmpdir("nosuch-os");
    let out = loupe()
        .args(["sweep", "--os", "nosuch", "--db"])
        .arg(&dir)
        .output()
        .expect("spawn loupe");
    assert!(!out.status.success(), "unknown OS must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nosuch"),
        "stderr names the unknown OS: {stderr}"
    );
    assert!(
        stderr.contains("os-list"),
        "stderr points at the discovery command: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_rejects_conflicting_os_flags_and_orphan_tier() {
    for args in [
        vec!["sweep", "--os", "kerla", "--all-os"],
        vec!["sweep", "--tier", "vanilla"],
        vec!["sweep", "--all-os", "--tier", "sideways"],
    ] {
        let out = loupe().args(&args).output().expect("spawn loupe");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn gentests_requires_an_os_selection_and_rejects_conflicts() {
    for args in [
        vec!["gentests"],
        vec!["gentests", "--os", "kerla", "--all-os"],
        vec!["gentests", "--os", "nosuch"],
    ] {
        let out = loupe().args(&args).output().expect("spawn loupe");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn gentests_generates_a_suite_then_check_mode_finds_it_fresh() {
    let dir = tmpdir("gentests-ok");
    let gen = |extra: &[&str]| {
        let mut cmd = loupe();
        cmd.args([
            "gentests",
            "--os",
            "kerla",
            "--workload",
            "health",
            "--app",
            "hello-musl-static",
            "--db",
        ])
        .arg(&dir)
        .args(extra);
        cmd.output().expect("spawn loupe")
    };

    let out = gen(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("1 generated"), "fresh suite: {stdout}");
    assert!(
        dir.join("gentests/kerla/health/hello-musl-static.json")
            .is_file(),
        "suite persisted under gentests/<os>/<workload>"
    );

    // A second run in check mode writes nothing and exits zero: the
    // stored suite is exactly what the generator emits today.
    let out = gen(&["--check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "check mode on fresh suites: {stdout}");
    assert!(stdout.contains("0 stale"), "nothing stale: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One measured cell to query: kerla x hello-musl-static x health.
fn seed_queryable_db(dir: &std::path::Path) {
    let out = loupe()
        .args([
            "sweep",
            "--os",
            "kerla",
            "--workload",
            "health",
            "--apps",
            "hello-musl-static",
            "--db",
        ])
        .arg(dir)
        .output()
        .expect("spawn loupe");
    assert!(
        out.status.success(),
        "seed sweep: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn query_offline_answers_verdicts_and_rejects_unknown_names() {
    let dir = tmpdir("query-offline");
    seed_queryable_db(&dir);

    let query = |extra: &[&str]| {
        let mut cmd = loupe();
        cmd.args(["query", "--offline", "--db"])
            .arg(&dir)
            .args(extra);
        cmd.output().expect("spawn loupe")
    };

    let out = query(&[
        "--os",
        "kerla",
        "--app",
        "hello-musl-static",
        "--workload",
        "health",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("hello-musl-static on kerla"),
        "verdict line: {stdout}"
    );

    // Unknown OS and app names exit non-zero, naming the offender.
    for (extra, offender) in [
        (
            ["--os", "atlantis", "--app", "hello-musl-static"].as_slice(),
            "atlantis",
        ),
        (["--os", "kerla", "--app", "doom"].as_slice(), "doom"),
        (
            [
                "--os",
                "kerla",
                "--app",
                "hello-musl-static",
                "--tier",
                "sideways",
            ]
            .as_slice(),
            "sideways",
        ),
    ] {
        let out = query(extra);
        assert!(!out.status.success(), "{extra:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(offender),
            "stderr names `{offender}`: {stderr}"
        );
    }

    // Modes: summary and missing resolve against the same db.
    let out = query(&["--summary"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("kerla"));
    let out = query(&["--missing", "--os", "kerla"]);
    assert!(out.status.success());

    // No mode and no os/app: usage error.
    let out = query(&[]);
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_daemon_answers_the_query_command() {
    use std::io::BufRead;

    let dir = tmpdir("serve-daemon");
    seed_queryable_db(&dir);

    let mut daemon = loupe()
        .args(["serve", "--addr", "127.0.0.1:0", "--db"])
        .arg(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let stdout = daemon.stdout.take().expect("daemon stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("daemon prints its address")
        .expect("readable stdout");
    let addr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {first}"))
        .to_owned();

    let query = |extra: &[&str]| {
        let mut cmd = loupe();
        cmd.args(["query", "--addr", &addr]).args(extra);
        cmd.output().expect("spawn loupe")
    };

    let out = query(&[
        "--os",
        "kerla",
        "--app",
        "hello-musl-static",
        "--workload",
        "health",
        "--tier",
        "vanilla",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("hello-musl-static on kerla"),
        "verdict line: {stdout}"
    );

    let out = query(&["--os", "kerla", "--app", "doom"]);
    assert!(!out.status.success(), "unknown app over the wire fails");
    assert!(String::from_utf8_lossy(&out.stderr).contains("doom"));

    let out = query(&["--summary", "--json"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"ok\": true"));

    daemon.kill().ok();
    daemon.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matrix_sweep_of_one_app_exits_zero_and_reports_rates() {
    let dir = tmpdir("matrix-ok");
    let out = loupe()
        .args([
            "sweep",
            "--os",
            "kerla",
            "--workload",
            "health",
            "--apps",
            "hello-musl-static",
            "--db",
        ])
        .arg(&dir)
        .output()
        .expect("spawn loupe");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("matrix:"),
        "matrix section printed: {stdout}"
    );
    assert!(stdout.contains("kerla"), "per-OS row printed: {stdout}");
    assert!(
        dir.join("env/kerla/matrix/hello-musl-static/health.json")
            .is_file(),
        "cell persisted under env/<os>/matrix"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_round_trips_the_vendored_kerla_table_and_rejects_corruption() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let table = repo.join("crates/plan/data/kerla_compatibility.md");
    let overrides = repo.join("crates/plan/data/kerla_overrides.txt");

    // Happy path: the vendored snapshot is canonical and matches the
    // curated spec, and the summary names the flag holes.
    let out = loupe()
        .arg("ingest")
        .arg("--from")
        .arg(&table)
        .args(["--os", "kerla", "--overrides"])
        .arg(&overrides)
        .arg("--check")
        .output()
        .expect("spawn loupe");
    assert!(
        out.status.success(),
        "vendored table must ingest cleanly: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matches the curated spec"), "{stdout}");
    assert!(stdout.contains("fcntl:F_SETLK"), "{stdout}");

    // Corrupt tables exit non-zero with a row-numbered message.
    let text = std::fs::read_to_string(&table).unwrap();
    let corrupt = text.replace("| write ", "| wrlte ");
    assert_ne!(corrupt, text, "fixture edit must apply");
    let dir = tmpdir("ingest-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.md");
    std::fs::write(&bad, corrupt).unwrap();
    let out = loupe()
        .arg("ingest")
        .arg("--from")
        .arg(&bad)
        .args(["--os", "broken"])
        .output()
        .expect("spawn loupe");
    assert!(!out.status.success(), "corrupt table must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line "), "row-numbered error: {stderr}");
    assert!(stderr.contains("wrlte"), "names the bad cell: {stderr}");

    // Missing --from is a usage error.
    let out = loupe().arg("ingest").output().expect("spawn loupe");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--from"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_cache_line_counts_the_static_and_plan_passes() {
    let dir = tmpdir("sweep-cache-line");
    let sweep = || {
        let out = loupe()
            .args([
                "sweep",
                "--workload",
                "health",
                "--apps",
                "hello-musl-static",
                "--static",
                "--validate-plans",
                "--db",
            ])
            .arg(&dir)
            .output()
            .expect("spawn loupe");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
        stdout
    };
    // 1 baseline + 4 static levels + one plan validation per curated OS.
    let decisions = 1 + 4 + loupe_plan::os::db().len();
    let cold = sweep();
    assert_eq!(
        cold.matches("cache: ").count(),
        1,
        "one cache line per sweep: {cold}"
    );
    assert!(
        cold.contains(&format!("cache: 0 hits, {decisions} misses, 0 stale")),
        "{cold}"
    );
    let warm = sweep();
    assert!(
        warm.contains(&format!("cache: {decisions} hits, 0 misses, 0 stale")),
        "{warm}"
    );
    // The persisted tallies cover the same passes.
    let out = loupe()
        .args(["cache", "stats", "--db"])
        .arg(&dir)
        .output()
        .expect("spawn loupe");
    let stats = String::from_utf8_lossy(&out.stdout);
    let total = format!("{:<12} {:>6} {:>8} {:>6}", "total", decisions, 0, 0);
    assert!(stats.contains(&total), "{stats}");
    std::fs::remove_dir_all(&dir).ok();
}
