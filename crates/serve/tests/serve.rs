//! End-to-end daemon tests: protocol answers against a populated
//! corpus, exhaustive daemon-vs-database cross-checks, batched ==
//! unbatched equivalence, and generation-swap atomicity under
//! concurrent database edits.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use loupe_apps::{registry, Workload};
use loupe_db::Database;
use loupe_plan::{os, MatrixCell, Tier, TierOutcome};
use loupe_serve::{CellQuery, Client, Request, ServeConfig, Server};
use loupe_sweep::{MatrixConfig, SweepConfig};
use loupe_syscalls::SysnoSet;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loupe-serve-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real mini-corpus: baselines + matrix cells for 2 OSes × 4 apps,
/// measured by the actual sweep so plan/apps queries have requirements
/// to work from.
fn populate(dir: &Path) {
    let db = Database::open(dir).unwrap();
    let apps: Vec<_> = registry::detailed().into_iter().take(4).collect();
    let cfg = MatrixConfig {
        oses: vec![os::find("kerla").unwrap(), os::find("gvisor").unwrap()],
        tier: None,
        sweep: SweepConfig {
            workloads: vec![Workload::HealthCheck],
            workers: 2,
            ..SweepConfig::default()
        },
    };
    loupe_sweep::sweep_matrix(&db, apps, &cfg).unwrap();
    db.flush().unwrap();
}

fn start(dir: &Path, cfg: ServeConfig) -> Server {
    Server::start(dir, cfg).expect("server starts")
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client.set_timeout(Duration::from_secs(30)).unwrap();
    client
}

fn verdict_request(os: &str, app: &str, workload: Option<&str>, tier: Option<&str>) -> Request {
    Request {
        cmd: "verdict".to_owned(),
        os: Some(os.to_owned()),
        app: Some(app.to_owned()),
        workload: workload.map(str::to_owned),
        tier: tier.map(str::to_owned),
        ..Request::default()
    }
}

#[test]
fn daemon_answers_the_documented_queries() {
    let dir = tmpdir("e2e");
    populate(&dir);
    let db = Database::open(&dir).unwrap();
    let cells = db.load_matrix().unwrap();
    assert_eq!(cells.len(), 8, "fixture: 2 OSes x 4 apps x 1 workload");

    let server = start(&dir, ServeConfig::default());
    let mut client = connect(server.local_addr());

    assert_eq!(client.ping().unwrap(), 0, "first generation");

    // Verdicts match the stored cells for both tiers.
    for cell in &cells {
        for (tier, expected) in [
            (Tier::Vanilla, cell.passes(Tier::Vanilla)),
            (Tier::Planned, cell.planned_at_least()),
        ] {
            let resp = client
                .request(&verdict_request(
                    &cell.os,
                    &cell.app,
                    Some("health"),
                    Some(tier.label()),
                ))
                .unwrap();
            assert!(resp.ok, "{:?}", resp.error);
            let verdict = resp.verdict.expect("verdict present");
            assert!(verdict.known);
            assert_eq!(verdict.pass, expected, "{}/{} {tier}", cell.os, cell.app);
            assert_eq!(verdict.linux_pass, cell.linux_pass);
        }
    }

    // Unknown names are errors (not silent unknown-verdicts).
    for bad in [
        verdict_request("atlantis", "redis", None, None),
        verdict_request("kerla", "doom", None, None),
        verdict_request("kerla", "redis", Some("bogus"), None),
        verdict_request("kerla", "redis", None, Some("bogus")),
    ] {
        let resp = client.request(&bad).unwrap();
        assert!(!resp.ok, "{bad:?} must fail");
        assert!(resp.error.is_some());
    }

    // Summary equals the OS_MATRIX aggregation recomputed locally.
    let sizes = loupe_sweep::matrix::os_sizes(&os::db());
    let stats = loupe_sweep::matrix::aggregate(&cells, &sizes);
    let resp = client
        .request(&Request {
            cmd: "summary".to_owned(),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok);
    assert_eq!(resp.summary.len(), stats.len());
    for (row, expected) in resp.summary.iter().zip(&stats) {
        assert_eq!(row.os, expected.os);
        assert_eq!(row.apps as usize, expected.apps);
        assert_eq!(row.vanilla_pass as usize, expected.vanilla_pass);
        assert_eq!(row.planned_pass as usize, expected.planned_pass);
        assert_eq!(row.syscalls as usize, expected.syscalls);
    }

    // Missing-syscall ranking equals the aggregation's.
    let kerla = stats.iter().find(|r| r.os == "kerla").unwrap();
    let resp = client
        .request(&Request {
            cmd: "missing".to_owned(),
            os: Some("kerla".to_owned()),
            limit: Some(5),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok);
    assert_eq!(resp.missing.len(), kerla.top_missing.len().min(5));
    for (got, (sysno, count)) in resp.missing.iter().zip(&kerla.top_missing) {
        assert_eq!(got.syscall, sysno.name());
        assert_eq!(got.blocked_apps as usize, *count);
    }

    // Plan query: the lazily built table serves the curated profile.
    let resp = client
        .request(&Request {
            cmd: "plan".to_owned(),
            os: Some("kerla".to_owned()),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok, "{:?}", resp.error);
    let plan = resp.plan.expect("plan present");
    assert_eq!(plan.os, "kerla");
    assert_eq!(
        plan.initially_supported.len() + plan.steps.len(),
        4,
        "every measured app is either initially supported or unlocked"
    );

    // Inverted index: every app requires read(2) somewhere.
    let resp = client
        .request(&Request {
            cmd: "apps".to_owned(),
            syscall: Some("read".to_owned()),
            ..Request::default()
        })
        .unwrap();
    assert!(resp.ok);
    assert!(!resp.apps.is_empty(), "read(2) is required by the fixture");
    let resp = client
        .request(&Request {
            cmd: "apps".to_owned(),
            syscall: Some("not_a_syscall".to_owned()),
            ..Request::default()
        })
        .unwrap();
    assert!(!resp.ok);

    // Stats reflect the traffic this test generated.
    let resp = client
        .request(&Request {
            cmd: "stats".to_owned(),
            ..Request::default()
        })
        .unwrap();
    let stats = resp.stats.expect("stats present");
    assert_eq!(stats.cells, 8);
    assert_eq!(stats.oses, 2);
    assert_eq!(stats.apps, 4);
    assert!(stats.requests > 16);

    // Malformed and unknown requests answer errors, not hangups.
    let raw = client.request_raw("{not json").unwrap();
    assert!(raw.contains("malformed"));
    let resp = client
        .request(&Request {
            cmd: "explode".to_owned(),
            ..Request::default()
        })
        .unwrap();
    assert!(!resp.ok);

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Synthetic corpus for protocol-equivalence tests: deterministic
/// verdict patterns, no measurement needed.
fn seed_synthetic(dir: &Path, oses: &[&str], apps: &[&str], planned_pass: bool) {
    let db = Database::open(dir).unwrap();
    for (i, os_name) in oses.iter().enumerate() {
        for (j, app) in apps.iter().enumerate() {
            for workload in [Workload::HealthCheck, Workload::Benchmark] {
                let vanilla = (i + j) % 2 == 0;
                let cell = MatrixCell {
                    os: (*os_name).to_owned(),
                    app: (*app).to_owned(),
                    workload,
                    linux_pass: true,
                    missing_required: if vanilla {
                        SysnoSet::new()
                    } else {
                        [loupe_syscalls::Sysno::io_uring_setup]
                            .into_iter()
                            .collect()
                    },
                    vanilla: Some(TierOutcome {
                        pass: vanilla,
                        ..TierOutcome::default()
                    }),
                    planned: Some(TierOutcome {
                        pass: vanilla || planned_pass,
                        ..TierOutcome::default()
                    }),
                    missing_required_flags: Vec::new(),
                };
                db.save_matrix_cell_replacing(&cell).unwrap();
            }
        }
    }
    db.flush().unwrap();
}

const EQ_OSES: [&str; 2] = ["kerla", "gvisor"];
const EQ_APPS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Two daemons over the same corpus, one batching and one not; both
/// kept alive for every proptest case.
fn equivalence_servers() -> (SocketAddr, SocketAddr) {
    static SERVERS: OnceLock<(SocketAddr, SocketAddr)> = OnceLock::new();
    *SERVERS.get_or_init(|| {
        let dir = tmpdir("equiv");
        seed_synthetic(&dir, &EQ_OSES, &EQ_APPS, true);
        let batched = start(
            &dir,
            ServeConfig {
                batch_window: Duration::from_micros(200),
                watch_interval: Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        let direct = start(
            &dir,
            ServeConfig {
                batch_window: Duration::ZERO,
                watch_interval: Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        let addrs = (batched.local_addr(), direct.local_addr());
        // Leak the servers: proptest cases keep hitting them until the
        // process exits.
        std::mem::forget(batched);
        std::mem::forget(direct);
        addrs
    })
}

mod equivalence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn batched_answers_are_byte_identical_to_unbatched(
            // Each index encodes (os, app, workload, tier) drawn from
            // pools that include unknown names, so error paths must
            // match byte-for-byte too: 3 x 5 x 5 x 4 combinations.
            queries in proptest::collection::vec(0usize..300, 1..12)
        ) {
            let (batched, direct) = equivalence_servers();
            let mut batched = connect(batched);
            let mut direct = connect(direct);
            for q in queries {
                let (os_i, app_i, wl_i, tier_i) =
                    (q % 3, (q / 3) % 5, (q / 15) % 5, (q / 75) % 4);
                let os = ["kerla", "gvisor", "atlantis"][os_i];
                let app = ["alpha", "beta", "gamma", "delta", "doom"][app_i];
                let workload = [None, Some("health"), Some("bench"), Some("suite"), Some("bogus")][wl_i];
                let tier = [None, Some("vanilla"), Some("planned"), Some("bogus")][tier_i];
                let request = serde_json::to_string(&verdict_request(os, app, workload, tier)).unwrap();
                let a = batched.request_raw(&request).unwrap();
                let b = direct.request_raw(&request).unwrap();
                prop_assert_eq!(a, b, "query {} diverged", request);
            }
        }
    }
}

#[test]
fn concurrent_clients_get_coalesced_but_identical_answers() {
    let dir = tmpdir("coalesce");
    seed_synthetic(&dir, &EQ_OSES, &EQ_APPS, true);
    let server = start(
        &dir,
        ServeConfig {
            batch_window: Duration::from_micros(300),
            watch_interval: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();

    // 32 threads x 8 lookups through the batcher; answers must match a
    // direct index computation regardless of how drains coalesce.
    let mut handles = Vec::new();
    for t in 0..32 {
        handles.push(std::thread::spawn(move || {
            let mut client = connect(addr);
            for k in 0..8 {
                let os = EQ_OSES[(t + k) % 2];
                let app = EQ_APPS[(t * 3 + k) % 4];
                let resp = client
                    .request(&verdict_request(os, app, Some("health"), Some("vanilla")))
                    .unwrap();
                assert!(resp.ok);
                let verdict = resp.verdict.unwrap();
                // seed_synthetic: vanilla passes iff (os_i + app_i) even.
                let os_i = EQ_OSES.iter().position(|o| *o == os).unwrap();
                let app_i = EQ_APPS.iter().position(|a| *a == app).unwrap();
                assert_eq!(verdict.pass, (os_i + app_i) % 2 == 0);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let mut client = connect(addr);
    let stats = client
        .request(&Request {
            cmd: "stats".to_owned(),
            ..Request::default()
        })
        .unwrap()
        .stats
        .unwrap();
    assert_eq!(stats.batched_lookups, 32 * 8);
    assert!(
        stats.batches <= stats.batched_lookups,
        "drains never exceed lookups"
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn database_edits_swap_whole_generations_never_torn() {
    let dir = tmpdir("swap");
    let oses = ["flipos"];
    let apps = ["a0", "a1", "a2", "a3", "a4", "a5"];
    seed_synthetic(&dir, &oses, &apps, false);
    let server = start(
        &dir,
        ServeConfig {
            watch_interval: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    let mut client = connect(server.local_addr());
    let all_cells: Vec<CellQuery> = apps
        .iter()
        .map(|app| CellQuery {
            os: "flipos".to_owned(),
            app: (*app).to_owned(),
            workload: Some("health".to_owned()),
            tier: Some("planned".to_owned()),
        })
        .collect();
    let ask = |client: &mut Client| -> Vec<bool> {
        let resp = client
            .request(&Request {
                cmd: "verdicts".to_owned(),
                cells: all_cells.clone(),
                ..Request::default()
            })
            .unwrap();
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(resp.verdicts.len(), apps.len());
        resp.verdicts.iter().map(|v| v.pass).collect()
    };

    // seed_synthetic(planned_pass): planned passes iff vanilla passes
    // (odd os+app index) or planned_pass is set. Flip planned_pass per
    // round: every odd-index cell's planned verdict toggles together.
    let toggled: Vec<usize> = (0..apps.len()).filter(|i| i % 2 == 1).collect();
    for round in 0..4u32 {
        let state = round % 2 == 0;
        // Complete edit first, manifest flush last: the daemon may
        // notice only once the (atomic) manifest rename lands.
        seed_synthetic(&dir, &oses, &apps, state);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let answers = ask(&mut client);
            // The atomicity property: within one response, every
            // toggled cell agrees — a torn mix of generations would
            // disagree.
            let agreed: Vec<bool> = toggled.iter().map(|&i| answers[i]).collect();
            assert!(
                agreed.iter().all(|&p| p == agreed[0]),
                "torn generation: {answers:?}"
            );
            if agreed[0] == state {
                break; // the new generation is live
            }
            assert!(
                Instant::now() < deadline,
                "round {round}: daemon never served the new generation"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_request_is_refused_without_killing_the_daemon() {
    let dir = tmpdir("nesting");
    let server = start(&dir, ServeConfig::default());
    // Connection threads run on small stacks: 300 nested arrays used to
    // overflow one and abort the whole process. At the parser's depth
    // limit the request is well-formed JSON but no request.
    for (depth, reason) in [(300, "nesting deeper than 128"), (128, "malformed request")] {
        let payload = "[".repeat(depth) + &"]".repeat(depth);
        let answer = connect(server.local_addr()).request_raw(&payload).unwrap();
        let response: loupe_serve::Response = serde_json::from_str(&answer).unwrap();
        assert!(!response.ok, "depth {depth}");
        let error = response.error.unwrap_or_default();
        assert!(error.contains(reason), "depth {depth}: {error}");
    }
    assert_eq!(connect(server.local_addr()).ping().unwrap(), 0);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
