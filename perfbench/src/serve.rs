//! The `serve-open` workload: a seeded synthetic corpus shaped like the
//! fleet matrix, served by `loupe-serve` with its default batching, under
//! the `serve_load` request mix over two connections: back to back for
//! the end-to-end metrics, and in the traced run also as an open loop at
//! a fixed rate and up a ladder of rates.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use loupe_apps::{registry, Workload};
use loupe_db::Database;
use loupe_plan::{os, MatrixCell, Tier, TierOutcome};
use loupe_serve::{CellQuery, Client, Request, ServeConfig, ServeIndex, Server};
use loupe_syscalls::{Sysno, SysnoSet};

use crate::{disk_usage, quantile, Env, Metrics, Outcome, Rng, Run, MB};

/// Load connections: one generator thread each.
const CONNS: usize = 2;
/// The fixed rate of the traced run's open-loop latencies.
const FIXED_RATE: f64 = 2000.0;
/// Rates tried after the fixed phase, up past two-connection saturation.
const LADDER: [f64; 10] = [
    3000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0, 14000.0, 17000.0, 20000.0, 24000.0,
];
/// The latency limit on verdict p99 that defines the highest rate.
const LIMIT_US: f64 = 1000.0;
/// Window of the latency medians.
const WINDOW_S: f64 = 0.5;
/// The measured closed loop runs as this many segments, each on fresh
/// connections: the server's connection threads and the generator
/// threads are placed on the cores anew, so one unlucky placement moves
/// a sixth of the windows, not the whole run.
const SEGMENTS: usize = 6;
/// Length of one ladder step, and of the windows it is judged by.
const STEP_S: f64 = 1.0;
const STEP_WINDOW_S: f64 = 0.25;
/// A request without a reply after this long has failed.
const TIMEOUT: Duration = Duration::from_secs(1);

/// The synthetic corpus: every curated OS × every fleet app × every
/// workload. Per-OS pass rates, Linux failures, unmeasured planned tiers
/// and 1–4 missing syscalls per failing cell all come from the seed.
fn corpus(seed: u64) -> Vec<MatrixCell> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let apps = registry::dataset_names();
    let all: Vec<Sysno> = (0..450).filter_map(Sysno::from_raw).collect();
    let mut cells = Vec::new();
    for spec in os::db() {
        let unsupported: Vec<Sysno> = all
            .iter()
            .copied()
            .filter(|s| !spec.supported.contains(*s))
            .collect();
        let p_vanilla = 0.15 + 0.6 * rng.below(1000) as f64 / 1000.0;
        let p_planned = 0.3 + 0.6 * rng.below(1000) as f64 / 1000.0;
        for app in &apps {
            for &workload in Workload::ALL {
                let linux_pass = rng.chance(0.96);
                let vanilla = linux_pass && rng.chance(p_vanilla);
                let planned = linux_pass && (vanilla || rng.chance(p_planned));
                let mut missing = SysnoSet::new();
                if !vanilla && !unsupported.is_empty() {
                    for _ in 0..1 + rng.below(4) {
                        missing.insert(unsupported[rng.below(unsupported.len())]);
                    }
                }
                let first = missing.iter().next();
                cells.push(MatrixCell {
                    os: spec.name.clone(),
                    app: app.clone(),
                    workload,
                    linux_pass,
                    missing_required: missing,
                    missing_required_flags: Vec::new(),
                    vanilla: Some(TierOutcome {
                        pass: vanilla,
                        first_rejection: if vanilla { None } else { first },
                        ..TierOutcome::default()
                    }),
                    // A tenth of the cells leave the planned tier
                    // unmeasured: served as the vanilla lower bound.
                    planned: (!rng.chance(0.1)).then(|| TierOutcome {
                        pass: planned,
                        ..TierOutcome::default()
                    }),
                });
            }
        }
    }
    cells
}

fn write_corpus(dir: &Path, cells: &[MatrixCell]) -> Result<(), String> {
    let db = Database::open(dir).map_err(|e| e.to_string())?;
    for cell in cells {
        db.save_matrix_cell_replacing(cell)
            .map_err(|e| e.to_string())?;
    }
    db.flush().map_err(|e| e.to_string())
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Verdict,
    Verdicts,
    Summary,
    Missing,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Verdict, Kind::Verdicts, Kind::Summary, Kind::Missing];

    fn label(self) -> &'static str {
        match self {
            Kind::Verdict => "verdict",
            Kind::Verdicts => "verdicts",
            Kind::Summary => "summary",
            Kind::Missing => "missing",
        }
    }
}

/// The `serve_load` mix: 80% `verdict`, 10% 8-cell `verdicts`, 5%
/// `summary`, 5% `missing`, over every OS, app, workload and tier.
fn mix(rng: &mut Rng, oses: &[String], apps: &[String]) -> (Kind, Request) {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.label()).collect();
    let roll = rng.below(100);
    let workload = workloads[rng.below(3)].to_owned();
    let tier = if rng.chance(0.5) {
        "vanilla"
    } else {
        "planned"
    }
    .to_owned();
    match roll {
        0..=79 => (
            Kind::Verdict,
            Request {
                cmd: "verdict".into(),
                os: Some(oses[rng.below(oses.len())].clone()),
                app: Some(apps[rng.below(apps.len())].clone()),
                workload: Some(workload),
                tier: Some(tier),
                ..Request::default()
            },
        ),
        80..=89 => (
            Kind::Verdicts,
            Request {
                cmd: "verdicts".into(),
                cells: (0..8)
                    .map(|_| CellQuery {
                        os: oses[rng.below(oses.len())].clone(),
                        app: apps[rng.below(apps.len())].clone(),
                        workload: Some(workloads[rng.below(3)].to_owned()),
                        tier: Some("planned".into()),
                    })
                    .collect(),
                ..Request::default()
            },
        ),
        90..=94 => (
            Kind::Summary,
            Request {
                cmd: "summary".into(),
                ..Request::default()
            },
        ),
        _ => (
            Kind::Missing,
            Request {
                cmd: "missing".into(),
                os: Some(oses[rng.below(oses.len())].clone()),
                workload: Some(workload),
                limit: Some(5),
                ..Request::default()
            },
        ),
    }
}

struct Sample {
    kind: Kind,
    /// Due time, seconds after the phase started.
    at_s: f64,
    /// Reply time minus due time.
    latency_us: f64,
    /// Send time minus due time: how late the generator ran.
    lag_us: f64,
    ok: bool,
}

/// Sleeps until `due`, spinning only for the last few microseconds so
/// the generator does not take a core from the server.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(80) {
            std::thread::sleep(left - Duration::from_micros(60));
        } else {
            std::thread::yield_now();
        }
    }
}

/// How the load generators pace their requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Requests/s split evenly over the connections, due on a fixed
    /// schedule whatever the replies do: independent users.
    Open(f64),
    /// Each connection sends its next request when the previous reply
    /// arrives: callers that wait for their answer.
    Closed,
}

/// Load over the connections in `clients` for `duration`, one
/// generator thread each. Each request is timed from its due time: its
/// place in the open loop's schedule, or the previous reply in the
/// closed loop. Returns the samples and the achieved rate.
fn run_load(
    env: &Env,
    addr: SocketAddr,
    clients: &mut [Option<Client>],
    pace: Pace,
    duration: Duration,
    seed: u64,
    names: (&[String], &[String]),
) -> (Vec<Sample>, f64) {
    let rec = &env.rec;
    let run = match pace {
        Pace::Open(rate) => format!("load-{rate}"),
        Pace::Closed => "load-closed".to_owned(),
    };
    let parent = rec.current();
    let start = Instant::now() + Duration::from_millis(5);
    let conns = clients.len() as f64;
    let per_conn: Vec<(Vec<Sample>, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let run = &run;
                s.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c as u64));
                    let mut samples = Vec::new();
                    let mut last_done = start;
                    let mut k = 0u32;
                    loop {
                        let due = match pace {
                            Pace::Open(rate) => {
                                start
                                    + Duration::from_secs_f64((c as f64 + conns * k as f64) / rate)
                            }
                            Pace::Closed => last_done.max(start),
                        };
                        if due >= start + duration {
                            break;
                        }
                        k += 1;
                        let (kind, request) = mix(&mut rng, names.0, names.1);
                        wait_until(due);
                        let sent = Instant::now();
                        let ok = match client.as_mut().map(|cl| cl.request(&request)) {
                            Some(Ok(response)) => response.ok,
                            _ => {
                                // A broken or timed-out connection is
                                // replaced; the request counts as failed.
                                *client = connect(addr);
                                false
                            }
                        };
                        let done = Instant::now();
                        last_done = done;
                        rec.record(kind.label(), parent, run, due, done);
                        samples.push(Sample {
                            kind,
                            at_s: (due - start).as_secs_f64(),
                            latency_us: (done - due).as_secs_f64() * 1e6,
                            lag_us: (sent - due).as_secs_f64() * 1e6,
                            ok,
                        });
                    }
                    (samples, last_done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let end = per_conn.iter().map(|p| p.1).max().unwrap_or(start);
    let samples: Vec<Sample> = per_conn.into_iter().flat_map(|p| p.0).collect();
    let achieved = samples.len() as f64 / (end - start).as_secs_f64().max(1e-9);
    (samples, achieved)
}

fn connections(addr: SocketAddr) -> Vec<Option<Client>> {
    (0..CONNS).map(|_| connect(addr)).collect()
}

fn connect(addr: SocketAddr) -> Option<Client> {
    let mut client = Client::connect(addr).ok()?;
    client.set_timeout(TIMEOUT).ok()?;
    Some(client)
}

fn latencies<'a>(samples: impl IntoIterator<Item = &'a Sample>, kinds: &[Kind]) -> Vec<f64> {
    samples
        .into_iter()
        .filter(|s| kinds.contains(&s.kind))
        // A failed request misses any latency limit: it reads as the
        // timeout.
        .map(|s| {
            if s.ok {
                s.latency_us
            } else {
                TIMEOUT.as_secs_f64() * 1e6
            }
        })
        .collect()
}

/// Splits a phase into windows of `window_s` and returns `stat` applied
/// to each window's latencies of `kinds`.
fn windowed(
    samples: &[Sample],
    kinds: &[Kind],
    window_s: f64,
    stat: fn(&[f64]) -> f64,
) -> Vec<f64> {
    let end = samples.iter().map(|s| s.at_s).fold(0.0, f64::max);
    let windows = ((end / window_s).floor() as usize + 1).max(1);
    (0..windows)
        .map(|w| {
            let inside = samples
                .iter()
                .filter(|s| (s.at_s / window_s).floor() as usize == w);
            stat(&latencies(inside, kinds))
        })
        .collect()
}

fn p50(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn p95(values: &[f64]) -> f64 {
    quantile(values, 0.95)
}

fn p99(values: &[f64]) -> f64 {
    quantile(values, 0.99)
}

/// Every cell × both tiers over the wire against the generated corpus,
/// then the `summary` rows against counts computed here.
fn cross_check(addr: SocketAddr, cells: &[MatrixCell], out: &mut Outcome) {
    let Some(mut client) = connect(addr) else {
        out.check(
            "crosscheck.connect",
            Err(format!("cannot connect to {addr}")),
        );
        return;
    };
    let mut mismatches = Vec::new();
    let mut attempted = 0u64;
    for cell in cells {
        for tier in [Tier::Vanilla, Tier::Planned] {
            attempted += 1;
            let expected = match tier {
                Tier::Vanilla => cell.passes(Tier::Vanilla),
                Tier::Planned => cell.planned_at_least(),
            };
            let request = Request {
                cmd: "verdict".into(),
                os: Some(cell.os.clone()),
                app: Some(cell.app.clone()),
                workload: Some(cell.workload.label().to_owned()),
                tier: Some(tier.label().to_owned()),
                ..Request::default()
            };
            let got = client.request(&request).map_err(|e| e.to_string());
            let good = match &got {
                Ok(r) => r.verdict.as_ref().is_some_and(|v| {
                    r.ok && v.known && v.pass == expected && v.linux_pass == cell.linux_pass
                }),
                Err(_) => false,
            };
            if !good {
                mismatches.push(format!(
                    "wrong verdict for {}/{}/{}/{}",
                    cell.os,
                    cell.app,
                    cell.workload.label(),
                    tier.label()
                ));
                if got.is_err() {
                    client = match connect(addr) {
                        Some(c) => c,
                        None => break,
                    };
                }
            }
        }
    }
    out.count("crosscheck.verdicts", attempted, mismatches);

    // (os, workload) → (apps, linux, vanilla, planned, syscalls).
    let sizes: BTreeMap<String, u64> = os::db()
        .into_iter()
        .map(|s| (s.name, s.supported.len() as u64))
        .collect();
    let mut expected: BTreeMap<(String, String), [u64; 5]> = BTreeMap::new();
    for cell in cells {
        let row = expected
            .entry((cell.os.clone(), cell.workload.label().to_owned()))
            .or_insert([0, 0, 0, 0, sizes.get(&cell.os).copied().unwrap_or(0)]);
        row[0] += 1;
        row[1] += u64::from(cell.linux_pass);
        row[2] += u64::from(cell.passes(Tier::Vanilla));
        row[3] += u64::from(cell.planned_at_least());
    }
    let summary = Request {
        cmd: "summary".into(),
        ..Request::default()
    };
    let r = client
        .request(&summary)
        .map_err(|e| e.to_string())
        .and_then(|r| {
            let got: BTreeMap<(String, String), [u64; 5]> = r
                .summary
                .into_iter()
                .map(|s| {
                    (
                        (s.os, s.workload),
                        [
                            s.apps,
                            s.linux_pass,
                            s.vanilla_pass,
                            s.planned_pass,
                            s.syscalls,
                        ],
                    )
                })
                .collect();
            if got == expected {
                Ok(())
            } else {
                Err(format!(
                    "summary rows differ from the corpus: {} rows served, {} expected",
                    got.len(),
                    expected.len()
                ))
            }
        });
    out.check("crosscheck.summary", r);
}

/// Server starts per run; the median is reported as `setup_s` and the
/// last server is the one under load.
const STARTS: usize = 9;

/// `serve-open`: the corpus write, `Server::start` `STARTS` times, the
/// cross-check, the closed loop, and in the traced run the fixed-rate
/// open loop and the ladder.
pub fn serve_open(env: &Env) -> Run {
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let cells = corpus(env.seed);
    let oses: Vec<String> = os::db().into_iter().map(|s| s.name).collect();
    let apps = registry::dataset_names();
    let cfg = ServeConfig {
        threads: env.nproc,
        ..ServeConfig::default()
    };

    // The corpus is the workload's input, written once. Creating its
    // 3828 files costs kernel time that drifts several-fold over minutes
    // on a shared host, so it is reported per layer and kept out of
    // `setup_s`.
    env.rec.set_run("setup");
    let root = env.work.join("corpus");
    let t = Instant::now();
    let written = env
        .rec
        .span("db.write_corpus", || write_corpus(&root, &cells));
    let corpus_s = t.elapsed().as_secs_f64();
    out.check("setup.corpus", written);
    // Writes the corpus's dirty pages back now, so the kernel's delayed
    // write-back does not land inside a timed phase.
    let _ = std::process::Command::new("sync").status();

    let mut starts = Vec::new();
    let mut server = None;
    for _ in 0..STARTS {
        if let Some(previous) = server.take() {
            Server::stop(previous);
        }
        let t = Instant::now();
        let started = env
            .rec
            .span("serve.start", || Server::start(&root, cfg.clone()))
            .map_err(|e| e.to_string());
        starts.push(t.elapsed().as_secs_f64());
        match started {
            Ok(s) => server = Some(s),
            Err(e) => out.check("setup.start", Err(e)),
        }
    }
    eprintln!(
        "corpus write: {corpus_s:.3}s; starts: {}",
        starts
            .iter()
            .map(|s| format!("{s:.3}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let Some(server) = server else {
        return Run {
            outcome: out,
            metrics: m,
            stamp: Vec::new(),
        };
    };
    let addr = server.local_addr();

    env.rec.set_run("crosscheck");
    env.rec
        .span("crosscheck", || cross_check(addr, &cells, &mut out));

    let names = (oses.as_slice(), apps.as_slice());
    let mut clients = connections(addr);
    env.rec.set_run("load");
    // One discarded second warms the connections, batcher and index
    // before anything is measured.
    env.rec.span("load.warmup", || {
        run_load(
            env,
            addr,
            &mut clients,
            Pace::Closed,
            Duration::from_secs(1),
            !env.seed,
            names,
        )
    });
    let segment_s = env.seconds / SEGMENTS as f64;
    let mut closed = Vec::new();
    let mut closed_rps = Vec::new();
    let mut windows: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for segment in 0..SEGMENTS {
        if segment > 0 {
            // Closed first, so the server frees their connection slots.
            clients.clear();
            clients.extend(connections(addr));
        }
        let seed = env.seed.wrapping_add((segment as u64) << 32);
        let (samples, achieved) = env.rec.span("load.closed", || {
            run_load(
                env,
                addr,
                &mut clients,
                Pace::Closed,
                Duration::from_secs_f64(segment_s),
                seed,
                names,
            )
        });
        for (w, kind) in windows.iter_mut().zip([Kind::Verdict, Kind::Verdicts]) {
            w.extend(windowed(&samples, &[kind], WINDOW_S, p50));
        }
        eprintln!(
            "segment {segment}: {achieved:.0} req/s, verdict p50 {:.0} us, verdicts p50 {:.0} us",
            p50(&latencies(&samples, &[Kind::Verdict])),
            p50(&latencies(&samples, &[Kind::Verdicts]))
        );
        closed_rps.push(achieved);
        closed.extend(samples);
    }

    // The fixed-rate open loop and the ladder give only per-layer
    // metrics: the untraced run skips them.
    let mut fixed = Vec::new();
    let mut max_rps = 0.0;
    if env.rec.enabled() {
        fixed = env
            .rec
            .span("load.fixed", || {
                run_load(
                    env,
                    addr,
                    &mut clients,
                    Pace::Open(FIXED_RATE),
                    Duration::from_secs_f64(env.seconds),
                    env.seed,
                    names,
                )
            })
            .0;
        for (i, &rate) in LADDER.iter().enumerate() {
            let seed = env.seed.wrapping_add(1 + i as u64);
            let (samples, achieved) = env.rec.span("load.ladder", || {
                run_load(
                    env,
                    addr,
                    &mut clients,
                    Pace::Open(rate),
                    Duration::from_secs_f64(STEP_S),
                    seed,
                    names,
                )
            });
            // The median over the windows: a hiccup of the shared host
            // moves one window, not the step's verdict.
            let p99 = p50(&windowed(&samples, &[Kind::Verdict], STEP_WINDOW_S, p99));
            // A growing queue shows as the generator running late through
            // the whole final window, not as one late request.
            let final_window = samples.iter().filter(|s| s.at_s >= STEP_S - STEP_WINDOW_S);
            let lags: Vec<f64> = final_window.map(|s| s.lag_us).collect();
            let backlog_grew = quantile(&lags, 0.5) > LIMIT_US;
            let failed = samples.iter().filter(|s| !s.ok).count();
            eprintln!(
                "ladder {rate:>6} req/s: achieved {achieved:.0}, verdict p99 {p99:.0} us, \
                 failed {failed}, backlog {}",
                if backlog_grew { "grew" } else { "steady" }
            );
            if p99 > LIMIT_US || backlog_grew || failed > 0 {
                break;
            }
            max_rps = achieved;
        }
    }
    // Past saturation of the ladder a timeout is expected: only the
    // closed loop and the fixed-rate phase count toward the error rate.
    let failures: Vec<String> = closed
        .iter()
        .map(|s| (s, "back to back"))
        .chain(fixed.iter().map(|s| (s, "at 2000 req/s")))
        .filter(|(s, _)| !s.ok)
        .map(|(s, how)| format!("{} request {how} failed", s.kind.label()))
        .collect();
    let failed = failures.len();
    out.count("load", (closed.len() + fixed.len()) as u64, failures);

    // Medians per window, then the median over the windows of every
    // segment: a stall of the shared host shorter than half the phase
    // moves some windows, not the result. The second operation is the
    // 8-cell `verdicts` batch; a median over the mixed other kinds would
    // sit between their latency clusters and swing with their shares.
    let [verdict_windows, verdicts_windows] = &windows;
    let op_ms = p50(verdict_windows) / 1e3;
    let aux_ms = p50(verdicts_windows) / 1e3;
    m.set("setup_s", quantile(&starts, 0.5));
    m.set("op_ms", op_ms);
    m.set("aux_ms", aux_ms);
    if env.rec.enabled() {
        let verdict = [Kind::Verdict];
        let lags: Vec<f64> = fixed.iter().map(|s| s.lag_us).collect();
        let v = latencies(&fixed, &verdict);
        eprintln!(
            "fixed {FIXED_RATE} req/s: verdict p50/p95/p99 {:.0}/{:.0}/{:.0} us, \
             generator lag p50/p95/p99 {:.0}/{:.0}/{:.0} us",
            p50(&v),
            p95(&v),
            p99(&v),
            p50(&lags),
            p95(&lags),
            p99(&lags)
        );
        for kind in Kind::ALL {
            let l = latencies(&fixed, &[kind]);
            let name = format!("serve.wire.{}", kind.label());
            m.set(&format!("{name}_p50_us"), p50(&l));
            m.set(&format!("{name}_p99_us"), p99(&l));
        }
        m.set("serve.wire.verdict_p95_us", p95(&v));
        m.set("serve.gen_lag_p99_us", p99(&lags));
        m.set("serve.failed", failed as f64);
        m.set("serve.max_rps", max_rps);
        m.set("serve.closed_rps", p50(&closed_rps));
        m.set("serve.start_s", quantile(&starts, 0.5));
        m.set("db.write_corpus_s", corpus_s);
        index_probe(env, &root, &oses, &apps, &mut m, &mut out);
        let (bytes, files) = disk_usage(&root);
        m.set("db.size_mb", bytes as f64 / MB);
        m.set("db.files", files as f64);
        m.set("trace.op_ms", op_ms);
        m.set("trace.aux_ms", aux_ms);
    }
    drop(clients);
    env.rec.span("serve.stop", || Server::stop(server));
    Run {
        outcome: out,
        metrics: m,
        stamp: vec![
            ("corpus_cells", cells.len().to_string()),
            ("corpus_oses", oses.len().to_string()),
            ("corpus_apps", apps.len().to_string()),
            ("serve_threads", env.nproc.to_string()),
            ("connections", CONNS.to_string()),
            ("fixed_rate", FIXED_RATE.to_string()),
        ],
    }
}

/// Traced probe: `ServeIndex::build` on the corpus, then in-process
/// `ServeIndex::answer` on the same request mix.
fn index_probe(
    env: &Env,
    root: &Path,
    oses: &[String],
    apps: &[String],
    m: &mut Metrics,
    out: &mut Outcome,
) {
    let t = Instant::now();
    let built = Database::open(root)
        .and_then(|db| env.rec.span("serve.build", || ServeIndex::build(db, 0)))
        .map_err(|e| e.to_string());
    m.set("serve.build_s", t.elapsed().as_secs_f64());
    let index = match built {
        Ok(i) => i,
        Err(e) => return out.check("probe.serve.build", Err(e)),
    };
    let mut rng = Rng::new(env.seed ^ 0xa115);
    let requests: Vec<Request> = (0..20_000).map(|_| mix(&mut rng, oses, apps).1).collect();
    let t = Instant::now();
    let ok = env.rec.span("serve.index.answer", || {
        requests
            .iter()
            .filter(|r| std::hint::black_box(index.answer(r)).ok)
            .count()
    });
    let us = t.elapsed().as_secs_f64() * 1e6 / requests.len() as f64;
    m.set("serve.index.answer_us", us);
    out.check(
        "probe.serve.answer",
        if ok == requests.len() {
            Ok(())
        } else {
            Err(format!("{} in-process answers failed", requests.len() - ok))
        },
    );
}
