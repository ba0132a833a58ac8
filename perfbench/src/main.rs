//! Loupe's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-fleet|dev-loop|serve-open> --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives Loupe in-process through the crates' public functions, checks
//! every output against an oracle, and prints one JSON object as the last
//! line of standard output: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the workload with a span around every call into a layer and
//! reports the per-layer metrics derived from the spans, which are also
//! written as JSON lines under `perfbench/out/`. See `perfbench/METRICS.md`.

mod pipeline;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use trace::Recorder;

/// End-to-end metrics, reported with `--trace 0` by every workload.
/// The meaning of the three latency metrics per workload is in
/// `perfbench/METRICS.md`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("aux_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1` by every workload; a
/// layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.engine.runs", "count"),
    ("core.engine.bisect_runs", "count"),
    ("core.engine.transfer_skips", "count"),
    ("sweep.baselines.s", "s"),
    ("sweep.baselines.analyzed", "count"),
    ("sweep.baselines.cached", "count"),
    ("sweep.statics.s", "s"),
    ("sweep.statics.analyzed", "count"),
    ("sweep.plans.s", "s"),
    ("sweep.plans.validated", "count"),
    ("sweep.matrix.s", "s"),
    ("sweep.matrix.analyzed", "count"),
    ("sweep.matrix.cached", "count"),
    ("sweep.matrix.stale", "count"),
    ("sweep.gentests.s", "s"),
    ("sweep.gentests.check_s", "s"),
    ("sweep.gentests.suites", "count"),
    ("sweep.compare.s", "s"),
    ("sweep.report.s", "s"),
    ("sweep.report.render_s", "s"),
    ("sweep.report.files", "count"),
    ("db.open_s", "s"),
    ("db.preload_s", "s"),
    ("db.write_mb", "MB"),
    ("db.write_corpus_s", "s"),
    ("db.size_mb", "MB"),
    ("db.files", "count"),
    ("db.cache.hits", "count"),
    ("db.cache.misses", "count"),
    ("db.cache.stale", "count"),
    ("db.cache.hit_ratio", "ratio"),
    ("db.load.baselines_s", "s"),
    ("db.load.baselines_mb", "MB"),
    ("db.load.matrix_s", "s"),
    ("db.load.matrix_mb", "MB"),
    ("db.load.suites_s", "s"),
    ("db.load.suites_mb", "MB"),
    ("db.load.static_s", "s"),
    ("db.load.static_mb", "MB"),
    ("serve.build_s", "s"),
    ("serve.start_s", "s"),
    ("serve.index.answer_us", "us"),
    ("serve.wire.verdict_p50_us", "us"),
    ("serve.wire.verdict_p95_us", "us"),
    ("serve.wire.verdict_p99_us", "us"),
    ("serve.wire.verdicts_p50_us", "us"),
    ("serve.wire.verdicts_p99_us", "us"),
    ("serve.wire.summary_p50_us", "us"),
    ("serve.wire.summary_p99_us", "us"),
    ("serve.wire.missing_p50_us", "us"),
    ("serve.wire.missing_p99_us", "us"),
    ("serve.gen_lag_p99_us", "us"),
    ("serve.failed", "count"),
    ("serve.max_rps", "1/s"),
    ("serve.closed_rps", "1/s"),
    ("bench.error_rate", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.aux_ms", "ms"),
    ("trace.recorder_ms", "ms"),
    ("trace.spans", "count"),
];

/// Metric name → value, as the workload measured it.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    /// The `metrics` object: every metric of `names`. With `required`, a
    /// missing metric is a bug in the workload; otherwise it reads 0 (a
    /// layer the workload does not exercise, or a run that failed before
    /// measuring it).
    fn to_json(&self, names: &[(&str, &str)], required: bool) -> String {
        let fields: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = match self.0.get(*name) {
                    Some(v) => *v,
                    None if required => panic!("workload did not measure `{name}`"),
                    None => 0.0,
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    trace::json_str(name),
                    trace::json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one operation; `Err` is a failure with its reason.
    pub fn check(&mut self, op: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("FAILED {op}: {e}");
            self.failures.push(format!("{op}: {e}"));
        }
    }

    /// Counts `attempted` operations of one kind, one failure per reason.
    pub fn count(&mut self, op: &str, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        if let Some(first) = failures.first() {
            eprintln!(
                "FAILED {op}: {} of {attempted}, first: {first}",
                failures.len()
            );
        }
        self.failures
            .extend(failures.into_iter().map(|f| format!("{op}: {f}")));
    }

    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// What a workload hands back to `main`.
pub struct Run {
    pub outcome: Outcome,
    pub metrics: Metrics,
    /// Workload-specific stamp fields (fleet size, edit count, ...).
    pub stamp: Vec<(&'static str, String)>,
}

/// Everything a workload needs from the command line and the checkout.
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub rec: Recorder,
    /// Scratch directory owned by this run, removed when it ends.
    pub work: PathBuf,
    /// Root of the checkout (the benchmark package's parent directory).
    pub repo: PathBuf,
    pub nproc: usize,
}

/// Seeded xorshift generator: inputs depend only on `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// The `q` quantile (0..=1) of `values`, interpolating between the two
/// nearest ranks; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes and regular-file count under `dir`.
pub fn disk_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else if meta.is_file() {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}

pub const MB: f64 = 1024.0 * 1024.0;

/// The commit of the checkout, when it is a git work tree.
fn commit(repo: &Path) -> String {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(repo.join(".git").join(r)).unwrap_or_default(),
        None => head.to_owned(),
    };
    match id.trim() {
        "" => "unknown".to_owned(),
        id => id.to_owned(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = value("--workload")?.to_owned();
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace expects 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let repo = bench_dir
        .parent()
        .expect("the benchmark package sits inside the checkout")
        .to_path_buf();
    let work = bench_dir
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the run's work directory");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        rec: Recorder::new(args.trace),
        work: work.clone(),
        repo: repo.clone(),
        nproc,
    };

    let started = Instant::now();
    let run = match args.workload.as_str() {
        "cold-fleet" => pipeline::cold_fleet(&env),
        "dev-loop" => pipeline::dev_loop(&env),
        "serve-open" => serve::serve_open(&env),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (cold-fleet, dev-loop, serve-open)");
            let _ = std::fs::remove_dir_all(&work);
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let Run {
        outcome,
        mut metrics,
        stamp,
    } = run;

    let mut stamp_fields = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("commit", commit(&repo)),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        ),
        ("wall_s", format!("{:.3}", started.elapsed().as_secs_f64())),
    ];
    stamp_fields.extend(stamp);
    let stamp_json = format!(
        "{{\"stamp\": {{{}}}}}",
        stamp_fields
            .iter()
            .map(|(k, v)| format!("{}: {}", trace::json_str(k), trace::json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );

    if args.trace {
        metrics.set("bench.error_rate", outcome.error_rate());
        let spans = env.rec.spans();
        metrics.set("trace.spans", spans.len() as f64);
        metrics.set("trace.recorder_ms", env.rec.own_ms());
        let path = bench_dir
            .join("out")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &stamp_json, &spans) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    } else {
        metrics.set("peak_rss_mb", peak_rss_mb());
    }

    println!("{stamp_json}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len(),
        if args.trace {
            metrics.to_json(PER_LAYER, false)
        } else {
            // A failed set-up leaves metrics unmeasured; the result
            // still reports the failure.
            metrics.to_json(END_TO_END, outcome.failures.is_empty())
        }
    );
}
