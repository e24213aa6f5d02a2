//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <nl_cold|nl_session|sql_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`. A run repeats fixed-size rounds of
//! its workload until `--seconds` are used up, checks every answer, and
//! prints as its last stdout line
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the traced
//! replay with `--trace 1`. The lines before it record the environment and
//! the workload's full report. See `README.md` for workloads and metrics.

mod nl;
mod sql;
mod stats;
mod trace;

use stats::{quote, Metrics};
use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Environment variables that silently change what is measured (CI legs set
/// them); the benchmark refuses to run under any of them.
const PINS: [&str; 4] = [
    "KATHDB_THREADS",
    "KATHDB_POOL_PAGES",
    "KATHDB_COMPILE",
    "KATHDB_FAULTS",
];

const WORKLOADS: [&str; 3] = ["nl_cold", "nl_session", "sql_mix"];

/// The end-to-end metrics every workload reports (`BENCHMARK.json`).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics of the traced run (`BENCHMARK.json`). A workload
/// that never reaches a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 38] = [
    ("parser.parse_ms", "ms"),
    ("parser.verify_ms", "ms"),
    ("optimizer.compile_ms", "ms"),
    ("optimizer.strategy_ms", "ms"),
    ("optimizer.versions_added", "count"),
    ("exec.run_ms", "ms"),
    ("exec.run_self_ms", "ms"),
    ("exec.node.gen_excitement_score_ms", "ms"),
    ("exec.node.populate_text_views_ms", "ms"),
    ("exec.node.populate_scene_views_ms", "ms"),
    ("exec.node.classify_boring_ms", "ms"),
    ("exec.node.sql_ms", "ms"),
    ("exec.node.other_ms", "ms"),
    ("exec.repairs", "count"),
    ("model.tokens", "tokens"),
    ("model.calls", "count"),
    ("lineage.edges_added", "count"),
    ("lineage.edges_total", "count"),
    ("explain.tuple_ms", "ms"),
    ("explain.pipeline_ms", "ms"),
    ("sql.parse_ms", "ms"),
    ("sql.select_point_ms", "ms"),
    ("sql.select_scan_ms", "ms"),
    ("sql.compiled_share", "ratio"),
    ("sql.workers", "count"),
    ("sql.plan_mutation_ms", "ms"),
    ("storage.snapshot_ms", "ms"),
    ("storage.fork_ms", "ms"),
    ("storage.apply_ms", "ms"),
    ("storage.commit_wait_ms", "ms"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("wal.bytes_per_row", "bytes"),
    ("pool.hit_ratio", "ratio"),
    ("pool.evictions", "count"),
    ("pool.zone_skips", "count"),
    ("recovery.open_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// What a workload run hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    /// Ops that failed unexpectedly or returned a wrong answer.
    pub failed: u64,
    /// Run-level checks (recovery contents, stage coverage) held.
    pub checks_ok: bool,
    pub e2e: Metrics,
    /// The workload's own metrics, under the names `README.md` lists.
    pub report: Metrics,
    pub layers: Metrics,
    pub trace: Option<Tracer>,
}

/// The run's time budget: rounds continue while the next one, as long as
/// the last, still fits.
pub struct Clock {
    epoch: Instant,
    seconds: f64,
    last_lap: Cell<f64>,
}

impl Clock {
    fn new(seconds: f64) -> Self {
        Self {
            epoch: Instant::now(),
            seconds,
            last_lap: Cell::new(0.0),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether to start another round after `done` of them (always, below
    /// `min`).
    pub fn more(&self, done: u64, min: u64) -> bool {
        done < min || self.epoch.elapsed().as_secs_f64() + self.last_lap.get() <= self.seconds
    }

    /// Records a finished round that began at `started`.
    pub fn lap(&self, started: Instant) {
        self.last_lap.set(started.elapsed().as_secs_f64());
    }
}

/// splitmix64: the benchmark's seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Where runs keep their durable directories and traces: inside the
/// directory the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Fig. 6: the paper's small corpus still ranks "Guilty by Suspicion" first.
fn fig6_holds() -> bool {
    let (_db, result, _) = kath_bench::run_flagship_small();
    result
        .display_table()
        .cell(0, "title")
        .ok()
        .and_then(|v| v.as_str().map(|s| s == "Guilty by Suspicion"))
        .unwrap_or(false)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pinned: Vec<&str> = PINS
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each changes what is measured",
            pinned.join(", ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"env\": {{\"nproc\": {nproc}, \"profile\": {}, \"flush_policy\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        quote(profile),
        quote("fsync per commit, group commit on"),
        quote(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    );

    let fig6 = fig6_holds();
    if !fig6 {
        eprintln!("perfbench: mmqa_small no longer ranks \"Guilty by Suspicion\" first (Fig. 6)");
    }
    let clock = Clock::new(args.seconds);
    let outcome = match args.workload.as_str() {
        "nl_cold" => nl::nl_cold(args.seed, &clock, args.trace),
        "nl_session" => nl::nl_session(args.seed, &clock, args.trace),
        _ => sql::sql_mix(args.seed, &clock, args.trace),
    };

    if let Some(tr) = &outcome.trace {
        let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{{\"report\": {}}}", outcome.report.to_json());

    let (names, source): (&[(&str, &str)], &Metrics) = if args.trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.e2e)
    };
    let mut metrics = Metrics::default();
    for (name, unit) in names {
        metrics.set(*name, source.get(name).unwrap_or(0.0), unit);
    }
    if outcome.attempted == 0 {
        eprintln!("perfbench: no op ran");
        return ExitCode::FAILURE;
    }
    let correct = fig6 && outcome.checks_ok && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
