//! The repository benchmark: two serving workloads that each stress a
//! different layer of the Bolt stack, measured end to end and, in a separate
//! traced run, layer by layer from outside the library.
//!
//! See `README.md` beside this crate for the workload rationale, the
//! layer → metric → workload table and how to run it.

pub mod catalog;
pub mod host;
pub mod loadgen;
pub mod models;
pub mod probes;
pub mod stats;
pub mod trace;

mod fleet_deep;
mod serve_small;
mod serving;

use catalog::Metrics;
use models::SetupTimes;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// One of the workloads `BENCHMARK.json` lists.
    pub workload: String,
    /// Drives every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub duration: Duration,
    /// Record spans and per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Stop after the setup: `setup_s` is all such a run measures.
    pub setup_only: bool,
    /// When the process started; the setup is timed from here.
    pub process_start: Instant,
    /// Directory for scratch files, sockets and span dumps (relative
    /// paths keep socket names short).
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// A private scratch directory for this run.
    fn work_dir(&self) -> PathBuf {
        self.out_dir
            .join(format!("work-{}-{}", self.workload, std::process::id()))
    }
}

/// What a run measured and whether every answer was right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted in the timed phase.
    pub attempted: u64,
    /// Failed operations plus one per failed run-level check.
    pub failed: u64,
    /// Failed checks, described.
    pub breaches: Vec<String>,
    /// Every metric measured.
    pub metrics: Metrics,
    /// Diagnostic lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed run-level check.
    fn breach(&mut self, what: String) {
        self.failed += 1;
        self.breaches.push(what);
    }

    /// Whether every answer was right and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.breaches.is_empty()
    }
}

/// Runs the workload's setup, recording `setup_s` (process start to the
/// end of the setup) and the time each setup layer took.
fn timed_setup<S>(cfg: &RunConfig, m: &mut Metrics, setup: impl FnOnce(&mut SetupTimes) -> S) -> S {
    let mut times = SetupTimes::default();
    let ready = setup(&mut times);
    m.set("setup_s", cfg.process_start.elapsed().as_secs_f64());
    m.set("forest.train_s", times.train_s);
    m.set("core.compile_s", times.compile_s);
    if times.write_s > 0.0 {
        m.set("artifact.write_s", times.write_s);
    }
    if times.open_us > 0.0 {
        m.set("artifact.open_us", times.open_us);
    }
    ready
}

/// Host-level metrics every run reports, read at the end of the timed
/// phase.
fn finish_host_metrics(out: &mut Outcome, ticks0: &host::CpuTicks) {
    out.metrics.set("peak_rss_mb", host::peak_rss_mib());
    out.metrics.set(
        "host.steal_frac",
        host::CpuTicks::read().steal_frac_since(ticks0),
    );
}

/// Runs one workload.
///
/// # Errors
///
/// A message for an unknown workload or an environment failure (a socket
/// or scratch file that cannot be created).
pub fn run(cfg: &RunConfig) -> Result<(Outcome, Tracer), String> {
    let tracer = if cfg.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let work = cfg.work_dir();
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = match cfg.workload.as_str() {
        "serve_small" => serve_small::run(cfg, &work, &tracer),
        "fleet_deep" => fleet_deep::run(cfg, &work, &tracer),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {:?}",
            catalog::CATALOG.workloads
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut out = result?;
    let error_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.set("error_frac", error_frac);
    Ok((out, tracer))
}
