//! `repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a readable report, then one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 on any wrong answer, count mismatch or budget
//! breach, and 2 on a usage or environment error.
//!
//! `--setup-only` stops a run after its setup and prints only its
//! `setup_s`; a full run starts `COLD_SETUPS - 1` such processes of its
//! own after its timed phase and reports the median.

use repobench::catalog::{self, CATALOG};
use repobench::host::Provenance;
use repobench::{stats, trace, RunConfig};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Scratch files, sockets and span dumps, relative to the repository root.
const OUT_DIR: &str = "repobench/out";

/// Processes whose setup `setup_s` is the median of: this one and
/// `COLD_SETUPS - 1` setup-only runs it starts after its timed phase. Each
/// is timed from its own process start, so one-time initialisation counts
/// in every sample.
const COLD_SETUPS: usize = 7;

fn usage() -> String {
    format!(
        "usage: repobench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--setup-only]",
        CATALOG.workloads.join("|")
    )
}

fn parse(args: &[String], process_start: Instant) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        duration: Duration::from_secs(10),
        trace: false,
        setup_only: false,
        process_start,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            cfg.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                cfg.duration = Duration::from_secs_f64(s);
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !CATALOG.workloads.contains(&cfg.workload) {
        return Err(format!("--workload must be one of {:?}", CATALOG.workloads));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args, process_start) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (mut out, tracer) = match repobench::run(&cfg) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("repobench {}: {e}", cfg.workload);
            return ExitCode::from(2);
        }
    };
    let own_setup_s = out.metrics.get("setup_s").unwrap_or(0.0);
    if cfg.setup_only {
        if !out.correct() {
            eprintln!(
                "repobench {}: setup failed: {:?}",
                cfg.workload, out.breaches
            );
            return ExitCode::from(1);
        }
        println!("setup_s {own_setup_s}");
        return ExitCode::SUCCESS;
    }
    let mut setups = vec![own_setup_s];
    for _ in 1..COLD_SETUPS {
        match cold_setup_s(&args) {
            Ok(s) => setups.push(s),
            Err(e) => {
                eprintln!("repobench {}: setup-only run: {e}", cfg.workload);
                return ExitCode::from(2);
            }
        }
    }
    out.metrics.set("setup_s", stats::median(&setups));
    out.notes.push(format!(
        "setup_s is the median of {COLD_SETUPS} processes' setups, each from process start: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let p = Provenance::collect();
    println!(
        "repobench workload={} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.duration.as_secs_f64(),
        u8::from(cfg.trace)
    );
    println!(
        "provenance: git_rev={} dirty={} nproc={} cpu_model={:?} kernel={} host.steal_frac={:.5}",
        p.git_rev,
        p.dirty.map_or("unknown".into(), |d| d.to_string()),
        p.nproc,
        p.cpu_model,
        p.kernel,
        out.metrics.get("host.steal_frac").unwrap_or(0.0),
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    for breach in &out.breaches {
        println!("BREACH: {breach}");
    }
    let table = if cfg.trace {
        &CATALOG.per_layer
    } else {
        &CATALOG.end_to_end
    };
    let e2e = out.metrics.select(&CATALOG.end_to_end);
    // The traced run also measures the end-to-end metrics, with tracing
    // on: comparing them with an untraced run gives the tracing overhead.
    let label = if cfg.trace {
        "traced end-to-end"
    } else {
        "metric"
    };
    for (m, v) in &e2e {
        println!("{label} {} = {v} {}", m.name, m.unit);
    }
    println!(
        "metric error_frac = {} fraction",
        out.metrics.get("error_frac").unwrap_or(0.0)
    );
    if cfg.trace {
        for (m, v) in out.metrics.select(&CATALOG.per_layer) {
            println!("layer {} = {v} {}", m.name, m.unit);
        }
        let (spans, dropped) = tracer.snapshot();
        for (name, t) in trace::totals_by_name(&spans) {
            println!(
                "span {name}: count {} total {:.3} ms self {:.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        // One file per workload, replaced by each traced run, so repeated
        // runs do not pile up span dumps.
        let path = cfg.out_dir.join(format!("spans-{}.jsonl", cfg.workload));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => println!(
                "spans: {} written to {} ({dropped} dropped over the cap)",
                spans.len(),
                path.display()
            ),
            Err(e) => println!("spans: not written to {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        catalog::result_line(
            out.correct(),
            out.attempted,
            out.failed,
            &out.metrics.select(table)
        )
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs this program again with the same arguments plus `--setup-only`,
/// waits for it to end, and returns the `setup_s` it printed.
fn cold_setup_s(args: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .arg("--setup-only")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("exited with {}: {stdout}", output.status));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no setup_s in {stdout:?}"))
}
