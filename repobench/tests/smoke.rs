//! A short run of every workload, untraced and traced: every answer must
//! be right, every metric present with its unit, and the traced layers
//! the workloads exist to expose must show up.

use repobench::catalog::{result_line, CATALOG};
use repobench::{run, RunConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn config(workload: &str, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_owned(),
        seed: 7,
        duration: Duration::from_millis(600),
        trace,
        setup_only: false,
        process_start: Instant::now(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    }
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    for workload in &CATALOG.workloads {
        for trace in [false, true] {
            let (out, tracer) = run(&config(workload, trace)).expect("runs");
            let what = format!("{workload} trace={trace}");
            assert!(out.correct(), "{what}: {:?}", out.breaches);
            assert_eq!(out.failed, 0, "{what}");
            assert!(out.attempted > 0, "{what}");
            assert_eq!(out.metrics.get("error_frac"), Some(0.0), "{what}");
            let table = if trace {
                &CATALOG.per_layer
            } else {
                &CATALOG.end_to_end
            };
            let line = result_line(true, out.attempted, 0, &out.metrics.select(table));
            for m in table.iter() {
                let entry = format!("\"{}\":{{\"value\":", m.name);
                assert!(line.contains(&entry), "{what}: {} missing", m.name);
            }
            for m in table.iter() {
                assert!(
                    line.contains(&format!("\"unit\":\"{}\"", m.unit)),
                    "{what}: unit {}",
                    m.unit
                );
            }
            if trace {
                assert!(!tracer.snapshot().0.is_empty(), "{what}: no spans");
                assert!(out.metrics.get("core.scan_votes_ns").unwrap_or(0.0) > 0.0);
            } else {
                for (m, v) in out.metrics.select(&CATALOG.end_to_end) {
                    assert!(v > 0.0, "{what}: {} reads {v}", m.name);
                }
            }
            match (workload.as_str(), trace) {
                ("serve_small", true) => {
                    assert!(out.metrics.get("server.samples_per_call").unwrap_or(0.0) >= 1.0);
                    assert!(out.metrics.get("server.engine_call_p50_us").unwrap_or(0.0) > 0.0);
                    assert!(out.metrics.get("transport.echo_p50_us").unwrap_or(0.0) > 0.0);
                }
                ("fleet_deep", true) => {
                    let miss = out.metrics.get("store.miss_frac").unwrap_or(0.0);
                    assert!((0.15..=0.35).contains(&miss), "miss_frac {miss}");
                    assert!(out.metrics.get("store.resolve_miss_p50_us").unwrap_or(0.0) > 0.0);
                }
                _ => {}
            }
        }
    }
}

#[test]
fn setup_only_runs_stop_after_the_setup() {
    for workload in &CATALOG.workloads {
        // Its own scratch directory: the tests run in parallel in one
        // process, and a run's work directory is named by process id.
        let cfg = RunConfig {
            setup_only: true,
            out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("setup-only"),
            ..config(workload, false)
        };
        let (out, _) = run(&cfg).expect("runs");
        assert!(out.correct(), "{workload}: {:?}", out.breaches);
        assert_eq!(out.attempted, 0, "{workload}: nothing timed");
        assert!(
            out.metrics.get("setup_s").unwrap_or(0.0) > 0.0,
            "{workload}"
        );
    }
}
