//! What the two serving workloads share: turning the generator's view into
//! metrics, and checking the server's own request counts against it.

use crate::catalog::Metrics;
use crate::host;
use crate::loadgen::LoadResult;
use crate::stats::{self, Summary, P50, P90, P99};
use crate::Outcome;
use bolt_server::ModelStore;

/// Requests each of `names` has answered so far, from the server's own
/// per-model statistics (`ModelStore::list`).
pub(crate) fn served_counts(store: &ModelStore, names: &[String]) -> Vec<u64> {
    let listed = store.list();
    names
        .iter()
        .map(|name| {
            listed
                .iter()
                .find(|info| &info.name == name)
                .map_or(0, |info| info.requests)
        })
        .collect()
}

/// Fails the run unless the server answered exactly as many requests per
/// model as the generator received answers.
pub(crate) fn check_counts(
    out: &mut Outcome,
    names: &[String],
    before: &[u64],
    after: &[u64],
    load: &LoadResult,
) {
    for (i, name) in names.iter().enumerate() {
        let server = after[i] - before[i];
        let client = load.answered_per_model[i];
        if server != client {
            out.failed += server.abs_diff(client);
            out.breaches.push(format!(
                "model {name}: server counted {server} requests, client received {client} answers"
            ));
        }
    }
}

/// Where the workload's threads run (see [`host::Placement`]). Refuses a
/// run whose generator would use more connections (one thread each) than
/// the host has CPUs, or that cannot give the generator a CPU apart from
/// the server's: the generator would then compete with the server it
/// measures.
pub(crate) fn placement(connections: usize) -> Result<host::Placement, String> {
    let cpus = host::nproc();
    if connections > cpus {
        return Err(format!(
            "the workload needs {connections} generator threads and connections, \
             but this host has {cpus} CPUs"
        ));
    }
    host::Placement::split().ok_or_else(|| {
        format!("the workload needs two CPUs, one for the generator, but this host has {cpus}")
    })
}

/// Records the end-to-end metrics of an open-loop phase, over the whole
/// phase except the windowed p90, and the generator's own per-layer
/// metrics. `cpu_ns` is the whole
/// process's CPU time over the phase; `slo_us` is the workload's latency
/// limit.
pub(crate) fn record_load(out: &mut Outcome, load: &LoadResult, cpu_ns: u64, slo_us: f64) {
    out.attempted = load.sent;
    out.failed += load.failed();
    let mut answered: Vec<f64> = load
        .requests
        .iter()
        .filter(|r| r.answered)
        .map(|r| r.latency_us)
        .collect();
    let latency = Summary::of(&mut answered);
    let within = load
        .requests
        .iter()
        .filter(|r| r.correct && r.latency_us <= slo_us)
        .count();
    let m: &mut Metrics = &mut out.metrics;
    // Open loop: this is the offered rate unless answers fail or the
    // server falls behind the schedule.
    let per_second = load.correct as f64 / load.elapsed_s;
    m.set("throughput_sps", per_second);
    m.set("latency_p50_us", latency.p50);
    // The tail alone is the median of per-window p90s: over the whole run
    // it swings with the host's stalls (see the README).
    m.set(
        "latency_p90_us",
        stats::window_median(
            &load.requests,
            load.schedule_s,
            |r| r.due_s,
            |w| {
                let mut lat: Vec<f64> = w
                    .iter()
                    .filter(|r| r.answered)
                    .map(|r| r.latency_us)
                    .collect();
                stats::sort(&mut lat);
                (!lat.is_empty()).then(|| stats::percentile(&lat, P90))
            },
        ),
    );
    // Failed and refused requests count as misses.
    m.set("slo_frac", within as f64 / load.sent.max(1) as f64);
    m.set(
        "cpu_us_per_sample",
        cpu_ns as f64 / 1e3 / load.answered.max(1) as f64,
    );
    let mut late = load.late_us.clone();
    stats::sort(&mut late);
    let sent = load.sent.max(1) as f64;
    if !late.is_empty() {
        m.set("loadgen.late_p50_us", stats::percentile(&late, P50));
        m.set("loadgen.late_p99_us", stats::percentile(&late, P99));
    }
    m.set(
        "loadgen.cpu_us_per_req",
        load.generator_cpu_ns as f64 / 1e3 / sent,
    );
    m.set(
        "server.cpu_us_per_req",
        cpu_ns.saturating_sub(load.generator_cpu_ns) as f64 / 1e3 / sent,
    );
    m.set("server.service_p50_us", stats::median(&load.service_us));
    out.notes.push(format!(
        "client latency (scheduled send -> decoded response): {}",
        latency.describe("us")
    ));
    out.notes.push(format!(
        "sent {} answered {} correct {} wrong {} refused {} shed {} errors {} in {:.3}s; \
         send lateness p50 {:.1}us p99 {:.1}us",
        load.sent,
        load.answered,
        load.correct,
        load.wrong,
        load.refused,
        load.shed,
        load.errors,
        load.elapsed_s,
        out.metrics.get("loadgen.late_p50_us").unwrap_or(0.0),
        out.metrics.get("loadgen.late_p99_us").unwrap_or(0.0),
    ));
}
