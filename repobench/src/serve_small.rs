//! `serve_small`: an in-process server on a Unix socket with the default
//! event loop and micro-batcher, serving the small forest as a
//! `BoltEngine`.
//!
//! Two generator threads on two connections send single-sample frames open
//! loop at a fixed rate below saturation. `classify` takes a few µs, so
//! the kernel is a few percent of a round trip: this workload isolates the
//! event loop, micro-batcher, engine adapter, protocol and socket path,
//! and a kernel-only change should not move it.

use crate::loadgen::{self, Endpoint, Planned, Traffic};
use crate::models::{self, Rng, SMALL};
use crate::probes::{self, KernelTarget, ProbeEngine};
use crate::serving::{check_counts, placement, record_load, served_counts};
use crate::trace::Tracer;
use crate::{finish_host_metrics, host, stats, timed_setup, Outcome, RunConfig};
use bolt_baselines::InferenceEngine;
use bolt_core::BoltForest;
use bolt_server::proto::{ClassifyRequest, ClassifyResponse};
use bolt_server::{BoltEngine, ClassificationServer, ServerBuilder};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Arrivals per second across both connections: well below the ~13k/s a
/// closed loop saturates at, where a growing backlog would set latency.
const RATE: f64 = 2_000.0;
/// Generator threads, one connection each.
const CONNECTIONS: usize = 2;
/// Latency limit for `slo_frac`.
const SLO_US: f64 = 1_000.0;
/// Closed-loop requests after the setup, before anything is timed.
const WARM_REQUESTS: usize = 400;
const MODEL: &str = "small";

struct Ready {
    server: ClassificationServer,
    probe: Option<Arc<ProbeEngine<BoltEngine>>>,
    bolt: Arc<BoltForest>,
    pool: Vec<Vec<f32>>,
    expected: Vec<u32>,
}

pub(crate) fn run(cfg: &RunConfig, work: &Path, tracer: &Tracer) -> Result<Outcome, String> {
    let placement = placement(CONNECTIONS)?;
    // Serving sleeps and wakes on every request; see `IdleKeepers`.
    let keepers = &host::IdleKeepers::start();
    let mut out = Outcome::default();
    let socket = work.join("s.sock");
    let endpoint = Endpoint::Uds(socket.clone());
    let mut setup_error = None;
    let ready = timed_setup(cfg, &mut out.metrics, |times| {
        let root = tracer.id();
        let t0 = Instant::now();
        let trained = models::train(SMALL, cfg.seed, 0, tracer, Some(root), times);
        let bolt = Arc::new(trained.bolt);
        let engine = BoltEngine::new(Arc::clone(&bolt));
        // The traced run wraps the engine the server calls; the untraced
        // run registers the adapter itself.
        let (engine, probe): (Arc<dyn InferenceEngine>, _) = if tracer.enabled() {
            let probe = Arc::new(ProbeEngine::new(engine, tracer.clone()));
            (Arc::clone(&probe) as _, Some(probe))
        } else {
            (Arc::new(engine), None)
        };
        let server = tracer
            .span("server.bind", Some(root), None, || {
                placement.on_server(|| {
                    ServerBuilder::new()
                        .register(MODEL, engine)
                        .default_model(MODEL)
                        .bind_uds(&socket)
                })
            })
            .map_err(|e| format!("bind {}: {e}", socket.display()));
        let server = match server {
            Ok(s) => s,
            Err(e) => {
                setup_error = Some(e);
                return None;
            }
        };
        let plan = plan(
            cfg.seed ^ 0xFACE,
            WARM_REQUESTS,
            &trained.expected,
            trained.pool.len(),
        );
        let warm = loadgen::warm_up(
            &traffic(&endpoint, &trained.pool, &plan, None),
            WARM_REQUESTS,
        );
        if !matches!(&warm, Ok(w) if w.correct as usize == WARM_REQUESTS) {
            setup_error = Some(format!("warm-up failed: {warm:?}"));
            return None;
        }
        tracer.record(root, "bench.setup", None, None, t0, Instant::now());
        Some(Ready {
            server,
            probe,
            bolt,
            pool: trained.pool,
            expected: trained.expected,
        })
    });
    let Some(ready) = ready else {
        return Err(setup_error.unwrap_or_default());
    };
    if cfg.setup_only {
        ready.server.shutdown();
        return Ok(out);
    }

    let requests = (RATE * cfg.duration.as_secs_f64()) as usize;
    let plan = plan(cfg.seed, requests.max(1), &ready.expected, ready.pool.len());
    let traffic = traffic(&endpoint, &ready.pool, &plan, Some(placement.client));
    let names = [MODEL.to_owned()];
    let store = ready.server.store();
    let before = served_counts(&store, &names);
    if let Some(probe) = &ready.probe {
        probe.take_calls();
    }
    let ticks0 = host::CpuTicks::read();
    let cpu0 = host::work_cpu_ns(keepers);
    let load = loadgen::run(&traffic, tracer).map_err(|e| format!("connect to the server: {e}"))?;
    let cpu_ns = host::work_cpu_ns(keepers) - cpu0;
    finish_host_metrics(&mut out, &ticks0);
    check_counts(
        &mut out,
        &names,
        &before,
        &served_counts(&store, &names),
        &load,
    );
    record_load(&mut out, &load, cpu_ns, SLO_US);

    if cfg.trace {
        let m = &mut out.metrics;
        if let Some(probe) = &ready.probe {
            probes::engine_metrics(&probe.take_calls(), load.elapsed_s, m);
        }
        let sample = &ready.pool[0];
        let request = ClassifyRequest {
            features: sample.clone(),
        }
        .encode();
        let response = ClassifyResponse {
            class: 1,
            latency_ns: 1_000,
        }
        .encode();
        let echo = loadgen::echo_p50_us(
            &Endpoint::Uds(work.join("e.sock")),
            &request,
            &response,
            2_000,
        )
        .map_err(|e| format!("echo baseline: {e}"))?;
        m.set("transport.echo_p50_us", echo);
        let client_p50 = m.get("latency_p50_us").unwrap_or(0.0);
        let engine_p50 = m.get("server.engine_call_p50_us").unwrap_or(0.0);
        m.set("server.overhead_p50_us", client_p50 - echo - engine_p50);
        probes::measure_proto(
            || {
                ClassifyRequest {
                    features: sample.clone(),
                }
                .encode()
                .to_vec()
            },
            |payload| ClassifyResponse::decode(payload).map_or(0, |r| r.class),
            &response[4..],
            m,
        );
        let mut resolve = Vec::with_capacity(2_000);
        for _ in 0..2_000 {
            let t = Instant::now();
            let handle = store.resolve(None);
            resolve.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(handle.is_ok());
        }
        m.set("store.resolve_hit_us", stats::median(&resolve));
        let adapter = BoltEngine::new(Arc::clone(&ready.bolt));
        let target = KernelTarget {
            view: ready.bolt.view(),
            universe: ready.bolt.universe(),
            encode: &|s| ready.bolt.encode(s),
            classify_batch: &|s| adapter.classify_batch(s),
            pool: &ready.pool,
            expected: &ready.expected,
        };
        let bad = probes::measure_core(&target, ready.bolt.batch_scratch(), cfg.seed, tracer, m);
        if bad > 0 {
            out.breach(format!("{bad} kernel-probe answers differ from the forest"));
        }
    }
    ready.server.shutdown();
    Ok(out)
}

fn traffic<'a>(
    endpoint: &'a Endpoint,
    pool: &'a [Vec<f32>],
    plan: &'a [Planned],
    cpu: Option<usize>,
) -> Traffic<'a> {
    Traffic {
        endpoint,
        names: &[],
        pool,
        plan,
        rate: RATE,
        connections: CONNECTIONS,
        cpu,
    }
}

/// `n` requests for seeded random pool samples.
fn plan(seed: u64, n: usize, expected: &[u32], pool: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 0x5E2E);
    (0..n)
        .map(|_| {
            let sample = rng.below(pool);
            Planned {
                model: 0,
                sample: sample as u32,
                expected: expected[sample],
            }
        })
        .collect()
}
