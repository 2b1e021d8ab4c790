//! `fleet_deep`: an in-process TCP server over a model directory of 16
//! deep-forest artifacts, with a resident budget that admits 4.
//!
//! Three of every four requests go to one hot model; the fourth
//! round-robins (in a seeded order) over the 15 cold ones, so about one
//! request in four misses the resident set and pays resolve, mmap,
//! validate and evict. Resident hits pay the deep kernel through the
//! serving path. A change that speeds misses but slows hits shows here.

use crate::loadgen::{self, Endpoint, Planned, Traffic};
use crate::models::{self, Rng, Trained, DEEP};
use crate::probes::{self, KernelTarget};
use crate::serving::{check_counts, placement, record_load, served_counts};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::{finish_host_metrics, host, timed_setup, Outcome, RunConfig};
use bolt_artifact::{ArtifactWriter, MappedForest};
use bolt_baselines::InferenceEngine;
use bolt_server::proto::{ClassifyResponse, ClassifyWithRequest, V2Response};
use bolt_server::{
    ArtifactEngine, ModelRegistry, ModelStore, ServerBuilder, TcpClassificationServer,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Artifacts in the model directory.
const FLEET: usize = 16;
/// Artifacts the resident budget admits.
const RESIDENT: u64 = 4;
/// Arrivals per second across both connections: misses cost several ms of
/// mapping and validation, so this stays well under the miss path's
/// capacity.
const RATE: f64 = 100.0;
/// Generator threads, one connection each.
const CONNECTIONS: usize = 2;
/// Latency limit for `slo_frac`: a miss (about 7 ms of mapping and
/// validation) fits under it unless it queues behind the other
/// connection's miss.
const SLO_US: f64 = 10_000.0;
/// Closed-loop requests after the setup: two passes over the cold models,
/// so the resident set is in its steady state before timing starts.
const WARM_REQUESTS: usize = 4 * 2 * (FLEET - 1);
/// Resolves replayed against a copy of the directory in the traced run.
const REPLAY: usize = 600;

struct Ready {
    server: TcpClassificationServer,
    dir: PathBuf,
    budget: u64,
    /// Per forest variant.
    models: Vec<Trained>,
}

fn name(i: usize) -> String {
    format!("m{i:02}")
}

/// Which trained forest backs model `i`: the two variants alternate.
fn variant(i: usize) -> usize {
    i % 2
}

pub(crate) fn run(cfg: &RunConfig, work: &Path, tracer: &Tracer) -> Result<Outcome, String> {
    let placement = placement(CONNECTIONS)?;
    // Serving sleeps and wakes on every request; see `IdleKeepers`.
    let keepers = &host::IdleKeepers::start();
    let mut out = Outcome::default();
    let names: Vec<String> = (0..FLEET).map(name).collect();
    let mut setup_error = None;
    let ready = timed_setup(cfg, &mut out.metrics, |times| {
        let root = tracer.id();
        let t0 = Instant::now();
        let models: Vec<Trained> = (0..2)
            .map(|v| models::train(DEEP, cfg.seed, v, tracer, Some(root), times))
            .collect();
        let dir = work.join("models");
        let t = Instant::now();
        let written = tracer.span("artifact.write", Some(root), None, || {
            std::fs::create_dir_all(&dir)?;
            for (i, name) in names.iter().enumerate() {
                let path = dir.join(format!("{name}@1.blt"));
                ArtifactWriter::write_forest_versioned(&models[variant(i)].bolt, 1, &path)?;
            }
            std::io::Result::Ok(())
        });
        times.write_s += t.elapsed().as_secs_f64();
        if let Err(e) = written {
            setup_error = Some(format!("write artifacts: {e}"));
            return None;
        }
        let size = |i: usize| {
            std::fs::metadata(dir.join(format!("{}@1.blt", names[i]))).map_or(0, |m| m.len())
        };
        let (small, large) = (size(0).min(size(1)), size(0).max(size(1)));
        // Admit exactly RESIDENT artifacts: the largest four fit, no five do.
        let budget = (RESIDENT * large + (RESIDENT + 1) * small) / 2;
        if !(RESIDENT * large <= budget && budget < (RESIDENT + 1) * small) {
            setup_error = Some(format!(
                "artifact sizes {small}..{large} cannot share a {RESIDENT}-artifact budget"
            ));
            return None;
        }
        let server = tracer
            .span("server.bind", Some(root), None, || {
                placement.on_server(|| {
                    ServerBuilder::new()
                        .model_dir(&dir)
                        .resident_bytes(budget)
                        .bind_tcp("127.0.0.1:0")
                })
            })
            .map_err(|e| format!("bind tcp: {e}"));
        let server = match server {
            Ok(s) => s,
            Err(e) => {
                setup_error = Some(e);
                return None;
            }
        };
        let endpoint = Endpoint::Tcp(server.local_addr());
        let plan = plan(cfg.seed ^ 0xFACE, WARM_REQUESTS, &models);
        let warm = loadgen::warm_up(
            &traffic(&endpoint, &names, &models[0].pool, &plan, None),
            WARM_REQUESTS,
        );
        if !matches!(&warm, Ok(w) if w.correct as usize == WARM_REQUESTS) {
            setup_error = Some(format!("warm-up failed: {warm:?}"));
            return None;
        }
        tracer.record(root, "bench.setup", None, None, t0, Instant::now());
        Some(Ready {
            server,
            dir,
            budget,
            models,
        })
    });
    let Some(ready) = ready else {
        return Err(setup_error.unwrap_or_default());
    };
    if cfg.setup_only {
        ready.server.shutdown();
        return Ok(out);
    }
    let pool = &ready.models[0].pool;
    let endpoint = Endpoint::Tcp(ready.server.local_addr());
    let requests = (RATE * cfg.duration.as_secs_f64()) as usize;
    let plan = plan(cfg.seed, requests.max(1), &ready.models);
    let traffic = traffic(&endpoint, &names, pool, &plan, Some(placement.client));
    let store = ready.server.store();
    let before = served_counts(&store, &names);
    let metrics0 = store.metrics();
    let ticks0 = host::CpuTicks::read();
    let cpu0 = host::work_cpu_ns(keepers);
    let load = loadgen::run(&traffic, tracer).map_err(|e| format!("connect to the server: {e}"))?;
    let cpu_ns = host::work_cpu_ns(keepers) - cpu0;
    finish_host_metrics(&mut out, &ticks0);
    let after = served_counts(&store, &names);
    check_counts(&mut out, &names, &before, &after, &load);
    let metrics1 = store.metrics();
    if metrics1.resident_bytes > ready.budget {
        out.breach(format!(
            "resident bytes {} exceed the {} budget",
            metrics1.resident_bytes, ready.budget
        ));
    }
    record_load(&mut out, &load, cpu_ns, SLO_US);

    if cfg.trace {
        let m = &mut out.metrics;
        let served: u64 = after.iter().zip(&before).map(|(a, b)| a - b).sum();
        let loads = (metrics1.evictions - metrics0.evictions)
            + (metrics1.resident_models - metrics0.resident_models);
        m.set("store.miss_frac", loads as f64 / served.max(1) as f64);
        m.set(
            "store.evictions",
            (metrics1.evictions - metrics0.evictions) as f64,
        );
        m.set(
            "store.thrash_reloads",
            (metrics1.thrash_reloads - metrics0.thrash_reloads) as f64,
        );
        m.set(
            "store.resident_bytes_hwm",
            metrics1.resident_bytes_hwm as f64,
        );
        replay_resolves(&ready, &names, &plan, work, m)?;

        let hot = ready.dir.join(format!("{}@1.blt", names[0]));
        let mut opens = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let model = tracer
                .span("artifact.open", None, None, || MappedForest::open(&hot))
                .map_err(|e| format!("open {}: {e}", hot.display()))?;
            opens.push(t.elapsed().as_secs_f64() * 1e6);
            m.set("artifact.bytes", model.artifact().bytes().len() as f64);
        }
        m.set("artifact.open_us", stats::median(&opens));

        let request = ClassifyWithRequest {
            model: names[0].clone(),
            features: pool[0].clone(),
        }
        .encode()
        .expect("within frame limits");
        let response = ClassifyResponse {
            class: 1,
            latency_ns: 1_000,
        }
        .encode_v2();
        let echo = loadgen::echo_p50_us(&endpoint, &request, &response, 2_000)
            .map_err(|e| format!("echo baseline: {e}"))?;
        m.set("transport.echo_p50_us", echo);
        // The store builds its engines itself, so no wrapper can time the
        // engine call here; the server's own per-request service time
        // stands in for it.
        let client_p50 = m.get("latency_p50_us").unwrap_or(0.0);
        let service_p50 = m.get("server.service_p50_us").unwrap_or(0.0);
        m.set("server.overhead_p50_us", client_p50 - echo - service_p50);
        probes::measure_proto(
            || {
                ClassifyWithRequest {
                    model: names[0].clone(),
                    features: pool[0].clone(),
                }
                .encode()
                .expect("within frame limits")
                .to_vec()
            },
            |payload| match V2Response::decode(payload) {
                Ok(V2Response::Classify(r)) => r.class,
                _ => 0,
            },
            &response[4..],
            m,
        );

        let model =
            Arc::new(MappedForest::open(&hot).map_err(|e| format!("open {}: {e}", hot.display()))?);
        let adapter = ArtifactEngine::new(Arc::clone(&model));
        let target = KernelTarget {
            view: model.view(),
            universe: model.universe(),
            encode: &|s| model.encode(s),
            classify_batch: &|s| adapter.classify_batch(s),
            pool,
            expected: &ready.models[variant(0)].expected,
        };
        let bad = probes::measure_core(&target, model.batch_scratch(), cfg.seed, tracer, m);
        if bad > 0 {
            out.breach(format!("{bad} kernel-probe answers differ from the forest"));
        }
    }
    ready.server.shutdown();
    Ok(out)
}

/// Replays the run's model sequence through `ModelStore::resolve` on a
/// copy of the model directory with the same budget, timing hits and
/// misses apart.
fn replay_resolves(
    ready: &Ready,
    names: &[String],
    plan: &[Planned],
    work: &Path,
    m: &mut crate::catalog::Metrics,
) -> Result<(), String> {
    let copy = work.join("replay");
    std::fs::create_dir_all(&copy).map_err(|e| format!("replay dir: {e}"))?;
    for name in names {
        let file = format!("{name}@1.blt");
        std::fs::copy(ready.dir.join(&file), copy.join(&file))
            .map_err(|e| format!("copy {file}: {e}"))?;
    }
    let store = ModelStore::open(ModelRegistry::new(), &copy, Some(ready.budget), 0)
        .map_err(|e| format!("open replay store: {e}"))?;
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for p in plan.iter().take(REPLAY) {
        let name = names[p.model as usize].as_str();
        let resident = store.registry().resolve(Some(name)).is_ok();
        let t = Instant::now();
        let handle = store.resolve(Some(name));
        let us = t.elapsed().as_secs_f64() * 1e6;
        if handle.is_err() {
            return Err(format!("replay could not resolve {name}"));
        }
        if resident { &mut hits } else { &mut misses }.push(us);
    }
    let miss = Summary::of(&mut misses);
    m.set("store.resolve_hit_us", stats::median(&hits));
    m.set("store.resolve_miss_p50_us", miss.p50);
    m.set("store.resolve_miss_p90_us", miss.p90);
    Ok(())
}

fn traffic<'a>(
    endpoint: &'a Endpoint,
    names: &'a [String],
    pool: &'a [Vec<f32>],
    plan: &'a [Planned],
    cpu: Option<usize>,
) -> Traffic<'a> {
    Traffic {
        endpoint,
        names,
        pool,
        plan,
        rate: RATE,
        connections: CONNECTIONS,
        cpu,
    }
}

/// `n` requests: three of four to the hot model `m00`, every fourth to the
/// next cold model in a seeded order; samples drawn from the shared pool
/// and checked against the forest behind the routed model.
fn plan(seed: u64, n: usize, models: &[Trained]) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 0xF1EE);
    let mut cold: Vec<usize> = (1..FLEET).collect();
    for i in (1..cold.len()).rev() {
        cold.swap(i, rng.below(i + 1));
    }
    let pool = models[0].pool.len();
    (0..n)
        .map(|k| {
            let model = if k % 4 == 3 {
                cold[(k / 4) % cold.len()]
            } else {
                0
            };
            let sample = rng.below(pool);
            Planned {
                model: model as u32,
                sample: sample as u32,
                expected: models[variant(model)].expected[sample],
            }
        })
        .collect()
}
