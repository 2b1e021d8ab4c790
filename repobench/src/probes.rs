//! Per-layer measurements taken from outside the library: a wrapper around
//! the engine the server calls, timed calls into the `bolt_core` kernel,
//! and the protocol codec.

use crate::catalog::Metrics;
use crate::models::Rng;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use bolt_baselines::InferenceEngine;
use bolt_bitpack::Mask;
use bolt_core::{BatchScratch, ForestView, InferenceStats};
use bolt_forest::PredicateUniverse;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Wraps the engine a server calls and times every call into it (traced
/// runs only; the untraced run registers the engine itself).
pub struct ProbeEngine<E> {
    inner: E,
    tracer: Tracer,
    calls: Mutex<Vec<(u32, u64)>>,
}

impl<E> ProbeEngine<E> {
    /// Wraps `inner`, recording a span per call into `tracer`.
    pub fn new(inner: E, tracer: Tracer) -> Self {
        Self {
            inner,
            tracer,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Takes the `(samples, nanoseconds)` of every call so far.
    pub fn take_calls(&self) -> Vec<(u32, u64)> {
        std::mem::take(&mut *self.calls.lock().expect("probe log poisoned"))
    }

    fn timed<T>(&self, name: &'static str, samples: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.tracer
            .record(self.tracer.id(), name, None, None, start, end);
        self.calls
            .lock()
            .expect("probe log poisoned")
            .push((samples as u32, end.duration_since(start).as_nanos() as u64));
        out
    }
}

impl<E: InferenceEngine> InferenceEngine for ProbeEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        self.timed("server.engine.classify", 1, || self.inner.classify(sample))
    }

    fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        self.timed("server.engine.classify_batch", samples.len(), || {
            self.inner.classify_batch(samples)
        })
    }
}

/// Records the engine-layer metrics from a probe's call log over a timed
/// phase of `wall_s` seconds.
pub fn engine_metrics(calls: &[(u32, u64)], wall_s: f64, m: &mut Metrics) {
    if calls.is_empty() {
        return;
    }
    let samples: u64 = calls.iter().map(|&(n, _)| u64::from(n)).sum();
    let busy_ns: u64 = calls.iter().map(|&(_, ns)| ns).sum();
    let mut us: Vec<f64> = calls.iter().map(|&(_, ns)| ns as f64 / 1e3).collect();
    let s = Summary::of(&mut us);
    m.set(
        "server.samples_per_call",
        samples as f64 / calls.len() as f64,
    );
    m.set("server.engine_call_p50_us", s.p50);
    m.set("server.engine_call_p90_us", s.p90);
    m.set("server.engine_busy_frac", busy_ns as f64 / 1e9 / wall_s);
}

/// Rounds of 64 samples the kernel measurement takes.
const CORE_ROUNDS: usize = 60;
/// Samples per batch in the kernel measurement.
pub const BATCH: usize = 64;

/// The model under test, as the kernel layer sees it.
pub struct KernelTarget<'a> {
    /// The shared scan view.
    pub view: ForestView<'a>,
    /// Input encoding.
    pub universe: &'a PredicateUniverse,
    /// The model's own single-sample encode call.
    pub encode: &'a dyn Fn(&[f32]) -> Mask,
    /// The batch call the workload makes (`MappedForest::classify_batch`
    /// or the server's engine adapter).
    pub classify_batch: &'a dyn Fn(&[&[f32]]) -> Vec<u32>,
    /// Request pool and reference answers.
    pub pool: &'a [Vec<f32>],
    /// Reference answers.
    pub expected: &'a [u32],
}

/// Lowest class with the highest vote (the library's tie rule).
fn argmax(votes: &[f64]) -> u32 {
    let mut best = 0;
    for (i, &v) in votes.iter().enumerate() {
        if v > votes[best] {
            best = i;
        }
    }
    best as u32
}

/// Times the kernel's calls on batches from the pool (batched calls reuse
/// `scratch`, shaped for the model) and records the `core.*` metrics.
/// Returns the number of answers that disagreed with the reference
/// forest.
pub fn measure_core(
    t: &KernelTarget<'_>,
    mut scratch: BatchScratch,
    seed: u64,
    tracer: &Tracer,
    m: &mut Metrics,
) -> u64 {
    let mut rng = Rng::new(seed, 0xC0DE);
    let mut votes = vec![0.0; t.view.n_classes()];
    let (mut encode, mut scan, mut batch, mut setup) = (vec![], vec![], vec![], vec![]);
    let mut wrong = 0;
    let mut counts = InferenceStats::default();
    for _ in 0..CORE_ROUNDS {
        let idx: Vec<usize> = (0..BATCH).map(|_| rng.below(t.pool.len())).collect();
        let samples: Vec<&[f32]> = idx.iter().map(|&i| t.pool[i].as_slice()).collect();
        let root = tracer.id();
        let round_start = Instant::now();

        let start = Instant::now();
        let masks: Vec<Mask> = samples.iter().map(|s| (t.encode)(black_box(s))).collect();
        let end = Instant::now();
        tracer.record(tracer.id(), "core.encode", Some(root), None, start, end);
        encode.push(end.duration_since(start).as_nanos() as f64 / BATCH as f64);

        let start = Instant::now();
        for (mask, &i) in masks.iter().zip(&idx) {
            votes.fill(0.0);
            t.view.scan_votes_into(black_box(mask), &mut votes, None);
            wrong += u64::from(argmax(&votes) != t.expected[i]);
        }
        let end = Instant::now();
        tracer.record(
            tracer.id(),
            "core.scan_votes_into",
            Some(root),
            None,
            start,
            end,
        );
        scan.push(end.duration_since(start).as_nanos() as f64 / BATCH as f64);

        let start = Instant::now();
        t.view
            .batch_votes_into(t.universe, black_box(&samples), &mut scratch);
        let end = Instant::now();
        tracer.record(
            tracer.id(),
            "core.batch_votes_into",
            Some(root),
            None,
            start,
            end,
        );
        let batch_ns = end.duration_since(start).as_nanos() as f64;
        batch.push(batch_ns / BATCH as f64);
        for (b, &i) in idx.iter().enumerate() {
            wrong += u64::from(scratch.class(b) != t.expected[i]);
        }

        let start = Instant::now();
        let classes = (t.classify_batch)(black_box(&samples));
        let end = Instant::now();
        tracer.record(
            tracer.id(),
            "core.classify_batch_call",
            Some(root),
            None,
            start,
            end,
        );
        setup.push((end.duration_since(start).as_nanos() as f64 - batch_ns) / 1e3);
        for (&class, &i) in classes.iter().zip(&idx) {
            wrong += u64::from(class != t.expected[i]);
        }
        tracer.record(root, "core.round", None, None, round_start, Instant::now());

        // Mechanism counters: untimed, so the counting branch does not
        // bias the scan times above.
        for mask in &masks {
            votes.fill(0.0);
            counts.entries_scanned += t.view.dict().len();
            t.view.scan_votes_into(mask, &mut votes, Some(&mut counts));
        }
    }
    let per_sample = |n: usize| n as f64 / (CORE_ROUNDS * BATCH) as f64;
    m.set("core.encode_ns", stats::median(&encode));
    m.set("core.scan_votes_ns", stats::median(&scan));
    m.set("core.batch_ns_per_sample", stats::median(&batch));
    m.set("core.batch_setup_us", stats::median(&setup));
    m.set("core.entries_scanned", per_sample(counts.entries_scanned));
    m.set("core.entries_matched", per_sample(counts.entries_matched));
    m.set("core.bloom_rejects", per_sample(counts.bloom_rejects));
    m.set("core.table_hits", per_sample(counts.table_hits));
    m.set("core.table_misses", per_sample(counts.table_misses));
    m.set(
        "core.match_frac",
        counts.entries_matched as f64 / counts.entries_scanned.max(1) as f64,
    );
    m.set(
        "core.probe_hit_frac",
        counts.table_hits as f64 / counts.entries_matched.max(1) as f64,
    );
    // Computed from the dictionary's shape, not measured: the packed mask
    // and key words one sample's scan reads.
    m.set(
        "core.dict_bytes_per_sample",
        t.view.dict().scan_bytes() as f64,
    );
    wrong
}

/// Median nanoseconds per call of `f` over repeated tight loops.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const ITERS: u32 = 2_000;
    let runs: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ITERS {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(ITERS)
        })
        .collect();
    stats::median(&runs)
}

/// Times the protocol codec on the frames the workload sends: encoding a
/// request from a sample, decoding a response payload.
pub fn measure_proto(
    encode: impl Fn() -> Vec<u8>,
    decode: impl Fn(&[u8]) -> u32,
    response_payload: &[u8],
    m: &mut Metrics,
) {
    m.set(
        "proto.encode_ns",
        ns_per_call(|| {
            black_box(encode());
        }),
    );
    m.set(
        "proto.decode_ns",
        ns_per_call(|| {
            black_box(decode(black_box(response_payload)));
        }),
    );
}
