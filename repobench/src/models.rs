//! Seeded inputs and the two forests the workloads serve.
//!
//! Everything a run feeds the library is derived from its one `--seed`:
//! the training set, the pool of request samples, the forest's bootstrap
//! seed and the request order. The library only ever sees the generated
//! inputs.

use crate::trace::Tracer;
use bolt_core::{BoltConfig, BoltForest};
use bolt_data::Workload;
use bolt_forest::{ForestConfig, RandomForest};
use std::time::Instant;

/// Samples in every workload's request pool.
pub const POOL: usize = 512;

/// Shape of a trained-and-compiled forest.
#[derive(Clone, Copy, Debug)]
pub struct ModelSpec {
    /// Trees in the forest.
    pub trees: usize,
    /// Maximum tree height.
    pub height: usize,
    /// Bolt's clustering threshold.
    pub threshold: usize,
    /// Training samples.
    pub train: usize,
}

/// The deep, scan-bound LSTW-like forest: threshold 0 keeps one
/// dictionary entry per root-to-leaf path (about 3k entries, a 1.7 MB BLT1
/// artifact), so inference cost is dominated by the dictionary scan.
pub const DEEP: ModelSpec = ModelSpec {
    trees: 20,
    height: 8,
    threshold: 0,
    train: 2000,
};

/// The legacy load suite's small LSTW-like forest, cheap enough (a few µs
/// per sample) that serving overhead dominates a round trip.
pub const SMALL: ModelSpec = ModelSpec {
    trees: 16,
    height: 6,
    threshold: 4,
    train: 1200,
};

/// splitmix64: a well-mixed 64-bit value from `seed` and a stream tag.
#[must_use]
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic index stream for request order.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` and `tag`.
    #[must_use]
    pub fn new(seed: u64, tag: u64) -> Self {
        Self(mix(seed, tag))
    }

    /// Next index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (mix(self.0, 0x5EED) % n as u64) as usize
    }
}

/// Seconds spent in each setup layer, summed over one setup.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `RandomForest::train`.
    pub train_s: f64,
    /// `BoltForest::compile`.
    pub compile_s: f64,
    /// `ArtifactWriter::write_forest*`.
    pub write_s: f64,
    /// `MappedForest::open`, in µs.
    pub open_us: f64,
}

/// A compiled forest and the request pool with the reference forest's own
/// answer (`RandomForest::predict`) for every pool sample.
pub struct Trained {
    /// The Bolt compilation.
    pub bolt: BoltForest,
    /// Request samples.
    pub pool: Vec<Vec<f32>>,
    /// `forest.predict` of each pool sample.
    pub expected: Vec<u32>,
}

/// Generates data from `seed`, trains `spec` (bootstrap stream `variant`)
/// and compiles it, timing each layer call into `times`.
#[must_use]
pub fn train(
    spec: ModelSpec,
    seed: u64,
    variant: u64,
    tracer: &Tracer,
    parent: Option<u64>,
    times: &mut SetupTimes,
) -> Trained {
    let data = bolt_data::generate(Workload::LstwLike, spec.train, mix(seed, 1 + 16 * variant));
    let test = bolt_data::generate(Workload::LstwLike, POOL, mix(seed, 2));
    let config = ForestConfig::new(spec.trees)
        .with_max_height(spec.height)
        .with_seed(mix(seed, 3 + 16 * variant));
    let t = Instant::now();
    let forest = tracer.span("forest.train", parent, None, || {
        RandomForest::train(&data, &config)
    });
    times.train_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let bolt = tracer.span("core.compile", parent, None, || {
        BoltForest::compile(
            &forest,
            &BoltConfig::default().with_cluster_threshold(spec.threshold),
        )
        .expect("an LSTW-like forest of this height compiles")
    });
    times.compile_s += t.elapsed().as_secs_f64();
    let pool: Vec<Vec<f32>> = (0..test.len()).map(|i| test.sample(i).to_vec()).collect();
    let expected = pool.iter().map(|s| forest.predict(s)).collect();
    Trained {
        bolt,
        pool,
        expected,
    }
}
