//! The classification front-end (Fig. 7), serving a [`ModelRegistry`].

use crate::event_loop::{self, EventLoopHandle, Listener, ServingMode};
use crate::proto::{
    write_frame, ClassifyBatchResponse, ClassifyResponse, ErrorFrame, FrameReader,
    ListModelsResponse, ProtoError, Request, ERR_INTERNAL, ERR_NO_DEFAULT_MODEL, ERR_RETIRED_MODEL,
    ERR_UNKNOWN_MODEL, ERR_UNSUPPORTED_VERSION, PROTOCOL_VERSION,
};
use crate::registry::{ModelHandle, ModelRegistry, RouteError};
use crate::store::ModelStore;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Aggregate service statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered.
    pub requests: u64,
    /// Total service-side latency across requests, in nanoseconds.
    pub total_latency_ns: u64,
}

impl ServerStats {
    /// Mean service-side latency in nanoseconds.
    #[must_use]
    pub fn mean_latency_ns(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency_ns as f64 / self.requests as f64
        }
    }
}

pub(crate) struct Shared {
    /// The model store every request resolves through. A detached store
    /// (no model directory) degrades to a plain registry passthrough.
    pub(crate) store: ModelStore,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn new(store: ModelStore) -> Self {
        Self {
            store,
            shutdown: AtomicBool::new(false),
        }
    }

    pub(crate) fn registry(&self) -> &ModelRegistry {
        self.store.registry()
    }
}

/// Joins every worker whose connection has already closed, so a long-lived
/// server does not accumulate one parked `JoinHandle` per historical
/// connection.
pub(crate) fn reap_finished(workers: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < workers.len() {
        if workers[i].is_finished() {
            let _ = workers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Longest sleep between retries of a failing `accept`.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// Drives an accept loop until shutdown, spawning one worker thread per
/// accepted connection. Shared by the UDS and TCP front-ends.
///
/// `WouldBlock` is the non-blocking listener's idle signal and polls at
/// 1 ms. Every *other* accept error — `EMFILE`/`ENFILE` descriptor
/// exhaustion under connection load, `ECONNABORTED` handshakes, `EINTR` —
/// is transient pressure, not a reason to die: a `break` here would kill
/// the accept thread while the process keeps running deaf. Such errors are
/// logged and retried with exponential backoff (capped at
/// [`ACCEPT_BACKOFF_MAX`]); only the shutdown flag exits the loop.
pub(crate) fn run_accept_loop<S, A, F>(shared: &Arc<Shared>, mut accept: A, serve: F)
where
    S: Send + 'static,
    A: FnMut() -> std::io::Result<S>,
    F: Fn(S, &Shared) + Clone + Send + 'static,
{
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut backoff = Duration::from_millis(1);
    while !shared.shutdown.load(Ordering::Acquire) {
        match accept() {
            Ok(stream) => {
                backoff = Duration::from_millis(1);
                let conn_shared = Arc::clone(shared);
                let serve = serve.clone();
                workers.push(std::thread::spawn(move || serve(stream, &conn_shared)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => {
                eprintln!("bolt-server: accept failed ({e}); retrying in {backoff:?}");
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
        reap_finished(&mut workers);
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// How a bound server front-end is being driven — and therefore how to
/// tear it down.
pub(crate) enum FrontEnd {
    /// Blocking accept loops spawning one thread per connection (the data
    /// listener, plus the admin listener when configured).
    Threads(Vec<JoinHandle<()>>),
    /// Event-loop thread plus worker pool ([`crate::event_loop`]).
    Event(EventLoopHandle),
}

impl FrontEnd {
    pub(crate) fn stop(&mut self) {
        match self {
            Self::Threads(handles) => {
                for handle in handles.drain(..) {
                    let _ = handle.join();
                }
            }
            Self::Event(handle) => handle.stop(),
        }
    }
}

/// A classification server on a Unix domain socket. Hosts every model in
/// its [`ModelRegistry`]; construct it with
/// [`ServerBuilder`](crate::ServerBuilder).
///
/// The default [`ServingMode`] is the event-loop front-end with adaptive
/// micro-batching; a one-sample flush threshold
/// ([`MicroBatchConfig::flush_samples`](crate::MicroBatchConfig::flush_samples)
/// `= 1`) serves the paper's §6 methodology on it (requests processed one
/// at a time, without batching, on the loop thread), and
/// [`ServingMode::ThreadPerConnection`] serves it with a dedicated thread
/// per connection.
pub struct ClassificationServer {
    shared: Arc<Shared>,
    path: PathBuf,
    /// The control-plane socket path, when one was bound; removed on stop.
    admin_path: Option<PathBuf>,
    front: FrontEnd,
}

impl ClassificationServer {
    /// Binds the socket (removing any stale file) and starts accepting,
    /// serving the store's models — registry-resident and lazily mapped
    /// directory artifacts alike — under the given serving mode. With
    /// `admin`, a mode-0600 control socket is bound alongside and served
    /// as its own listener class ([`crate::admin`]).
    pub(crate) fn bind_store(
        path: impl AsRef<Path>,
        store: ModelStore,
        mode: ServingMode,
        admin: Option<PathBuf>,
    ) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let admin_listener = match &admin {
            Some(admin_path) => Some(crate::admin::bind(admin_path)?),
            None => None,
        };
        let shared = Arc::new(Shared::new(store));
        let front = match mode {
            ServingMode::ThreadPerConnection => {
                let accept_shared = Arc::clone(&shared);
                let mut handles = vec![std::thread::spawn(move || {
                    run_accept_loop(
                        &accept_shared,
                        || listener.accept().map(|(stream, _)| stream),
                        |stream, shared| {
                            let _ = handle_connection(stream, shared);
                        },
                    );
                })];
                if let Some(admin_listener) = admin_listener {
                    admin_listener.set_nonblocking(true)?;
                    let accept_shared = Arc::clone(&shared);
                    handles.push(std::thread::spawn(move || {
                        run_accept_loop(
                            &accept_shared,
                            || admin_listener.accept().map(|(stream, _)| stream),
                            |stream, shared| {
                                let _ = handle_admin_connection(stream, shared);
                            },
                        );
                    }));
                }
                FrontEnd::Threads(handles)
            }
            ServingMode::EventLoop(opts) => FrontEnd::Event(event_loop::spawn(
                Listener::Uds(listener),
                admin_listener,
                Arc::clone(&shared),
                opts,
            )?),
        };
        Ok(Self {
            shared,
            path,
            admin_path: admin,
            front,
        })
    }

    /// The socket path clients connect to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The control-plane socket path, when one is bound.
    #[must_use]
    pub fn admin_path(&self) -> Option<&Path> {
        self.admin_path.as_deref()
    }

    /// A handle to the live model registry, for hot-swapping, retiring,
    /// and re-defaulting models while the server runs.
    #[must_use]
    pub fn registry(&self) -> ModelRegistry {
        self.shared.registry().clone()
    }

    /// A handle to the live model store, for lifecycle operations
    /// (activate, retire, set-default) that must survive a restart.
    #[must_use]
    pub fn store(&self) -> ModelStore {
        self.shared.store.clone()
    }

    /// Snapshot of the aggregate statistics across every model (including
    /// retired ones).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.registry().total_stats()
    }

    /// Snapshot of one model's statistics.
    #[must_use]
    pub fn stats_for(&self, model: &str) -> Option<ServerStats> {
        self.shared.registry().stats(model)
    }

    /// Stops accepting, waits for in-flight connections, and removes the
    /// socket file.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.front.stop();
        let _ = std::fs::remove_file(&self.path);
        if let Some(admin_path) = &self.admin_path {
            let _ = std::fs::remove_file(admin_path);
        }
    }
}

impl Drop for ClassificationServer {
    fn drop(&mut self) {
        // Infallible teardown; `shutdown` is the checked variant.
        self.stop();
    }
}

impl std::fmt::Debug for ClassificationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassificationServer")
            .field("path", &self.path)
            .field("store", &self.shared.store)
            .finish()
    }
}

fn handle_connection(stream: UnixStream, shared: &Shared) -> Result<(), ProtoError> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    handle_stream(stream, shared)
}

fn handle_admin_connection(stream: UnixStream, shared: &Shared) -> Result<(), ProtoError> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    crate::admin::handle_admin_stream(stream, &shared.store, &shared.shutdown)
}

/// Translates a routing failure into its structured wire error.
pub(crate) fn route_error_frame(error: &RouteError) -> ErrorFrame {
    let code = match error {
        RouteError::UnknownModel(_) => ERR_UNKNOWN_MODEL,
        RouteError::RetiredModel(_) => ERR_RETIRED_MODEL,
        RouteError::NoDefaultModel => ERR_NO_DEFAULT_MODEL,
        RouteError::LoadFailed(_) => ERR_INTERNAL,
    };
    ErrorFrame {
        code,
        detail: error.to_string(),
    }
}

/// The one place requests meet an engine, on either front-end: a lone
/// sample goes to the engine's single-sample `classify`, anything larger to
/// its batch kernel, chosen by input size alone. Books the call's wall
/// clock (§6: from receipt to aggregation output) against the model and
/// returns it with the classes; each sample counts as a request, so the
/// mean reflects the amortized per-sample cost. Callers answer empty
/// batches themselves: latency booked without a request count would skew
/// the mean.
pub(crate) fn classify(model: &ModelHandle, samples: &[&[f32]]) -> (Vec<u32>, u64) {
    let start = Instant::now();
    let classes = match samples {
        [sample] => vec![model.engine().classify(sample)],
        _ => model.engine().classify_batch(samples),
    };
    let latency_ns = start.elapsed().as_nanos() as u64;
    model.book(samples.len() as u64, latency_ns);
    (classes, latency_ns)
}

/// Classifies one sample for the blocking front-end.
fn classify_one(model: &ModelHandle, features: &[f32]) -> ClassifyResponse {
    let (classes, latency_ns) = classify(model, &[features]);
    ClassifyResponse {
        class: classes[0],
        latency_ns,
    }
}

/// Classifies a batch frame for the blocking front-end; an empty batch
/// touches neither the engine nor the statistics.
fn classify_many(model: &ModelHandle, samples: &[Vec<f32>]) -> ClassifyBatchResponse {
    if samples.is_empty() {
        return ClassifyBatchResponse {
            classes: Vec::new(),
            latency_ns: 0,
        };
    }
    let borrowed: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
    let (classes, latency_ns) = classify(model, &borrowed);
    ClassifyBatchResponse {
        classes,
        latency_ns,
    }
}

/// Serves framed requests on any byte stream whose read timeout has been
/// configured by the caller (both Unix and TCP transports funnel here).
///
/// Routing failures (unknown model, retired model, no default) answer
/// with a structured [`ErrorFrame`] and keep the connection alive; only
/// transport failures and malformed frames tear it down.
pub(crate) fn handle_stream<S: std::io::Read + std::io::Write>(
    mut stream: S,
    shared: &Shared,
) -> Result<(), ProtoError> {
    // Per-connection frame state: the read timeout exists so this loop can
    // re-check the shutdown flag, and it can fire *mid-frame* for a slow
    // or trickling client. The FrameReader buffers partial bytes across
    // those timeouts (resume, don't restart), so a timeout between frames
    // is pure idleness and a timeout mid-frame loses nothing.
    let mut frames = FrameReader::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let payload = match frames.read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()), // client hung up cleanly
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue; // re-check shutdown, then resume where we left off
            }
            Err(e) => return Err(e),
        };
        match Request::decode(&payload)? {
            Request::Single(request) => match shared.store.resolve(None) {
                Ok(model) => {
                    let response = classify_one(&model, &request.features);
                    write_frame(&mut stream, &response.encode())?;
                }
                Err(e) => write_frame(&mut stream, &route_error_frame(&e).encode())?,
            },
            Request::Batch(request) => match shared.store.resolve(None) {
                Ok(model) => {
                    let response = classify_many(&model, &request.samples);
                    write_frame(&mut stream, &response.encode())?;
                }
                Err(e) => write_frame(&mut stream, &route_error_frame(&e).encode())?,
            },
            Request::SingleWith(request) => match shared.store.resolve(Some(&request.model)) {
                Ok(model) => {
                    let response = classify_one(&model, &request.features);
                    write_frame(&mut stream, &response.encode_v2())?;
                }
                Err(e) => write_frame(&mut stream, &route_error_frame(&e).encode())?,
            },
            Request::BatchWith(request) => match shared.store.resolve(Some(&request.model)) {
                Ok(model) => {
                    let response = classify_many(&model, &request.samples);
                    write_frame(&mut stream, &response.encode_v2())?;
                }
                Err(e) => write_frame(&mut stream, &route_error_frame(&e).encode())?,
            },
            Request::ListModels { extended } => {
                let response = ListModelsResponse {
                    models: shared.store.list(),
                };
                match response.encode(if extended { 3 } else { 2 }) {
                    Ok(framed) => write_frame(&mut stream, &framed)?,
                    Err(e) => {
                        // A registry too large to enumerate in one frame;
                        // report rather than kill the connection.
                        let frame = ErrorFrame {
                            code: ERR_INTERNAL,
                            detail: format!("model list does not fit in a frame: {e}"),
                        };
                        write_frame(&mut stream, &frame.encode())?;
                    }
                }
            }
            Request::UnsupportedVersion { requested } => {
                let frame = ErrorFrame {
                    code: ERR_UNSUPPORTED_VERSION,
                    detail: format!(
                        "protocol version {requested} not supported; \
                         this server speaks up to {PROTOCOL_VERSION}"
                    ),
                };
                write_frame(&mut stream, &frame.encode())?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ServerBuilder;
    use crate::client::ClassificationClient;
    use crate::engine::BoltEngine;
    use crate::proto::read_frame;
    use bolt_baselines::ScikitLikeForest;
    use bolt_core::{BoltConfig, BoltForest};
    use bolt_forest::{Dataset, ForestConfig, RandomForest};

    fn unique_socket(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bolt-test-{tag}-{}.sock", std::process::id()))
    }

    fn fixture() -> (Dataset, RandomForest, Arc<BoltForest>) {
        let rows: Vec<Vec<f32>> = (0..80)
            .map(|i| vec![(i % 8) as f32, (i % 3) as f32])
            .collect();
        let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] > 3.0)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest =
            RandomForest::train(&data, &ForestConfig::new(5).with_max_height(3).with_seed(3));
        let bolt =
            Arc::new(BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles"));
        (data, forest, bolt)
    }

    fn bolt_server(path: &Path, bolt: Arc<BoltForest>) -> ClassificationServer {
        ServerBuilder::new()
            .register("bolt", Arc::new(BoltEngine::new(bolt)))
            .bind_uds(path)
            .expect("binds")
    }

    #[test]
    fn end_to_end_roundtrip() {
        let (data, forest, bolt) = fixture();
        let path = unique_socket("roundtrip");
        let server = bolt_server(&path, bolt);
        let mut client = ClassificationClient::connect(&path).expect("connects");
        for (sample, _) in data.iter().take(30) {
            let response = client.classify(sample).expect("classifies");
            assert_eq!(response.class, forest.predict(sample));
            assert!(response.latency_ns > 0);
        }
        let stats = server.stats();
        assert_eq!(stats.requests, 30);
        assert!(stats.mean_latency_ns() > 0.0);
        // The single registered model is the default and carries the
        // whole count.
        assert_eq!(server.stats_for("bolt").expect("registered").requests, 30);
        server.shutdown();
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn batched_roundtrip_matches_singles() {
        let (data, forest, bolt) = fixture();
        let path = unique_socket("batch");
        let server = bolt_server(&path, bolt);
        let mut client = ClassificationClient::connect(&path).expect("connects");
        let samples: Vec<&[f32]> = (0..40).map(|i| data.sample(i)).collect();
        let response = client.classify_batch(&samples).expect("classifies");
        assert_eq!(response.classes.len(), samples.len());
        for (i, &class) in response.classes.iter().enumerate() {
            assert_eq!(class, forest.predict(samples[i]));
        }
        // Singles still work on the same connection, before and after.
        let single = client.classify(samples[0]).expect("classifies");
        assert_eq!(single.class, forest.predict(samples[0]));
        // Every batched sample counts as a request.
        assert_eq!(server.stats().requests, 41);
        server.shutdown();
    }

    #[test]
    fn empty_batch_roundtrip() {
        let (_, _, bolt) = fixture();
        let path = unique_socket("batch-empty");
        let server = bolt_server(&path, bolt);
        let mut client = ClassificationClient::connect(&path).expect("connects");
        let response = client.classify_batch(&[]).expect("classifies");
        assert!(response.classes.is_empty());
        // Empty batches must not move the stats at all: latency booked
        // without a request count would skew the mean.
        assert_eq!(server.stats(), ServerStats::default());
        server.shutdown();
    }

    #[test]
    fn multiple_concurrent_clients() {
        let (data, forest, bolt) = fixture();
        let path = unique_socket("concurrent");
        let server = bolt_server(&path, bolt);
        let expected: Vec<u32> = (0..20).map(|i| forest.predict(data.sample(i))).collect();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let path = path.clone();
                let data = data.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let mut client = ClassificationClient::connect(&path).expect("connects");
                    for (i, &want) in expected.iter().enumerate() {
                        let response = client.classify(data.sample(i)).expect("classifies");
                        assert_eq!(response.class, want);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        assert_eq!(server.stats().requests, 60);
        server.shutdown();
    }

    #[test]
    fn malformed_client_does_not_take_down_the_service() {
        use std::io::Write as _;
        let (data, forest, bolt) = fixture();
        let path = unique_socket("malformed");
        let server = bolt_server(&path, bolt);
        // A hostile client: declares an oversized frame, then hangs up.
        {
            let mut bad = UnixStream::connect(&path).expect("connects");
            bad.write_all(&(u32::MAX).to_le_bytes()).expect("writes");
            bad.write_all(&[0u8; 16]).expect("writes");
        }
        // A second hostile client: truncated frame.
        {
            let mut bad = UnixStream::connect(&path).expect("connects");
            bad.write_all(&100u32.to_le_bytes()).expect("writes");
            bad.write_all(&[1, 2, 3]).expect("writes");
        }
        // A well-behaved client still gets answers.
        let mut client = ClassificationClient::connect(&path).expect("connects");
        for (sample, _) in data.iter().take(5) {
            let response = client.classify(sample).expect("classifies");
            assert_eq!(response.class, forest.predict(sample));
        }
        server.shutdown();
    }

    #[test]
    fn slow_client_dribbling_across_timeouts_is_served() {
        use std::io::Write as _;
        let (data, forest, bolt) = fixture();
        let path = unique_socket("dribble");
        let server = bolt_server(&path, bolt);
        let mut raw = UnixStream::connect(&path).expect("connects");
        let sample = data.sample(0);
        let framed = crate::proto::ClassifyRequest {
            features: sample.to_vec(),
        }
        .encode();
        // Trickle the frame in three parts, pausing once inside the length
        // header and once inside the payload: the front-end must keep the
        // partial frame across reads and resume where it stopped. The old
        // read_exact-based reader lost the already-consumed bytes at each
        // pause and desynced the connection.
        raw.write_all(&framed[..2]).expect("writes");
        std::thread::sleep(Duration::from_millis(350));
        raw.write_all(&framed[2..6]).expect("writes");
        std::thread::sleep(Duration::from_millis(350));
        raw.write_all(&framed[6..]).expect("writes");
        let reply = read_frame(&mut raw).expect("read").expect("frame");
        let response = ClassifyResponse::decode(&reply).expect("decodes");
        assert_eq!(response.class, forest.predict(sample));
        // The same connection still serves a full-speed request after.
        raw.write_all(&framed).expect("writes");
        let reply = read_frame(&mut raw).expect("read").expect("frame");
        assert_eq!(
            ClassifyResponse::decode(&reply).expect("decodes").class,
            forest.predict(sample)
        );
        server.shutdown();
    }

    #[test]
    fn accept_loop_survives_transient_accept_errors() {
        use std::sync::atomic::AtomicUsize;
        let shared = Arc::new(Shared::new(ModelStore::detached(
            crate::registry::ModelRegistry::new(),
        )));
        let served = Arc::new(AtomicUsize::new(0));
        let loop_shared = Arc::clone(&shared);
        let loop_served = Arc::clone(&served);
        let accept_thread = std::thread::spawn(move || {
            // A listener under pressure: descriptor exhaustion twice, an
            // aborted handshake, an interrupt — then one real connection,
            // then idle. The old loop `break`s on the first EMFILE and
            // never reaches the connection.
            let mut calls = 0usize;
            run_accept_loop(
                &loop_shared,
                move || {
                    calls += 1;
                    match calls {
                        1 => Err(std::io::Error::from_raw_os_error(24)), // EMFILE
                        2 => Err(std::io::Error::from_raw_os_error(23)), // ENFILE
                        3 => Err(std::io::ErrorKind::ConnectionAborted.into()),
                        4 => Err(std::io::ErrorKind::Interrupted.into()),
                        5 => Ok(()),
                        _ => Err(std::io::ErrorKind::WouldBlock.into()),
                    }
                },
                move |(), _shared| {
                    loop_served.fetch_add(1, Ordering::SeqCst);
                },
            );
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while served.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            served.load(Ordering::SeqCst),
            1,
            "the accept loop must outlive transient errors and still serve"
        );
        shared.shutdown.store(true, Ordering::Release);
        accept_thread.join().expect("accept loop exits on shutdown");
    }

    #[test]
    fn stale_socket_file_is_replaced() {
        let (_, _, bolt) = fixture();
        let path = unique_socket("stale");
        std::fs::write(&path, b"stale").expect("write stale file");
        let server = bolt_server(&path, bolt);
        server.shutdown();
    }

    #[test]
    fn named_routing_and_model_listing() {
        let (data, forest, bolt) = fixture();
        let path = unique_socket("routing");
        let server = ServerBuilder::new()
            .register("bolt", Arc::new(BoltEngine::new(bolt)))
            .register("scikit", Arc::new(ScikitLikeForest::from_forest(&forest)))
            .default_model("bolt")
            .bind_uds(&path)
            .expect("binds");
        let mut client = ClassificationClient::connect(&path).expect("connects");
        for (i, (sample, _)) in data.iter().take(10).enumerate() {
            let want = forest.predict(sample);
            // Both engines answer identically through their names, and
            // the legacy (unrouted) frame hits the default.
            assert_eq!(
                client.classify_with("bolt", sample).expect("bolt").class,
                want
            );
            assert_eq!(
                client
                    .classify_with("scikit", sample)
                    .expect("scikit")
                    .class,
                want
            );
            assert_eq!(client.classify(sample).expect("default").class, want);
            let _ = i;
        }
        let models = client.list_models().expect("lists").models;
        assert_eq!(
            models.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["bolt", "scikit"]
        );
        assert!(models[0].is_default);
        assert_eq!(models[0].engine, "BOLT");
        assert_eq!(models[1].engine, "Scikit");
        // 10 named + 10 legacy (default) on bolt, 10 named on scikit.
        assert_eq!(models[0].requests, 20);
        assert_eq!(models[1].requests, 10);
        assert_eq!(server.stats().requests, 30);
        server.shutdown();
    }

    #[test]
    fn unknown_and_retired_models_answer_structured_errors() {
        let (data, _, bolt) = fixture();
        let path = unique_socket("route-errors");
        let server = ServerBuilder::new()
            .register("bolt", Arc::new(BoltEngine::new(bolt)))
            .bind_uds(&path)
            .expect("binds");
        let mut client = ClassificationClient::connect(&path).expect("connects");
        let sample = data.sample(0);
        match client.classify_with("ghost", sample) {
            Err(ProtoError::Rejected { code, detail }) => {
                assert_eq!(code, ERR_UNKNOWN_MODEL);
                assert!(detail.contains("ghost"));
            }
            other => panic!("expected unknown-model rejection, got {other:?}"),
        }
        // Retire the only model: the registry refuses while it is the
        // default (clients would silently lose service), so clear the
        // default first. Named lookups then say *retired*, and legacy
        // frames get a structured no-default error.
        server
            .registry()
            .retire("bolt")
            .expect_err("the default cannot be retired in place");
        server.registry().clear_default();
        server.registry().retire("bolt").expect("retires");
        match client.classify_with("bolt", sample) {
            Err(ProtoError::Rejected { code, .. }) => assert_eq!(code, ERR_RETIRED_MODEL),
            other => panic!("expected retired-model rejection, got {other:?}"),
        }
        match client.classify(sample) {
            Err(ProtoError::Rejected { code, .. }) => assert_eq!(code, ERR_NO_DEFAULT_MODEL),
            other => panic!("expected no-default rejection, got {other:?}"),
        }
        // The connection survived all three rejections; registering the
        // name anew revives it.
        server
            .registry()
            .register(
                "bolt",
                Arc::new(BoltEngine::new(fixture().2)) as Arc<dyn bolt_baselines::InferenceEngine>,
            )
            .expect("revives the retired name");
        server.registry().set_default("bolt").expect("revived");
        assert!(client.classify(sample).is_ok());
        server.shutdown();
    }

    #[test]
    fn batch_routes_by_name() {
        let (data, forest, bolt) = fixture();
        let path = unique_socket("batch-routing");
        let server = ServerBuilder::new()
            .register("bolt", Arc::new(BoltEngine::new(bolt)))
            .register("scikit", Arc::new(ScikitLikeForest::from_forest(&forest)))
            .bind_uds(&path)
            .expect("binds");
        let mut client = ClassificationClient::connect(&path).expect("connects");
        let samples: Vec<&[f32]> = (0..20).map(|i| data.sample(i)).collect();
        for model in ["bolt", "scikit"] {
            let response = client
                .classify_batch_with(model, &samples)
                .expect("classifies");
            for (i, &class) in response.classes.iter().enumerate() {
                assert_eq!(class, forest.predict(samples[i]));
            }
        }
        assert_eq!(server.stats_for("bolt").expect("bolt").requests, 20);
        assert_eq!(server.stats_for("scikit").expect("scikit").requests, 20);
        // Empty named batches answer without moving stats.
        let empty = client.classify_batch_with("bolt", &[]).expect("answers");
        assert!(empty.classes.is_empty());
        assert_eq!(server.stats().requests, 40);
        server.shutdown();
    }

    #[test]
    fn future_protocol_version_is_answered_not_fatal() {
        use std::io::Write as _;
        let (data, _, bolt) = fixture();
        let path = unique_socket("version");
        let server = bolt_server(&path, bolt);
        let mut raw = UnixStream::connect(&path).expect("connects");
        // A frame from the future: v2 magic, version 9.
        let mut payload = Vec::new();
        payload.extend_from_slice(&crate::proto::V2_MAGIC.to_le_bytes());
        payload.push(9);
        payload.push(crate::proto::OP_LIST_MODELS);
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload);
        raw.write_all(&framed).expect("writes");
        let reply = read_frame(&mut raw).expect("read").expect("frame");
        match crate::proto::V2Response::decode(&reply).expect("decodes") {
            crate::proto::V2Response::Error(e) => {
                assert_eq!(e.code, ERR_UNSUPPORTED_VERSION);
                assert!(e.detail.contains('3'), "names the supported version");
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        // Same connection still serves v2 requests afterwards.
        let mut client = ClassificationClient::connect(&path).expect("connects");
        assert!(client.classify(data.sample(0)).is_ok());
        server.shutdown();
    }
}
