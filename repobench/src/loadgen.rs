//! The benchmark's open-loop load generator.
//!
//! Each generator thread owns one connection and a fixed slice of a global
//! arrival schedule (one arrival every `1 / rate` seconds, dealt round
//! robin to the threads). A request is sent when it is due, whether or not
//! the server has kept up, and its latency runs from the *scheduled* send
//! to the decoded response, so a stall is charged to every request it
//! delays. How late the generator itself sent is recorded separately.
//!
//! Requests are encoded and decoded with `bolt_server::proto` and travel
//! over plain sockets, so the protocol and transport calls can each carry
//! a span.

use crate::host;
use crate::trace::Tracer;
use bolt_server::proto::{
    self, ClassifyRequest, ClassifyResponse, ClassifyWithRequest, V2Response,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A read that takes this long means the server is wedged.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Where the server listens.
#[derive(Clone, Debug)]
pub enum Endpoint {
    /// A Unix domain socket.
    Uds(PathBuf),
    /// A TCP address.
    Tcp(SocketAddr),
}

/// A connected byte stream.
pub trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

/// Connects to `endpoint` (Nagle off on TCP, reads bounded by a timeout).
///
/// # Errors
///
/// The I/O error if the server refuses.
pub fn connect(endpoint: &Endpoint) -> std::io::Result<Box<dyn Stream>> {
    Ok(match endpoint {
        Endpoint::Uds(path) => {
            let s = UnixStream::connect(path)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            Box::new(s)
        }
        Endpoint::Tcp(addr) => {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            Box::new(s)
        }
    })
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Planned {
    /// Index into [`Traffic::names`]; 0 when the names are empty (legacy
    /// frames to the default model).
    pub model: u32,
    /// Index into [`Traffic::pool`].
    pub sample: u32,
    /// The class the routed model's reference forest predicts.
    pub expected: u32,
}

/// A traffic description: where to send what, and how fast.
pub struct Traffic<'a> {
    /// Server address.
    pub endpoint: &'a Endpoint,
    /// Model names requests are routed to; empty sends legacy frames.
    pub names: &'a [String],
    /// Request samples.
    pub pool: &'a [Vec<f32>],
    /// The whole schedule, in arrival order.
    pub plan: &'a [Planned],
    /// Arrivals per second across all connections.
    pub rate: f64,
    /// Connections, one generator thread each.
    pub connections: usize,
    /// The CPU the generator threads keep to, if any (see
    /// [`host::Placement`]).
    pub cpu: Option<usize>,
}

/// One sent request, as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    /// Scheduled send, seconds into the timed phase.
    pub due_s: f64,
    /// Scheduled send to reply (or failure), µs.
    pub latency_us: f64,
    /// Whether a class came back.
    pub answered: bool,
    /// Whether it was the reference forest's class.
    pub correct: bool,
}

/// What the generator observed.
#[derive(Clone, Debug, Default)]
pub struct LoadResult {
    /// Requests sent.
    pub sent: u64,
    /// Responses that carried a class.
    pub answered: u64,
    /// Answers equal to the reference forest's.
    pub correct: u64,
    /// Answers that differ from the reference forest's.
    pub wrong: u64,
    /// Structured refusals other than overload.
    pub refused: u64,
    /// Overload sheds.
    pub shed: u64,
    /// Transport or framing failures.
    pub errors: u64,
    /// Every sent request, in no particular order.
    pub requests: Vec<Sent>,
    /// Server-reported service latency, µs, per answered request.
    pub service_us: Vec<f64>,
    /// Actual minus scheduled send, µs, per sent request.
    pub late_us: Vec<f64>,
    /// Answers received per model index.
    pub answered_per_model: Vec<u64>,
    /// CPU time of the generator threads, ns.
    pub generator_cpu_ns: u64,
    /// Wall time of the timed phase, s.
    pub elapsed_s: f64,
    /// Length of the arrival schedule, s.
    pub schedule_s: f64,
}

impl LoadResult {
    fn absorb(&mut self, other: Self) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.correct += other.correct;
        self.wrong += other.wrong;
        self.refused += other.refused;
        self.shed += other.shed;
        self.errors += other.errors;
        self.requests.extend(other.requests);
        self.service_us.extend(other.service_us);
        self.late_us.extend(other.late_us);
        if self.answered_per_model.len() < other.answered_per_model.len() {
            self.answered_per_model
                .resize(other.answered_per_model.len(), 0);
        }
        for (mine, theirs) in self
            .answered_per_model
            .iter_mut()
            .zip(other.answered_per_model)
        {
            *mine += theirs;
        }
        self.generator_cpu_ns += other.generator_cpu_ns;
    }

    /// Requests that failed: wrong answers, refusals, sheds and transport
    /// errors.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.wrong + self.refused + self.shed + self.errors
    }
}

enum Reply {
    Class(ClassifyResponse),
    Refused(u8),
}

fn encode(names: &[String], p: Planned, features: &[f32]) -> Vec<u8> {
    if names.is_empty() {
        ClassifyRequest {
            features: features.to_vec(),
        }
        .encode()
        .to_vec()
    } else {
        ClassifyWithRequest {
            model: names[p.model as usize].clone(),
            features: features.to_vec(),
        }
        .encode()
        .expect("model names and feature counts are within frame limits")
        .to_vec()
    }
}

fn decode(payload: &[u8]) -> Result<Reply, proto::ProtoError> {
    if proto::is_v2(payload) {
        match V2Response::decode(payload)? {
            V2Response::Classify(r) => Ok(Reply::Class(r)),
            V2Response::Error(frame) => Ok(Reply::Refused(frame.code)),
            other => Err(proto::ProtoError::Malformed {
                detail: format!("expected a classify response, got {other:?}"),
            }),
        }
    } else {
        ClassifyResponse::decode(payload).map(Reply::Class)
    }
}

/// Sends one request and reads its reply; spans are children of `root`.
fn exchange(
    stream: &mut Box<dyn Stream>,
    frame: &[u8],
    tracer: &Tracer,
    root: u64,
    seq: u64,
) -> Result<Reply, proto::ProtoError> {
    let payload = tracer.span("transport.round_trip", Some(root), Some(seq), || {
        proto::write_frame(stream, frame)?;
        proto::read_frame(stream)?.ok_or(proto::ProtoError::UnexpectedEof)
    })?;
    tracer.span("proto.decode", Some(root), Some(seq), || decode(&payload))
}

fn generator_thread(
    traffic: &Traffic<'_>,
    mut stream: Option<Box<dyn Stream>>,
    thread: usize,
    start: Instant,
    tracer: &Tracer,
) -> LoadResult {
    host::tighten_timer_slack();
    if let Some(cpu) = traffic.cpu {
        host::set_affinity(&[cpu]);
    }
    let cpu0 = host::thread_cpu_ns();
    let mut out = LoadResult {
        answered_per_model: vec![0; traffic.names.len().max(1)],
        ..LoadResult::default()
    };
    let every = traffic.connections;
    for (seq, &p) in traffic.plan.iter().enumerate().skip(thread).step_by(every) {
        let seq = seq as u64;
        let due = start + Duration::from_secs_f64(seq as f64 / traffic.rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent_at = Instant::now();
        let root = tracer.id();
        tracer.record(
            tracer.id(),
            "loadgen.wait",
            Some(root),
            Some(seq),
            due,
            sent_at,
        );
        out.sent += 1;
        out.late_us
            .push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e6);
        let features = &traffic.pool[p.sample as usize];
        let frame = tracer.span("proto.encode", Some(root), Some(seq), || {
            encode(traffic.names, p, features)
        });
        if stream.is_none() {
            stream = connect(traffic.endpoint).ok();
        }
        let reply = match stream.as_mut() {
            Some(s) => exchange(s, &frame, tracer, root, seq),
            None => Err(proto::ProtoError::UnexpectedEof),
        };
        let done = Instant::now();
        tracer.record(root, "loadgen.request", None, Some(seq), due, done);
        let mut sent = Sent {
            due_s: due.duration_since(start).as_secs_f64(),
            latency_us: done.duration_since(due).as_secs_f64() * 1e6,
            answered: false,
            correct: false,
        };
        match reply {
            Ok(Reply::Class(r)) => {
                sent.answered = true;
                sent.correct = r.class == p.expected;
                out.answered += 1;
                out.answered_per_model[p.model as usize] += 1;
                out.service_us.push(r.latency_ns as f64 / 1e3);
                if sent.correct {
                    out.correct += 1;
                } else {
                    out.wrong += 1;
                }
            }
            Ok(Reply::Refused(code)) if code == proto::ERR_OVERLOADED => out.shed += 1,
            Ok(Reply::Refused(_)) => out.refused += 1,
            Err(_) => {
                // The stream may be mid-frame; start the next request on a
                // fresh connection.
                out.errors += 1;
                stream = None;
            }
        }
        out.requests.push(sent);
    }
    out.generator_cpu_ns = host::thread_cpu_ns().saturating_sub(cpu0);
    out
}

/// Drives `traffic` to completion and merges what every thread saw.
///
/// # Errors
///
/// The I/O error if a connection cannot be opened before the run starts.
///
/// # Panics
///
/// Panics if a generator thread panics.
pub fn run(traffic: &Traffic<'_>, tracer: &Tracer) -> std::io::Result<LoadResult> {
    let streams = (0..traffic.connections)
        .map(|_| connect(traffic.endpoint))
        .collect::<std::io::Result<Vec<_>>>()?;
    // A common start a little ahead, so no thread begins behind schedule.
    let start = Instant::now() + Duration::from_millis(5);
    let parts: Vec<LoadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(thread, stream)| {
                scope.spawn(move || generator_thread(traffic, Some(stream), thread, start, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut merged = LoadResult::default();
    for part in parts {
        merged.absorb(part);
    }
    merged.elapsed_s = start.elapsed().as_secs_f64();
    merged.schedule_s = traffic.plan.len() as f64 / traffic.rate;
    Ok(merged)
}

/// Sends `count` requests back to back from the calling thread and checks
/// each answer (the warm-up before a timed phase).
///
/// # Errors
///
/// The I/O error if the connection cannot be opened.
pub fn warm_up(traffic: &Traffic<'_>, count: usize) -> std::io::Result<LoadResult> {
    let mut stream = connect(traffic.endpoint)?;
    let mut out = LoadResult {
        answered_per_model: vec![0; traffic.names.len().max(1)],
        ..LoadResult::default()
    };
    let tracer = Tracer::off();
    for (seq, &p) in traffic.plan.iter().cycle().take(count).enumerate() {
        let frame = encode(traffic.names, p, &traffic.pool[p.sample as usize]);
        out.sent += 1;
        match exchange(&mut stream, &frame, &tracer, 0, seq as u64) {
            Ok(Reply::Class(r)) => {
                out.answered += 1;
                out.answered_per_model[p.model as usize] += 1;
                if r.class == p.expected {
                    out.correct += 1;
                } else {
                    out.wrong += 1;
                }
            }
            Ok(Reply::Refused(_)) => out.refused += 1,
            Err(_) => out.errors += 1,
        }
    }
    Ok(out)
}

/// An in-process echo over the same transport and frame sizes: the
/// floor a round trip pays before the server does any work. Returns the
/// median round trip in µs over `rounds` back-to-back exchanges.
///
/// # Errors
///
/// The I/O error if the echo socket cannot be bound or connected.
///
/// # Panics
///
/// Panics if the echo thread panics.
pub fn echo_p50_us(
    endpoint: &Endpoint,
    request: &[u8],
    response: &[u8],
    rounds: usize,
) -> std::io::Result<f64> {
    fn serve(mut s: impl Read + Write, response: &[u8]) {
        while let Ok(Some(_)) = proto::read_frame(&mut s) {
            if proto::write_frame(&mut s, response).is_err() {
                return;
            }
        }
    }
    let (listener_uds, listener_tcp, target) = match endpoint {
        Endpoint::Uds(path) => {
            let _ = std::fs::remove_file(path);
            let l = std::os::unix::net::UnixListener::bind(path)?;
            (Some(l), None, endpoint.clone())
        }
        Endpoint::Tcp(_) => {
            let l = std::net::TcpListener::bind("127.0.0.1:0")?;
            let addr = l.local_addr()?;
            (None, Some(l), Endpoint::Tcp(addr))
        }
    };
    // Connect before the echo thread accepts (the listen backlog holds the
    // connection), so a failed connect never leaves that thread waiting.
    let mut client = connect(&target)?;
    let rtts = std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            if let Some(l) = listener_uds {
                if let Ok((s, _)) = l.accept() {
                    serve(s, response);
                }
            } else if let Some(l) = listener_tcp {
                if let Ok((s, _)) = l.accept() {
                    let _ = s.set_nodelay(true);
                    serve(s, response);
                }
            }
        });
        let mut rtts = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            let ok = proto::write_frame(&mut client, request).is_ok()
                && matches!(proto::read_frame(&mut client), Ok(Some(_)));
            if !ok {
                break;
            }
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(client);
        server.join().expect("echo thread panicked");
        rtts
    });
    if rtts.len() < rounds {
        return Err(std::io::Error::other("echo round trip failed"));
    }
    if let Endpoint::Uds(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
    Ok(crate::stats::median(&rtts))
}
