//! The NDJSON instance stream of the traced run: two closed-loop tuning
//! clients.
//!
//! Each client keeps one request outstanding. A round uploads a distinct
//! 20–30-city TSP instance (coordinates) with a 64-point `A` grid, waits
//! for the (Pf, Eavg, Estd) grid, then posts one `feedback` record at a
//! seeded `A` from that grid. The server runs `--online --refresh-after
//! 0`, so it ingests feedback but never retrains and every reply must
//! match the bundle it loaded.
//!
//! Every request line and every oracle answer is built before the clock
//! starts. One thread drives both connections over nonblocking sockets
//! and never sleeps (see `affinity`); it only moves bytes while the clock
//! runs, and parses the replies after it stops.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bench::protocol::{Request, Response};
use mathkit::rng::{derive_rng, derive_seed};
use problems::tsp::generator::{generate_instance, GeneratorConfig};
use problems::{InstanceData, TspInstance};
use qross::pipeline::TrainedQross;
use rand::Rng;

use crate::pipeline::a_grid;
use crate::server::Server;
use crate::stats::{median, quantile};
use crate::Checks;

/// `qross-serve` flags beyond the model and address: one worker, online
/// ingest that never retrains.
pub const SERVER_ARGS: &[&str] = &["--workers", "1", "--online", "--refresh-after", "0"];
/// Grid points per instance upload.
pub const GRID: usize = 64;
/// Concurrent clients, one connection each.
pub const CLIENTS: usize = 2;
/// Rounds generated per second of run time, for both clients together:
/// about twice what the server sustains today. A faster server ends the
/// window early instead of running out silently.
const ROUNDS_PER_SECOND: f64 = 500.0;

/// One client round's inputs and the oracle's answer, all built before
/// the clock starts.
pub struct Round {
    pub data: InstanceData,
    /// the `instance` request line, newline-terminated
    pub line: Vec<u8>,
    /// the `feedback` request line, newline-terminated
    pub feedback_line: Vec<u8>,
    /// grid index the feedback record reports on
    pub feedback_at: usize,
    /// client-side `features()` of the family decode
    pub features: Vec<f64>,
    /// `(Pf, Eavg, Estd)` bits per grid point, from the bundle in process
    pub oracle: Vec<[u64; 3]>,
}

/// The compact coordinate payload of a generated instance.
pub fn instance_data(inst: &TspInstance) -> InstanceData {
    let coords = inst.coords().unwrap_or_default();
    InstanceData {
        name: inst.name().to_string(),
        dims: vec![coords.len() as u64],
        vecs: vec![
            coords.iter().map(|c| c.0).collect(),
            coords.iter().map(|c| c.1).collect(),
        ],
        ..InstanceData::default()
    }
}

fn line_of(request: &Request) -> Vec<u8> {
    let mut line = serde_json::to_string(request).expect("request serializes");
    line.push('\n');
    line.into_bytes()
}

/// Round `index` of the stream: instance `index` of the seeded
/// 20–30-city generator, so every upload in a run is distinct. The
/// feedback record reports the surrogate's own answer as the observed
/// outcome: valid by construction, and ingest cost does not depend on
/// the values.
pub fn round(trained: &TrainedQross, seed: u64, index: u64, grid: &[f64]) -> Result<Round, String> {
    let inst = generate_instance(&GeneratorConfig::default(), derive_seed(seed, 20), index);
    let data = instance_data(&inst);
    let features = problems::lookup_family("tsp")
        .and_then(|family| family.decode(&data))
        .map_err(|e| format!("decode instance {index}: {e}"))?
        .features();
    let predictions = trained.surrogate.predict_grid(&features, grid);
    let oracle: Vec<[u64; 3]> = predictions.iter().map(crate::bits).collect();
    let feedback_at = derive_rng(seed, 30 + index).gen_range(0..grid.len());
    let observed = &predictions[feedback_at];
    let line = line_of(&Request {
        id: Some(index),
        op: Some("instance".to_string()),
        family: Some("tsp".to_string()),
        instance: Some(data.clone()),
        a_values: Some(grid.to_vec()),
        ..Request::default()
    });
    let feedback_line = line_of(&Request {
        id: Some(index),
        op: Some("feedback".to_string()),
        features: Some(features.clone()),
        a: Some(grid[feedback_at]),
        pf: Some(observed.pf),
        e_avg: Some(observed.e_avg),
        e_std: Some(observed.e_std),
        tag: Some(data.name.clone()),
        seed: Some(index),
        ..Request::default()
    });
    Ok(Round {
        data,
        line,
        feedback_line,
        feedback_at,
        features,
        oracle,
    })
}

/// Builds `count` rounds on two threads (before any clock starts).
pub fn rounds(trained: &TrainedQross, seed: u64, count: usize) -> Result<Vec<Round>, String> {
    let grid = a_grid(GRID);
    let build = |range: std::ops::Range<usize>| -> Result<Vec<Round>, String> {
        range
            .map(|i| round(trained, seed, i as u64, &grid))
            .collect()
    };
    let half = count / 2;
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(|| build(half..count));
        let mine = build(0..half);
        (mine, other.join().expect("round builder panicked"))
    });
    let mut all = a?;
    all.extend(b?);
    Ok(all)
}

/// One finished round as the client saw it.
pub struct Done {
    pub index: usize,
    /// upload sent → grid reply received
    pub latency_ns: u64,
    pub reply: Vec<u8>,
    pub ack: Vec<u8>,
}

/// Both clients' rounds over the timed window.
pub struct Session {
    pub done: Vec<Done>,
    pub window_s: f64,
    /// rounds started before the deadline that never finished
    pub unfinished: usize,
}

enum State {
    Idle,
    AwaitReply {
        index: usize,
        sent: Instant,
    },
    AwaitAck {
        index: usize,
        latency_ns: u64,
        reply: Vec<u8>,
    },
}

struct Client {
    stream: TcpStream,
    inbox: Vec<u8>,
    outbox: Vec<u8>,
    state: State,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("configure socket: {e}"))?;
        Ok(Client {
            stream,
            inbox: Vec::new(),
            outbox: Vec::new(),
            state: State::Idle,
        })
    }

    /// Writes what the socket takes and reads what has arrived; returns
    /// the first complete reply line, if any.
    fn pump(&mut self, buf: &mut [u8]) -> Result<Option<Vec<u8>>, String> {
        while !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(k) => {
                    self.outbox.drain(..k);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        match self.stream.read(buf) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(k) => self.inbox.extend_from_slice(&buf[..k]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        Ok(self
            .inbox
            .iter()
            .position(|&b| b == b'\n')
            .map(|end| self.inbox.drain(..=end).collect()))
    }
}

/// Runs both clients until `seconds` have passed (or the rounds run out),
/// then lets the rounds in flight finish. Rounds are handed out in index
/// order to whichever client is free.
pub fn run_session(addr: &str, rounds: &[Round], seconds: f64) -> Result<Session, String> {
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut buf = vec![0u8; 1 << 16];
    let mut done = Vec::new();
    let mut next = 0;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let give_up = deadline + Duration::from_secs(10);
    loop {
        let now = Instant::now();
        let open = now < deadline;
        let mut busy = false;
        for c in clients.iter_mut() {
            if matches!(c.state, State::Idle) && open && next < rounds.len() {
                c.outbox.extend_from_slice(&rounds[next].line);
                c.state = State::AwaitReply {
                    index: next,
                    sent: Instant::now(),
                };
                next += 1;
            }
            if matches!(c.state, State::Idle) {
                continue;
            }
            busy = true;
            let Some(line) = c.pump(&mut buf)? else {
                continue;
            };
            let arrived = Instant::now();
            c.state = match std::mem::replace(&mut c.state, State::Idle) {
                State::AwaitReply { index, sent } => {
                    c.outbox.extend_from_slice(&rounds[index].feedback_line);
                    State::AwaitAck {
                        index,
                        latency_ns: (arrived - sent).as_nanos() as u64,
                        reply: line,
                    }
                }
                State::AwaitAck {
                    index,
                    latency_ns,
                    reply,
                } => {
                    done.push(Done {
                        index,
                        latency_ns,
                        reply,
                        ack: line,
                    });
                    State::Idle
                }
                State::Idle => return Err("reply without a request".to_string()),
            };
        }
        if !busy && (!open || next >= rounds.len()) {
            break;
        }
        if now > give_up {
            break;
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let unfinished = clients
        .iter()
        .filter(|c| !matches!(c.state, State::Idle))
        .count();
    done.sort_by_key(|d| d.index);
    Ok(Session {
        done,
        window_s,
        unfinished,
    })
}

/// Whether a finished round is right: the reply is `ok`, carries the
/// request's id and instance name, and matches the oracle bit for bit at
/// every grid point; the feedback ack is `ok` with the same id.
pub fn round_is_correct(d: &Done, round: &Round, grid: &[f64]) -> bool {
    let parse = |bytes: &[u8]| {
        std::str::from_utf8(bytes)
            .ok()
            .and_then(|s| serde_json::from_str::<Response>(s).ok())
    };
    let (Some(reply), Some(ack)) = (parse(&d.reply), parse(&d.ack)) else {
        return false;
    };
    let Some(predictions) = &reply.predictions else {
        return false;
    };
    ack.ok
        && ack.id == Some(d.index as u64)
        && reply.ok
        && reply.id == Some(d.index as u64)
        && reply.instance.as_deref() == Some(round.data.name.as_str())
        && predictions.len() == grid.len()
        && predictions
            .iter()
            .zip(&round.oracle)
            .zip(grid)
            .all(|((got, want), &a)| {
                got.a.to_bits() == a.to_bits()
                    && [got.pf_bits, got.e_avg_bits, got.e_std_bits] == *want
            })
}

/// What one closed-loop session against a running server measured.
pub struct Live {
    pub p50_us: f64,
    pub p99_us: f64,
    pub rounds: usize,
    /// verified `instance` replies per second of the session
    pub throughput_rps: f64,
    pub rows_per_batch: f64,
    pub cache_hit_ratio: f64,
}

/// Runs one session of `session_s` against `server`, then verifies every
/// round and that the cache was never hit (every upload is distinct).
pub fn live(
    server: &Server,
    rounds: &[Round],
    session_s: f64,
    checks: &mut Checks,
) -> Result<Live, String> {
    let session = run_session(&server.addr, rounds, session_s)?;
    let latency: Vec<f64> = session.done.iter().map(|d| d.latency_ns as f64).collect();
    let m = server.metrics()?.metrics;
    let grid = a_grid(GRID);
    let mut verified = 0;
    for d in &session.done {
        let ok = round_is_correct(d, &rounds[d.index], &grid);
        checks.check(ok);
        verified += usize::from(ok);
    }
    // A round still in flight when the session gave up is a timeout.
    for _ in 0..session.unfinished {
        checks.check(false);
    }
    checks.check(m.cache_hit_rate == 0.0);
    Ok(Live {
        p50_us: median(&latency) / 1e3,
        p99_us: quantile(&latency, 0.99) / 1e3,
        rounds: session.done.len(),
        throughput_rps: verified as f64 / session.window_s,
        rows_per_batch: m.batch_occupancy,
        cache_hit_ratio: m.cache_hit_rate,
    })
}

/// Rounds to build for a session of `seconds`.
pub fn round_count(seconds: f64) -> usize {
    (ROUNDS_PER_SECOND * seconds).ceil() as usize
}
