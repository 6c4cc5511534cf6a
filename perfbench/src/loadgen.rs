//! Open-loop load generation over one QBIN connection.
//!
//! Arrivals follow a Poisson schedule that is a pure function of
//! `(seed, rate, duration)`. Each request is written when it falls due,
//! whatever the server is doing, and each reply is stamped on arrival. Latency is measured from the *intended* send time,
//! so a server stall shows up in every request scheduled during it, and
//! the generator's own lateness (`lag`) is reported so a run whose
//! generator fell behind can be declared invalid. One thread, one
//! connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bench::protocol::bin::decode_response_stream;
use bench::protocol::Response;
use rand::Rng;

/// Requests scheduled for one open-loop phase: concatenated QBIN frames
/// and their intended send offsets from the phase start.
pub struct Phase {
    pub frames: Vec<u8>,
    /// end offset of frame `i` in `frames`
    pub ends: Vec<usize>,
    /// intended send time of request `i`, nanoseconds after the start
    pub due_ns: Vec<u64>,
}

/// Poisson arrival offsets (nanoseconds) at `rate` requests per second
/// over `duration_s` seconds.
pub fn poisson_schedule(seed: u64, rate: f64, duration_s: f64) -> Vec<u64> {
    let mut rng = mathkit::rng::seeded_rng(seed);
    let horizon = duration_s * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// What one open-loop phase observed.
pub struct OpenLoopOutcome {
    /// reply time minus intended send time, per request actually written
    /// (fewer than scheduled if the in-flight limit cut the phase short);
    /// `None` when no reply arrived
    pub latency_ns: Vec<Option<u64>>,
    /// actual minus intended send time, per sent request
    pub lag_ns: Vec<u64>,
    /// every reply byte received, in arrival (= request) order
    pub received: Vec<u8>,
    /// whether the in-flight limit cut the phase short
    pub cut_short: bool,
    /// a transport or framing failure, if any
    pub error: Option<String>,
}

impl OpenLoopOutcome {
    /// Decodes the received replies (after the clock has stopped).
    pub fn replies(&self) -> Result<Vec<Response>, String> {
        decode_response_stream(&self.received).map_err(|e| format!("bad reply frame: {e}"))
    }
}

/// QBIN frame header: magic, version, op, u32 LE payload length; a CRC-32
/// trailer follows the payload.
const HEADER: usize = 10;
const TRAILER: usize = 4;

/// A zero-filled vector whose pages are all touched now, so the timed
/// loop never takes a first-touch page fault on it.
fn touched<T: Copy>(len: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(len);
    v.resize(len, fill);
    v
}

/// Drives one open-loop phase over a fresh connection to `addr`. Stops
/// sending early once more than `max_in_flight` requests are unanswered,
/// and waits at most `reply_timeout` after the last send for replies.
///
/// One thread does both halves over a nonblocking socket and never
/// sleeps: on a virtual machine an idle vCPU can take milliseconds to
/// wake, which would land in every latency and in the generator's lag.
/// The generator therefore costs one core for the whole phase, every run
/// alike. While the clock runs it only copies bytes and reads the clock:
/// every buffer is allocated and touched beforehand, reply frames are
/// only delimited, and decoding waits until the phase is over.
pub fn open_loop(
    addr: &str,
    phase: &Phase,
    max_in_flight: usize,
    reply_timeout: Duration,
) -> OpenLoopOutcome {
    let n = phase.due_ns.len();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return failed(format!("connect {addr}: {e}")),
    };
    if let Err(e) = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_nonblocking(true))
    {
        return failed(format!("configure socket: {e}"));
    }
    // Replies are at most as long as their requests plus the frame
    // overhead: one predict row in, one `(A, Pf, Eavg, Estd)` row out.
    let mut received = touched(phase.frames.len() + n * 64 + (1 << 16), 0u8);
    let mut arrival_ns = touched(n, 0u64);
    let mut lag_ns = touched(n, 0u64);
    // bytes received, replies delimited, end of the next reply frame
    // once its header is in
    let (mut got, mut answered) = (0usize, 0usize);
    let mut frame_start = 0usize;
    // requests handed to the socket (all their bytes written), requests
    // released by the schedule, bytes written
    let (mut sent, mut released, mut written) = (0usize, 0usize, 0usize);
    let mut cut_short = false;
    let mut error = None;
    let mut sender_done: Option<u64> = None;
    let t0 = Instant::now();
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if sender_done.is_none() {
            if released - answered > max_in_flight {
                cut_short = true;
                sender_done = Some(now);
            } else {
                while released < n && phase.due_ns[released] <= now {
                    released += 1;
                }
                let target = if released == 0 {
                    0
                } else {
                    phase.ends[released - 1]
                };
                if written < target {
                    match stream.write(&phase.frames[written..target]) {
                        Ok(k) => written += k,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) => {
                            error = Some(format!("write: {e}"));
                            break;
                        }
                    }
                }
                while sent < released && phase.ends[sent] <= written {
                    lag_ns[sent] = now - phase.due_ns[sent];
                    sent += 1;
                }
                if sent == n {
                    sender_done = Some(now);
                }
            }
        }
        if let Some(done) = sender_done {
            if answered >= sent || now > done + reply_timeout.as_nanos() as u64 {
                break;
            }
        }
        if received.len() - got < 1 << 15 {
            received.resize(received.len() * 2, 0);
        }
        match stream.read(&mut received[got..]) {
            Ok(0) => {
                error = Some("server closed the connection".to_string());
                break;
            }
            Ok(k) => {
                let now = t0.elapsed().as_nanos() as u64;
                got += k;
                while got - frame_start >= HEADER && answered < n {
                    let len_bytes: [u8; 4] = received[frame_start + 6..frame_start + HEADER]
                        .try_into()
                        .expect("four length bytes");
                    let end =
                        frame_start + HEADER + u32::from_le_bytes(len_bytes) as usize + TRAILER;
                    if end > got {
                        break;
                    }
                    arrival_ns[answered] = now;
                    answered += 1;
                    frame_start = end;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => {
                error = Some(format!("read: {e}"));
                break;
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    received.truncate(frame_start);
    lag_ns.truncate(sent);
    let latency_ns = (0..sent)
        .map(|i| (i < answered).then(|| arrival_ns[i].saturating_sub(phase.due_ns[i])))
        .collect();
    OpenLoopOutcome {
        latency_ns,
        lag_ns,
        received,
        cut_short,
        error,
    }
}

fn failed(error: String) -> OpenLoopOutcome {
    OpenLoopOutcome {
        latency_ns: Vec::new(),
        lag_ns: Vec::new(),
        received: Vec::new(),
        cut_short: false,
        error: Some(error),
    }
}

/// Requests per window of [`windowed_p99`].
pub const WINDOW: usize = 1000;

/// The median, over consecutive windows of [`WINDOW`] requests in send
/// order, of each window's p99 (the 10th-largest of its 1,000 values).
///
/// The host takes each vCPU away for several milliseconds at a time,
/// about 5% of wall time in all on a shared 2-vCPU VM, and how much it
/// takes varies from run to run with its other tenants. A plain p99
/// over the run therefore measures the host. A window spans 10–40 ms at
/// the rates offered here, so most windows see no theft and the median
/// window reports the server's own tail. Windows still see a growing
/// backlog: past the knee, every window's p99 climbs. `None` (no reply)
/// counts as infinitely late. A phase shorter than one window is one
/// window.
pub fn windowed_p99(values_ns: &[Option<u64>]) -> f64 {
    let per_window: Vec<f64> = values_ns
        .chunks(WINDOW)
        .filter(|w| w.len() == WINDOW || values_ns.len() < WINDOW)
        .map(|w| {
            let all: Vec<f64> = w
                .iter()
                .map(|v| v.map_or(f64::INFINITY, |v| v as f64))
                .collect();
            crate::stats::quantile(&all, 0.99)
        })
        .collect();
    crate::stats::median(&per_window)
}

/// A phase's generator lag is acceptable when its windowed p99 stays
/// within `limit_ns`; otherwise the run is invalid and must not be
/// recorded.
pub fn lag_is_valid(lag_ns: &[u64], limit_ns: f64) -> bool {
    let lags: Vec<Option<u64>> = lag_ns.iter().map(|&l| Some(l)).collect();
    lags.is_empty() || windowed_p99(&lags) <= limit_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::protocol::bin::{
        decode_request, encode_predict, encode_response, BinRequest, FrameCodec,
    };
    use bench::protocol::PredictionOut;
    use std::net::TcpListener;

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_rate() {
        let a = poisson_schedule(7, 5000.0, 2.0);
        assert_eq!(a, poisson_schedule(7, 5000.0, 2.0));
        assert_ne!(a, poisson_schedule(8, 5000.0, 2.0));
        assert_ne!(a, poisson_schedule(7, 4000.0, 2.0));
        // ~10,000 arrivals, increasing, inside the horizon
        assert!((9_000..11_000).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 2_000_000_000);
    }

    fn phase(rate: f64, seconds: f64) -> Phase {
        let due_ns = poisson_schedule(3, rate, seconds);
        let mut frames = Vec::new();
        let mut ends = Vec::new();
        for i in 0..due_ns.len() {
            encode_predict(&mut frames, Some(i as u64), "", &[1.0], &[0.5; 4]);
            ends.push(frames.len());
        }
        Phase {
            frames,
            ends,
            due_ns,
        }
    }

    /// A QBIN echo server that stops answering for `stall` once it has
    /// read request `stall_at`.
    fn stalling_server(stall_at: u64, stall: Duration) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut codec = FrameCodec::new();
            let mut buf = vec![0u8; 1 << 16];
            loop {
                let k = match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(k) => k,
                };
                codec.feed(&buf[..k]);
                let mut out = Vec::new();
                while let Some(Ok(frame)) = codec.next_frame() {
                    let Ok(BinRequest::Predict { id, .. }) = decode_request(&frame) else {
                        return;
                    };
                    if id == Some(stall_at) {
                        std::thread::sleep(stall);
                    }
                    let reply = Response {
                        id,
                        ok: true,
                        predictions: Some(vec![PredictionOut {
                            a: 1.0,
                            pf: 0.5,
                            e_avg: 1.0,
                            e_std: 0.1,
                            pf_bits: 0.5f64.to_bits(),
                            e_avg_bits: 1.0f64.to_bits(),
                            e_std_bits: 0.1f64.to_bits(),
                        }]),
                        ..Default::default()
                    };
                    encode_response(&mut out, &reply);
                }
                if conn.write_all(&out).is_err() {
                    return;
                }
            }
        });
        addr
    }

    #[test]
    fn a_stall_shows_in_the_requests_scheduled_during_it() {
        let stall = Duration::from_millis(200);
        let p = phase(2000.0, 1.0);
        let stall_at = (p.due_ns.len() / 3) as u64;
        let addr = stalling_server(stall_at, stall);
        let out = open_loop(&addr, &p, 100_000, Duration::from_secs(2));
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(out.latency_ns.len(), p.due_ns.len());
        assert_eq!(out.replies().unwrap().len(), p.due_ns.len());
        let start = p.due_ns[stall_at as usize];
        let stall_ns = stall.as_nanos() as u64;
        // The sender kept its schedule during the stall...
        assert!(lag_is_valid(&out.lag_ns, 20e6));
        // ...so every request due inside the stall waited out the rest of
        // it: latency from the intended send time, not from when a closed
        // loop would have got round to sending it.
        let mut during = 0;
        for (i, &due) in p.due_ns.iter().enumerate() {
            if due >= start && due + 5_000_000 < start + stall_ns {
                let latency = out.latency_ns[i].expect("answered");
                assert!(
                    latency + 5_000_000 >= start + stall_ns - due,
                    "request {i} due {}us into the stall saw only {}us",
                    (due - start) / 1000,
                    latency / 1000
                );
                during += 1;
            }
        }
        assert!(during > 200, "only {during} requests fell in the stall");
        let max = out.latency_ns.iter().flatten().max().copied().unwrap();
        assert!(max >= stall_ns * 9 / 10);
    }

    #[test]
    fn a_blocked_generator_makes_the_run_invalid() {
        assert!(lag_is_valid(&[0; 100], 1e6));
        assert!(!lag_is_valid(&[5_000_000; 100], 1e6));
        // 32 KiB requests against a server that stops reading for 800ms:
        // the socket buffers fill, the sender's writes block, and the
        // requests due meanwhile leave late. Their lag must disqualify
        // the run rather than vanish into a shorter measured latency.
        let due_ns = poisson_schedule(5, 2000.0, 1.0);
        let mut frames = Vec::new();
        let mut ends = Vec::new();
        for i in 0..due_ns.len() {
            encode_predict(&mut frames, Some(i as u64), "", &[1.0], &[0.5; 4096]);
            ends.push(frames.len());
        }
        let p = Phase {
            frames,
            ends,
            due_ns,
        };
        let addr = stalling_server(0, Duration::from_millis(800));
        let out = open_loop(&addr, &p, 1_000_000, Duration::from_secs(5));
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(out.replies().unwrap().len(), p.due_ns.len());
        assert!(!lag_is_valid(&out.lag_ns, 50e6));
    }
}
