//! The `qross-serve --listen` process under test.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bench::protocol::MetricsResponse;

/// A running server, killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    /// spawn → first `info` reply, in seconds
    pub setup_s: f64,
}

impl Server {
    /// Spawns `binary --model bundle --listen 127.0.0.1:PORT extra...` and
    /// waits for its first `info` reply, which covers bundle load and
    /// engine start.
    pub fn start(binary: &str, bundle: &std::path::Path, extra: &[&str]) -> Result<Server, String> {
        // Ask the kernel for a free port, then hand it to the server.
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("pick a port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let start = Instant::now();
        let child = Command::new(binary)
            .arg("--model")
            .arg(bundle)
            .args(["--listen", &addr])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {binary}: {e}"))?;
        let mut server = Server {
            child,
            addr,
            setup_s: 0.0,
        };
        let deadline = start + Duration::from_secs(30);
        let stream = loop {
            match TcpStream::connect(&server.addr) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => {
                    if let Ok(Some(status)) = server.child.try_wait() {
                        return Err(format!("server exited during start-up: {status}"));
                    }
                    // Poll without sleeping: a sleep would let this vCPU
                    // halt, and waking it costs milliseconds at the tail.
                    std::thread::yield_now();
                }
                Err(e) => return Err(format!("server never listened on {}: {e}", server.addr)),
            }
        };
        let reply = request_line(&stream, r#"{"id":0,"op":"info"}"#)?;
        server.setup_s = start.elapsed().as_secs_f64();
        if !reply.contains("\"ok\":true") {
            return Err(format!("info failed: {reply}"));
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The engine's metrics snapshot over the NDJSON `metrics` op.
    pub fn metrics(&self) -> Result<MetricsResponse, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let line = request_line(&stream, r#"{"id":0,"op":"metrics"}"#)?;
        serde_json::from_str(&line).map_err(|e| format!("bad metrics reply: {e}"))
    }

    /// The server's peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes one NDJSON request line and reads one reply line, polling
/// without sleeping (see [`Server::start`]).
pub fn request_line(mut stream: &TcpStream, line: &str) -> Result<String, String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("configure socket: {e}"))?;
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(30);
    while !reply.ends_with(b"\n") {
        match stream.read(&mut buf) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(k) => reply.extend_from_slice(&buf[..k]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err("no reply within 30s".to_string());
                }
                std::thread::yield_now();
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    String::from_utf8(reply).map_err(|e| format!("reply is not UTF-8: {e}"))
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// Starts the server `times` times in a row, keeping the last one
/// running; returns it with the median start-up time.
pub fn start_repeatedly(
    binary: &str,
    bundle: &std::path::Path,
    extra: &[&str],
    times: usize,
) -> Result<(Server, f64), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let server = Server::start(binary, bundle, extra)?;
        setups.push(server.setup_s);
        last = Some(server);
    }
    let ms: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    eprintln!("server starts (ms): {}", ms.join(" "));
    Ok((
        last.expect("started at least once"),
        crate::stats::median(&setups),
    ))
}
