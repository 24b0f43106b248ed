//! The `tsss serve` child process and a minimal keep-alive HTTP client.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::SERVER_WORKERS;

/// How long a server may take to come up before the run fails.
const STARTUP_LIMIT: Duration = Duration::from_secs(120);

/// One kept-alive client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off and a generous read timeout.
    ///
    /// # Errors
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Writes one request and reads its whole response: `(status, body)`.
    ///
    /// # Errors
    /// Socket failures, a peer that closes mid-response, or a response
    /// without a parseable status line or `Content-Length`.
    pub fn round_trip(&mut self, wire: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(wire)?;
        let mut scanned = 0;
        let head_end = loop {
            if let Some(p) = find(&self.buf[scanned..], b"\r\n\r\n") {
                break scanned + p;
            }
            scanned = self.buf.len().saturating_sub(3);
            self.fill()?;
        };
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("no status code"))?;
        let len = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .ok_or_else(|| bad("no Content-Length"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            self.fill()?;
        }
        let body = self.buf[body_start..body_start + len].to_vec();
        self.buf.drain(..body_start + len);
        Ok((status, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {what}"))
}

/// A `GET` on a fresh connection.
///
/// # Errors
/// As [`Conn::round_trip`].
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let wire = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    Conn::connect(addr)?.round_trip(wire.as_bytes())
}

/// A running `tsss serve` child. Dropping it kills the process and waits
/// for it.
pub struct Server {
    child: Child,
    /// Held open: the server prints to stdout after start-up, and a closed
    /// pipe would fail those writes.
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `tsss serve` over `engine` on a free loopback port and waits
    /// for its first `200` on `/health`. Returns the server and the time
    /// from spawn to that answer.
    ///
    /// # Errors
    /// Spawn failures, a server that exits or stays unhealthy past the
    /// start-up limit.
    pub fn spawn(tsss: &Path, engine: &Path, shards: usize) -> io::Result<(Server, Duration)> {
        let t0 = Instant::now();
        let mut child = Command::new(tsss)
            .arg("serve")
            .arg("--engine")
            .arg(engine)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &SERVER_WORKERS.to_string()])
            .args(["--shards", &shards.to_string()])
            .args(["--keep-alive-requests", "1000000"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("server stdout was not captured"))?;
        // From here on the child is owned by `Server`, whose drop reaps it
        // on every error path below.
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = server.read_addr()?;
        loop {
            if let Ok((200, _)) = get(server.addr, "/health") {
                return Ok((server, t0.elapsed()));
            }
            if t0.elapsed() > STARTUP_LIMIT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server never answered /health",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn read_addr(&mut self) -> io::Result<SocketAddr> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("server exited before listening"));
            }
            if let Some(rest) = line.trim().strip_prefix("listening on http://") {
                return rest
                    .parse()
                    .map_err(|_| io::Error::other(format!("unparseable address {rest:?}")));
            }
        }
    }

    /// The process's peak resident set (`VmHWM`), in MiB.
    ///
    /// # Errors
    /// When `/proc/<pid>/status` is unreadable or lacks the field.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best effort: the process may already have exited; `wait` reaps it
        // either way so no zombie outlives the run.
        if self.child.kill().is_err() {
            eprintln!("servebench: server process had already exited");
        }
        if let Err(e) = self.child.wait() {
            eprintln!("servebench: waiting for the server failed: {e}");
        }
    }
}
