//! `tsss-server` — an HTTP/1.1 front door for the tsss search engine.
//!
//! Dependency-free by workspace policy: the listener is
//! [`std::net::TcpListener`], concurrency is a fixed pool of OS threads,
//! and JSON is the in-crate [`json`] module. The design goal is the same
//! one the engine's deadlines serve — **bounded work everywhere**:
//!
//! - Admission is a bounded queue ([`admission`]). When every worker is
//!   busy and the queue is full, new connections get an immediate HTTP
//!   429 instead of queueing without limit. Overload degrades into fast,
//!   explicit rejections, never unbounded latency.
//! - Per-request QoS rides in the body: `opts.deadline` /
//!   `opts.page_budget` / `opts.degradation` map straight onto the
//!   engine's [`tsss_core::Deadline`] and
//!   [`tsss_core::DegradationPolicy`]. A spent budget is HTTP 503.
//! - Reads are bounded ([`http`]): head and body caps, plus a socket
//!   read timeout so a stalled client cannot pin a worker.
//!
//! Every response carries the request's [`tsss_core::SearchStats`];
//! `/metrics` aggregates them across the server's lifetime.

#![forbid(unsafe_code)]

pub mod admission;
pub mod api;
pub mod http;
pub mod json;
pub mod metrics;
pub mod routes;

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tsss_core::DurableEngine;

use admission::{AdmissionQueue, PushOutcome};
use routes::AppState;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Connections allowed to wait for a worker before shedding with 429.
    pub queue_capacity: usize,
    /// Per-socket read timeout — a stalled client is cut off, not waited
    /// on. On a kept-alive connection this doubles as the idle timeout
    /// between requests: a client that sends nothing for this long is
    /// disconnected.
    pub read_timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (`Connection: close` on the last response). Bounds how long one
    /// client can pin a worker; clamped to at least 1.
    pub keep_alive_requests: usize,
    /// Fault domains serving queries. `1` (the default) serves the engine
    /// directly; `N > 1` partitions every published snapshot across N
    /// independent shards — scatter-gather merge with per-shard circuit
    /// breakers, so a corrupt or budget-exhausted shard degrades only its
    /// slice of each answer (`stats.degraded_shards`). Clamped to the
    /// number of series. Ingest stays single-master either way.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(10),
            keep_alive_requests: 32,
            shards: 1,
        }
    }
}

/// A running server: acceptor thread + worker pool over one engine.
pub struct Server {
    addr: SocketAddr,
    queue: Arc<AdmissionQueue<TcpStream>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the pool, and starts accepting over `master`. With a
    /// durable master every acknowledged `/append` is fsynced to the
    /// write-ahead log first, and `/save` checkpoints the engine and
    /// truncates the log; over a volatile one
    /// ([`DurableEngine::new_volatile`]) `/append` acknowledgements do not
    /// survive a crash and `/save` is rejected.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn start(master: DurableEngine, cfg: &ServerConfig) -> io::Result<Server> {
        let state = Arc::new(AppState::new_durable_sharded(master, cfg.shards));
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(AdmissionQueue::new(cfg.queue_capacity));
        let stop = Arc::new(AtomicBool::new(false));

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let queue = Arc::clone(&queue);
                let read_timeout = cfg.read_timeout;
                let max_requests = cfg.keep_alive_requests.max(1);
                std::thread::spawn(move || worker_loop(&state, &queue, read_timeout, max_requests))
            })
            .collect();

        let acceptor = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &state, &queue, &stop))
        };

        Ok(Server {
            addr,
            queue,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and waits for every thread: in-flight requests
    /// finish, queued connections drain, new ones are refused.
    pub fn shutdown(mut self) {
        // Ordering::Relaxed: a plain stop flag — the acceptor re-checks it
        // on its next loop turn; no other memory is published through it.
        self.stop.store(true, Ordering::Relaxed);
        // The acceptor blocks in accept(); a dummy connection unblocks it
        // so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Blocks until the server stops on its own (it normally never does) —
    /// what `tsss serve` parks the main thread on.
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &AppState,
    queue: &AdmissionQueue<TcpStream>,
    stop: &AtomicBool,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        // Ordering::Relaxed: stop flag only — see `Server::shutdown`.
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match queue.try_push(stream) {
            PushOutcome::Admitted => {}
            PushOutcome::Shed(mut stream) => {
                // Load shed: a fast explicit 429 written from the acceptor
                // itself — the whole point of bounding the queue. The
                // request must be drained first: closing with unread bytes
                // in the receive buffer sends an RST, which discards the
                // 429 before the client reads it. A well-behaved client
                // has already sent its whole (bounded) request, so the
                // drain is immediate; a stalled one is cut off by the
                // short timeout.
                state.metrics.record_status(429);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                let _ = http::read_request(&mut stream, &mut Vec::new());
                let _ = http::write_response(
                    &mut stream,
                    429,
                    &api::error_body("server saturated, retry later"),
                );
            }
            PushOutcome::Closed(_) => return,
        }
    }
}

fn worker_loop(
    state: &AppState,
    queue: &AdmissionQueue<TcpStream>,
    read_timeout: Duration,
    max_requests: usize,
) {
    while let Some(mut stream) = queue.pop() {
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_nodelay(true);
        serve_connection(state, &mut stream, max_requests);
    }
}

/// Serves up to `max_requests` requests on one kept-alive connection.
/// The connection closes when the client asks (`Connection: close`,
/// HTTP/1.0), when the cap is reached (the last response announces
/// `Connection: close`), on any protocol error, or when the socket idles
/// past the read timeout.
fn serve_connection(state: &AppState, stream: &mut TcpStream, max_requests: usize) {
    let mut carry = Vec::new();
    for served in 0..max_requests {
        match http::read_request(stream, &mut carry) {
            Ok(req) => {
                let keep_alive = req.keep_alive && served + 1 < max_requests;
                let (status, body) = routes::handle(state, &req.method, &req.path, &req.body);
                if http::write_response_conn(stream, status, &body, keep_alive).is_err() {
                    break;
                }
                if !keep_alive {
                    break;
                }
            }
            Err(http::HttpError::Closed) => {
                // The client hung up between requests — normal end of a
                // kept-alive connection.
                break;
            }
            Err(http::HttpError::TooLarge(what)) => {
                state.metrics.record_status(413);
                let _ = http::write_response(
                    stream,
                    413,
                    &api::error_body(&format!("{what} too large")),
                );
                break;
            }
            Err(http::HttpError::Malformed(msg)) => {
                state.metrics.record_status(400);
                let _ = http::write_response(stream, 400, &api::error_body(&msg));
                break;
            }
            Err(http::HttpError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Mid-request stall on the first request gets an explicit
                // 408; a kept-alive connection idling out afterwards is
                // routine and closes silently.
                if served == 0 {
                    state.metrics.record_status(408);
                    let _ =
                        http::write_response(stream, 408, &api::error_body("request timed out"));
                }
                break;
            }
            Err(http::HttpError::Io(_)) => {
                // Connection died; nothing to answer.
                break;
            }
        }
    }
    let _ = stream.flush();
}
