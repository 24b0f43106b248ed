//! Soak test: concurrent clients hammering a live server with mixed
//! endpoints and mixed QoS. The assertions are the server's service
//! contract under load:
//!
//! - **zero malformed responses** — every reply parses as HTTP with a
//!   JSON body matching its Content-Length;
//! - **bounded tail latency** — p99 stays under a generous ceiling (this
//!   is a hang detector, not a performance benchmark);
//! - **saturation sheds, never hangs** — with a one-worker, one-slot
//!   queue, a flood gets a mix of answers and fast 429s, and every
//!   connection resolves.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsss_core::{DurableEngine, EngineConfig, SearchEngine};
use tsss_data::{MarketConfig, MarketSimulator, Series};
use tsss_server::json::Json;
use tsss_server::{Server, ServerConfig};

const WINDOW: usize = 16;

/// Serves `engine` from a volatile (memory-only) master.
fn start(engine: SearchEngine, cfg: &ServerConfig) -> Server {
    Server::start(DurableEngine::new_volatile(engine), cfg).unwrap()
}

fn build_engine(companies: usize, days: usize) -> (SearchEngine, Vec<Series>) {
    let data = MarketSimulator::new(MarketConfig::small(companies, days, 4242)).generate();
    let engine = SearchEngine::build(&data, EngineConfig::small(WINDOW)).unwrap();
    (engine, data)
}

/// One request; panics on any protocol-level malformation.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    assert!(
        !raw.is_empty(),
        "connection must not close without a response"
    );
    let text = String::from_utf8(raw).expect("response must be UTF-8");
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .expect("response must have a head terminator");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("status");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length")
        .parse()
        .unwrap();
    assert_eq!(payload.len(), len, "body length must match Content-Length");
    Json::parse(payload).expect("every body must be valid JSON");
    (status, payload.to_string())
}

fn q_json(data: &[Series], series: usize, offset: usize) -> String {
    Json::Arr(
        data[series].values[offset..offset + WINDOW]
            .iter()
            .map(|v| Json::from(*v))
            .collect(),
    )
    .encode()
}

#[test]
fn mixed_endpoint_soak_yields_no_malformed_responses_and_bounded_p99() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 25;

    let (engine, data) = build_engine(6, 120);
    let server = start(
        engine,
        &ServerConfig {
            workers: 4,
            queue_capacity: 32,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let data = Arc::new(data);

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let data = Arc::clone(&data);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(QUERIES_PER_CLIENT);
                let mut statuses = Vec::with_capacity(QUERIES_PER_CLIENT);
                for i in 0..QUERIES_PER_CLIENT {
                    let series = (c + i) % data.len();
                    let offset = (i * 7) % (data[series].values.len() - WINDOW);
                    let q = q_json(&data, series, offset);
                    // Mix endpoints and QoS: every 5th request runs under a
                    // deliberately tight deadline and must 503, not hang.
                    let (path, body) = match i % 5 {
                        0 => ("/knn".to_string(), format!("{{\"query\":{q},\"k\":3}}")),
                        1 => (
                            "/znormalized".to_string(),
                            format!("{{\"query\":{q},\"z_eps\":0.4}}"),
                        ),
                        2 => (
                            "/search".to_string(),
                            format!(
                                "{{\"query\":{q},\"epsilon\":0.4,\"opts\":{{\"deadline\":{{\"max_pages\":0,\"max_steps\":0}}}}}}"
                            ),
                        ),
                        3 => (
                            "/batch".to_string(),
                            format!("{{\"queries\":[{q},{q}],\"epsilon\":0.3,\"workers\":2}}"),
                        ),
                        _ => (
                            "/search".to_string(),
                            format!("{{\"query\":{q},\"epsilon\":0.5,\"limit\":10}}"),
                        ),
                    };
                    let t0 = Instant::now();
                    let (status, _) = request(addr, "POST", &path, &body);
                    latencies.push(t0.elapsed());
                    statuses.push((i % 5, status));
                }
                (latencies, statuses)
            })
        })
        .collect();

    let mut all_latencies = Vec::new();
    for h in handles {
        let (latencies, statuses) = h.join().expect("client thread must not panic");
        for (kind, status) in statuses {
            match kind {
                2 => assert_eq!(status, 503, "tight-deadline requests must 503"),
                _ => assert_eq!(status, 200, "healthy requests must succeed"),
            }
        }
        all_latencies.extend(latencies);
    }

    all_latencies.sort();
    let p99 = all_latencies[all_latencies.len() * 99 / 100];
    assert!(
        p99 < Duration::from_secs(10),
        "p99 {p99:?} exceeds the hang ceiling"
    );

    // The server accounted for everything it served.
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let m = Json::parse(&body).unwrap();
    let total = m.get("requests_total").and_then(Json::as_u64).unwrap();
    assert!(total >= (CLIENTS * QUERIES_PER_CLIENT) as u64);
    let deadline_hits = m
        .get("deadline_exceeded_total")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        deadline_hits >= (CLIENTS * QUERIES_PER_CLIENT / 5) as u64,
        "every tight-deadline request must be counted"
    );
    server.shutdown();
}

#[test]
fn saturating_the_admission_queue_sheds_with_429_not_hangs() {
    // One worker, one queue slot: the server can hold two connections;
    // everything beyond that must shed fast.
    let (engine, data) = build_engine(8, 250);
    let server = start(
        engine,
        &ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let data = Arc::new(data);

    // A slow request to occupy the single worker: a large batch over a
    // fat epsilon verifies thousands of windows per query.
    let occupier = {
        let data = Arc::clone(&data);
        std::thread::spawn(move || {
            let q = q_json(&data, 0, 5);
            let queries: Vec<String> = (0..60).map(|_| q.clone()).collect();
            let body = format!(
                "{{\"queries\":[{}],\"epsilon\":50.0,\"workers\":1}}",
                queries.join(",")
            );
            let (status, _) = request(addr, "POST", "/batch", &body);
            assert_eq!(status, 200);
        })
    };
    // Give the occupier time to reach the worker.
    std::thread::sleep(Duration::from_millis(100));

    let shed = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let flood: Vec<_> = (0..24)
        .map(|i| {
            let data = Arc::clone(&data);
            let shed = Arc::clone(&shed);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                let q = q_json(&data, i % 8, 3);
                let t0 = Instant::now();
                let (status, _) = request(
                    addr,
                    "POST",
                    "/search",
                    &format!("{{\"query\":{q},\"epsilon\":0.4}}"),
                );
                let elapsed = t0.elapsed();
                match status {
                    429 => {
                        // Relaxed: independent test counters.
                        shed.fetch_add(1, Ordering::Relaxed);
                        assert!(
                            elapsed < Duration::from_secs(5),
                            "a shed must be fast, got {elapsed:?}"
                        );
                    }
                    200 => {
                        // Relaxed: independent test counters.
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("unexpected status {other} under saturation"),
                }
            })
        })
        .collect();
    for h in flood {
        h.join().expect("flood client must resolve, not hang");
    }
    occupier.join().unwrap();

    // Relaxed loads: all writers joined above.
    let shed = shed.load(Ordering::Relaxed);
    let served = served.load(Ordering::Relaxed);
    assert_eq!(shed + served, 24, "every connection resolved");
    assert!(shed > 0, "a 2-slot server flooded by 24 must shed some");

    // The sheds are visible in the metrics.
    let (_, body) = request(addr, "GET", "/metrics", "");
    let m = Json::parse(&body).unwrap();
    assert_eq!(m.get("shed_total").and_then(Json::as_u64), Some(shed));
    server.shutdown();
}
