//! End-to-end tests over real sockets: a live [`Server`] answering raw
//! HTTP/1.1 written by a hand-rolled client.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tsss_core::{DurableEngine, EngineConfig, SearchEngine};
use tsss_data::{MarketConfig, MarketSimulator, Series};
use tsss_server::json::Json;
use tsss_server::{Server, ServerConfig};

const WINDOW: usize = 16;

/// Serves `engine` from a volatile (memory-only) master.
fn start(engine: SearchEngine, cfg: &ServerConfig) -> Server {
    Server::start(DurableEngine::new_volatile(engine), cfg).unwrap()
}

fn fixture() -> (Server, Vec<Series>) {
    let data = MarketSimulator::new(MarketConfig::small(4, 80, 99)).generate();
    let engine = SearchEngine::build(&data, EngineConfig::small(WINDOW)).unwrap();
    let server = start(engine, &ServerConfig::default());
    (server, data)
}

/// Sends one request, reads until the server closes, returns (status, body).
fn request(server: &Server, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> (u16, String) {
    let text = String::from_utf8(raw.to_vec()).expect("response must be UTF-8");
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .expect("response must have a head terminator");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .unwrap();
    assert_eq!(payload.len(), len, "body must match Content-Length");
    (status, payload.to_string())
}

fn query_json(data: &[Series], series: usize, offset: usize, len: usize) -> String {
    Json::Arr(
        data[series].values[offset..offset + len]
            .iter()
            .map(|v| Json::from(*v))
            .collect(),
    )
    .encode()
}

#[test]
fn full_request_cycle_over_the_wire() {
    let (server, data) = fixture();
    let q = query_json(&data, 0, 7, WINDOW);

    // A self-match must come back with a ≈(1, 0) transform at distance ≈0.
    let (status, body) = request(
        &server,
        "POST",
        "/search",
        &format!("{{\"query\":{q},\"epsilon\":0.25}}"),
    );
    assert_eq!(status, 200, "{body}");
    let j = Json::parse(&body).unwrap();
    let matches = j.get("matches").and_then(Json::as_array).unwrap();
    assert!(!matches.is_empty());
    let self_match = matches
        .iter()
        .find(|m| {
            m.get("series").and_then(Json::as_u64) == Some(0)
                && m.get("offset").and_then(Json::as_u64) == Some(7)
        })
        .expect("the query's own window must match");
    assert!(self_match.get("distance").and_then(Json::as_f64).unwrap() < 1e-6);

    // Health, metrics, repair round-trip.
    let (status, body) = request(&server, "GET", "/health", "");
    assert_eq!(status, 200);
    let h = Json::parse(&body).unwrap();
    assert_eq!(h.get("breaker").and_then(Json::as_str), Some("closed"));
    assert_eq!(
        h.get("repair_recommended").and_then(Json::as_bool),
        Some(false)
    );

    let (status, body) = request(&server, "POST", "/repair", "");
    assert_eq!(status, 200);
    assert!(Json::parse(&body)
        .unwrap()
        .get("windows_reindexed")
        .is_some());

    let (status, body) = request(&server, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let m = Json::parse(&body).unwrap();
    assert!(m.get("requests_total").and_then(Json::as_u64).unwrap() >= 3);

    server.shutdown();
}

#[test]
fn append_is_visible_to_subsequent_queries() {
    let (server, data) = fixture();
    // A brand-new series cloned from an existing window, then searched for.
    let vals = query_json(&data, 2, 11, WINDOW + 4);
    let (status, body) = request(
        &server,
        "POST",
        "/append",
        &format!("{{\"name\":\"clone\",\"values\":{vals}}}"),
    );
    assert_eq!(status, 200, "{body}");
    let appended = Json::parse(&body).unwrap();
    let new_series = appended.get("series").and_then(Json::as_u64).unwrap();
    assert_eq!(new_series, 4, "four seed series, the clone is fifth");

    let q = query_json(&data, 2, 11, WINDOW);
    let (status, body) = request(
        &server,
        "POST",
        "/search",
        &format!("{{\"query\":{q},\"epsilon\":0.01}}"),
    );
    assert_eq!(status, 200);
    let j = Json::parse(&body).unwrap();
    let found_in_clone = j
        .get("matches")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .any(|m| m.get("series").and_then(Json::as_u64) == Some(new_series));
    assert!(
        found_in_clone,
        "appended windows must be searchable: {body}"
    );
    server.shutdown();
}

#[test]
fn qos_knobs_travel_the_wire() {
    let (server, data) = fixture();
    let q = query_json(&data, 1, 0, WINDOW);

    // Zero deadline: 503 with the engine's message.
    let (status, body) = request(
        &server,
        "POST",
        "/search",
        &format!(
            "{{\"query\":{q},\"epsilon\":0.5,\"opts\":{{\"deadline\":{{\"max_pages\":0,\"max_steps\":0}}}}}}"
        ),
    );
    assert_eq!(status, 503, "{body}");
    assert!(Json::parse(&body).unwrap().get("error").is_some());

    // Generous deadline: fine, and the spend is reported.
    let (status, body) = request(
        &server,
        "POST",
        "/search",
        &format!(
            "{{\"query\":{q},\"epsilon\":0.5,\"opts\":{{\"deadline\":{{\"max_pages\":100000,\"max_steps\":100000}},\"degradation\":\"strict\"}}}}"
        ),
    );
    assert_eq!(status, 200, "{body}");
    let stats = Json::parse(&body).unwrap().get("stats").cloned().unwrap();
    assert!(stats.get("steps_spent").and_then(Json::as_u64).unwrap() > 0);

    // Cost limits prune: an impossible a-range yields zero matches but
    // counts the rejects.
    let (status, body) = request(
        &server,
        "POST",
        "/search",
        &format!("{{\"query\":{q},\"epsilon\":0.5,\"opts\":{{\"a_range\":[50,60]}}}}"),
    );
    assert_eq!(status, 200);
    let j = Json::parse(&body).unwrap();
    assert_eq!(j.get("total_matches").and_then(Json::as_u64), Some(0));
    assert!(
        j.get("stats")
            .unwrap()
            .get("cost_rejected")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    server.shutdown();
}

#[test]
fn protocol_level_errors_are_answered_not_dropped() {
    let (server, _) = fixture();

    // Malformed request line.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(b"BOGUS\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let (status, body) = parse_response(&raw);
    assert_eq!(status, 400);
    assert!(Json::parse(&body).unwrap().get("error").is_some());

    // Oversized declared body.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(b"POST /search HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let (status, _) = parse_response(&raw);
    assert_eq!(status, 413);

    // Unknown route and unsupported method.
    assert_eq!(request(&server, "GET", "/nope", "").0, 404);
    assert_eq!(request(&server, "PUT", "/health", "").0, 405);
    server.shutdown();
}

#[test]
fn batch_and_knn_over_the_wire() {
    let (server, data) = fixture();
    let q0 = query_json(&data, 0, 20, WINDOW);
    let q1 = query_json(&data, 3, 40, WINDOW);

    let (status, body) = request(
        &server,
        "POST",
        "/batch",
        &format!("{{\"queries\":[{q0},{q1}],\"epsilon\":0.4,\"workers\":2}}"),
    );
    assert_eq!(status, 200, "{body}");
    let j = Json::parse(&body).unwrap();
    let results = j.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 2);
    for r in results {
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    }

    let (status, body) = request(
        &server,
        "POST",
        "/knn",
        &format!("{{\"query\":{q0},\"k\":5}}"),
    );
    assert_eq!(status, 200, "{body}");
    let j = Json::parse(&body).unwrap();
    let matches = j.get("matches").and_then(Json::as_array).unwrap();
    assert_eq!(matches.len(), 5);
    // kNN results arrive sorted by ascending distance.
    let dists: Vec<f64> = matches
        .iter()
        .map(|m| m.get("distance").and_then(Json::as_f64).unwrap())
        .collect();
    assert!(dists.windows(2).all(|w| w[0] <= w[1]), "{dists:?}");
    server.shutdown();
}

/// Reads exactly one response (head + `Content-Length` body) off a
/// kept-alive stream, leaving the connection usable for the next one.
fn read_one_response(stream: &mut TcpStream) -> (u16, String, bool) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    // Head: read byte-wise until the terminator (test-sized traffic).
    while !raw.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "head cut short");
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw.clone()).unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .unwrap();
    let keep_alive = head.contains("Connection: keep-alive\r\n");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    raw.extend_from_slice(&body);
    let (status, payload) = parse_response(&raw);
    (status, payload, keep_alive)
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (server, data) = fixture();
    let q = query_json(&data, 0, 7, WINDOW);

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Several requests over the same socket: each response must arrive,
    // announce keep-alive, and leave the connection usable.
    for _ in 0..3 {
        let body = format!("{{\"query\":{q},\"epsilon\":0.25}}");
        let head = format!(
            "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let (status, payload, keep_alive) = read_one_response(&mut stream);
        assert_eq!(status, 200, "{payload}");
        assert!(keep_alive, "mid-connection responses stay keep-alive");
        assert!(Json::parse(&payload).unwrap().get("matches").is_some());
    }

    // An explicit `Connection: close` ends the conversation.
    stream
        .write_all(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, _, keep_alive) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(!keep_alive, "the final response must announce close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after Connection: close");
    server.shutdown();
}

#[test]
fn keep_alive_request_cap_closes_the_connection() {
    let data = MarketSimulator::new(MarketConfig::small(4, 80, 99)).generate();
    let engine = SearchEngine::build(&data, EngineConfig::small(WINDOW)).unwrap();
    let server = start(
        engine,
        &ServerConfig {
            keep_alive_requests: 2,
            ..ServerConfig::default()
        },
    );

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let get = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n";

    stream.write_all(get).unwrap();
    let (status, _, keep_alive) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(keep_alive, "first of two allowed requests keeps the socket");

    stream.write_all(get).unwrap();
    let (status, _, keep_alive) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(!keep_alive, "the cap's last response must announce close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close at the request cap");
    server.shutdown();
}

#[test]
fn shutdown_finishes_inflight_work_and_stops_accepting() {
    let (server, data) = fixture();
    let q = query_json(&data, 0, 0, WINDOW);
    let (status, _) = request(
        &server,
        "POST",
        "/search",
        &format!("{{\"query\":{q},\"epsilon\":0.3}}"),
    );
    assert_eq!(status, 200);
    let addr = server.addr();
    server.shutdown();
    // After shutdown the port no longer answers.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    if let Ok(mut s) = refused {
        // The OS may still accept briefly; the connection must go nowhere.
        let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = s.write_all(b"GET /health HTTP/1.1\r\n\r\n");
        let mut buf = Vec::new();
        let n = s.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "no worker should answer after shutdown");
    }
}
