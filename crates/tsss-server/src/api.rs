//! Translation between the JSON wire format and the engine's types.
//!
//! Request bodies carry the engine's QoS knobs directly: an `opts` object
//! maps onto [`SearchOptions`] — `deadline.{max_pages,max_steps}` become a
//! [`Deadline`], `page_budget` the index-page cap, `degradation` one of
//! `"fallback"` / `"error"` / `"strict"`, `method` one of `"slab"` /
//! `"spheres"`, and `a_range` / `b_range` the transformation-cost limits.
//! Every successful search response carries its full
//! [`tsss_core::SearchStats`] so callers can see what their budget bought.

use tsss_core::{
    BreakerState, CostLimit, Deadline, DegradationPolicy, EngineError, HealthReport, RepairReport,
    SearchOptions, SearchResult,
};

use crate::json::Json;

/// A request rejected before (or by) the engine: HTTP status plus a
/// message safe to echo to the client.
#[derive(Debug)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Human-readable diagnosis, returned in the `error` field.
    pub message: String,
    /// Optional operator guidance, returned in the `hint` field — e.g.
    /// which endpoint repairs the condition behind the error.
    pub hint: Option<String>,
}

impl ApiError {
    /// A 400 with the given message.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches operator guidance to the error body.
    pub fn with_hint(mut self, hint: impl Into<String>) -> ApiError {
        self.hint = Some(hint.into());
        self
    }

    /// The JSON error payload: `{"error": ...}` plus `hint` when present.
    pub fn body(&self) -> String {
        let mut j = Json::obj([("error", Json::from(self.message.as_str()))]);
        if let (Some(h), Json::Obj(map)) = (&self.hint, &mut j) {
            map.insert("hint".to_string(), Json::from(h.as_str()));
        }
        j.encode()
    }
}

impl From<EngineError> for ApiError {
    fn from(e: EngineError) -> ApiError {
        ApiError {
            status: status_of(&e),
            message: e.to_string(),
            hint: None,
        }
    }
}

/// Maps an engine error to its HTTP status.
///
/// Malformed queries are the client's fault (400/404/413); exhausted
/// budgets are explicit service degradation (503, the client may retry
/// with a looser deadline); corruption is the server's problem (500).
pub fn status_of(e: &EngineError) -> u16 {
    match e {
        EngineError::QueryLength { .. }
        | EngineError::QueryTooShort { .. }
        | EngineError::NonFiniteQuery { .. }
        | EngineError::InvalidEpsilon(_) => 400,
        EngineError::UnknownSeries(_) => 404,
        EngineError::TooLarge { .. } => 413,
        // A failed shard is explicit service degradation like a spent
        // budget: the data is intact, a retry after repair succeeds.
        EngineError::PageBudgetExceeded { .. }
        | EngineError::DeadlineExceeded { .. }
        | EngineError::ShardUnavailable { .. } => 503,
        // A WAL failure means the append was not acknowledged — a server-side
        // durability fault the client should retry, like corruption a 500.
        EngineError::Corrupt { .. } | EngineError::Wal { .. } => 500,
    }
}

/// True when the error is explicit service degradation — a spent deadline
/// or page budget, or a shard that failed with one (a sharded snapshot
/// reports per-shard exhaustion as [`EngineError::ShardUnavailable`]).
/// These are the 503s the `/metrics` `deadline_exceeded_total` counter
/// tracks, matching the grouping in [`status_of`].
pub fn is_budget_exhaustion(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::DeadlineExceeded { .. }
            | EngineError::PageBudgetExceeded { .. }
            | EngineError::ShardUnavailable { .. }
    )
}

/// The standard error payload: `{"error": ...}`.
pub fn error_body(message: &str) -> String {
    Json::obj([("error", Json::from(message))]).encode()
}

/// Extracts a required array of finite numbers.
pub fn require_f64_array(body: &Json, key: &str) -> Result<Vec<f64>, ApiError> {
    let arr = body
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::bad_request(format!("missing array field {key:?}")))?;
    arr.iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| ApiError::bad_request(format!("{key:?} must hold finite numbers")))
        })
        .collect()
}

/// Extracts a required finite number.
pub fn require_f64(body: &Json, key: &str) -> Result<f64, ApiError> {
    body.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ApiError::bad_request(format!("missing numeric field {key:?}")))
}

/// Extracts a required non-negative integer.
pub fn require_u64(body: &Json, key: &str) -> Result<u64, ApiError> {
    body.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ApiError::bad_request(format!("missing integer field {key:?}")))
}

fn opt_u64(body: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ApiError::bad_request(format!("{key:?} must be a non-negative integer"))
        }),
    }
}

fn opt_range(body: &Json, key: &str) -> Result<Option<(f64, f64)>, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let arr = v
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| ApiError::bad_request(format!("{key:?} must be [lo, hi]")))?;
            let lo = arr[0]
                .as_f64()
                .ok_or_else(|| ApiError::bad_request(format!("{key:?} bounds must be finite")))?;
            let hi = arr[1]
                .as_f64()
                .ok_or_else(|| ApiError::bad_request(format!("{key:?} bounds must be finite")))?;
            Ok(Some((lo, hi)))
        }
    }
}

/// Decodes the optional `opts` object of a request body into
/// [`SearchOptions`]. Absent fields keep the engine defaults.
pub fn parse_options(body: &Json) -> Result<SearchOptions, ApiError> {
    let mut opts = SearchOptions::default();
    let Some(o) = body.get("opts") else {
        return Ok(opts);
    };
    if !matches!(o, Json::Obj(_)) {
        return Err(ApiError::bad_request("\"opts\" must be an object"));
    }

    if let Some(d) = o.get("deadline") {
        if !matches!(d, Json::Null) {
            opts.deadline = Some(Deadline {
                max_pages: require_u64(d, "max_pages")?,
                max_steps: require_u64(d, "max_steps")?,
            });
        }
    }
    opts.page_budget = opt_u64(o, "page_budget")?;
    if let Some(policy) = o.get("degradation") {
        opts.degradation = match policy.as_str() {
            Some("fallback") => DegradationPolicy::SeqScanFallback,
            Some("error") => DegradationPolicy::Error,
            Some("strict") => DegradationPolicy::Strict,
            _ => {
                return Err(ApiError::bad_request(
                    "\"degradation\" must be \"fallback\", \"error\", or \"strict\"",
                ))
            }
        };
    }
    if let Some(method) = o.get("method") {
        opts.method = match method.as_str() {
            Some("slab") => tsss_geometry::penetration::PenetrationMethod::EnteringExiting,
            Some("spheres") => tsss_geometry::penetration::PenetrationMethod::BoundingSpheres,
            _ => {
                return Err(ApiError::bad_request(
                    "\"method\" must be \"slab\" or \"spheres\"",
                ))
            }
        };
    }
    opts.cost = CostLimit {
        a_range: opt_range(o, "a_range")?,
        b_range: opt_range(o, "b_range")?,
    };
    Ok(opts)
}

fn breaker_str(b: BreakerState) -> &'static str {
    match b {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

/// Encodes one search result: matches (optionally truncated to `limit`)
/// plus the full per-query statistics.
pub fn encode_result(res: &SearchResult, limit: Option<usize>) -> Json {
    let shown = limit.unwrap_or(res.matches.len()).min(res.matches.len());
    let matches: Vec<Json> = res.matches[..shown]
        .iter()
        .map(|m| {
            Json::obj([
                ("series", Json::from(m.id.series_idx())),
                ("offset", Json::from(m.id.offset_idx())),
                ("a", Json::from(m.transform.a)),
                ("b", Json::from(m.transform.b)),
                ("distance", Json::from(m.distance)),
            ])
        })
        .collect();
    let s = &res.stats;
    let stats = Json::obj([
        ("candidates", Json::from(s.candidates)),
        ("verified", Json::from(s.verified)),
        ("false_alarms", Json::from(s.false_alarms)),
        ("cost_rejected", Json::from(s.cost_rejected)),
        ("index_pages", Json::from(s.index_pages)),
        ("data_pages", Json::from(s.data_pages)),
        ("steps_spent", Json::from(s.steps_spent)),
        ("retries", Json::from(s.retries)),
        ("degraded", Json::from(s.degraded)),
        (
            "degraded_reason",
            match &s.degraded_reason {
                Some(r) => Json::from(r.as_str()),
                None => Json::Null,
            },
        ),
        ("breaker", Json::from(breaker_str(s.breaker))),
        ("degraded_shards", Json::from(s.degraded_shards)),
        ("shards_ok", Json::from(s.shards_ok)),
        ("epoch", Json::from(s.epoch)),
        ("wal_tail_records", Json::from(s.wal_tail_records)),
        (
            "elapsed_us",
            Json::from(u64::try_from(s.elapsed.as_micros()).unwrap_or(u64::MAX)),
        ),
    ]);
    Json::obj([
        ("total_matches", Json::from(res.matches.len())),
        ("matches", Json::Arr(matches)),
        ("stats", stats),
    ])
}

/// Encodes the `/health` payload.
pub fn encode_health(h: &HealthReport) -> Json {
    Json::obj([
        ("breaker", Json::from(breaker_str(h.breaker))),
        ("strikes", Json::from(u64::from(h.strikes))),
        ("seqscan_served", Json::from(h.seqscan_served)),
        ("breaker_trips", Json::from(h.breaker_trips)),
        (
            "quarantined_pages",
            Json::Arr(
                h.quarantined_pages
                    .iter()
                    .map(|p| Json::from(u64::from(*p)))
                    .collect(),
            ),
        ),
        ("index_retries", Json::from(h.index_retries)),
        ("data_retries", Json::from(h.data_retries)),
        ("append_tail_unindexed", Json::from(h.append_tail_unindexed)),
        ("wal_tail_records", Json::from(h.wal_tail_records)),
        ("wal_replayed", Json::from(h.wal_replayed)),
        ("repair_recommended", Json::from(h.repair_recommended())),
    ])
}

/// Encodes the `/repair` payload.
pub fn encode_repair(r: &RepairReport) -> Json {
    Json::obj([
        ("windows_reindexed", Json::from(r.windows_reindexed)),
        (
            "quarantine_cleared",
            Json::Arr(
                r.quarantine_cleared
                    .iter()
                    .map(|p| Json::from(u64::from(*p)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_when_opts_absent() {
        let body = Json::parse(r#"{"query":[1,2]}"#).unwrap();
        let opts = parse_options(&body).unwrap();
        assert_eq!(opts, SearchOptions::default());
    }

    #[test]
    fn full_opts_decode() {
        let body = Json::parse(
            r#"{"opts":{
                "deadline":{"max_pages":100,"max_steps":50},
                "page_budget":64,
                "degradation":"strict",
                "method":"spheres",
                "a_range":[0.5,2],
                "b_range":[-10,10]
            }}"#,
        )
        .unwrap();
        let opts = parse_options(&body).unwrap();
        assert_eq!(
            opts.deadline,
            Some(Deadline {
                max_pages: 100,
                max_steps: 50
            })
        );
        assert_eq!(opts.page_budget, Some(64));
        assert_eq!(opts.degradation, DegradationPolicy::Strict);
        assert_eq!(
            opts.method,
            tsss_geometry::penetration::PenetrationMethod::BoundingSpheres
        );
        assert_eq!(opts.cost.a_range, Some((0.5, 2.0)));
        assert_eq!(opts.cost.b_range, Some((-10.0, 10.0)));
    }

    #[test]
    fn bad_opts_are_400() {
        for bad in [
            r#"{"opts":{"degradation":"maybe"}}"#,
            r#"{"opts":{"method":"cubes"}}"#,
            r#"{"opts":{"deadline":{"max_pages":3}}}"#,
            r#"{"opts":{"page_budget":-1}}"#,
            r#"{"opts":{"a_range":[1]}}"#,
            r#"{"opts":42}"#,
        ] {
            let body = Json::parse(bad).unwrap();
            let err = parse_options(&body).unwrap_err();
            assert_eq!(err.status, 400, "{bad}");
        }
    }

    #[test]
    fn engine_errors_map_to_statuses() {
        assert_eq!(
            status_of(&EngineError::QueryLength {
                expected: 16,
                got: 3
            }),
            400
        );
        assert_eq!(status_of(&EngineError::NonFiniteQuery { index: 0 }), 400);
        assert_eq!(status_of(&EngineError::UnknownSeries(9)), 404);
        assert_eq!(
            status_of(&EngineError::TooLarge {
                what: "series length",
                value: 1
            }),
            413
        );
        assert_eq!(
            status_of(&EngineError::DeadlineExceeded { pages: 1, steps: 2 }),
            503
        );
        assert_eq!(
            status_of(&EngineError::PageBudgetExceeded { budget: 8 }),
            503
        );
        assert_eq!(
            status_of(&EngineError::ShardUnavailable {
                shard: 2,
                detail: "index page 4 corrupt".to_string()
            }),
            503
        );
        assert_eq!(
            status_of(&EngineError::Corrupt {
                detail: "x".to_string(),
                page: None
            }),
            500
        );
        assert_eq!(
            status_of(&EngineError::Wal {
                detail: "fsync failed".to_string()
            }),
            500
        );
    }
}
