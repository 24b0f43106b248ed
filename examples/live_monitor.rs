//! Live pattern monitor — exercising the paper's dynamic-index requirement
//! (§3, requirement 2: "cope with frequent and regular data insertion as
//! the time series data are collected regularly").
//!
//! A reference pattern (a sharp sell-off followed by a rebound) is watched
//! for across a streaming market: each simulated day appends one value to
//! every series, the engine indexes the newly-completed windows
//! incrementally, and freshly-matching windows raise alerts. Old windows
//! are expired from the index as they fall out of the monitoring horizon.
//!
//! Run with: `cargo run --release --example live_monitor`

// Demo fixture: day/stream counters are tiny, the narrowing casts are safe.
#![allow(clippy::cast_possible_truncation)]

use tsss::core::{EngineConfig, Query, SearchEngine, SearchOptions, SubseqId};
use tsss::data::{MarketConfig, MarketSimulator, Series};

const WINDOW: usize = 24;
const HISTORY: usize = 120; // days available before the live stream starts
const LIVE_DAYS: usize = 60;
const HORIZON: usize = 40; // expire windows older than this many days

fn crash_pattern() -> Vec<f64> {
    // Stylised sell-off and rebound, amplitude 1. Scale/shift invariance
    // means this one template covers every price level and severity.
    (0..WINDOW)
        .map(|i| {
            let t = i as f64 / (WINDOW - 1) as f64;
            if t < 0.4 {
                1.0 - 2.2 * t // sharp fall
            } else {
                0.12 + 0.9 * (t - 0.4) // slow rebound
            }
        })
        .collect()
}

fn main() {
    // Full simulated future, split into history and live stream.
    let mut full =
        MarketSimulator::new(MarketConfig::small(80, HISTORY + LIVE_DAYS, 99)).generate();
    let streams: Vec<Vec<f64>> = full
        .iter_mut()
        .map(|s| s.values.split_off(HISTORY))
        .collect();
    let history: Vec<Series> = full;

    let mut cfg = EngineConfig::small(WINDOW);
    cfg.fc = Some(3);
    let mut engine = SearchEngine::build(&history, cfg).expect("data set fits the u32 window ids");
    println!(
        "monitoring {} stocks; {} historical windows indexed",
        history.len(),
        engine.num_windows()
    );

    let pattern = crash_pattern();
    let eps = 0.4 * tsss::geometry::se::se_norm(&pattern);
    // The paper's distance is measured in the *target's* amplitude, so a
    // near-flat window is within ε of any query via a ≈ 0. The paper's
    // remedy is the transformation-cost limit (§3): demand a genuinely
    // positive severity, i.e. a real sell-off, not a flat line.
    let opts = SearchOptions {
        cost: tsss::core::CostLimit {
            a_range: Some((0.5, f64::INFINITY)),
            b_range: None,
        },
        ..Default::default()
    };
    let mut alerted: std::collections::BTreeSet<SubseqId> = Default::default();
    let mut total_alerts = 0usize;

    for day in 0..LIVE_DAYS {
        // 1. Ingest today's closes.
        for (si, stream) in streams.iter().enumerate() {
            engine
                .append_values(si, &stream[day..=day])
                .expect("series exists");
        }
        let today = HISTORY + day;

        // 2. Expire windows that left the horizon (dynamic deletes).
        if today >= HORIZON + WINDOW {
            let expire_offset = (today - HORIZON - WINDOW) as u32;
            for si in 0..streams.len() as u32 {
                let _ = engine.remove_window(SubseqId {
                    series: si,
                    offset: expire_offset,
                });
            }
        }

        // 3. Query for the pattern. Only alert on windows ending today.
        let result = engine
            .execute(&pattern, Query::Range { epsilon: eps }, opts)
            .expect("pattern query");
        for m in &result.matches {
            let ends_today = m.id.offset as usize + WINDOW == today + 1;
            if ends_today && alerted.insert(m.id) {
                total_alerts += 1;
                if total_alerts <= 12 {
                    println!(
                        "day {:3}: ALERT {} — sell-off/rebound, severity a = {:.2}, \
                         level b = {:.1}, distance {:.2}",
                        day,
                        history[m.id.series as usize].name,
                        m.transform.a,
                        m.transform.b,
                        m.distance
                    );
                }
            }
        }
    }

    engine.tree_mut().check_invariants().expect("index intact");
    println!(
        "\n{} alert(s) over {} live days; index now holds {} windows (invariants OK)",
        total_alerts,
        LIVE_DAYS,
        engine.num_windows()
    );
}
