//! Ablation **A6**: what an LRU buffer pool would save (an extension beyond
//! the paper).
//!
//! The paper counts raw, unbuffered page accesses, and so does the engine:
//! nothing caches. This study asks what an LRU pool in front of the index
//! file would have saved over a 100-query batch. A recording [`PageStore`]
//! slid under the index ([`tsss_index::RTree::wrap_store`]) captures the
//! page id of every index read, in order, and [`Lru`] replays that trace at
//! each capacity. The policy is a sharded LRU: `min(frames, 8)` shards, page
//! `id` in shard `id % shards`, the capacity spread evenly over the shards,
//! each shard evicting its least recently used page. The cache starts as
//! the STR build leaves it: the build writes pages `0..extent` in id order,
//! and those writes are replayed first, uncounted.
//!
//! Each query walks ~270 index pages, and a pool smaller than that walk
//! evicts a page before the next query comes back for it: 8 to 128 frames
//! save a handful of the batch's 27,104 reads. The pool pays off only from
//! 512 frames, about a seventh of the 3,773-page index file, where it holds
//! the upper levels every query walks.
//!
//! Run: `cargo run --release -p tsss-bench --bin ablation_buffer`

#![forbid(unsafe_code)]

use std::sync::{Arc, Mutex};

use tsss_core::{EngineConfig, Query, SearchEngine, SearchOptions};
use tsss_data::{MarketConfig, MarketSimulator, QueryWorkload, WorkloadConfig};
use tsss_storage::{AccessStats, Page, PageId, PageStore, StorageError};

/// The pool capacities the study sweeps.
const FRAMES: [usize; 6] = [0, 8, 32, 128, 512, 2048];

/// Upper bound on shards; fewer when the capacity is smaller, so that
/// every shard holds at least one frame.
const MAX_SHARDS: usize = 8;

fn main() {
    let quick = std::env::var("TSSS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let (companies, queries) = if quick { (200, 20) } else { (500, 100) };
    let data = MarketSimulator::new(MarketConfig {
        companies,
        days: 650,
        seed: 0x7555_1999,
        ..MarketConfig::paper()
    })
    .generate();
    let window_len = EngineConfig::paper().window_len;
    let workload = QueryWorkload::generate(
        &data,
        WorkloadConfig {
            queries,
            window_len,
            noise_level: 0.02,
            seed: 0xB0FF,
            ..Default::default()
        },
    );
    let eps = {
        let med = tsss_bench::median_window_fluctuation(&data, window_len);
        0.001 * med
    };

    let mut engine = SearchEngine::build(&data, EngineConfig::paper())
        .expect("data set fits the u32 window ids");
    let extent = engine.index_extent();
    let trace = record_reads(&mut engine);
    engine.reset_counters();
    for q in &workload.queries {
        let _ = engine
            .execute(
                &q.values,
                Query::Range { epsilon: eps },
                SearchOptions::default(),
            )
            .unwrap();
    }
    let reads = std::mem::take(&mut *trace.lock().expect("the batch ran without panicking"));
    assert_eq!(
        reads.len() as u64,
        engine.index_stats().reads(),
        "the trace holds every logical index read"
    );

    println!(
        "{:>10} {:>14} {:>14} {:>12}",
        "frames", "logical/query", "misses/query", "hit rate"
    );
    let n = workload.queries.len() as f64;
    for frames in FRAMES {
        let misses = warm_misses(frames, extent, &reads);
        let hit_rate = if reads.is_empty() {
            0.0
        } else {
            1.0 - misses as f64 / reads.len() as f64
        };
        println!(
            "{:>10} {:>14.1} {:>14.1} {:>11.1}%",
            frames,
            reads.len() as f64 / n,
            misses as f64 / n,
            100.0 * hit_rate
        );
    }
    println!(
        "\n(index file only; eps = 0.001·median fluctuation; LRU replay of the batch's \
         read trace, warm from the STR build)"
    );
}

/// Slides a [`Recorder`] under `engine`'s index and returns the trace it
/// fills.
fn record_reads(engine: &mut SearchEngine) -> Arc<Mutex<Vec<u32>>> {
    let trace = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&trace);
    engine
        .tree_mut()
        .wrap_store(|inner| Box::new(Recorder { inner, trace: sink }));
    trace
}

/// Misses when `reads` replays through an LRU of `frames` frames that has
/// first seen pages `0..extent` written in id order, as the STR build
/// writes them.
fn warm_misses(frames: usize, extent: usize, reads: &[u32]) -> usize {
    let mut lru = Lru::new(frames);
    for id in 0..extent {
        lru.access(u32::try_from(id).expect("page ids are u32"));
    }
    reads.iter().filter(|&&id| !lru.access(id)).count()
}

/// An LRU page cache that holds ids only, to count hits and misses.
#[derive(Debug)]
struct Lru {
    shards: Vec<Shard>,
}

#[derive(Debug)]
struct Shard {
    capacity: usize,
    /// Cached page ids, least recently used first.
    pages: Vec<u32>,
}

impl Lru {
    fn new(frames: usize) -> Self {
        let n = frames.min(MAX_SHARDS);
        let shards = (0..n)
            .map(|i| Shard {
                capacity: frames / n + usize::from(i < frames % n),
                pages: Vec::new(),
            })
            .collect();
        Self { shards }
    }

    /// Reads or writes page `id`, returning whether it was cached. Either
    /// way it becomes its shard's most recently used page; caching it may
    /// evict the shard's least recently used one.
    fn access(&mut self, id: u32) -> bool {
        let n = self.shards.len();
        if n == 0 {
            return false;
        }
        let shard = &mut self.shards[id as usize % n];
        let hit = match shard.pages.iter().position(|&p| p == id) {
            Some(at) => {
                shard.pages.remove(at);
                true
            }
            None => {
                if shard.pages.len() == shard.capacity {
                    shard.pages.remove(0);
                }
                false
            }
        };
        shard.pages.push(id);
        hit
    }
}

/// A [`PageStore`] decorator that appends the id of every page read through
/// it to a shared trace.
#[derive(Debug)]
struct Recorder {
    inner: Box<dyn PageStore>,
    trace: Arc<Mutex<Vec<u32>>>,
}

impl Recorder {
    fn record(&self, id: PageId) {
        self.trace
            .lock()
            .expect("no reader panics holding the trace")
            .push(id.0);
    }
}

impl PageStore for Recorder {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn extent(&self) -> usize {
        self.inner.extent()
    }
    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }
    fn stats(&self) -> Arc<AccessStats> {
        self.inner.stats()
    }
    fn allocate(&mut self) -> Result<PageId, StorageError> {
        self.inner.allocate()
    }
    fn deallocate(&mut self, id: PageId) -> Result<(), StorageError> {
        self.inner.deallocate(id)
    }
    fn read(&self, id: PageId) -> Result<Page, StorageError> {
        self.record(id);
        self.inner.read(id)
    }
    fn write(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
        self.inner.write(id, page)
    }
    fn read_uncounted(&self, id: PageId) -> Result<Page, StorageError> {
        self.record(id);
        self.inner.read_uncounted(id)
    }
    fn write_uncounted(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
        self.inner.write_uncounted(id, page)
    }
    fn corrupt_raw(
        &mut self,
        id: PageId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        self.inner.corrupt_raw(id, f)
    }
    fn persist(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        self.inner.persist(w)
    }
    fn fork(&self) -> Box<dyn PageStore> {
        self.inner.fork()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_reads_hit() {
        let mut lru = Lru::new(4);
        let hits: Vec<bool> = (0..3).map(|_| lru.access(0)).collect();
        assert_eq!(hits, [false, true, true]);
    }

    #[test]
    fn one_frame_evicts_the_least_recently_used_page() {
        let mut lru = Lru::new(1);
        let hits: Vec<bool> = [0, 0, 1, 0].iter().map(|&id| lru.access(id)).collect();
        assert_eq!(hits, [false, true, false, false]);
    }

    #[test]
    fn a_cycle_longer_than_a_shard_never_hits() {
        // 16 frames: 8 shards of 2; the cycle puts 3 pages in each.
        let cycle: Vec<u32> = (0..24).cycle().take(24 * 5).collect();
        assert_eq!(warm_misses(16, 0, &cycle), cycle.len());
        // One page fewer per shard, and only the first lap misses.
        let cycle: Vec<u32> = (0..16).cycle().take(16 * 5).collect();
        assert_eq!(warm_misses(16, 0, &cycle), 16);
    }

    #[test]
    fn pages_warm_from_the_build_are_not_misses() {
        // 4 frames, 4 shards of 1: writing pages 0..8 leaves 4..8 cached.
        assert_eq!(warm_misses(4, 8, &[4, 5, 6, 7, 4, 5]), 0);
        assert_eq!(warm_misses(4, 8, &[0, 1, 4]), 3, "0 evicts 4");
    }

    #[test]
    fn no_frames_miss_every_read() {
        assert_eq!(warm_misses(0, 10, &[1, 1, 1, 2]), 4);
    }

    #[test]
    fn the_recorder_traces_every_logical_index_read() {
        let data = MarketSimulator::new(MarketConfig::small(6, 90, 7)).generate();
        let mut engine = SearchEngine::build(&data, EngineConfig::small(16)).unwrap();
        let trace = record_reads(&mut engine);
        engine.reset_counters();
        let q = data[2].window(10, 16).unwrap().to_vec();
        let res = engine
            .execute(&q, Query::Range { epsilon: 2.0 }, SearchOptions::default())
            .unwrap();
        let reads = trace.lock().unwrap().clone();
        assert_eq!(reads.len() as u64, res.stats.index_pages);
        assert_eq!(reads.len() as u64, engine.index_stats().reads());
        assert_eq!(
            reads[0],
            engine.tree().root_page().0,
            "the walk starts at the root"
        );
    }
}
