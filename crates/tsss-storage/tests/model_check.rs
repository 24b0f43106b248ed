//! Model-based randomised test: the buffer pool over a simulated disk must
//! be observationally equivalent to a plain `HashMap<PageId, Vec<u8>>`,
//! regardless of operation order.
//!
//! Deterministic pseudo-random cases (seeded [`tsss_rand::Rng`]) replace the
//! former proptest strategies so the workspace builds offline.

use std::collections::HashMap;
use tsss_rand::Rng;
use tsss_storage::{BufferPool, Page, PageFile, PageId};

#[derive(Debug, Clone)]
enum Op {
    Write { slot: usize, value: u64 },
    Read { slot: usize },
}

fn random_op(rng: &mut Rng) -> Op {
    if rng.bool() {
        Op::Write {
            slot: rng.usize_below(16),
            value: rng.next_u64(),
        }
    } else {
        Op::Read {
            slot: rng.usize_below(16),
        }
    }
}

#[test]
fn pool_is_equivalent_to_a_hashmap() {
    let mut rng = Rng::seed_from_u64(0x5EED_0001);
    for case in 0..128 {
        let n_ops = 1 + rng.usize_below(199);

        let mut file = PageFile::new(32).unwrap();
        let ids: Vec<PageId> = (0..16).map(|_| file.allocate().unwrap()).collect();
        let mut pool = BufferPool::new(file);
        let mut model: HashMap<usize, u64> = HashMap::new();

        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Write { slot, value } => {
                    let mut p = Page::zeroed(32);
                    p.put_u64(0, value);
                    pool.write(ids[slot], p).unwrap();
                    model.insert(slot, value);
                }
                Op::Read { slot } => {
                    let got = pool.read(ids[slot]).unwrap().get_u64(0);
                    let want = model.get(&slot).copied().unwrap_or(0);
                    assert_eq!(got, want, "case {case}: slot {slot} diverged");
                }
            }
        }

        // The file itself must agree with the model.
        pool.with_store(|store| {
            for (slot, want) in model {
                assert_eq!(
                    store.read_uncounted(ids[slot]).unwrap().get_u64(0),
                    want,
                    "case {case}: slot {slot} wrong in the file"
                );
            }
        });
    }
}

#[test]
fn logical_read_count_is_exact() {
    let mut rng = Rng::seed_from_u64(0x5EED_0002);
    for case in 0..128 {
        let n_reads = 1 + rng.usize_below(99);
        let slots: Vec<usize> = (0..n_reads).map(|_| rng.usize_below(8)).collect();

        let mut file = PageFile::new(32).unwrap();
        let ids: Vec<PageId> = (0..8).map(|_| file.allocate().unwrap()).collect();
        file.stats().reset();
        let pool = BufferPool::new(file);
        for &s in &slots {
            let _ = pool.read(ids[s]).unwrap();
        }
        assert_eq!(pool.stats().reads(), slots.len() as u64, "case {case}");
    }
}
