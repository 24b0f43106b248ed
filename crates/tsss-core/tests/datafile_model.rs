//! Model-based randomised test for the paged series store: under arbitrary
//! interleavings of series creation and appends, every window fetch must
//! agree with a plain `Vec<Vec<f64>>` model, and the page arithmetic must
//! hold exactly.
//!
//! Deterministic pseudo-random cases (seeded [`tsss_rand::Rng`]) replace the
//! former proptest strategies so the workspace builds offline.

use tsss_core::datafile::PagedSeriesStore;
use tsss_rand::Rng;

#[derive(Debug, Clone)]
enum Op {
    NewSeries,
    Append { series: usize, values: Vec<f64> },
}

fn random_op(rng: &mut Rng) -> Op {
    if rng.usize_below(5) == 0 {
        Op::NewSeries
    } else {
        let series = rng.usize_below(8);
        let len = 1 + rng.usize_below(39);
        Op::Append {
            series,
            values: rng.f64_vec(len, -1e6, 1e6),
        }
    }
}

#[test]
fn store_matches_vec_model() {
    let mut rng = Rng::seed_from_u64(0xDA7A_0001);
    for case in 0..96 {
        let page_size = [16usize, 64, 256, 4096][rng.usize_below(4)];
        let n_ops = 1 + rng.usize_below(59);

        let mut store = PagedSeriesStore::new(page_size);
        let mut model: Vec<Vec<f64>> = Vec::new();
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::NewSeries => {
                    let idx = store.add_series(format!("s{}", model.len()));
                    assert_eq!(idx, model.len());
                    model.push(Vec::new());
                }
                Op::Append { series, values } => {
                    if model.is_empty() {
                        assert!(store.append(series, &values).is_err());
                        continue;
                    }
                    let s = series % model.len();
                    store.append(s, &values).unwrap();
                    model[s].extend_from_slice(&values);
                }
            }
        }

        // Shape agreement.
        assert_eq!(store.num_series(), model.len());
        let total: usize = model.iter().map(Vec::len).sum();
        assert_eq!(store.total_values(), total);
        assert_eq!(store.page_count(), total.div_ceil(page_size / 8));
        for (i, m) in model.iter().enumerate() {
            assert_eq!(store.series_len(i).unwrap(), m.len());
        }

        // read_everything reproduces the model, one page read each.
        store.stats().reset();
        let all = store.read_everything().unwrap();
        assert_eq!(
            store.stats().reads(),
            store.page_count() as u64,
            "case {case}"
        );
        assert_eq!(&all, &model);

        // Pseudo-random window fetches agree with the model.
        for _ in 0..20 {
            if model.is_empty() {
                break;
            }
            let s = rng.usize_below(model.len());
            if model[s].is_empty() {
                continue;
            }
            let off = rng.usize_below(model[s].len());
            let len = 1 + rng.usize_below(model[s].len() - off);
            let got = store.fetch_window(s, off, len).unwrap();
            assert_eq!(&got[..], &model[s][off..off + len], "case {case}");
        }
    }
}
