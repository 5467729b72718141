//! The streamed 75/25 split against its reference: generating the whole
//! dataset, shuffling it with the split seed and cutting it at
//! `round(0.75 · N)`. The train-only, test-only and both-splits forms must
//! equal that bit for bit — indices, value bits, label bits and order.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::prelude::*;
use rand::rngs::StdRng;
use sketchml::data::{SparseDatasetSpec, Task};
use sketchml::ml::Instance;

/// The split as it was computed before generation streamed it: shuffle the
/// generated instances with the split seed, then cut.
fn split_train_test(
    mut data: Vec<Instance>,
    train_fraction: f64,
    seed: u64,
) -> (Vec<Instance>, Vec<Instance>) {
    let mut rng = StdRng::seed_from_u64(seed);
    data.shuffle(&mut rng);
    let cut = ((data.len() as f64) * train_fraction.clamp(0.0, 1.0)).round() as usize;
    let test = data.split_off(cut.min(data.len()));
    (data, test)
}

/// Every index, every value bit and every label bit, in order.
fn bits(data: &[Instance]) -> Vec<(Vec<u32>, Vec<u64>, u64)> {
    data.iter()
        .map(|inst| {
            (
                inst.features.indices().to_vec(),
                inst.features.values().iter().map(|v| v.to_bits()).collect(),
                inst.label.to_bits(),
            )
        })
        .collect()
}

fn check(spec: &SparseDatasetSpec) -> Result<(), TestCaseError> {
    let all = spec.generate();
    prop_assert_eq!(all.len(), spec.instances);
    let (train, test) = split_train_test(all, 0.75, spec.seed ^ 0x5117);
    let (want_train, want_test) = (bits(&train), bits(&test));
    prop_assert_eq!(spec.train_len(), train.len());

    let (got_train, got_test) = spec.generate_split();
    prop_assert_eq!(&bits(&got_train), &want_train);
    prop_assert_eq!(&bits(&got_test), &want_test);
    prop_assert_eq!(&bits(&spec.generate_train()), &want_train);
    prop_assert_eq!(&bits(&spec.generate_test()), &want_test);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_splits_equal_shuffle_then_split_off(
        tiny in 1usize..=4,
        instances in 5usize..300,
        features in 1u32..20_000,
        avg_nnz in 1usize..40,
        skew in 0.6f64..2.0,
        label_noise in 0.0f64..0.5,
        regression in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let task = if regression { Task::Regression } else { Task::Classification };
        let mut spec = SparseDatasetSpec {
            name: "split".into(),
            instances,
            features,
            avg_nnz,
            skew,
            label_noise,
            task,
            seed,
        };
        check(&spec)?;
        // The cut `round(0.75 · N)` at its smallest: 1 → 1/0, 2 → 2/0,
        // 3 → 2/1, 4 → 3/1.
        spec.instances = tiny;
        check(&spec)?;
    }
}

#[test]
fn the_smallest_cuts_cover_both_tasks() {
    for task in [Task::Classification, Task::Regression] {
        for instances in 1..=4 {
            let spec = SparseDatasetSpec {
                name: "tiny".into(),
                instances,
                features: 64,
                avg_nnz: 5,
                skew: 1.1,
                label_noise: 0.1,
                task,
                seed: 0x5EED ^ instances as u64,
            };
            check(&spec).unwrap_or_else(|e| panic!("{task:?} N={instances}: {e}"));
            let want = [(1, 0), (2, 0), (2, 1), (3, 1)][instances - 1];
            assert_eq!((spec.train_len(), instances - spec.train_len()), want);
        }
    }
}
