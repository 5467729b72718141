//! The streamed 75/25 split against its reference: generating the whole
//! dataset, shuffling it with the split seed and cutting it at
//! `round(0.75 · N)`. The train-only, test-only and both-splits forms must
//! equal that bit for bit — indices, value bits, label bits and order.
//!
//! Below that, the generator itself is pinned: golden digests of generated
//! datasets, and the Zipf sampler's guide-table lookup against a binary
//! search over its whole cumulative table.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::prelude::*;
use rand::rngs::StdRng;
use rand::RngCore;
use sketchml::data::{SparseDatasetSpec, Task};
use sketchml::ml::Instance;

// The vendored `rand_distr` shim, compiled into this test so its `Zipf` can
// be driven directly; only the data crate depends on the shim.
#[path = "../vendor/rand_distr/src/lib.rs"]
mod rand_distr_shim;
use rand_distr_shim::{Distribution, Zipf};

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

/// 64-bit FNV-1a over every index, value bit and label bit of
/// `generate_split()`, train then test, in order.
fn split_digest(spec: &SparseDatasetSpec) -> u64 {
    let (train, test) = spec.generate_split();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for inst in train.iter().chain(&test) {
        for i in inst.features.indices() {
            eat(&i.to_le_bytes());
        }
        for v in inst.features.values() {
            eat(&v.to_bits().to_le_bytes());
        }
        eat(&inst.label.to_bits().to_le_bytes());
    }
    h
}

fn digest_spec(instances: usize, features: u32, skew: f64, task: Task) -> SparseDatasetSpec {
    SparseDatasetSpec {
        name: "digest".into(),
        instances,
        features,
        avg_nnz: 40,
        skew,
        label_noise: 0.05,
        task,
        seed: 0xD16E ^ u64::from(features),
    }
}

/// Generated datasets are pinned bit for bit: a faster feature sampler must
/// reproduce every instance the old one drew. The digests were recorded with
/// the whole-table binary-search sampler.
#[test]
fn generated_datasets_match_their_golden_digests() {
    use Task::{Classification, Regression};
    let cases: [(SparseDatasetSpec, u64); 8] = [
        (
            digest_spec(3_000, (1 << 17) + 1, 1.1, Classification),
            0x5d02_34aa_f178_af31,
        ),
        (
            digest_spec(3_000, 1 << 20, 1.1, Regression),
            0xc99d_cfa9_b04b_3c4b,
        ),
        (
            digest_spec(3_000, 20_011, 2.0, Classification),
            0x308d_7a32_d837_b01a,
        ),
        (
            digest_spec(3_000, 4_096, 0.6, Regression),
            0x1820_3cb8_62bb_f0de,
        ),
        (
            digest_spec(1, 64, 1.1, Classification),
            0xae3d_a6c1_8fc3_18b9,
        ),
        (
            digest_spec(2, 64, 1.1, Classification),
            0x2213_806d_ce99_fe6d,
        ),
        (digest_spec(3, 64, 1.1, Regression), 0xb144_7fb6_a4d9_b8e2),
        (digest_spec(4, 64, 1.1, Regression), 0xf548_c358_ac8e_d4d3),
    ];
    let got: Vec<String> = cases
        .iter()
        .map(|(spec, _)| format!("{:#018x}", split_digest(spec)))
        .collect();
    let want: Vec<String> = cases.iter().map(|(_, d)| format!("{d:#018x}")).collect();
    assert_eq!(
        got, want,
        "digests of the N/d/skew/task cases above, in order"
    );
}

/// An `RngCore` that yields one chosen word and refuses a second call, so a
/// draw is `u = (word >> 11) · 2^-53` from a single 64-bit word.
struct OneWord(Option<u64>);

impl RngCore for OneWord {
    fn next_u64(&mut self) -> u64 {
        self.0.take().expect("a Zipf draw takes exactly one word")
    }
}

/// The word whose draw is the grid point `k · 2^-53`.
fn word(k: u64) -> u64 {
    k.min((1 << 53) - 1) << 11
}

/// The cumulative table, rebuilt with `Zipf::new`'s arithmetic.
fn zipf_cumulative(n: usize, s: f64) -> Vec<f64> {
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for k in 1..=n {
        total += (k as f64).powf(-s);
        cumulative.push(total);
    }
    for c in &mut cumulative {
        *c /= total;
    }
    *cumulative.last_mut().unwrap() = 1.0;
    cumulative
}

/// Draws `Zipf::new(n, s)` on both sides of every listed rank's cumulative
/// boundary, at every guide-bucket edge, at the extremes and at seeded
/// random words; each must equal a binary search over the whole table.
fn check_zipf_draws(n: usize, s: f64, ranks: impl Iterator<Item = usize>, rng: &mut StdRng) {
    let scale = (1u64 << 53) as f64;
    let zipf = Zipf::new(n as u64, s).unwrap();
    let cumulative = zipf_cumulative(n, s);
    let mut words = vec![0, u64::MAX];
    for r in ranks {
        let k = (cumulative[r] * scale) as u64;
        words.extend([word(k.saturating_sub(1)), word(k), word(k + 1)]);
    }
    let m = n.next_power_of_two() as u64;
    for j in 1..m {
        let k = j * ((1 << 53) / m);
        words.extend([word(k - 1), word(k)]);
    }
    words.extend((0..100_000).map(|_| rng.next_u64()));

    for w in words {
        let u = (w >> 11) as f64 / scale;
        let want = cumulative.partition_point(|&c| c < u).min(n - 1) + 1;
        let got = zipf.sample(&mut OneWord(Some(w)));
        assert_eq!(got, want as f64, "n={n} s={s} word={w:#018x}");
    }
}

/// The guide-table lookup against a binary search over the whole
/// cumulative table.
#[test]
fn zipf_guide_lookup_equals_whole_table_binary_search() {
    let mut rng = StdRng::seed_from_u64(0x6D1DE);
    for n in [1usize, 2, 3, 1000, 20_011, 1 << 17, (1 << 17) + 1] {
        for s in [0.6, 1.1, 2.0] {
            let ranks: Vec<usize> = if n <= 20_011 {
                (0..n).collect()
            } else {
                (0..20_000).map(|_| rng.gen_range(0..n)).collect()
            };
            check_zipf_draws(n, s, ranks.into_iter(), &mut rng);
        }
    }
    // A boundary exactly on a bucket edge: at n = 3, 2^-s + 3^-s = 1 puts
    // rank 1's cumulative mass on 1/2 (m = 4). Several exponents within a
    // few ulps of s ≈ 0.78788 hit it exactly.
    let mut s = f64::from_bits(0.787_884_911_025_869_7f64.to_bits() - 64);
    let mut on_edge = 0;
    for _ in 0..128 {
        if zipf_cumulative(3, s)[0] == 0.5 {
            check_zipf_draws(3, s, 0..3, &mut rng);
            on_edge += 1;
        }
        s = f64::from_bits(s.to_bits() + 1);
    }
    assert!(on_edge > 0, "no exponent put a boundary on a bucket edge");
}
