//! A tour of the data-sketch substrates: the quantile sketch behind the
//! equi-depth splits (§2.3/§3.2), Count-Min's overestimation problem
//! (§2.4/§3.3), and MinMaxSketch's underestimate-only answer to it.
//!
//! Run with: `cargo run --release --example sketches_tour`

use rand::prelude::*;
use rand::rngs::StdRng;
use sketchml::sketches::quantile::{MergingQuantileSketch, QuantileSketch};
use sketchml::sketches::{CountMinSketch, MinMaxSketch};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);

    // --- The quantile sketch: summarize a skewed stream in tiny space ---
    let mut data: Vec<f64> = (0..1_000_000)
        .map(|_| -(rng.gen::<f64>().powi(8) * 0.353) + 0.004 * rng.gen::<f64>())
        .collect();
    let mut mq = MergingQuantileSketch::new(128)?;
    mq.extend_from_slice(&data);
    data.sort_by(f64::total_cmp);
    println!("1M skewed values summarized:");
    println!("  merging sketch: {} retained items", mq.retained());
    for phi in [0.05, 0.5, 0.95] {
        let exact = data[((phi * data.len() as f64) as usize).min(data.len() - 1)];
        println!(
            "  quantile {phi:>4}: exact = {exact:+.5}, merging = {:+.5}",
            mq.query(phi)?
        );
    }
    let splits = mq.splits(8)?;
    println!("  8 equi-depth splits: {splits:+.4?}");

    // --- Count-Min vs MinMaxSketch on bucket indexes ---
    // Insert 10k (key, bucket-index) pairs into matched-size sketches and
    // watch the direction of the errors.
    let items: Vec<(u64, u16)> = (0..10_000u64)
        .map(|k| (k, rng.gen_range(0..256u16)))
        .collect();
    let cols = 2_000;
    let mut cm = CountMinSketch::new(2, cols, 1)?;
    let mut mm = MinMaxSketch::new(2, cols, 1)?;
    for &(k, b) in &items {
        // Count-Min can only *add* — the §3.3 motivation: storing indexes
        // additively magnifies collided bins arbitrarily.
        cm.insert_count(k, b as u64);
        mm.insert(k, b);
    }
    let (mut cm_over, mut cm_under, mut mm_over, mut mm_under) = (0u32, 0u32, 0u32, 0u32);
    for &(k, b) in &items {
        let cm_est = cm.query(k);
        match cm_est.cmp(&(b as u64)) {
            std::cmp::Ordering::Greater => cm_over += 1,
            std::cmp::Ordering::Less => cm_under += 1,
            std::cmp::Ordering::Equal => {}
        }
        let mm_est = mm.query(k).expect("inserted");
        match mm_est.cmp(&b) {
            std::cmp::Ordering::Greater => mm_over += 1,
            std::cmp::Ordering::Less => mm_under += 1,
            std::cmp::Ordering::Equal => {}
        }
    }
    println!("\n10k bucket indexes in 2x{cols} sketches:");
    println!("  Count-Min:    {cm_over} overestimates, {cm_under} underestimates");
    println!("  MinMaxSketch: {mm_over} overestimates, {mm_under} underestimates");
    println!(
        "\nCount-Min only ever overestimates (amplified gradients → divergence);\n\
         MinMaxSketch only ever underestimates (decayed gradients → §3.3's\n\
         safe, Adam-compensated convergence)."
    );
    assert_eq!(mm_over, 0);
    Ok(())
}
