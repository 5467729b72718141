//! Helpers shared by the test binaries: the process-global lane toggle's
//! lock, and the checksummed wire frame the chaos runs ship.

// Each binary uses only its part.
#![allow(dead_code)]

use sketchml::core::{simd, FrameVersion, GradientCompressor, ShardedCompressor};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `force_scalar` is process-global, and the tests of one binary run on
/// separate threads: the lock serializes the ones that flip it, and dropping
/// the guard restores the lanes even when a failing assertion unwinds
/// mid-case.
static TOGGLE: Mutex<()> = Mutex::new(());

pub struct LaneGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl LaneGuard {
    pub fn acquire() -> Self {
        let held = TOGGLE.lock().unwrap_or_else(PoisonError::into_inner);
        simd::force_scalar(false);
        LaneGuard(held)
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        simd::force_scalar(false);
    }
}

/// `inner` in the sharded engine's CRC-carrying v2 frame, `shards` key
/// ranges on as many threads: what a run under a fault plan ships when its
/// receivers should detect corruption (`checksummed(c, 1)` is the one-shard
/// frame of `sketchml@1c`).
pub fn checksummed<C: GradientCompressor>(inner: C, shards: usize) -> ShardedCompressor<C> {
    ShardedCompressor::new(inner, shards)
        .and_then(|s| s.with_threads(shards))
        .expect("shard count in range")
        .with_frame(FrameVersion::V2)
}
