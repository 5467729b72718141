//! Shared by the test binaries that flip the process-global lane toggle.

use sketchml::core::simd;
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
