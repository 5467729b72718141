//! Concurrent read-optimized model store.
//!
//! Epoch-snapshot concurrency: the published model is an immutable
//! [`ModelSnapshot`] behind an `Arc`. Readers (the `Predict`/`PullModel`
//! handler threads) take a read lock just long enough to clone the `Arc`,
//! then score against the snapshot with no lock held — a `Predict` burst
//! never blocks behind a training update. The single trainer thread
//! publishes a new snapshot by swapping the `Arc` under the write lock
//! (an O(1) pointer store), then wakes blocked pulls via a condvar.
//!
//! The store serves readers of weights: inference clients, dense pulls,
//! `GetStats`. Lock-step workers never read it — they step replicas from the
//! round's frames (see [`crate::server`]) — so a snapshot's `round` is the
//! rounds baked into *these weights*, which trails the round the workers are
//! computing by however long the trainer takes to aggregate and publish.

use sketchml_ml::GlmModel;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// One immutable published model state.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Global training rounds (mini-batches) baked into `model`.
    pub round: u64,
    /// Epochs completed.
    pub epoch: u32,
    /// Whether training has finished (no further snapshots will follow).
    pub done: bool,
    /// The model at this round.
    pub model: GlmModel,
}

/// Shared store: many reader threads, one writer (the trainer).
#[derive(Debug)]
pub struct ModelStore {
    current: RwLock<Arc<ModelSnapshot>>,
    // Separate wait channel so publish() wakes blocked PullModel handlers
    // without readers ever touching a mutex on the fast path.
    wait: Mutex<()>,
    advanced: Condvar,
}

impl ModelStore {
    /// Creates a store seeded with the round-0 model.
    pub fn new(model: GlmModel) -> Self {
        ModelStore {
            current: RwLock::new(Arc::new(ModelSnapshot {
                round: 0,
                epoch: 0,
                done: false,
                model,
            })),
            wait: Mutex::new(()),
            advanced: Condvar::new(),
        }
    }

    /// The live snapshot (lock-free scoring after an O(1) `Arc` clone).
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Publishes a new snapshot and wakes every blocked
    /// [`wait_for_round`](Self::wait_for_round) call.
    pub fn publish(&self, snapshot: ModelSnapshot) {
        {
            let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
            *cur = Arc::new(snapshot);
        }
        let _guard = self.wait.lock().unwrap_or_else(|e| e.into_inner());
        self.advanced.notify_all();
    }

    /// Blocks until the store holds a snapshot with `round >= round` (or a
    /// final `done` snapshot), bounded by `timeout`. Returns the qualifying
    /// snapshot, or the freshest one if the timeout expires first.
    pub fn wait_for_round(&self, round: u64, timeout: Duration) -> Arc<ModelSnapshot> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let snap = self.snapshot();
            if snap.round >= round || snap.done {
                return snap;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return snap;
            }
            let guard = self.wait.lock().unwrap_or_else(|e| e.into_inner());
            // Re-check under the wait lock: publish() swaps the snapshot
            // before taking this lock, so a snapshot observed stale here is
            // either still stale (we sleep; the publisher's notify_all
            // happens after we release the guard into wait_timeout) or
            // already fresh (we loop and return it).
            let snap = self.snapshot();
            if snap.round >= round || snap.done {
                return snap;
            }
            let remaining = deadline.saturating_duration_since(now);
            let (_g, _timed_out) = self
                .advanced
                .wait_timeout(guard, remaining.min(Duration::from_millis(50)))
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchml_ml::GlmLoss;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn model(dim: usize) -> GlmModel {
        GlmModel::new(dim, GlmLoss::Logistic, 0.01).unwrap()
    }

    #[test]
    fn snapshot_is_stable_across_publishes() {
        let store = ModelStore::new(model(4));
        let before = store.snapshot();
        let mut next = model(4);
        next.weights[2] = 7.5;
        store.publish(ModelSnapshot {
            round: 1,
            epoch: 0,
            done: false,
            model: next,
        });
        // The old snapshot is immutable: readers mid-predict see a
        // consistent model even after the swap.
        assert_eq!(before.round, 0);
        assert_eq!(before.model.weights[2], 0.0);
        let after = store.snapshot();
        assert_eq!(after.round, 1);
        assert_eq!(after.model.weights[2], 7.5);
    }

    #[test]
    fn wait_for_round_blocks_until_published() {
        let store = Arc::new(ModelStore::new(model(2)));
        let published = Arc::new(AtomicBool::new(false));
        let waiter = {
            let store = Arc::clone(&store);
            let published = Arc::clone(&published);
            std::thread::spawn(move || {
                let snap = store.wait_for_round(3, Duration::from_secs(10));
                assert!(published.load(Ordering::SeqCst), "woke before publish");
                snap.round
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        published.store(true, Ordering::SeqCst);
        store.publish(ModelSnapshot {
            round: 3,
            epoch: 1,
            done: false,
            model: model(2),
        });
        assert_eq!(waiter.join().unwrap(), 3);
    }

    #[test]
    fn wait_for_round_returns_freshest_on_timeout_and_done() {
        let store = ModelStore::new(model(2));
        let snap = store.wait_for_round(99, Duration::from_millis(20));
        assert_eq!(snap.round, 0);
        store.publish(ModelSnapshot {
            round: 5,
            epoch: 2,
            done: true,
            model: model(2),
        });
        // `done` satisfies any round.
        let snap = store.wait_for_round(99, Duration::from_secs(10));
        assert!(snap.done);
        assert_eq!(snap.round, 5);
    }
}
