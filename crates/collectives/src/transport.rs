//! The link abstraction the executor moves hop payloads through.
//!
//! Collectives must not depend on the cluster simulator (the dependency
//! points the other way), so the executor is parameterized over this trait:
//! the cluster plugs in its lossy [`FaultyLink`]-backed transport and cost
//! model, tests and benches use [`PerfectTransport`].
//!
//! [`FaultyLink`]: ../../sketchml_cluster/faults/struct.FaultyLink.html

use crate::topology::Hop;

/// Moves one hop payload from sender to receiver.
pub trait Transport {
    /// Delivers `payload` along `hop`. Returns the bytes the receiver saw,
    /// or `None` when delivery failed for good (retries exhausted); the
    /// implementation accounts any wire time or retransmission cost itself.
    fn transmit(&mut self, hop: Hop, payload: &[u8]) -> Option<Vec<u8>>;
}

/// Lossless, cost-free delivery — the default for tests and byte-accounting
/// benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectTransport;

impl Transport for PerfectTransport {
    fn transmit(&mut self, _hop: Hop, payload: &[u8]) -> Option<Vec<u8>> {
        Some(payload.to_vec())
    }
}

impl<T: Transport + ?Sized> Transport for &mut T {
    fn transmit(&mut self, hop: Hop, payload: &[u8]) -> Option<Vec<u8>> {
        (**self).transmit(hop, payload)
    }
}

/// Rewrites the executor's *logical* node indices onto the *physical* slots
/// of a round's members before handing each hop to the inner transport.
///
/// Schedules are always computed over `0..k` for the `k` members of the
/// current round, but fault schedules, straggler factors and the fault trace
/// are keyed by the physical worker slot a member occupies. The caller
/// passes the round's member list (say, the workers a crash left up) and
/// every hop lands on the right physical link, with steps and chunks
/// untouched. Logical index `k` (the star driver) maps to the fixed
/// `driver` slot.
#[derive(Debug)]
pub struct RemappedTransport<'a, T: ?Sized> {
    inner: &'a mut T,
    members: &'a [usize],
    driver: usize,
}

impl<'a, T: Transport + ?Sized> RemappedTransport<'a, T> {
    /// Wraps `inner` so logical index `i` maps to `members[i]`, and the
    /// logical driver `members.len()` maps to `driver`.
    pub fn new(inner: &'a mut T, members: &'a [usize], driver: usize) -> Self {
        RemappedTransport {
            inner,
            members,
            driver,
        }
    }

    fn physical(&self, logical: usize) -> usize {
        self.members.get(logical).copied().unwrap_or(self.driver)
    }
}

impl<T: Transport + ?Sized> Transport for RemappedTransport<'_, T> {
    fn transmit(&mut self, hop: Hop, payload: &[u8]) -> Option<Vec<u8>> {
        let mapped = Hop {
            step: hop.step,
            from: self.physical(hop.from),
            to: self.physical(hop.to),
            chunk: hop.chunk,
        };
        self.inner.transmit(mapped, payload)
    }
}
