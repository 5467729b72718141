//! Ascending key runs and their merge: how SketchML's decoder puts its
//! `(sign, group)` key sections back into one ascending gradient without a
//! comparison sort (DESIGN.md §2.2).
//!
//! The encoder writes every section in ascending key order, and
//! delta-binary decoding can only produce non-decreasing keys (deltas are
//! unsigned), so each section is a sorted run whatever the bytes said. Runs
//! are merged pairwise, bottom-up, between two [`KeyRuns`]; the last merge
//! is [`SparseGradient::assign_merged`](crate::SparseGradient), which
//! validates as it writes. The pass count is `⌈log2 k⌉` for `k` runs, and
//! only a section that holds at least one key is a run, so `k` is bounded by
//! the pairs decoded, never by a group count read off the wire.

/// Ascending key runs laid end to end, each key with the slot of its value
/// in a table the owner keeps (SketchML: the bucket means of both signs).
#[derive(Debug, Default)]
pub(crate) struct KeyRuns {
    pub(crate) keys: Vec<u64>,
    pub(crate) slots: Vec<u32>,
    /// End offset of every run, ascending; empty runs are not recorded.
    pub(crate) ends: Vec<usize>,
}

/// One run: keys and their slots, aligned.
pub(crate) type Run<'a> = (&'a [u64], &'a [u32]);

impl KeyRuns {
    /// Forgets every run, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
        self.ends.clear();
    }

    /// Appends one run; an empty one leaves no trace.
    pub(crate) fn push_run(&mut self, keys: &[u64], slots: impl Iterator<Item = u32>) {
        if keys.is_empty() {
            return;
        }
        self.keys.extend_from_slice(keys);
        self.slots.extend(slots);
        debug_assert_eq!(self.keys.len(), self.slots.len());
        self.ends.push(self.keys.len());
    }

    /// Run `r`, or an empty run past the last.
    pub(crate) fn run(&self, r: usize) -> Run<'_> {
        let Some(&end) = self.ends.get(r) else {
            return (&[], &[]);
        };
        let start = if r == 0 { 0 } else { self.ends[r - 1] };
        (&self.keys[start..end], &self.slots[start..end])
    }

    /// One bottom-up pass: overwrites `dst` with runs 0+1, 2+3, … merged
    /// (an odd last run copied), halving the run count.
    pub(crate) fn merge_pairs_into(&self, dst: &mut KeyRuns) {
        let n = self.keys.len();
        dst.keys.resize(n, 0);
        dst.slots.resize(n, 0);
        dst.ends.clear();
        let mut start = 0;
        for r in (0..self.ends.len()).step_by(2) {
            let (a, b) = (self.run(r), self.run(r + 1));
            let end = start + a.0.len() + b.0.len();
            merge_two(a, b, &mut dst.keys[start..end], &mut dst.slots[start..end]);
            dst.ends.push(end);
            start = end;
        }
    }
}

/// Merges two non-decreasing runs into `keys`/`slots` (their combined
/// length); on equal keys `a`'s comes first. Which run holds the smaller
/// head is a coin flip per element, the worst case for a branch predictor,
/// so the step is written as selects over values already loaded and an
/// output walked by iterator — the shape the compiler keeps branch-free.
fn merge_two(a: Run<'_>, b: Run<'_>, keys: &mut [u64], slots: &mut [u32]) {
    let ((ak, asl), (bk, bsl)) = (a, b);
    assert_eq!(ak.len(), asl.len());
    assert_eq!(bk.len(), bsl.len());
    let (mut i, mut j) = (0usize, 0usize);
    for (key, slot) in keys.iter_mut().zip(slots.iter_mut()) {
        if i == ak.len() || j == bk.len() {
            break;
        }
        let (x, y) = (ak[i], bk[j]);
        let (slot_x, slot_y) = (asl[i], bsl[j]);
        let from_b = y < x;
        *key = if from_b { y } else { x };
        *slot = if from_b { slot_y } else { slot_x };
        j += usize::from(from_b);
        i += usize::from(!from_b);
    }
    let (rest_keys, rest_slots) = if i < ak.len() {
        (&ak[i..], &asl[i..])
    } else {
        (&bk[j..], &bsl[j..])
    };
    keys[i + j..].copy_from_slice(rest_keys);
    slots[i + j..].copy_from_slice(rest_slots);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_of(runs: &[&[u64]]) -> KeyRuns {
        let mut out = KeyRuns::default();
        let mut slot = 0u32;
        for run in runs {
            let first = slot;
            slot += run.len() as u32;
            out.push_run(run, first..slot);
        }
        out
    }

    #[test]
    fn passes_halve_the_runs_and_keep_every_pair() {
        let src = runs_of(&[&[5, 9], &[], &[1, 9, 30], &[2], &[0, 40], &[7]]);
        assert_eq!(src.ends, vec![2, 5, 6, 8, 9], "the empty run left no trace");
        let mut dst = KeyRuns::default();
        src.merge_pairs_into(&mut dst);
        assert_eq!(dst.ends, vec![5, 8, 9]);
        assert_eq!(dst.keys, vec![1, 5, 9, 9, 30, 0, 2, 40, 7]);
        // Equal keys: the earlier run's first. Slots travel with their keys.
        assert_eq!(dst.slots, vec![2, 0, 1, 3, 4, 6, 5, 7, 8]);
        let mut last = KeyRuns::default();
        dst.merge_pairs_into(&mut last);
        assert_eq!(last.ends, vec![8, 9]);
        assert_eq!(last.keys, vec![0, 1, 2, 5, 9, 9, 30, 40, 7]);
        assert_eq!(last.run(1), (&[7u64][..], &[8u32][..]));
        assert_eq!(last.run(2), (&[][..], &[][..]));
    }

    #[test]
    fn a_warm_destination_is_overwritten_not_appended_to() {
        let mut dst = runs_of(&[&[1, 2, 3, 4, 5, 6, 7]]);
        runs_of(&[&[3], &[1]]).merge_pairs_into(&mut dst);
        assert_eq!(
            (dst.keys, dst.slots, dst.ends),
            (vec![1, 3], vec![1, 0], vec![2])
        );
    }
}
