//! Two-phase delete-and-swap compaction (§5.2, Figure 10(b)).
//!
//! Deleting many entries from a compact array by naive swap-with-tail breaks
//! when the tail entry chosen as filler is itself scheduled for deletion.
//! Bingo's batched deleter solves this in two phases:
//!
//! 1. Look only at the last `N` slots (`N` = number of deletions). Drop the
//!    deletions that already live there (`γ` of them) — they disappear when
//!    the array is truncated.
//! 2. The remaining `N − γ` tail slots hold survivors, and exactly `N − γ`
//!    deletions target the front region; pair them up so every front hole is
//!    filled by a tail survivor that is guaranteed not to be deleted.
//!
//! On the GPU the paper stages the tail in shared memory; here the same
//! algorithm runs as a deterministic in-place compaction whose `(from, to)`
//! moves are reported back so index structures built on top of the array
//! (Bingo's radix groups and inverted indices) can be patched.

/// Compact `items` by moving the entries at `delete_positions` out of its
/// first `new_len` slots, and return `new_len` with the moves.
///
/// The slice keeps its length — the caller cuts it (or its own length
/// field) to `new_len`; what is left behind it is the deleted entries. The
/// `(from, to)` moves are those applied to surviving entries, so callers
/// can remap any external indices. Duplicate and out-of-range positions are
/// ignored. The relative order of surviving entries is *not* preserved
/// (this is a swap-based compaction, like the streaming delete-and-swap).
pub fn two_phase_delete_and_swap<T>(
    items: &mut [T],
    delete_positions: &[usize],
) -> (usize, Vec<(usize, usize)>) {
    compact(items, &normalized(delete_positions, items.len()))
}

/// The deletion set of `positions` in an array of `len` entries: in range,
/// ascending, each once.
pub(crate) fn normalized(positions: &[usize], len: usize) -> Vec<usize> {
    let mut delete: Vec<usize> = positions.iter().copied().filter(|&p| p < len).collect();
    delete.sort_unstable();
    delete.dedup();
    delete
}

/// [`two_phase_delete_and_swap`] over a [`normalized`] deletion set.
pub(crate) fn compact<T>(items: &mut [T], delete: &[usize]) -> (usize, Vec<(usize, usize)>) {
    let len = items.len();
    let tail_start = len - delete.len();
    let (front_deletes, tail_deletes) =
        delete.split_at(delete.partition_point(|&p| p < tail_start));

    // Phase 1: deletions that fall into the tail region are dropped for free
    // by the cut. The tail slots they do not name hold the survivors.
    let mut doomed = tail_deletes.iter().peekable();
    let tail_survivors = (tail_start..len).filter(|p| doomed.next_if_eq(&p).is_none());

    // Phase 2: fill every front hole with a tail survivor.
    let moves = front_deletes
        .iter()
        .zip(tail_survivors)
        .map(|(&hole, survivor)| {
            items.swap(hole, survivor);
            (survivor, hole)
        })
        .collect();
    (tail_start, moves)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compact, then cut the vector to the new length.
    fn delete_from<T>(items: &mut Vec<T>, delete: &[usize]) -> Vec<(usize, usize)> {
        let (new_len, moves) = two_phase_delete_and_swap(items, delete);
        items.truncate(new_len);
        moves
    }

    fn check(len: usize, delete: &[usize]) {
        let original: Vec<usize> = (0..len).collect();
        let mut items = original.clone();
        let moves = delete_from(&mut items, delete);
        // Expected surviving set.
        let mut expected: Vec<usize> = original
            .iter()
            .copied()
            .filter(|v| !delete.contains(v))
            .collect();
        let mut got = items.clone();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected, "survivors mismatch for delete={delete:?}");
        // Moves must reference valid positions and deleted slots as targets.
        for &(from, to) in &moves {
            assert!(
                from >= items.len(),
                "move source {from} should be in the old tail"
            );
            assert!(
                to < items.len(),
                "move target {to} must be in the compacted range"
            );
        }
    }

    #[test]
    fn deleting_nothing_is_a_noop() {
        let mut items = vec![1, 2, 3];
        let moves = delete_from(&mut items, &[]);
        assert!(moves.is_empty());
        assert_eq!(items, vec![1, 2, 3]);
    }

    #[test]
    fn paper_figure_10b_example() {
        // Figure 10(b): 10 elements, delete entry 0 while entry 9 is also
        // deleted — entry 9 must NOT be used as filler.
        let mut items: Vec<usize> = (0..10).collect();
        let moves = delete_from(&mut items, &[0, 9]);
        assert_eq!(items.len(), 8);
        assert!(!items.contains(&0));
        assert!(!items.contains(&9));
        // Entry 0 must have been filled by the surviving tail element 8.
        assert_eq!(moves, vec![(8, 0)]);
        assert_eq!(items[0], 8);
    }

    #[test]
    fn all_deletions_in_tail_produce_no_moves() {
        let mut items: Vec<usize> = (0..6).collect();
        let moves = delete_from(&mut items, &[4, 5]);
        assert!(moves.is_empty());
        assert_eq!(items, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_deletions_in_front_move_tail_forward() {
        let mut items: Vec<usize> = (0..6).collect();
        let moves = delete_from(&mut items, &[0, 1]);
        assert_eq!(moves.len(), 2);
        assert_eq!(items.len(), 4);
        assert!(!items.contains(&0) && !items.contains(&1));
    }

    #[test]
    fn delete_everything() {
        let mut items: Vec<usize> = (0..5).collect();
        let moves = delete_from(&mut items, &[0, 1, 2, 3, 4]);
        assert!(items.is_empty());
        assert!(moves.is_empty());
    }

    #[test]
    fn duplicates_and_out_of_range_are_ignored() {
        let mut items: Vec<usize> = (0..4).collect();
        let moves = delete_from(&mut items, &[1, 1, 99]);
        assert_eq!(items.len(), 3);
        assert!(!items.contains(&1));
        assert_eq!(moves, vec![(3, 1)]);
    }

    #[test]
    fn exhaustive_small_cases() {
        // Every deletion subset of arrays up to length 8.
        for len in 1..=8usize {
            for mask in 0u32..(1 << len) {
                let delete: Vec<usize> = (0..len).filter(|i| mask & (1 << i) != 0).collect();
                check(len, &delete);
            }
        }
    }

    #[test]
    fn large_random_like_case() {
        let len = 1000;
        // Delete every third element plus a chunk of the tail.
        let delete: Vec<usize> = (0..len).filter(|i| i % 3 == 0 || *i > 950).collect();
        check(len, &delete);
    }
}
