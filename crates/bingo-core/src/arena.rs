//! Arena words, and the probe table kept in them.
//!
//! A vertex's group arena is a buffer of `u16` halves read as fixed-width
//! *words*: one half per word while the table is narrow, two (low half
//! first) once it is wide. A word holds a neighbor index or a position in a
//! member list, both below the vertex degree, and all ones — in either
//! width — means "nothing here".
//!
//! A [`ProbeTable`] is an open-addressing hash table laid over a run of
//! such words. It is *self-keyed*: a slot stores only the entry's value,
//! and the key is whatever the owner reads back through that value — the
//! destination of the edge at that neighbor index, or the member at that
//! position. So a slot is one word at the arena's width, and an entry costs
//! what its capacity share does: [`slots_for`] keeps the load at or below
//! two thirds. Collisions probe linearly; a removal shifts the rest of the
//! cluster back over the gap, so there are no tombstones and a table never
//! degrades under churn.
//!
//! The table is used twice per factorized vertex: `destination → neighbor
//! index` over the whole adjacency list (duplicate destinations allowed,
//! the lowest index wins) and `neighbor index → position` inside every
//! group that keeps a member list.

/// The "nothing here" word: all ones, in either width. Writing it narrow
/// truncates it to `u16::MAX`; reading compares against [`empty`].
pub(crate) const EMPTY: u32 = u32::MAX;

/// [`EMPTY`] as [`word`] reads it back.
#[inline]
pub(crate) fn empty(wide: bool) -> u32 {
    if wide {
        EMPTY
    } else {
        u32::from(u16::MAX)
    }
}

/// Bytes of one arena word.
pub(crate) fn word_bytes(wide: bool) -> usize {
    std::mem::size_of::<u16>() << usize::from(wide)
}

/// Word `i` of an arena.
#[inline]
pub(crate) fn word(arena: &[u16], wide: bool, i: usize) -> u32 {
    if wide {
        u32::from(arena[2 * i]) | u32::from(arena[2 * i + 1]) << 16
    } else {
        u32::from(arena[i])
    }
}

/// Overwrite word `i` of an arena.
#[inline]
pub(crate) fn set_word(arena: &mut [u16], wide: bool, i: usize, value: u32) {
    if wide {
        arena[2 * i] = value as u16;
        arena[2 * i + 1] = (value >> 16) as u16;
    } else {
        debug_assert!(value == EMPTY || value < u32::from(u16::MAX));
        arena[i] = value as u16;
    }
}

/// Words `off..off + len` of an arena.
pub(crate) fn words(
    arena: &[u16],
    wide: bool,
    off: u32,
    len: u32,
) -> impl Iterator<Item = u32> + '_ {
    (off as usize..(off + len) as usize).map(move |i| word(arena, wide, i))
}

/// Slots a probe table of up to `entries` entries gets: half again as many
/// and one more, so the load stays at or below two thirds and a probe
/// always meets an empty slot. No entries, no table.
pub(crate) const fn slots_for(entries: u32) -> u32 {
    if entries == 0 {
        0
    } else {
        entries + entries / 2 + 1
    }
}

/// A probe table: `cap` consecutive arena words from `off`. The words are
/// the owner's; every method takes the arena they live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProbeTable {
    pub(crate) off: u32,
    pub(crate) cap: u32,
}

impl ProbeTable {
    /// The table of an owner that has none.
    pub(crate) const NONE: ProbeTable = ProbeTable { off: 0, cap: 0 };

    /// The slot `key` probes from: a Fibonacci multiply spreads
    /// consecutive keys (neighbor indices are), and the high half of the
    /// product against the capacity reduces to `0..cap` for any capacity.
    #[inline]
    fn home(self, key: u32) -> u32 {
        let hash = key.wrapping_mul(0x9E37_79B9);
        ((u64::from(hash) * u64::from(self.cap)) >> 32) as u32
    }

    #[inline]
    fn next(self, slot: u32) -> u32 {
        if slot + 1 == self.cap {
            0
        } else {
            slot + 1
        }
    }

    #[inline]
    fn get(self, arena: &[u16], wide: bool, slot: u32) -> u32 {
        word(arena, wide, (self.off + slot) as usize)
    }

    /// Overwrite the value in an occupied `slot`; its key must not change.
    #[inline]
    pub(crate) fn set(self, arena: &mut [u16], wide: bool, slot: u32, value: u32) {
        set_word(arena, wide, (self.off + slot) as usize, value);
    }

    /// The cluster `key` lives in, as `(slot, value)` from the key's home
    /// slot to the first empty one. An entry for `key`, if there is one, is
    /// among them; the caller tells by reading the key back through the
    /// value (or, when it knows the value, by comparing that).
    #[inline]
    pub(crate) fn probe(
        self,
        arena: &[u16],
        wide: bool,
        key: u32,
    ) -> impl Iterator<Item = (u32, u32)> + '_ {
        let mut slot = self.home(key);
        let mut left = self.cap;
        std::iter::from_fn(move || {
            // A table with no slots has no clusters; a full one (which
            // `slots_for` never sizes) would still end after one lap.
            left = left.checked_sub(1)?;
            let value = self.get(arena, wide, slot);
            if value == empty(wide) {
                return None;
            }
            let at = slot;
            slot = self.next(slot);
            Some((at, value))
        })
    }

    /// Add an entry for `key`. The caller sized the table for it
    /// ([`slots_for`]), so an empty slot exists.
    pub(crate) fn insert(self, arena: &mut [u16], wide: bool, key: u32, value: u32) {
        let mut slot = self.home(key);
        while self.get(arena, wide, slot) != empty(wide) {
            slot = self.next(slot);
        }
        self.set(arena, wide, slot, value);
    }

    /// Remove the entry in `slot` and shift the rest of its cluster back
    /// over the gap, so that every entry stays reachable from its home slot
    /// without crossing an empty one. `key_of` reads the key of a value,
    /// from the arena if that is where the owner keeps it; it is asked
    /// about the entries behind `slot` only, never about the one removed.
    pub(crate) fn remove(
        self,
        arena: &mut [u16],
        wide: bool,
        slot: u32,
        key_of: impl Fn(&[u16], u32) -> u32,
    ) {
        let (mut gap, mut at) = (slot, slot);
        loop {
            at = self.next(at);
            let value = self.get(arena, wide, at);
            if value == empty(wide) {
                break;
            }
            // The entry may move back into the gap unless its home lies
            // (cyclically) after the gap and at or before where it is now.
            let home = self.home(key_of(arena, value));
            let stays = if gap <= at {
                gap < home && home <= at
            } else {
                gap < home || home <= at
            };
            if !stays {
                self.set(arena, wide, gap, value);
                gap = at;
            }
        }
        self.set(arena, wide, gap, EMPTY);
    }

    /// Check the table exactly: it holds `entries` values, each of
    /// `0..entries` once, and every one is reachable from the home slot of
    /// its key without crossing an empty slot.
    pub(crate) fn check(
        self,
        arena: &[u16],
        wide: bool,
        entries: u32,
        key_of: impl Fn(u32) -> u32,
    ) -> Result<(), String> {
        if self.cap < slots_for(entries) {
            return Err(format!("{} slots for {entries} entries", self.cap));
        }
        let mut seen = vec![false; entries as usize];
        for slot in 0..self.cap {
            let value = self.get(arena, wide, slot);
            if value == empty(wide) {
                continue;
            }
            match seen.get_mut(value as usize) {
                None => return Err(format!("stray value {value} in slot {slot}")),
                Some(seen) if *seen => return Err(format!("value {value} twice")),
                Some(seen) => *seen = true,
            }
            if !self
                .probe(arena, wide, key_of(value))
                .any(|(at, _)| at == slot)
            {
                return Err(format!("value {value} unreachable from its home slot"));
            }
        }
        match seen.iter().position(|&seen| !seen) {
            Some(missing) => Err(format!("no entry for value {missing}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sampling::rng::Pcg64;
    use rand::{Rng, SeedableRng};

    /// A table over its own arena whose keys live in a side `Vec`, as the
    /// owners keep theirs: value `v` has key `keys[v]`.
    struct Model {
        arena: Vec<u16>,
        wide: bool,
        table: ProbeTable,
        keys: Vec<u32>,
    }

    impl Model {
        fn new(wide: bool, room: u32) -> Self {
            let cap = slots_for(room);
            Model {
                // Two words of other people's data on either side.
                arena: vec![u16::MAX; ((cap + 4) as usize) << usize::from(wide)],
                wide,
                table: ProbeTable { off: 2, cap },
                keys: Vec::new(),
            }
        }

        fn push(&mut self, key: u32) {
            let value = self.keys.len() as u32;
            self.keys.push(key);
            self.table.insert(&mut self.arena, self.wide, key, value);
        }

        /// Remove value `v` the way a swap-delete does: the last value
        /// takes its number.
        fn swap_remove(&mut self, v: u32) {
            let slot_of = |m: &Model, value: u32| {
                m.table
                    .probe(&m.arena, m.wide, m.keys[value as usize])
                    .find(|&(_, found)| found == value)
                    .expect("present")
                    .0
            };
            let slot = slot_of(self, v);
            let keys = &self.keys;
            self.table
                .remove(&mut self.arena, self.wide, slot, |_, value| {
                    keys[value as usize]
                });
            let last = self.keys.len() as u32 - 1;
            if v != last {
                let slot = slot_of(self, last);
                self.table.set(&mut self.arena, self.wide, slot, v);
            }
            self.keys.swap_remove(v as usize);
        }

        fn lowest(&self, key: u32) -> Option<u32> {
            self.table
                .probe(&self.arena, self.wide, key)
                .filter(|&(_, v)| self.keys[v as usize] == key)
                .map(|(_, v)| v)
                .min()
        }

        fn check(&self) {
            let keys = &self.keys;
            self.table
                .check(&self.arena, self.wide, keys.len() as u32, |v| {
                    keys[v as usize]
                })
                .unwrap();
            // The neighbours' words are untouched.
            let s = usize::from(self.wide);
            assert!(self.arena[..2 << s].iter().all(|&h| h == u16::MAX));
            assert!(self.arena[self.arena.len() - (2 << s)..]
                .iter()
                .all(|&h| h == u16::MAX));
        }
    }

    #[test]
    fn sizing_keeps_a_third_of_the_slots_empty() {
        assert_eq!(slots_for(0), 0);
        assert_eq!(slots_for(1), 2);
        assert_eq!(slots_for(2), 4);
        assert_eq!(slots_for(100), 151);
        for entries in 1..2000u32 {
            assert!(3 * entries <= 2 * slots_for(entries));
            assert!(slots_for(entries) <= slots_for(entries + 1));
        }
    }

    #[test]
    fn a_table_without_slots_answers_nothing() {
        assert_eq!(ProbeTable::NONE.probe(&[], false, 7).count(), 0);
        ProbeTable::NONE.check(&[], false, 0, |v| v).unwrap();
    }

    #[test]
    fn churn_with_duplicate_keys_matches_a_scan_in_both_widths() {
        for wide in [false, true] {
            let mut rng = Pcg64::seed_from_u64(0xA7 + u64::from(wide));
            const ROOM: u32 = 300;
            let mut m = Model::new(wide, ROOM);
            for step in 0..20_000 {
                // Few distinct keys, so duplicates are the rule, and keys
                // far beyond the capacity, as destinations are.
                let key = rng.gen_range(0..40u32) * 0x0101_0101;
                let grow =
                    m.keys.len() < 20 || (m.keys.len() < ROOM as usize && rng.gen_range(0..5) < 3);
                if grow {
                    m.push(key);
                } else {
                    let v = rng.gen_range(0..m.keys.len() as u32);
                    m.swap_remove(v);
                }
                if step % 64 == 0 {
                    m.check();
                }
                let by_scan = m.keys.iter().position(|&k| k == key).map(|v| v as u32);
                assert_eq!(m.lowest(key), by_scan);
                assert_eq!(m.lowest(0xDEAD_BEEF), None);
            }
            // Drain to nothing: every slot is empty again, no tombstones.
            while !m.keys.is_empty() {
                m.swap_remove(0);
            }
            m.check();
            assert!(m.arena.iter().all(|&h| h == u16::MAX));
        }
    }

    #[test]
    fn check_names_what_is_wrong() {
        let mut m = Model::new(false, 8);
        for key in [5, 5, 9, 1000] {
            m.push(key);
        }
        m.check();
        let check = |m: &Model| {
            let keys = &m.keys;
            m.table
                .check(&m.arena, m.wide, keys.len() as u32, |v| keys[v as usize])
        };
        // A value written where its key's probe never looks.
        let mut stray = Model::new(false, 8);
        stray.keys = vec![5];
        let far = (stray.table.home(5) + 3) % stray.table.cap;
        stray.table.set(&mut stray.arena, false, far, 0);
        assert!(check(&stray).unwrap_err().contains("unreachable"));
        // One value in two slots, a value nobody owns, a missing one.
        let mut twice = Model::new(false, 8);
        twice.keys = vec![5, 5];
        twice.table.insert(&mut twice.arena, false, 5, 0);
        twice.table.insert(&mut twice.arena, false, 5, 0);
        assert!(check(&twice).unwrap_err().contains("twice"));
        m.keys.pop();
        assert!(check(&m).unwrap_err().contains("stray value 3"));
        m.keys.extend([1000, 7]);
        assert!(check(&m).unwrap_err().contains("no entry for value 4"));
        // Too few slots for the entries claimed.
        let small = ProbeTable { off: 0, cap: 3 };
        assert!(small
            .check(&[u16::MAX; 3], false, 2, |v| v)
            .unwrap_err()
            .contains("3 slots"));
    }
}
