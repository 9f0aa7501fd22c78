//! The fully-associative shadow cache used to classify misses.
//!
//! Conflict misses are defined *relative to* a fully-associative cache of
//! the same capacity: if the shadow would have hit where the real mapping
//! missed, the miss is the mapping's fault (a conflict); if the shadow
//! misses too, the working set simply does not fit (capacity), unless the
//! line was never seen at all (compulsory).

use crate::addr::LineAddr;

/// Outcome of consulting the shadow for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShadowVerdict {
    /// Shadow holds the line.
    Hit,
    /// Line seen before but evicted by capacity in the shadow too.
    CapacityMiss,
    /// First-ever touch.
    ColdMiss,
}

/// The end of the LRU list.
const NIL: u32 = u32::MAX;

/// Multiplier of the multiply-shift hash (2^64 / φ): it spreads the
/// arithmetic progressions of line addresses that strided vectors produce.
const HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bounds on a fresh table's slot count, which is otherwise twice the
/// capacity: room for a full cache at half load, so a trace whose working
/// set fits never rehashes. The table doubles whenever it would pass half
/// full.
const MIN_SLOTS: usize = 64;
const MAX_INITIAL_SLOTS: usize = 1 << 16;

/// Largest table the `u32` list links can address.
const MAX_SLOTS: usize = 1 << 31;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Never used since the last reset.
    Vacant,
    /// Holds a line the shadow has seen but since evicted.
    Evicted,
    /// Holds a resident line, linked into the LRU list.
    Resident,
}

/// One table slot. `prev`/`next` link resident slots from least to most
/// recently used and are meaningless otherwise.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    prev: u32,
    next: u32,
    state: State,
}

impl Slot {
    const VACANT: Self = Self {
        line: 0,
        prev: NIL,
        next: NIL,
        state: State::Vacant,
    };
}

/// A fully-associative LRU cache tracking only presence, used as the
/// classification reference.
///
/// One open-addressed table (multiply-shift hash, linear probing) holds
/// every line seen since the last reset, so "seen before" and "resident
/// now" are one lookup. Resident slots are threaded on an intrusive LRU
/// list, so a touch and an eviction are O(1).
#[derive(Debug, Clone)]
pub(crate) struct ShadowCache {
    capacity: usize,
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Occupied slots (lines seen since the last reset).
    seen: usize,
    /// Resident lines.
    resident: usize,
    /// Least recently used resident slot, or [`NIL`].
    head: u32,
    /// Most recently used resident slot, or [`NIL`].
    tail: u32,
}

impl ShadowCache {
    /// Creates a shadow with room for `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub(crate) fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "shadow cache capacity must be positive");
        let capacity = usize::try_from(capacity).unwrap_or(usize::MAX);
        let len = capacity
            .saturating_mul(2)
            .checked_next_power_of_two()
            .unwrap_or(MAX_INITIAL_SLOTS)
            .clamp(MIN_SLOTS, MAX_INITIAL_SLOTS);
        Self {
            capacity,
            slots: vec![Slot::VACANT; len],
            shift: 64 - len.trailing_zeros(),
            seen: 0,
            resident: 0,
            head: NIL,
            tail: NIL,
        }
    }

    /// Touches `line`; returns the verdict *before* installing it.
    pub(crate) fn touch(&mut self, line: LineAddr) -> ShadowVerdict {
        let line = line.value();
        let mut i = self.probe(line);
        let verdict = match self.slots[i].state {
            State::Resident => {
                self.unlink(i);
                ShadowVerdict::Hit
            }
            State::Evicted => {
                self.resident += 1;
                ShadowVerdict::CapacityMiss
            }
            State::Vacant => {
                if 2 * (self.seen + 1) > self.slots.len() {
                    self.grow();
                    i = self.probe(line);
                }
                self.slots[i].line = line;
                self.seen += 1;
                self.resident += 1;
                ShadowVerdict::ColdMiss
            }
        };
        self.push_mru(i);
        if self.resident > self.capacity {
            let lru = self.head as usize;
            self.unlink(lru);
            self.slots[lru].state = State::Evicted;
            self.resident -= 1;
        }
        verdict
    }

    /// Forgets every line, keeping the table's allocation.
    ///
    /// Until the shadow first evicts, every line seen since the last
    /// clear is resident (`seen == resident`), so the LRU list holds
    /// exactly the occupied slots: those are vacated one by one and
    /// `forget` is called with each of their lines, and the call returns
    /// true. Once the shadow has evicted, the whole table is refilled
    /// instead, `forget` is not called, and the call returns false.
    pub(crate) fn clear(&mut self, mut forget: impl FnMut(LineAddr)) -> bool {
        let walk = self.seen == self.resident;
        if walk {
            let mut at = self.head;
            while at != NIL {
                let slot = std::mem::replace(&mut self.slots[at as usize], Slot::VACANT);
                forget(LineAddr::new(slot.line));
                at = slot.next;
            }
        } else {
            self.slots.fill(Slot::VACANT);
        }
        self.seen = 0;
        self.resident = 0;
        self.head = NIL;
        self.tail = NIL;
        walk
    }

    /// The slot holding `line`, or the vacant slot where it belongs. The
    /// table is never more than half full, so the probe ends.
    fn probe(&self, line: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (line.wrapping_mul(HASH_MULTIPLIER) >> self.shift) as usize;
        loop {
            let slot = &self.slots[i];
            if slot.state == State::Vacant || slot.line == line {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes resident slot `i` from the LRU list.
    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Marks slot `i` resident and links it as most recently used.
    fn push_mru(&mut self, i: usize) {
        let link = i as u32; // < MAX_SLOTS: `grow` never passes it
        self.slots[i] = Slot {
            prev: self.tail,
            next: NIL,
            state: State::Resident,
            ..self.slots[i]
        };
        match self.tail {
            NIL => self.head = link,
            t => self.slots[t as usize].next = link,
        }
        self.tail = link;
    }

    /// Doubles the table. Residents are reinserted from least to most
    /// recently used, so the LRU list is rebuilt by appending.
    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        assert!(len <= MAX_SLOTS, "shadow table outgrew its u32 links");
        let old = std::mem::replace(&mut self.slots, vec![Slot::VACANT; len]);
        self.shift -= 1;
        let mut at = self.head;
        self.head = NIL;
        self.tail = NIL;
        while at != NIL {
            let slot = old[at as usize];
            let i = self.probe(slot.line);
            self.slots[i].line = slot.line;
            self.push_mru(i);
            at = slot.next;
        }
        for slot in old.iter().filter(|s| s.state == State::Evicted) {
            let i = self.probe(slot.line);
            self.slots[i] = Slot {
                line: slot.line,
                state: State::Evicted,
                ..Slot::VACANT
            };
        }
    }
}

#[cfg(test)]
impl ShadowCache {
    fn contains(&self, line: LineAddr) -> bool {
        self.slots[self.probe(line.value())].state == State::Resident
    }

    fn len(&self) -> usize {
        self.resident
    }

    fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Resident lines from least to most recently used.
    fn lru_order(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut at = self.head;
        while at != NIL {
            out.push(self.slots[at as usize].line);
            at = self.slots[at as usize].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u64) -> LineAddr {
        LineAddr::new(x)
    }

    #[test]
    fn cold_then_hit() {
        let mut s = ShadowCache::new(2);
        assert_eq!(s.touch(l(1)), ShadowVerdict::ColdMiss);
        assert_eq!(s.touch(l(1)), ShadowVerdict::Hit);
        assert!(s.contains(l(1)));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn lru_eviction_and_capacity_miss() {
        let mut s = ShadowCache::new(2);
        s.touch(l(1));
        s.touch(l(2));
        s.touch(l(3)); // evicts 1 (LRU)
        assert!(!s.contains(l(1)));
        assert!(s.contains(l(2)));
        assert!(s.contains(l(3)));
        assert_eq!(s.touch(l(1)), ShadowVerdict::CapacityMiss);
    }

    #[test]
    fn retouching_refreshes_recency() {
        let mut s = ShadowCache::new(2);
        s.touch(l(1));
        s.touch(l(2));
        s.touch(l(1)); // 1 is now most recent
        s.touch(l(3)); // must evict 2, not 1
        assert!(s.contains(l(1)));
        assert!(!s.contains(l(2)));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut s = ShadowCache::new(4);
        for i in 0..100 {
            s.touch(l(i % 7));
            assert!(s.len() <= 4, "at i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = ShadowCache::new(0);
    }

    #[test]
    fn growth_keeps_verdicts_and_lru_order() {
        // The 33rd distinct line doubles the 64-slot table while 24 lines
        // are resident: they must keep their recency order, and evicted
        // lines their history.
        let mut s = ShadowCache::new(24);
        let line = |i: u64| l(i * 8191);
        for i in 0..32 {
            assert_eq!(s.touch(line(i)), ShadowVerdict::ColdMiss);
        }
        assert_eq!(s.touch(line(10)), ShadowVerdict::Hit);
        assert_eq!(s.slots.len(), 64);
        assert_eq!(s.touch(line(32)), ShadowVerdict::ColdMiss); // evicts 8
        assert_eq!(s.slots.len(), 128);
        let expect: Vec<u64> = (9..32)
            .filter(|&i| i != 10)
            .chain([10, 32])
            .map(|i| i * 8191)
            .collect();
        assert_eq!(s.lru_order(), expect);
        assert_eq!(s.touch(line(0)), ShadowVerdict::CapacityMiss);
        for i in 33..1000 {
            s.touch(line(i));
        }
        assert_eq!(s.slots.len(), 2048);
        let last: Vec<u64> = (976..1000).map(|i| i * 8191).collect();
        assert_eq!(s.lru_order(), last);
    }

    #[test]
    fn every_line_value_is_a_key() {
        let mut s = ShadowCache::new(2);
        assert_eq!(s.touch(l(u64::MAX)), ShadowVerdict::ColdMiss);
        assert_eq!(s.touch(l(0)), ShadowVerdict::ColdMiss);
        assert_eq!(s.touch(l(u64::MAX)), ShadowVerdict::Hit);
        assert_eq!(s.touch(l(0)), ShadowVerdict::Hit);
    }

    #[test]
    fn clear_forgets_every_line() {
        let mut s = ShadowCache::new(2);
        s.touch(l(1));
        s.touch(l(2));
        s.touch(l(3));
        s.clear(|_| {});
        assert!(s.is_empty());
        assert!(s.lru_order().is_empty());
        assert_eq!(s.touch(l(1)), ShadowVerdict::ColdMiss);
        assert_eq!(s.touch(l(3)), ShadowVerdict::ColdMiss);
    }

    #[test]
    fn clear_walks_exactly_when_nothing_was_evicted() {
        // 40 distinct lines into a capacity of 40, re-touched in between:
        // no eviction, so the walk reports each line once and leaves the
        // table vacant.
        let mut s = ShadowCache::new(40);
        for i in 0..40 {
            s.touch(l(i * 8191));
            s.touch(l((i / 2) * 8191));
        }
        let mut forgotten = Vec::new();
        assert!(s.clear(|line| forgotten.push(line.value())));
        forgotten.sort_unstable();
        assert_eq!(forgotten, (0..40).map(|i| i * 8191).collect::<Vec<_>>());
        assert!(s.slots.iter().all(|slot| slot.state == State::Vacant));
        // A cleared shadow walks again; one eviction past capacity
        // switches it to the fill, which reports no line.
        for i in 0..40 {
            s.touch(l(i));
        }
        assert!(s.clear(|_| {}));
        for i in 0..41 {
            s.touch(l(i));
        }
        let mut called = false;
        assert!(!s.clear(|_| called = true));
        assert!(!called);
        assert!(s.slots.iter().all(|slot| slot.state == State::Vacant));
        // Re-touching an evicted line makes it resident again, but the
        // shadow has still evicted since the clear: it fills.
        for i in 0..41 {
            s.touch(l(i));
        }
        assert_eq!(s.touch(l(0)), ShadowVerdict::CapacityMiss);
        assert!(!s.clear(|_| {}));
        assert_eq!(s.touch(l(7)), ShadowVerdict::ColdMiss);
        // Above 2^15 lines the table starts at 2^16 slots and doubles
        // before the shadow is full: the walk follows the relinked list.
        let mut big = ShadowCache::new(40_000);
        for i in 0..33_000 {
            big.touch(l(i * 8191));
        }
        assert_eq!(big.slots.len(), 1 << 17);
        let mut count = 0;
        assert!(big.clear(|_| count += 1));
        assert_eq!(count, 33_000);
        assert!(big.slots.iter().all(|slot| slot.state == State::Vacant));
    }
}
