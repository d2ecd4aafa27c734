//! A set-associative, write-back, write-allocate cache with true-LRU
//! replacement, operating on 64-byte line addresses.
//!
//! The lookup structures are packed for the simulator's hot path: tags
//! live in a dense per-set array probed with an invalid-tag sentinel
//! (no separate `valid` bitmap to load), the set index is a mask rather
//! than a modulo, and each set remembers its most-recently-touched way
//! so unit-stride streams resolve repeat hits in a single compare. All
//! of this is observationally equivalent to the original linear scan:
//! tick evolution, LRU stamps, victim choice, and statistics are
//! bit-identical (golden snapshots pin this end to end).

use crate::config::CacheConfig;

/// Tag value marking an empty way. Real line addresses are byte
/// addresses shifted right by the line shift, so they can never reach
/// `u64::MAX` (node heaps top out around bit 40).
const INVALID_TAG: u64 = u64::MAX;

/// Statistics one cache level keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines written back to the next level on eviction.
    pub writebacks: u64,
    /// Lines installed by prefetch rather than demand.
    pub prefetch_fills: u64,
}

/// The outcome of filling a line: the dirty line that had to be written
/// back, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Line address (byte address >> line shift) of the evicted dirty line.
    pub line: u64,
}

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    set_mask: u64,
    ways: usize,
    /// `sets * ways` tags; `INVALID_TAG` marks an empty way.
    tags: Vec<u64>,
    dirty: Vec<bool>,
    /// Age counter of the last touch, for true-LRU victim selection.
    stamp: Vec<u64>,
    /// Per-set hint: the way touched most recently, probed first.
    mru_way: Vec<u32>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a power of two"
        );
        let ways = cfg.ways as usize;
        let slots = (sets as usize) * ways;
        Self {
            set_mask: sets - 1,
            ways,
            tags: vec![INVALID_TAG; slots],
            dirty: vec![false; slots],
            stamp: vec![0; slots],
            mru_way: vec![0; sets as usize],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Finds the slot holding `line` in `set`, probing the MRU way first.
    #[inline]
    fn probe(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.ways;
        let hint = base + self.mru_way[set] as usize;
        if self.tags[hint] == line {
            return Some(hint);
        }
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line)
            .map(|way| base + way)
    }

    /// Looks up a line; on a hit, refreshes LRU and (for writes) marks the
    /// line dirty. Returns whether it hit.
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> bool {
        self.tick += 1;
        let set = self.set_of(line);
        if let Some(slot) = self.probe(set, line) {
            self.stamp[slot] = self.tick;
            if write {
                self.dirty[slot] = true;
            }
            self.stats.hits += 1;
            self.mru_way[set] = (slot - set * self.ways) as u32;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// `n` consecutive hits to a resident line, folded into one update.
    ///
    /// Observationally equivalent to calling [`Self::access`]`(line, write)`
    /// `n` times when the line is resident and nothing else touches the
    /// cache in between: the tick advances by `n`, the line's stamp lands on
    /// the final tick, dirtiness accumulates with OR, the hit counter grows
    /// by `n`, and the MRU hint ends on this line's way — exactly the state
    /// the per-access loop leaves behind.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (the batched caller must have
    /// proved residency, e.g. via the L1 hint list).
    pub fn access_repeat(&mut self, line: u64, write: bool, n: u64) {
        if n == 0 {
            return;
        }
        self.tick += n;
        let set = self.set_of(line);
        let slot = self
            .probe(set, line)
            .expect("access_repeat requires a resident line");
        self.stamp[slot] = self.tick;
        if write {
            self.dirty[slot] = true;
        }
        self.stats.hits += n;
        self.mru_way[set] = (slot - set * self.ways) as u32;
    }

    /// Checks residency without touching LRU or stats.
    pub fn contains(&self, line: u64) -> bool {
        self.probe(self.set_of(line), line).is_some()
    }

    /// [`Self::access`] that, on a miss, also reports the slot a
    /// subsequent fill of `line` would evict — the miss probe walks the
    /// whole set anyway, so the victim comes for free. The slot stays
    /// valid until this cache's next mutating operation; redeem it with
    /// [`Self::fill_at`].
    pub fn access_or_victim(&mut self, line: u64, write: bool) -> Result<(), usize> {
        self.tick += 1;
        let set = self.set_of(line);
        let base = set * self.ways;
        let hint = base + self.mru_way[set] as usize;
        if self.tags[hint] == line {
            self.stamp[hint] = self.tick;
            if write {
                self.dirty[hint] = true;
            }
            self.stats.hits += 1;
            return Ok(());
        }
        let mut invalid = None;
        let mut lru = usize::MAX;
        let mut oldest = u64::MAX;
        for slot in base..base + self.ways {
            let tag = self.tags[slot];
            if tag == line {
                self.stamp[slot] = self.tick;
                if write {
                    self.dirty[slot] = true;
                }
                self.stats.hits += 1;
                self.mru_way[set] = (slot - base) as u32;
                return Ok(());
            }
            if tag == INVALID_TAG {
                if invalid.is_none() {
                    invalid = Some(slot);
                }
            } else if self.stamp[slot] < oldest {
                oldest = self.stamp[slot];
                lru = slot;
            }
        }
        self.stats.misses += 1;
        let victim = invalid.unwrap_or(lru);
        debug_assert!(victim != usize::MAX, "cache set has at least one way");
        Err(victim)
    }

    /// Installs `line` in `victim`, previously obtained from
    /// [`Self::access_or_victim`] with no intervening operation on this
    /// cache. Identical state evolution to [`Self::fill_absent`]: the
    /// stamps have not changed since the probe, so the victim choice is
    /// the one `fill_absent`'s scan would make.
    pub fn fill_at(&mut self, victim: usize, line: u64, dirty: bool, prefetch: bool) -> Option<Writeback> {
        debug_assert!(!self.contains(line), "fill_at requires an absent line");
        self.tick += 1;
        let set = self.set_of(line);
        debug_assert_eq!(victim / self.ways, set, "victim slot from another set");
        self.install(set, victim, line, dirty, prefetch)
    }

    /// Installs a line (after a miss was serviced), evicting the LRU way.
    /// Returns the dirty line that must be written back, if any.
    ///
    /// `dirty` marks the new line dirty immediately (write-allocate stores);
    /// `prefetch` attributes the fill to the prefetcher in the stats.
    pub fn fill(&mut self, line: u64, dirty: bool, prefetch: bool) -> Option<Writeback> {
        self.tick += 1;
        let set = self.set_of(line);
        // One walk over the set decides everything: whether the line is
        // already present (e.g. raced by a prefetch), the first invalid
        // way, and the LRU victim. Strict `<` keeps the first-minimal
        // way, matching `Iterator::min_by_key`; an invalid way always
        // beats a valid one, matching the old early-break scan.
        let mut found = None;
        let mut invalid = None;
        let mut lru = usize::MAX;
        let mut oldest = u64::MAX;
        for slot in self.slot_range(set) {
            let tag = self.tags[slot];
            if tag == line {
                found = Some(slot);
                break;
            }
            if tag == INVALID_TAG {
                if invalid.is_none() {
                    invalid = Some(slot);
                }
            } else if self.stamp[slot] < oldest {
                oldest = self.stamp[slot];
                lru = slot;
            }
        }
        if let Some(slot) = found {
            self.stamp[slot] = self.tick;
            if dirty {
                self.dirty[slot] = true;
            }
            self.mru_way[set] = (slot - set * self.ways) as u32;
            return None;
        }
        let victim = invalid.unwrap_or(lru);
        debug_assert!(victim != usize::MAX, "cache set has at least one way");
        self.install(set, victim, line, dirty, prefetch)
    }

    /// [`Self::fill`] for a line the caller has just proven absent (by a
    /// failed `access` or `contains` with no intervening operation): the
    /// presence scan is skipped, so the victim search can stop at the
    /// first invalid way. Identical state evolution to `fill` in that
    /// case — `fill`'s merged scan would have found no matching tag and
    /// chosen the same first-invalid or first-minimal-stamp victim.
    pub fn fill_absent(&mut self, line: u64, dirty: bool, prefetch: bool) -> Option<Writeback> {
        debug_assert!(!self.contains(line), "fill_absent requires an absent line");
        self.tick += 1;
        let set = self.set_of(line);
        let mut victim = usize::MAX;
        let mut oldest = u64::MAX;
        for slot in self.slot_range(set) {
            if self.tags[slot] == INVALID_TAG {
                victim = slot;
                break;
            }
            if self.stamp[slot] < oldest {
                oldest = self.stamp[slot];
                victim = slot;
            }
        }
        debug_assert!(victim != usize::MAX, "cache set has at least one way");
        self.install(set, victim, line, dirty, prefetch)
    }

    /// One-scan combination of `contains` and [`Self::fill_absent`] for
    /// the prefetch path: if `line` is already present, *nothing* changes
    /// (no tick, no LRU refresh — exactly like a `contains` probe) and
    /// `None` is returned; otherwise the line is installed as by
    /// `fill_absent` and `Some(writeback)` is returned. The single walk
    /// tracks presence and the victim together, so the caller avoids the
    /// separate `contains` scan.
    pub fn fill_if_absent(
        &mut self,
        line: u64,
        dirty: bool,
        prefetch: bool,
    ) -> Option<Option<Writeback>> {
        let set = self.set_of(line);
        let mut invalid = None;
        let mut lru = usize::MAX;
        let mut oldest = u64::MAX;
        for slot in self.slot_range(set) {
            let tag = self.tags[slot];
            if tag == line {
                return None;
            }
            if tag == INVALID_TAG {
                if invalid.is_none() {
                    invalid = Some(slot);
                }
            } else if self.stamp[slot] < oldest {
                oldest = self.stamp[slot];
                lru = slot;
            }
        }
        self.tick += 1;
        let victim = invalid.unwrap_or(lru);
        debug_assert!(victim != usize::MAX, "cache set has at least one way");
        Some(self.install(set, victim, line, dirty, prefetch))
    }

    /// Shared tail of the fill paths: evict `victim`, install `line`.
    #[inline]
    fn install(&mut self, set: usize, victim: usize, line: u64, dirty: bool, prefetch: bool) -> Option<Writeback> {
        let wb = if self.tags[victim] != INVALID_TAG && self.dirty[victim] {
            self.stats.writebacks += 1;
            Some(Writeback {
                line: self.tags[victim],
            })
        } else {
            None
        };
        self.tags[victim] = line;
        self.dirty[victim] = dirty;
        self.stamp[victim] = self.tick;
        self.mru_way[set] = (victim - set * self.ways) as u32;
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        wb
    }

    /// Invalidates a line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        if let Some(slot) = self.probe(set, line) {
            self.tags[slot] = INVALID_TAG;
            let was_dirty = self.dirty[slot];
            self.dirty[slot] = false;
            return Some(was_dirty);
        }
        None
    }

    /// Drops every line, returning the dirty line addresses (they would be
    /// written back by a real `wbinvd`).
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dirty_lines = Vec::new();
        for slot in 0..self.tags.len() {
            if self.tags[slot] != INVALID_TAG && self.dirty[slot] {
                dirty_lines.push(self.tags[slot]);
            }
            self.tags[slot] = INVALID_TAG;
            self.dirty[slot] = false;
        }
        dirty_lines
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of currently valid lines (for tests and debugging).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets * 2 ways.
        Cache::new(&CacheConfig {
            size_bytes: 8 * 64,
            ways: 2,
            line_bytes: 64,
            latency: 1.0,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(7, false));
        c.fill(7, false, false);
        assert!(c.access(7, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, false, false);
        c.fill(4, false, false);
        c.access(0, false); // 0 is now MRU, 4 LRU.
        c.fill(8, false, false); // must evict 4.
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0, true, false);
        c.fill(4, false, false);
        let wb = c.fill(8, false, false);
        assert_eq!(wb, Some(Writeback { line: 0 }));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_reports_nothing() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.fill(4, false, false);
        assert_eq!(c.fill(8, false, false), None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.access(0, true);
        c.fill(4, false, false);
        let wb = c.fill(8, false, false);
        assert!(wb.is_some(), "written line must be written back");
    }

    #[test]
    fn refill_of_resident_line_no_eviction() {
        let mut c = tiny();
        c.fill(0, false, false);
        assert_eq!(c.fill(0, true, false), None);
        // The refill marked it dirty.
        c.fill(4, false, false);
        assert!(c.fill(8, false, false).is_some());
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.fill(3, true, false);
        assert_eq!(c.invalidate(3), Some(true));
        assert_eq!(c.invalidate(3), None);
        assert!(!c.contains(3));
    }

    #[test]
    fn flush_returns_dirty_lines_and_empties() {
        let mut c = tiny();
        c.fill(1, true, false);
        c.fill(2, false, false);
        c.fill(3, true, false);
        let mut dirty = c.flush();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 3]);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn prefetch_fills_counted() {
        let mut c = tiny();
        c.fill(1, false, true);
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn contains_does_not_disturb_lru_or_stats() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.fill(4, false, false);
        let s0 = c.stats();
        assert!(c.contains(0));
        assert_eq!(c.stats(), s0);
        // LRU order still 0 < 4, so filling evicts 0.
        c.fill(8, false, false);
        assert!(!c.contains(0));
    }

    #[test]
    fn capacity_accounting() {
        let mut c = tiny();
        assert_eq!(c.capacity_lines(), 8);
        for line in 0..32 {
            c.fill(line, false, false);
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn mru_hint_survives_invalidate_of_hinted_way() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.fill(4, false, false); // hint now points at 4's way.
        assert_eq!(c.invalidate(4), Some(false));
        // The stale hint must not produce a phantom hit or miss a probe.
        assert!(!c.contains(4));
        assert!(c.access(0, false));
        assert!(!c.access(4, false));
    }

    #[test]
    fn eviction_tie_break_is_first_minimal_way() {
        // Both ways valid with distinct stamps; evicting twice in a row
        // must walk the ways in stamp order, not slot order quirks.
        let mut c = tiny();
        c.fill(0, false, false); // stamp 1, way 0
        c.fill(4, false, false); // stamp 2, way 1
        c.fill(8, false, false); // evicts way 0 (oldest)
        assert!(!c.contains(0));
        assert!(c.contains(4));
        c.fill(12, false, false); // evicts way 1 (stamp 2 < stamp 3)
        assert!(!c.contains(4));
        assert!(c.contains(8));
        assert!(c.contains(12));
    }
}
