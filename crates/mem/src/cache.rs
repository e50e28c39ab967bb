//! A set-associative cache model with LRU replacement.

use dkip_model::ConfigError;

/// Tag of an invalid way. A real tag is a block address shifted right by
/// the line and set bits, at least one bit in total (see
/// [`SetAssocCache::new`]), so it never reaches `u64::MAX`.
const INVALID: u64 = u64::MAX;

/// One cache way: the tag of the block it holds plus an LRU timestamp
/// (0 for an invalid way, which every valid way's timestamp exceeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    last_use: u64,
}

impl Line {
    const EMPTY: Line = Line {
        tag: INVALID,
        last_use: 0,
    };
}

/// A set-associative, write-allocate cache with true-LRU replacement.
///
/// The cache only models *presence* (hit/miss); data values are never
/// stored because the simulator is timing-only. The tag array is one flat
/// `Vec` of `num_sets * assoc` ways, set-major, indexed with a mask: the
/// set count is a power of two.
///
/// # Example
///
/// ```
/// use dkip_mem::cache::SetAssocCache;
///
/// let mut cache = SetAssocCache::new(32 * 1024, 4, 64).unwrap();
/// assert!(!cache.access(0x1234, false)); // cold miss
/// assert!(cache.access(0x1234, false));  // now a hit
/// assert!(cache.access(0x1235, false));  // same 64-byte line
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    lines: Vec<Line>,
    set_mask: u64,
    set_shift: u32,
    assoc: usize,
    line_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `size_bytes` with the given associativity and line
    /// size.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the line size is not a power of two of
    /// at least two bytes, the associativity is zero, the size is not a
    /// positive multiple of `line_size * assoc`, or the resulting set count
    /// is not a power of two.
    pub fn new(size_bytes: usize, assoc: usize, line_size: usize) -> Result<Self, ConfigError> {
        if !line_size.is_power_of_two() || line_size < 2 {
            return Err(ConfigError::new(
                "line_size",
                "must be a power of two of at least 2 bytes",
            ));
        }
        if assoc == 0 {
            return Err(ConfigError::new("assoc", "must be positive"));
        }
        if size_bytes == 0 || !size_bytes.is_multiple_of(line_size * assoc) {
            return Err(ConfigError::new(
                "size_bytes",
                "must be a positive multiple of line_size * assoc",
            ));
        }
        let num_sets = size_bytes / (line_size * assoc);
        if !num_sets.is_power_of_two() {
            return Err(ConfigError::new(
                "size_bytes",
                "must give a power-of-two number of sets",
            ));
        }
        Ok(SetAssocCache {
            lines: vec![Line::EMPTY; num_sets * assoc],
            set_mask: num_sets as u64 - 1,
            set_shift: num_sets.trailing_zeros(),
            assoc,
            line_shift: line_size.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// The ways of `addr`'s set and the tag `addr` carries in it.
    fn ways_and_tag(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let block = addr >> self.line_shift;
        let first = (block & self.set_mask) as usize * self.assoc;
        (first..first + self.assoc, block >> self.set_shift)
    }

    /// Accesses `addr`; returns `true` on a hit. On a miss the block is
    /// allocated, evicting the LRU line. Stores allocate exactly like loads
    /// (write-allocate), so the write flag does not change the outcome: no
    /// write-back traffic is modelled.
    pub fn access(&mut self, addr: u64, _is_write: bool) -> bool {
        self.tick += 1;
        let (ways, tag) = self.ways_and_tag(addr);
        let set = &mut self.lines[ways];
        // One pass finds a hit or the victim: the first way with the oldest
        // timestamp, which is the first invalid way when there is one.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (idx, line) in set.iter_mut().enumerate() {
            if line.tag == tag {
                line.last_use = self.tick;
                self.hits += 1;
                return true;
            }
            if line.last_use < oldest {
                oldest = line.last_use;
                victim = idx;
            }
        }
        self.misses += 1;
        set[victim] = Line {
            tag,
            last_use: self.tick,
        };
        false
    }

    /// Returns whether `addr` is currently cached, without updating LRU
    /// state or statistics.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (ways, tag) = self.ways_and_tag(addr);
        self.lines[ways].iter().any(|line| line.tag == tag)
    }

    /// Invalidates every line in the cache (used between benchmark runs).
    pub fn invalidate_all(&mut self) {
        self.lines.fill(Line::EMPTY);
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.lines.len() / self.assoc
    }

    /// Associativity.
    #[must_use]
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_size(&self) -> usize {
        1 << self.line_shift
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lines.len() * self.line_size()
    }

    /// Hits recorded so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over all accesses (0.0 when the cache has not been used).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(SetAssocCache::new(32 * 1024, 4, 64).is_ok());
        assert!(SetAssocCache::new(0, 4, 64).is_err());
        assert!(SetAssocCache::new(32 * 1024, 0, 64).is_err());
        assert!(SetAssocCache::new(32 * 1024, 4, 48).is_err());
        assert!(SetAssocCache::new(1000, 4, 64).is_err());
        assert!(SetAssocCache::new(1024, 1, 1).is_err(), "1-byte lines");
    }

    #[test]
    fn non_power_of_two_set_counts_are_rejected() {
        // 3 sets of 4 x 64-byte ways: a multiple of line_size * assoc, but
        // not indexable by a mask.
        let err = SetAssocCache::new(3 * 4 * 64, 4, 64).unwrap_err();
        assert_eq!(err.field(), "size_bytes");
        assert!(SetAssocCache::new(48 * 1024, 4, 64).is_err());
    }

    #[test]
    fn geometry_is_derived_correctly() {
        let cache = SetAssocCache::new(32 * 1024, 4, 64).unwrap();
        assert_eq!(cache.num_sets(), 128);
        assert_eq!(cache.assoc(), 4);
        assert_eq!(cache.line_size(), 64);
        assert_eq!(cache.capacity(), 32 * 1024);
    }

    #[test]
    fn repeat_access_hits() {
        let mut cache = SetAssocCache::new(1024, 2, 64).unwrap();
        assert!(!cache.access(0x40, false));
        assert!(cache.access(0x40, false));
        assert!(cache.access(0x7f, false), "same line as 0x40");
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        // 2-way cache with 2 sets of 64-byte lines: 256 bytes total.
        let mut cache = SetAssocCache::new(256, 2, 64).unwrap();
        // Three distinct blocks mapping to set 0: block numbers 0, 2, 4.
        assert!(!cache.access(0x000, false)); // block 0 -> set 0
        assert!(!cache.access(0x080, false)); // block 2 -> set 0
        assert!(cache.access(0x000, false)); // touch block 0 so block 2 is LRU
        assert!(!cache.access(0x100, false)); // block 4 evicts block 2
        assert!(cache.access(0x000, false), "block 0 must still be resident");
        assert!(!cache.access(0x080, false), "block 2 was evicted");
    }

    #[test]
    fn working_set_larger_than_cache_always_misses_after_warmup() {
        let mut cache = SetAssocCache::new(1024, 1, 64).unwrap(); // 16 lines
                                                                  // Stream over 64 distinct lines twice: direct-mapped, every line is
                                                                  // evicted before reuse, so the second pass misses every time.
        for pass in 0..2 {
            for i in 0..64u64 {
                let hit = cache.access(i * 64, false);
                if pass == 1 {
                    assert!(!hit, "line {i} should have been evicted");
                }
            }
        }
    }

    #[test]
    fn working_set_smaller_than_cache_hits_after_warmup() {
        let mut cache = SetAssocCache::new(4096, 4, 64).unwrap(); // 64 lines
        for i in 0..32u64 {
            cache.access(i * 64, false);
        }
        for i in 0..32u64 {
            assert!(cache.access(i * 64, false), "line {i} should be resident");
        }
    }

    #[test]
    fn contains_does_not_perturb_stats() {
        let mut cache = SetAssocCache::new(1024, 2, 64).unwrap();
        cache.access(0x40, false);
        let hits = cache.hits();
        let misses = cache.misses();
        assert!(cache.contains(0x40));
        assert!(!cache.contains(0x4000));
        assert_eq!(cache.hits(), hits);
        assert_eq!(cache.misses(), misses);
    }

    #[test]
    fn invalidate_all_empties_the_cache() {
        let mut cache = SetAssocCache::new(1024, 2, 64).unwrap();
        cache.access(0x40, true);
        cache.invalidate_all();
        assert!(!cache.contains(0x40));
        assert!(!cache.access(0x40, false));
    }

    #[test]
    fn miss_rate_is_fraction_of_accesses() {
        let mut cache = SetAssocCache::new(1024, 2, 64).unwrap();
        cache.access(0x0, false);
        cache.access(0x0, false);
        cache.access(0x0, false);
        cache.access(0x0, false);
        assert!((cache.miss_rate() - 0.25).abs() < 1e-12);
    }
}
