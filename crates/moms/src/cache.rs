//! Conventional cache arrays (tags + LRU only).
//!
//! Data values live in the functional memory image, so the array tracks
//! *presence* of lines, which is all the timing model needs. Direct-mapped
//! arrays model the paper's shared banks; 4-way set-associative arrays
//! model its private caches.

/// Geometry of a cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total 64 B lines.
    pub lines: usize,
    /// Associativity (1 = direct mapped).
    pub ways: usize,
}

impl CacheConfig {
    /// Direct-mapped array of `kib` KiB (the paper's 256 kB shared banks).
    pub fn direct_mapped_kib(kib: usize) -> Self {
        CacheConfig {
            lines: kib * 1024 / 64,
            ways: 1,
        }
    }

    /// `ways`-associative array of `kib` KiB (the paper's private caches).
    pub fn set_associative_kib(kib: usize, ways: usize) -> Self {
        CacheConfig {
            lines: kib * 1024 / 64,
            ways,
        }
    }

    /// Capacity in bytes.
    pub fn bytes(&self) -> usize {
        self.lines * 64
    }

    /// Returns the geometry scaled by `num/den`, staying a valid array.
    pub fn scaled(mut self, num: usize, den: usize) -> Self {
        self.lines = (self.lines * num / den).max(self.ways.max(1));
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// A tag-only cache array with true-LRU replacement within each set.
///
/// # Example
///
/// ```
/// use moms::{CacheArray, CacheConfig};
/// let mut c = CacheArray::new(CacheConfig { lines: 4, ways: 2 });
/// assert!(!c.probe(100, 0));
/// c.fill(100, 1);
/// assert!(c.probe(100, 2));
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    cfg: CacheConfig,
    sets: usize,
    ways: Vec<Way>,
    hits: u64,
    misses: u64,
}

impl CacheArray {
    /// Creates an empty array.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero, `ways` is zero, or `ways` does not
    /// divide `lines`.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.lines > 0 && cfg.ways > 0, "degenerate cache geometry");
        assert_eq!(cfg.lines % cfg.ways, 0, "ways must divide lines");
        let sets = cfg.lines / cfg.ways;
        CacheArray {
            cfg,
            sets,
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    lru: 0,
                };
                cfg.lines
            ],
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        simkit::fast_mod(line, self.sets as u64) as usize
    }

    /// Looks up `line`; updates LRU and hit/miss counters. `now` orders
    /// LRU decisions.
    pub fn probe(&mut self, line: u64, now: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        for w in self.ways[base..base + self.cfg.ways].iter_mut() {
            if w.valid && w.tag == line {
                w.lru = now;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Installs `line`, evicting the LRU way of its set if needed.
    /// Returns the evicted line, if a valid one was displaced.
    pub fn fill(&mut self, line: u64, now: u64) -> Option<u64> {
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        // Already present (race between fill and probe): refresh.
        if let Some(w) = self.ways[base..base + self.cfg.ways]
            .iter_mut()
            .find(|w| w.valid && w.tag == line)
        {
            w.lru = now;
            return None;
        }
        let victim = self.ways[base..base + self.cfg.ways]
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru + 1 } else { 0 })
            .expect("nonzero ways");
        let evicted = victim.valid.then_some(victim.tag);
        *victim = Way {
            tag: line,
            valid: true,
            lru: now,
        };
        evicted
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Verifies tag-store consistency: no set holds two valid ways with
    /// the same tag, and every valid tag maps to its set.
    ///
    /// # Panics
    ///
    /// Panics on any violation; used by the `invariants` feature.
    pub fn check_consistency(&self) {
        for set in 0..self.sets {
            let base = set * self.cfg.ways;
            let ways = &self.ways[base..base + self.cfg.ways];
            for (i, w) in ways.iter().enumerate() {
                if !w.valid {
                    continue;
                }
                assert_eq!(
                    self.set_of(w.tag),
                    set,
                    "tag {} stored in the wrong set {set}",
                    w.tag
                );
                assert!(
                    !ways[i + 1..].iter().any(|o| o.valid && o.tag == w.tag),
                    "tag {} duplicated within set {set}",
                    w.tag
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut c = CacheArray::new(CacheConfig { lines: 16, ways: 1 });
        assert!(!c.probe(5, 0));
        c.fill(5, 1);
        assert!(c.probe(5, 2));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = CacheArray::new(CacheConfig { lines: 4, ways: 1 });
        assert_eq!(c.fill(0, 0), None, "empty way: nothing displaced");
        assert_eq!(c.fill(4, 1), Some(0), "same set (line % 4) evicts 0");
        assert!(!c.probe(0, 2), "line 0 must have been evicted");
        assert!(c.probe(4, 3));
    }

    #[test]
    fn set_associative_keeps_both() {
        let mut c = CacheArray::new(CacheConfig { lines: 8, ways: 2 });
        c.fill(0, 0);
        c.fill(4, 1); // same set, second way
        assert!(c.probe(0, 2));
        assert!(c.probe(4, 3));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = CacheArray::new(CacheConfig { lines: 2, ways: 2 });
        c.fill(0, 0);
        c.fill(1, 1);
        let _ = c.probe(0, 2); // 0 becomes most recent
        c.fill(2, 3); // must evict 1
        assert!(c.probe(0, 4));
        assert!(!c.probe(1, 5));
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut c = CacheArray::new(CacheConfig { lines: 2, ways: 2 });
        c.fill(7, 0);
        c.fill(7, 1);
        c.fill(8, 2);
        // Both lines fit: 7 was not duplicated into the second way.
        assert!(c.probe(7, 3));
        assert!(c.probe(8, 4));
    }

    #[test]
    fn kib_constructors() {
        let d = CacheConfig::direct_mapped_kib(256);
        assert_eq!(d.lines, 4096);
        assert_eq!(d.bytes(), 256 * 1024);
        let s = CacheConfig::set_associative_kib(256, 4);
        assert_eq!(s.ways, 4);
        assert_eq!(s.bytes(), 256 * 1024);
    }

    #[test]
    #[should_panic(expected = "ways must divide")]
    fn bad_geometry_panics() {
        let _ = CacheArray::new(CacheConfig { lines: 5, ways: 2 });
    }
}
