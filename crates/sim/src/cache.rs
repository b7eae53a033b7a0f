//! Set-associative cache model with LRU replacement.
//!
//! The L1 data cache is modeled as virtually indexed, physically tagged
//! (VIPT), exactly the property the paper's single-physical-page mapping
//! exploits: every virtual page aliases the same physical frame, so the
//! cache sees one page's worth of lines and never misses after warm-up.
//! On the shipped 64-set, 8-way geometry that page is 64 lines, one per
//! set, so under that mapping the L1D cannot evict; only the L1I can
//! overflow.
//!
//! So `Machine::simulate_double` warms both caches by replaying a
//! prefix's accesses in program order instead of simulating a warm-up
//! pass: the replay is exact whenever no fill evicts a line
//! (`PreparedTrace::warm_by_replay`).

use bhive_uarch::CacheParams;

/// A set-associative, write-allocate cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    /// Shift/mask fast path for power-of-two geometry (all shipped
    /// uarches); `line_shift == u32::MAX` selects the div/mod fallback.
    line_shift: u32,
    set_mask: u64,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid. Tags and LRU
    /// stamps live in separate arrays so the hit scan touches one
    /// contiguous run of tags (a single cache line for 8 ways) and
    /// vectorizes instead of striding over `(tag, stamp)` pairs.
    tags: Vec<u64>,
    /// `last_use[set * ways + way]`, parallel to `tags`.
    last_use: Vec<u64>,
    use_counter: u64,
}

impl Cache {
    /// An empty (cold) cache with the given geometry.
    pub fn new(params: CacheParams) -> Cache {
        let sets = u64::from(params.sets());
        let ways = params.ways as usize;
        let line_bytes = u64::from(params.line_bytes);
        let (line_shift, set_mask) = if line_bytes.is_power_of_two() && sets.is_power_of_two() {
            (line_bytes.trailing_zeros(), sets - 1)
        } else {
            (u32::MAX, 0)
        };
        Cache {
            line_bytes,
            sets,
            ways,
            line_shift,
            set_mask,
            tags: vec![u64::MAX; (sets as usize) * ways],
            last_use: vec![0; (sets as usize) * ways],
            use_counter: 0,
        }
    }

    /// Looks up (and on miss, fills) the line for a VIPT access.
    ///
    /// `index_addr` supplies the index bits (the virtual address for VIPT),
    /// `tag_addr` the tag bits (the physical address). Returns `true` on
    /// hit.
    #[inline]
    pub fn access(&mut self, index_addr: u64, tag_addr: u64) -> bool {
        let (set, tag) = if self.line_shift != u32::MAX {
            (
                ((index_addr >> self.line_shift) & self.set_mask) as usize,
                tag_addr >> self.line_shift,
            )
        } else {
            (
                ((index_addr / self.line_bytes) % self.sets) as usize,
                tag_addr / self.line_bytes,
            )
        };
        self.use_counter += 1;
        let base = set * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        let uses = &mut self.last_use[base..base + self.ways];
        // Branchless full scan: tags are unique within a set (fills only
        // happen on a miss), so "any match" and "first match" agree and
        // the compiler can vectorize the compare.
        let mut hit_way = usize::MAX;
        for (way, &t) in tags.iter().enumerate() {
            if t == tag {
                hit_way = way;
            }
        }
        if hit_way != usize::MAX {
            uses[hit_way] = self.use_counter;
            return true;
        }
        // Miss: fill the LRU way (first minimum, matching the original
        // `min_by_key` tie-break).
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for (way, &last) in uses.iter().enumerate() {
            if last < oldest {
                oldest = last;
                victim = way;
            }
        }
        tags[victim] = tag;
        uses[victim] = self.use_counter;
        false
    }

    /// The cache line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// True if a `width`-byte access at `addr` crosses a line boundary —
    /// the paper drops blocks with such accesses (they cost two line
    /// reads and an order-of-magnitude slowdown).
    #[inline]
    pub fn splits_line(&self, addr: u64, width: u8) -> bool {
        let offset = if self.line_shift != u32::MAX {
            addr & (self.line_bytes - 1)
        } else {
            addr % self.line_bytes
        };
        offset + u64::from(width) > self.line_bytes
    }

    /// Invalidates every line.
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.last_use.fill(0);
        self.use_counter = 0;
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != u64::MAX).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_uarch::Uarch;

    fn l1d() -> Cache {
        Cache::new(Uarch::haswell().l1d)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = l1d();
        assert!(!c.access(0x1000, 0x1000));
        assert!(c.access(0x1000, 0x1000));
        assert!(c.access(0x1010, 0x1010), "same line, different offset");
        assert!(!c.access(0x1040, 0x1040), "next line misses");
    }

    #[test]
    fn vipt_aliasing_single_physical_page() {
        // Two virtual pages mapped to one physical page: the second page's
        // accesses hit the lines the first page brought in *if* index bits
        // agree — which they do, because the index fits in the page offset.
        let mut c = l1d();
        let phys_base = 0x7000;
        // Warm through virtual page A (0x10000).
        for off in (0..4096).step_by(64) {
            c.access(0x10000 + off, phys_base + off % 4096);
        }
        // Access through virtual page B (0x20000), same physical frame.
        let mut misses = 0;
        for off in (0..4096).step_by(64) {
            if !c.access(0x20000 + off, phys_base + off % 4096) {
                misses += 1;
            }
        }
        assert_eq!(misses, 0, "VIPT alias must hit");
    }

    #[test]
    fn distinct_physical_pages_conflict() {
        // 9 distinct physical pages all alias the same 64 sets of a
        // 8-way cache: each set sees 9 candidate lines -> misses occur.
        let mut c = l1d();
        let mut misses = 0;
        for round in 0..2 {
            for page in 0..9u64 {
                let vbase = 0x100000 + page * 4096;
                let pbase = 0x900000 + page * 4096;
                for off in (0..4096).step_by(64) {
                    if !c.access(vbase + off, pbase + off) && round == 1 {
                        misses += 1;
                    }
                }
            }
        }
        assert!(misses > 0, "working set exceeding associativity must miss");
    }

    #[test]
    fn split_detection() {
        let c = l1d();
        assert!(!c.splits_line(0x1000, 8));
        assert!(!c.splits_line(0x1038, 8));
        assert!(c.splits_line(0x103C, 8));
        assert!(c.splits_line(0x103F, 2));
        assert!(!c.splits_line(0x103F, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Cache::new(bhive_uarch::CacheParams {
            size_bytes: 2 * 64,
            line_bytes: 64,
            ways: 2,
        });
        // One set, two ways.
        assert!(!c.access(0x0, 0x0));
        assert!(!c.access(0x1000, 0x1000));
        assert!(c.access(0x0, 0x0));
        // Fill third line: evicts 0x1000 (LRU), not 0x0.
        assert!(!c.access(0x2000, 0x2000));
        assert!(c.access(0x0, 0x0));
        assert!(!c.access(0x1000, 0x1000));
    }

    /// The replay warm-up's eviction check: starting flushed, every miss
    /// fills an invalid way until a set runs out of ways, so the
    /// valid-line count equals the miss count exactly when nothing was
    /// evicted.
    #[test]
    fn valid_lines_equal_misses_until_an_eviction() {
        let mut c = l1d();
        let ways = Uarch::haswell().l1d.ways as u64;
        // One page apart: same set (64 sets x 64 bytes), distinct tags.
        let mut misses = 0;
        for k in 0..ways {
            misses += usize::from(!c.access(k * 4096, k * 4096));
        }
        assert_eq!(misses, ways as usize);
        assert_eq!(c.valid_lines(), misses, "ways tags fit in one set");
        misses += usize::from(!c.access(ways * 4096, ways * 4096));
        assert_eq!(c.valid_lines() + 1, misses, "one tag more evicts");

        // A line-splitting access fills two lines: on one set of two
        // ways, a split access and one more line no longer fit.
        let mut c = Cache::new(bhive_uarch::CacheParams {
            size_bytes: 2 * 64,
            line_bytes: 64,
            ways: 2,
        });
        assert!(c.splits_line(0x3c, 8));
        let mut misses = usize::from(!c.access(0x3c, 0x3c));
        misses += usize::from(!c.access(0x40, 0x40)); // the second half
        assert_eq!(c.valid_lines(), misses);
        misses += usize::from(!c.access(0x80, 0x80));
        assert_eq!(c.valid_lines() + 1, misses);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = l1d();
        c.access(0x40, 0x40);
        assert_eq!(c.valid_lines(), 1);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.access(0x40, 0x40));
    }
}
