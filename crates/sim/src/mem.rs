//! Simulated virtual memory: a sparse page table over physical pages.
//!
//! This is the substrate the paper's page-mapping trick manipulates: the
//! monitor maps every virtual page a block touches onto a *single physical
//! page*, which both prevents faults and guarantees L1-data-cache hits on a
//! virtually-indexed, physically-tagged cache.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Page size (4 KiB), matching x86-64.
pub const PAGE_SIZE: u64 = 4096;

/// Multiplicative hasher for the page table's `u64` page-number keys.
///
/// Address translation runs once or twice per simulated memory access, so
/// the default SipHash costs more than the table probe itself; a single
/// multiply-xor round spreads page numbers well enough. Nothing observable
/// iterates the table (page-id dumps are sorted), so the order change is
/// invisible.
#[derive(Default)]
struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = (n ^ self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type PageTable = HashMap<u64, PhysPage, BuildHasherDefault<FastHasher>>;

/// Identifier of a physical page inside the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PhysPage(pub u32);

/// A memory fault (the simulated SIGSEGV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegFault {
    /// The faulting virtual address.
    pub vaddr: u64,
    /// Whether the access was a write.
    pub write: bool,
}

/// Sparse simulated memory.
///
/// Physical pages are pooled: [`Memory::recycle`] returns every page to
/// a free list instead of dropping it, so a long-lived machine profiles
/// block after block without heap churn. The free list is kept in
/// descending order and popped ascending, which preserves the invariant
/// that live pages occupy a prefix of the pool — a recycled memory hands
/// out the same [`PhysPage`] id sequence as a freshly constructed one,
/// keeping physical addresses (and therefore cache tags) bit-identical.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    table: PageTable,
    pages: Vec<Box<[u8]>>,
    free: Vec<u32>,
}

impl Memory {
    /// An empty memory with no mappings.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Allocates a new physical page filled with the low 32 bits of
    /// `fill` as a repeating little-endian pattern — the paper's
    /// "moderately sized" constant `0x12345600`.
    ///
    /// The 32-bit repeat means 4-byte loads see the mappable constant and
    /// 8-byte double-precision loads see a *normal* f64
    /// (`0x1234560012345600`); an 8-byte *pointer* load sees a value above
    /// the 47-bit user-space limit, which the monitor correctly refuses to
    /// map — a mappable 64-bit fill would instead make every double lane
    /// subnormal, which is the worse artifact.
    pub fn alloc_page(&mut self, fill: u64) -> PhysPage {
        if let Some(idx) = self.free.pop() {
            let page = PhysPage(idx);
            self.refill_page(page, fill);
            return page;
        }
        let mut page = vec![0u8; PAGE_SIZE as usize].into_boxed_slice();
        for chunk in page.chunks_exact_mut(4) {
            chunk.copy_from_slice(&(fill as u32).to_le_bytes());
        }
        self.pages.push(page);
        PhysPage(u32::try_from(self.pages.len() - 1).expect("physical page pool exceeds u32 range"))
    }

    /// Re-fills an existing physical page with the pattern.
    pub fn refill_page(&mut self, page: PhysPage, fill: u64) {
        let data = &mut self.pages[page.0 as usize];
        for chunk in data.chunks_exact_mut(4) {
            chunk.copy_from_slice(&(fill as u32).to_le_bytes());
        }
    }

    /// Re-fills every *live* physical page — the paper's framework
    /// re-initializes memory values before restarting the block, so the
    /// mapping-stage and measurement-stage address traces are identical.
    /// Pooled-but-free pages are skipped; they are refilled on
    /// reallocation.
    pub fn refill_all(&mut self, fill: u64) {
        for idx in 0..self.live_page_count() {
            let idx = u32::try_from(idx).expect("physical page pool exceeds u32 range");
            self.refill_page(PhysPage(idx), fill);
        }
    }

    /// Unmaps everything and returns every physical page to the free
    /// pool, keeping the allocations for the next block.
    pub fn recycle(&mut self) {
        self.table.clear();
        self.free.clear();
        let pooled = u32::try_from(self.pages.len()).expect("physical page pool exceeds u32 range");
        self.free.extend((0..pooled).rev());
    }

    /// Number of physical pages currently backing mappings (always a
    /// prefix of the pool; see the type-level invariant).
    pub fn live_page_count(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Total physical pages held, live or pooled.
    pub fn pooled_page_count(&self) -> usize {
        self.pages.len()
    }

    /// Maps the virtual page containing `vaddr` to `phys`.
    pub fn map(&mut self, vaddr: u64, phys: PhysPage) {
        self.table.insert(vaddr / PAGE_SIZE, phys);
    }

    /// Removes every mapping (the paper unmaps all pages except the code
    /// before the mapping run).
    pub fn unmap_all(&mut self) {
        self.table.clear();
    }

    /// Number of distinct virtual pages currently mapped.
    pub fn mapped_page_count(&self) -> usize {
        self.table.len()
    }

    /// Number of distinct *physical* pages referenced by the mapping.
    pub fn distinct_phys_pages(&self) -> usize {
        let mut ids: Vec<u32> = self.table.values().map(|p| p.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Translates a virtual address to (physical page, offset).
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] if the page is unmapped.
    pub fn translate(&self, vaddr: u64, write: bool) -> Result<(PhysPage, u64), SegFault> {
        match self.table.get(&(vaddr / PAGE_SIZE)) {
            Some(&page) => Ok((page, vaddr % PAGE_SIZE)),
            None => Err(SegFault { vaddr, write }),
        }
    }

    /// A stable physical byte address for cache tagging: page id × 4 KiB +
    /// offset.
    pub fn phys_addr(&self, vaddr: u64, write: bool) -> Result<u64, SegFault> {
        let (page, off) = self.translate(vaddr, write)?;
        Ok(u64::from(page.0) * PAGE_SIZE + off)
    }

    /// Reads up to 32 bytes. Accesses may cross one page boundary.
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] naming the first unmapped byte.
    pub fn read(&self, vaddr: u64, buf: &mut [u8]) -> Result<(), SegFault> {
        // One translation per page segment (at most two): an access
        // crosses at most one page boundary.
        let mut done = 0usize;
        while done < buf.len() {
            let addr = vaddr.wrapping_add(done as u64);
            let (page, off) = self.translate(addr, false)?;
            let run = buf.len().min(done + (PAGE_SIZE - off) as usize) - done;
            let src = &self.pages[page.0 as usize][off as usize..off as usize + run];
            buf[done..done + run].copy_from_slice(src);
            done += run;
        }
        Ok(())
    }

    /// Writes up to 32 bytes. Accesses may cross one page boundary.
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] naming the first unmapped byte.
    pub fn write(&mut self, vaddr: u64, bytes: &[u8]) -> Result<(), SegFault> {
        // Validate both page segments first so a partial write never
        // lands, then copy per segment (an access crosses at most one
        // page boundary).
        let mut segs = [(PhysPage(0), 0u64, 0usize, 0usize); 2];
        let mut n_segs = 0;
        let mut done = 0usize;
        while done < bytes.len() {
            let addr = vaddr.wrapping_add(done as u64);
            let (page, off) = self.translate(addr, true)?;
            let run = bytes.len().min(done + (PAGE_SIZE - off) as usize) - done;
            segs[n_segs] = (page, off, done, run);
            n_segs += 1;
            done += run;
        }
        for &(page, off, start, run) in &segs[..n_segs] {
            self.pages[page.0 as usize][off as usize..off as usize + run]
                .copy_from_slice(&bytes[start..start + run]);
        }
        Ok(())
    }

    /// Convenience scalar read (little-endian), `width` ∈ {1, 2, 4, 8}.
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] if any byte is unmapped.
    pub fn read_scalar(&self, vaddr: u64, width: u8) -> Result<u64, SegFault> {
        let mut buf = [0u8; 8];
        self.read(vaddr, &mut buf[..width as usize])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Convenience scalar write (little-endian).
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] if any byte is unmapped.
    pub fn write_scalar(&mut self, vaddr: u64, width: u8, value: u64) -> Result<(), SegFault> {
        self.write(vaddr, &value.to_le_bytes()[..width as usize])
    }

    /// Reads a scalar and its physical address with a single translation
    /// when the access stays inside one page (the overwhelmingly common
    /// case); page-crossing accesses fall back to the two-step path.
    ///
    /// Bit-identical to `read_scalar` + `phys_addr`: within one page the
    /// first (and only) faultable byte is `vaddr` itself, so the reported
    /// fault matches the general path's.
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] if any byte is unmapped.
    pub fn read_scalar_paddr(&self, vaddr: u64, width: u8) -> Result<(u64, u64), SegFault> {
        let off = vaddr % PAGE_SIZE;
        if off + u64::from(width) <= PAGE_SIZE {
            let (page, off) = self.translate(vaddr, false)?;
            let src = &self.pages[page.0 as usize][off as usize..off as usize + width as usize];
            let mut buf = [0u8; 8];
            buf[..width as usize].copy_from_slice(src);
            Ok((u64::from_le_bytes(buf), u64::from(page.0) * PAGE_SIZE + off))
        } else {
            let value = self.read_scalar(vaddr, width)?;
            let paddr = self.phys_addr(vaddr, false)?;
            Ok((value, paddr))
        }
    }

    /// Reads a byte slice and returns its physical address with a single
    /// translation on non-page-crossing accesses. See
    /// [`Memory::read_scalar_paddr`] for the fault-equivalence argument.
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] if any byte is unmapped.
    pub fn read_paddr(&self, vaddr: u64, buf: &mut [u8]) -> Result<u64, SegFault> {
        let off = vaddr % PAGE_SIZE;
        if off + buf.len() as u64 <= PAGE_SIZE {
            let (page, off) = self.translate(vaddr, false)?;
            buf.copy_from_slice(
                &self.pages[page.0 as usize][off as usize..off as usize + buf.len()],
            );
            Ok(u64::from(page.0) * PAGE_SIZE + off)
        } else {
            self.read(vaddr, buf)?;
            self.phys_addr(vaddr, false)
        }
    }

    /// Writes a byte slice and returns its physical address with a single
    /// translation on non-page-crossing accesses. See
    /// [`Memory::read_scalar_paddr`] for the fault-equivalence argument.
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] if any byte is unmapped.
    pub fn write_paddr(&mut self, vaddr: u64, bytes: &[u8]) -> Result<u64, SegFault> {
        let off = vaddr % PAGE_SIZE;
        if off + bytes.len() as u64 <= PAGE_SIZE {
            let (page, off) = self.translate(vaddr, true)?;
            self.pages[page.0 as usize][off as usize..off as usize + bytes.len()]
                .copy_from_slice(bytes);
            Ok(u64::from(page.0) * PAGE_SIZE + off)
        } else {
            self.write(vaddr, bytes)?;
            self.phys_addr(vaddr, true)
        }
    }

    /// Writes a scalar and returns its physical address with a single
    /// translation on non-page-crossing accesses. See
    /// [`Memory::read_scalar_paddr`] for the fault-equivalence argument.
    ///
    /// # Errors
    ///
    /// Returns [`SegFault`] if any byte is unmapped.
    pub fn write_scalar_paddr(
        &mut self,
        vaddr: u64,
        width: u8,
        value: u64,
    ) -> Result<u64, SegFault> {
        let off = vaddr % PAGE_SIZE;
        if off + u64::from(width) <= PAGE_SIZE {
            let (page, off) = self.translate(vaddr, true)?;
            let dst = &mut self.pages[page.0 as usize][off as usize..off as usize + width as usize];
            dst.copy_from_slice(&value.to_le_bytes()[..width as usize]);
            Ok(u64::from(page.0) * PAGE_SIZE + off)
        } else {
            self.write_scalar(vaddr, width, value)?;
            self.phys_addr(vaddr, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults() {
        let mem = Memory::new();
        let err = mem.read_scalar(0x5000, 8).unwrap_err();
        assert_eq!(err.vaddr, 0x5000);
        assert!(!err.write);
    }

    #[test]
    fn fill_pattern_visible() {
        let mut mem = Memory::new();
        let page = mem.alloc_page(0x1234_5600);
        mem.map(0x7000_0000, page);
        assert_eq!(mem.read_scalar(0x7000_0000, 4).unwrap(), 0x1234_5600);
        // 32-bit repeat: an 8-byte load sees the doubled pattern, which is
        // a *normal* f64 (but not a mappable pointer).
        assert_eq!(
            mem.read_scalar(0x7000_0ff8, 8).unwrap(),
            0x1234_5600_1234_5600
        );
    }

    #[test]
    fn many_virtual_pages_one_physical_page() {
        // The heart of the paper's trick: writes through one virtual page
        // are visible through every other page mapped to the same frame.
        let mut mem = Memory::new();
        let page = mem.alloc_page(0);
        mem.map(0x1000, page);
        mem.map(0x2000, page);
        mem.write_scalar(0x1008, 8, 0xABCD).unwrap();
        assert_eq!(mem.read_scalar(0x2008, 8).unwrap(), 0xABCD);
        assert_eq!(mem.mapped_page_count(), 2);
        assert_eq!(mem.distinct_phys_pages(), 1);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = Memory::new();
        let a = mem.alloc_page(0);
        let b = mem.alloc_page(0);
        mem.map(0x1000, a);
        mem.map(0x2000, b);
        mem.write_scalar(0x1FFC, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_scalar(0x1FFC, 8).unwrap(), 0x1122_3344_5566_7788);
        // Crossing into an unmapped page faults without partial writes.
        let err = mem.write_scalar(0x2FFC, 8, 1).unwrap_err();
        assert_eq!(err.vaddr, 0x3000);
        assert!(err.write);
    }

    #[test]
    fn recycle_reuses_pages_with_identical_ids() {
        let mut mem = Memory::new();
        let a = mem.alloc_page(0x1234_5600);
        let b = mem.alloc_page(0x1234_5600);
        mem.map(0x1000, a);
        mem.map(0x2000, b);
        mem.write_scalar(0x1000, 8, 0xDEAD_BEEF).unwrap();
        assert_eq!(mem.live_page_count(), 2);

        mem.recycle();
        assert_eq!(mem.mapped_page_count(), 0);
        assert_eq!(mem.live_page_count(), 0);
        assert_eq!(mem.pooled_page_count(), 2);

        // Reallocation hands out the same id sequence as a fresh memory,
        // with the fill pattern restored (no stale data).
        let a2 = mem.alloc_page(0x1234_5600);
        assert_eq!(a2, a);
        mem.map(0x9000, a2);
        assert_eq!(mem.read_scalar(0x9000, 4).unwrap(), 0x1234_5600);
        assert_eq!(mem.pooled_page_count(), 2, "no fresh allocation");

        // Exhausting the pool falls back to real allocation, continuing
        // the id sequence exactly like a fresh memory would.
        let b2 = mem.alloc_page(0);
        let c = mem.alloc_page(0);
        assert_eq!(b2, b);
        assert_eq!(c, PhysPage(2));
    }

    #[test]
    fn write_then_unmap_then_fault() {
        let mut mem = Memory::new();
        let page = mem.alloc_page(0);
        mem.map(0x1000, page);
        mem.write_scalar(0x1000, 4, 42).unwrap();
        mem.unmap_all();
        assert!(mem.read_scalar(0x1000, 4).is_err());
    }
}
