//! Physical memory and the memory-mapped I/O window.
//!
//! Like PA-RISC, I/O controller registers live in physical address space
//! and are reached with ordinary loads and stores. Accesses that fall in
//! the I/O window are not satisfied by RAM; the CPU reports them to its
//! embedder (the bare machine routes them to devices, the hypervisor
//! intercepts them — paper §3.2, Environment Instruction Assumption).

use std::cell::{Cell, OnceCell};

/// Base physical address of the memory-mapped I/O window.
pub const IO_BASE: u32 = 0xF000_0000;
/// Size of the I/O window in bytes.
pub const IO_SIZE: u32 = 0x0001_0000;

/// Page size (bytes) shared by the MMU and page tables.
pub const PAGE_SIZE: u32 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Classification of a physical address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AddrKind {
    /// Backed by RAM.
    Ram,
    /// Inside the memory-mapped I/O window.
    Io,
    /// Neither RAM nor I/O.
    Unmapped,
}

/// Byte-addressable little-endian physical memory.
///
/// # Examples
///
/// ```
/// use hvft_machine::mem::Memory;
///
/// let mut m = Memory::new(4096);
/// m.write_u32(8, 0xCAFEBABE).unwrap();
/// assert_eq!(m.read_u32(8), Ok(0xCAFEBABE));
/// ```
#[derive(Clone)]
pub struct Memory {
    ram: Vec<u8>,
    /// Per-page write generation, bumped on every RAM write (CPU store,
    /// program load, or device DMA). The JIT compares a compiled
    /// superblock's recorded generations against the current ones to
    /// detect self-modifying code without any registration protocol.
    page_gens: Vec<u64>,
    /// Derived state-hash cache, allocated at the first hash: per page,
    /// the generation its digest was computed at and the digest. Never
    /// snapshotted; `restore` and `reset` drop it. Sound because every
    /// `ram` mutation either bumps the page's generation or drops the
    /// cache.
    digests: OnceCell<Vec<DigestSlot>>,
}

/// One page's cached `(write generation, digest)`, if any.
type DigestSlot = Cell<Option<(u64, u64)>>;

/// A physical access that cannot be satisfied by RAM.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// Address is in the I/O window; the embedder must handle it.
    Io {
        /// The physical address.
        paddr: u32,
    },
    /// Address is outside RAM and the I/O window.
    Unmapped {
        /// The physical address.
        paddr: u32,
    },
}

impl Memory {
    /// Allocates zeroed RAM of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the RAM region would overlap the I/O window.
    pub fn new(bytes: usize) -> Self {
        assert!(
            (bytes as u64) <= u64::from(IO_BASE),
            "RAM of {bytes} bytes would overlap the I/O window at {IO_BASE:#x}"
        );
        Memory {
            ram: vec![0; bytes],
            page_gens: vec![0; bytes.div_ceil(PAGE_SIZE as usize)],
            digests: OnceCell::new(),
        }
    }

    /// Digest of every page, in page order (the last page may be
    /// short). A page is rehashed only if its write generation moved
    /// since its digest was cached.
    pub(crate) fn page_digests(&self) -> impl Iterator<Item = u64> + '_ {
        let pages = self.ram.chunks(PAGE_SIZE as usize);
        let digests = self
            .digests
            .get_or_init(|| vec![Cell::new(None); self.page_gens.len()]);
        (pages.zip(&self.page_gens).zip(digests)).map(|((bytes, &gen), slot)| match slot.get() {
            Some((g, d)) if g == gen => d,
            _ => {
                let d = crate::statehash::page_digest(bytes);
                slot.set(Some((gen, d)));
                d
            }
        })
    }

    /// Forgets every cached page digest. Called wherever generations are
    /// rewritten rather than bumped: a generation match is then no
    /// evidence of unchanged bytes.
    fn drop_digests(&mut self) {
        self.digests = OnceCell::new();
    }

    /// Write generation of the page containing `paddr`. Returns 0 for
    /// addresses outside RAM (no code is ever compiled there).
    pub fn page_gen(&self, paddr: u32) -> u64 {
        self.page_gens
            .get((paddr >> PAGE_SHIFT) as usize)
            .copied()
            .unwrap_or(0)
    }

    #[inline]
    fn touch(&mut self, paddr: u32) {
        if let Some(g) = self.page_gens.get_mut((paddr >> PAGE_SHIFT) as usize) {
            *g += 1;
        }
    }

    /// Zeroes all RAM in place (keeping the allocation) and bumps every
    /// page generation so superblocks compiled over the old contents die.
    pub fn reset(&mut self) {
        self.ram.fill(0);
        for g in &mut self.page_gens {
            *g += 1;
        }
        self.drop_digests();
    }

    /// RAM size in bytes.
    pub fn size(&self) -> usize {
        self.ram.len()
    }

    /// Classifies a physical address.
    pub fn kind(&self, paddr: u32) -> AddrKind {
        if (paddr as usize) < self.ram.len() {
            AddrKind::Ram
        } else if (IO_BASE..IO_BASE.wrapping_add(IO_SIZE)).contains(&paddr) {
            AddrKind::Io
        } else {
            AddrKind::Unmapped
        }
    }

    /// The fault for an access at `paddr` that RAM cannot serve (it
    /// starts or ends outside RAM).
    #[cold]
    #[inline(never)]
    fn fault(&self, paddr: u32) -> MemFault {
        if self.kind(paddr) == AddrKind::Io {
            MemFault::Io { paddr }
        } else {
            MemFault::Unmapped { paddr }
        }
    }

    /// Reads a little-endian word. `paddr` must be 4-byte aligned (the CPU
    /// checks alignment before calling).
    #[inline]
    pub fn read_u32(&self, paddr: u32) -> Result<u32, MemFault> {
        let i = paddr as usize;
        match self.ram.get(i..i + 4) {
            Some(&[a, b, c, d]) => Ok(u32::from_le_bytes([a, b, c, d])),
            _ => Err(self.fault(paddr)),
        }
    }

    /// Writes a little-endian word.
    #[inline]
    pub fn write_u32(&mut self, paddr: u32, value: u32) -> Result<(), MemFault> {
        let i = paddr as usize;
        let Some(word) = self.ram.get_mut(i..i + 4) else {
            return Err(self.fault(paddr));
        };
        word.copy_from_slice(&value.to_le_bytes());
        self.touch(paddr);
        // An unaligned word may straddle a page boundary (the CPU checks
        // alignment, but embedders may not).
        if paddr >> PAGE_SHIFT != (paddr + 3) >> PAGE_SHIFT {
            self.touch(paddr + 3);
        }
        Ok(())
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, paddr: u32) -> Result<u8, MemFault> {
        match self.ram.get(paddr as usize) {
            Some(&b) => Ok(b),
            None => Err(self.fault(paddr)),
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, paddr: u32, value: u8) -> Result<(), MemFault> {
        let Some(byte) = self.ram.get_mut(paddr as usize) else {
            return Err(self.fault(paddr));
        };
        *byte = value;
        self.touch(paddr);
        Ok(())
    }

    /// Copies a slice into RAM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds RAM.
    pub fn write_bytes(&mut self, paddr: u32, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let i = paddr as usize;
        self.ram[i..i + bytes.len()].copy_from_slice(bytes);
        // DMA can span pages; every touched page must invalidate.
        let end = paddr + bytes.len() as u32 - 1;
        for page in (paddr >> PAGE_SHIFT)..=(end >> PAGE_SHIFT) {
            self.touch(page << PAGE_SHIFT);
        }
    }

    /// Reads a slice out of RAM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds RAM.
    pub fn read_bytes(&self, paddr: u32, len: usize) -> &[u8] {
        let i = paddr as usize;
        &self.ram[i..i + len]
    }

    /// Captures RAM and the per-page write generations for a
    /// whole-machine snapshot.
    pub fn snapshot(&self) -> crate::snapshot::MemSnapshot {
        crate::snapshot::MemSnapshot {
            ram: self.ram.clone(),
            page_gens: self.page_gens.clone(),
        }
    }

    /// Restores state captured by [`Memory::snapshot`]. Generations are
    /// restored verbatim: superblock caches are rebuilt empty
    /// after a restore, so they can only record generations at or after
    /// the captured values and SMC detection stays sound. The page
    /// digest cache is dropped: the donor's generation *g* on a page can
    /// hold different bytes from this memory's generation *g*.
    pub fn restore(&mut self, snap: &crate::snapshot::MemSnapshot) {
        self.ram = snap.ram.clone();
        self.page_gens = snap.page_gens.clone();
        self.drop_digests();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_round_trip() {
        let mut m = Memory::new(64);
        m.write_u32(0, 0x0102_0304).unwrap();
        assert_eq!(m.read_u32(0), Ok(0x0102_0304));
        // Little-endian byte order.
        assert_eq!(m.read_u8(0), Ok(0x04));
        assert_eq!(m.read_u8(3), Ok(0x01));
    }

    #[test]
    fn byte_round_trip() {
        let mut m = Memory::new(16);
        m.write_u8(7, 0xAB).unwrap();
        assert_eq!(m.read_u8(7), Ok(0xAB));
    }

    #[test]
    fn io_window_faults_as_io() {
        let m = Memory::new(4096);
        assert_eq!(m.kind(IO_BASE), AddrKind::Io);
        assert_eq!(m.kind(IO_BASE + IO_SIZE - 4), AddrKind::Io);
        assert_eq!(
            m.read_u32(IO_BASE + 8),
            Err(MemFault::Io { paddr: IO_BASE + 8 })
        );
    }

    #[test]
    fn unmapped_faults() {
        let mut m = Memory::new(4096);
        assert_eq!(m.kind(0x8000_0000), AddrKind::Unmapped);
        assert_eq!(m.read_u32(4096), Err(MemFault::Unmapped { paddr: 4096 }));
        assert_eq!(
            m.write_u32(0x7FFF_FFFC, 1),
            Err(MemFault::Unmapped { paddr: 0x7FFF_FFFC })
        );
        // Word straddling the end of RAM is unmapped, not a partial write.
        assert_eq!(
            m.write_u32(4094, 1),
            Err(MemFault::Unmapped { paddr: 4094 })
        );
    }

    #[test]
    fn bulk_access() {
        let mut m = Memory::new(32);
        m.write_bytes(4, &[1, 2, 3]);
        assert_eq!(m.read_bytes(4, 3), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn ram_cannot_reach_io_window() {
        let _ = Memory::new(IO_BASE as usize + 1);
    }

    #[test]
    fn writes_bump_the_page_generation() {
        let mut m = Memory::new(3 * PAGE_SIZE as usize);
        let g0 = m.page_gen(0);
        let g1 = m.page_gen(PAGE_SIZE);
        m.write_u8(4, 1).unwrap();
        assert_ne!(m.page_gen(0), g0, "byte write must bump its page");
        assert_eq!(m.page_gen(PAGE_SIZE), g1, "other pages untouched");
        let g1 = m.page_gen(PAGE_SIZE);
        m.write_u32(PAGE_SIZE + 8, 7).unwrap();
        assert_ne!(m.page_gen(PAGE_SIZE), g1, "word write must bump its page");
        // Reads never bump.
        let g = m.page_gen(0);
        let _ = m.read_u32(0);
        let _ = m.read_u8(1);
        assert_eq!(m.page_gen(0), g);
        // Out-of-RAM queries are harmless.
        assert_eq!(m.page_gen(0x8000_0000), 0);
    }

    #[test]
    fn bulk_writes_bump_every_spanned_page() {
        let mut m = Memory::new(3 * PAGE_SIZE as usize);
        let (g0, g1, g2) = (
            m.page_gen(0),
            m.page_gen(PAGE_SIZE),
            m.page_gen(2 * PAGE_SIZE),
        );
        // DMA spanning pages 0..=2.
        m.write_bytes(PAGE_SIZE - 8, &vec![1; (PAGE_SIZE + 16) as usize]);
        assert_ne!(m.page_gen(0), g0);
        assert_ne!(m.page_gen(PAGE_SIZE), g1);
        assert_ne!(m.page_gen(2 * PAGE_SIZE), g2);
        // Empty writes are a complete no-op (no generation bump).
        let g = m.page_gen(0);
        m.write_bytes(0, &[]);
        assert_eq!(m.page_gen(0), g);
    }

    fn digests(m: &Memory) -> Vec<u64> {
        m.page_digests().collect()
    }

    #[test]
    fn page_digests_track_writes_page_by_page() {
        let mut m = Memory::new(3 * PAGE_SIZE as usize);
        let d0 = digests(&m);
        assert_eq!(d0.len(), 3);
        assert_eq!(d0[0], d0[1], "identical pages digest alike");
        m.write_u8(PAGE_SIZE + 5, 9).unwrap();
        let d1 = digests(&m);
        assert_eq!((d1[0], d1[2]), (d0[0], d0[2]));
        assert_ne!(d1[1], d0[1]);
        // Writing the old value back restores the old digest.
        m.write_u8(PAGE_SIZE + 5, 0).unwrap();
        assert_eq!(digests(&m), d0);
    }

    #[test]
    fn restore_drops_digests_cached_at_a_matching_generation() {
        // Two memories reach generation 1 on page 0 with different
        // bytes; a cache trusted on a generation match would keep the
        // restored memory's stale digest.
        let mut a = Memory::new(2 * PAGE_SIZE as usize);
        let mut b = a.clone();
        a.write_u8(3, 1).unwrap();
        b.write_u8(3, 2).unwrap();
        assert_eq!(a.page_gen(0), b.page_gen(0));
        let _ = digests(&a);
        a.restore(&b.snapshot());
        assert_eq!(digests(&a), digests(&b));
    }

    #[test]
    fn reset_zeroes_and_invalidates() {
        let mut m = Memory::new(2 * PAGE_SIZE as usize);
        m.write_u32(16, 0xDEAD_BEEF).unwrap();
        let g = m.page_gen(16);
        m.reset();
        assert_eq!(m.read_u32(16), Ok(0));
        assert_ne!(m.page_gen(16), g, "reset must invalidate compiled code");
        assert_eq!(digests(&m), digests(&Memory::new(2 * PAGE_SIZE as usize)));
        assert_eq!(m.size(), 2 * PAGE_SIZE as usize);
    }
}
