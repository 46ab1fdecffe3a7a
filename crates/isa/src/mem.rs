use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const OFFSET_MASK: u64 = (PAGE_SIZE - 1) as u64;

/// Fibonacci-multiplicative hasher for page indices.
///
/// Page indices are small, trusted integers produced by the simulator
/// itself (never attacker-controlled), so SipHash's DoS resistance buys
/// nothing here while its latency sits on the load/store fast path of
/// functional simulation. One multiply by the 64-bit golden-ratio
/// constant spreads low-entropy indices across the high bits, which is
/// exactly what `HashMap`'s bucket selection consumes. Behaviour is
/// hash-order-independent by construction: the page map is only ever
/// probed by key, never iterated.
#[derive(Default)]
pub struct PageIndexHasher(u64);

impl Hasher for PageIndexHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (not used by u64 keys): fold bytes in.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One 4 KiB page of backing store.
pub type Page = [u8; PAGE_SIZE];

type PageMap = HashMap<u64, Arc<Page>, BuildHasherDefault<PageIndexHasher>>;

/// Sparse, paged, byte-addressed memory.
///
/// Pages of 4 KiB are allocated on first touch; unwritten bytes read as
/// zero. Accesses may straddle page boundaries and are not required to be
/// aligned.
///
/// Pages are reference-counted, so cloning a `Memory` is O(pages) pointer
/// bumps and clones share storage copy-on-write — the property that makes
/// checkpoint libraries (à la TurboSMARTS) affordable.
///
/// # Examples
///
/// ```
/// use smarts_isa::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u64(0x1000, 0xDEAD_BEEF_CAFE_F00D);
/// assert_eq!(mem.read_u64(0x1000), 0xDEAD_BEEF_CAFE_F00D);
/// assert_eq!(mem.read_u8(0x1000), 0x0D); // little-endian
/// assert_eq!(mem.read_u64(0x9_0000), 0); // untouched memory reads zero
/// ```
#[derive(Clone, Default)]
pub struct Memory {
    pages: PageMap,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory {
            pages: PageMap::default(),
        }
    }

    /// Number of 4 KiB pages currently allocated.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of backing store currently allocated.
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Bytes of backing store not already counted in `seen`, which
    /// accumulates page identities (`Arc` pointers) across calls.
    ///
    /// Clones share pages copy-on-write, so summing
    /// [`Memory::resident_bytes`] over a set of snapshots overstates
    /// their true footprint; folding each snapshot through one `seen`
    /// set counts every physical page exactly once.
    pub fn resident_bytes_dedup(&self, seen: &mut HashSet<usize>) -> usize {
        let mut fresh = 0;
        for page in self.pages.values() {
            if seen.insert(Arc::as_ptr(page) as usize) {
                fresh += PAGE_SIZE;
            }
        }
        fresh
    }

    /// Page size in bytes: the granularity of allocation, copy-on-write
    /// sharing, and checkpoint-store serialization.
    pub const PAGE_BYTES: usize = PAGE_SIZE;

    /// Allocated pages as `(page_index, contents)`, sorted ascending by
    /// index. Sorting makes the view deterministic (the backing map is
    /// hash-ordered), which checkpoint serialization requires.
    pub fn pages_sorted(&self) -> Vec<(u64, &[u8])> {
        let mut pages: Vec<(u64, &[u8])> = self.pages.iter().map(|(&i, p)| (i, &p[..])).collect();
        pages.sort_unstable_by_key(|&(index, _)| index);
        pages
    }

    /// Allocated pages as `(page_index, shared page)` in no particular
    /// order. Cloning the `Arc` shares the page copy-on-write with this
    /// memory — how a checkpoint flat holds a snapshot's pages without
    /// copying them, and recognises an untouched page by identity.
    pub fn shared_pages(&self) -> impl Iterator<Item = (u64, &Arc<Page>)> {
        self.pages.iter().map(|(&index, page)| (index, page))
    }

    /// Installs a whole page at `page_index`, replacing any existing
    /// page and sharing `page` copy-on-write with its other holders —
    /// the checkpoint-store rebuild path. The page is inserted even when
    /// all-zero: pages allocate on first write, so an all-zero page is
    /// real state and the exact page set must round-trip.
    pub fn insert_shared_page(&mut self, page_index: u64, page: Arc<Page>) {
        self.pages.insert(page_index, page);
    }

    fn page(&mut self, page_index: u64) -> &mut Page {
        let arc = self
            .pages
            .entry(page_index)
            .or_insert_with(|| Arc::new([0u8; PAGE_SIZE]));
        Arc::make_mut(arc)
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(page) => page[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page(addr >> PAGE_BITS)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        let offset = (addr & OFFSET_MASK) as usize;
        if offset + N <= PAGE_SIZE {
            if let Some(page) = self.pages.get(&(addr >> PAGE_BITS)) {
                out.copy_from_slice(&page[offset..offset + N]);
            }
        } else {
            for (i, byte) in out.iter_mut().enumerate() {
                *byte = self.read_u8(addr + i as u64);
            }
        }
        out
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let offset = (addr & OFFSET_MASK) as usize;
        if offset + bytes.len() <= PAGE_SIZE {
            let page = self.page(addr >> PAGE_BITS);
            page[offset..offset + bytes.len()].copy_from_slice(bytes);
        } else {
            for (i, &byte) in bytes.iter().enumerate() {
                self.write_u8(addr + i as u64, byte);
            }
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads an `f64` stored with [`Memory::write_f64`].
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("pages", &self.pages.len())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u64(0xFFFF_FFFF_FFFF_0000), 0);
        assert_eq!(mem.page_count(), 0);
    }

    #[test]
    fn round_trip_all_widths() {
        let mut mem = Memory::new();
        mem.write_u8(10, 0xAB);
        mem.write_u16(20, 0xBEEF);
        mem.write_u32(30, 0xDEAD_BEEF);
        mem.write_u64(40, 0x0123_4567_89AB_CDEF);
        mem.write_f64(50, -1234.5678);
        assert_eq!(mem.read_u8(10), 0xAB);
        assert_eq!(mem.read_u16(20), 0xBEEF);
        assert_eq!(mem.read_u32(30), 0xDEAD_BEEF);
        assert_eq!(mem.read_u64(40), 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_f64(50), -1234.5678);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = Memory::new();
        mem.write_u32(0, 0x0403_0201);
        assert_eq!(mem.read_u8(0), 1);
        assert_eq!(mem.read_u8(1), 2);
        assert_eq!(mem.read_u8(2), 3);
        assert_eq!(mem.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = Memory::new();
        let addr = PAGE_SIZE as u64 - 3; // straddles the first page boundary
        mem.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(mem.page_count(), 2);
    }

    #[test]
    fn cross_page_read_of_untouched_tail() {
        let mut mem = Memory::new();
        let addr = PAGE_SIZE as u64 - 1;
        mem.write_u8(addr, 0xFF);
        // The next page is untouched, so upper bytes read zero.
        assert_eq!(mem.read_u64(addr), 0xFF);
    }

    #[test]
    fn pages_allocated_on_write_only() {
        let mut mem = Memory::new();
        let _ = mem.read_u64(0x10_0000);
        assert_eq!(mem.page_count(), 0);
        mem.write_u8(0x10_0000, 1);
        assert_eq!(mem.page_count(), 1);
        assert_eq!(mem.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn clones_are_copy_on_write() {
        let mut a = Memory::new();
        a.write_u64(0x100, 7);
        let snapshot = a.clone();
        a.write_u64(0x100, 9);
        a.write_u64(0x10_0000, 3); // new page after the snapshot
        assert_eq!(snapshot.read_u64(0x100), 7, "snapshot is isolated");
        assert_eq!(snapshot.read_u64(0x10_0000), 0);
        assert_eq!(a.read_u64(0x100), 9);
        assert_eq!(a.read_u64(0x10_0000), 3);
    }

    #[test]
    fn dedup_counts_shared_pages_once() {
        let mut a = Memory::new();
        a.write_u64(0x100, 7);
        a.write_u64(0x10_0000, 3);
        let b = a.clone(); // shares both pages
        let mut c = a.clone();
        c.write_u64(0x100, 9); // diverges on one page

        let mut seen = HashSet::new();
        let first = a.resident_bytes_dedup(&mut seen);
        assert_eq!(first, 2 * PAGE_SIZE);
        // b shares everything with a: nothing new.
        assert_eq!(b.resident_bytes_dedup(&mut seen), 0);
        // c rewrote one page copy-on-write: exactly one new page.
        assert_eq!(c.resident_bytes_dedup(&mut seen), PAGE_SIZE);
    }

    #[test]
    fn overwrite_is_last_write_wins() {
        let mut mem = Memory::new();
        mem.write_u64(0, u64::MAX);
        mem.write_u16(2, 0);
        assert_eq!(mem.read_u64(0), 0xFFFF_FFFF_0000_FFFF);
    }
}
