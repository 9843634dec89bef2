//! The buffer pool: a fixed set of page frames over one backing file,
//! with pin counts, second-chance (clock) eviction, and dirty-page
//! write-back.
//!
//! The discipline is the textbook one:
//!
//! * [`BufferPool::pin`] fixes a page in a frame (faulting it in from
//!   the file if needed) and bumps its pin count — a pinned frame is
//!   never evicted, so borrowed page contents stay valid;
//! * [`BufferPool::unpin`] releases one pin;
//! * a miss with all frames full runs the **clock hand** over the
//!   frames: pinned frames are skipped, recently-referenced frames get
//!   their second chance (reference bit cleared), the first
//!   unreferenced unpinned frame is evicted — written back first iff
//!   dirty;
//! * [`BufferPool::page_mut`] is the only mutable access path and marks
//!   the frame dirty, so write-back ordering is enforced by
//!   construction: a dirty page cannot leave the pool except through
//!   the write-back path.
//!
//! Two refinements keep a full-order scan from flushing the working
//! set (the out-of-core replay path scans the whole tree while point
//! lookups keep landing on the root):
//!
//! * **sticky pages** ([`BufferPool::set_sticky`]): the clock skips a
//!   sticky frame on its normal sweep and only claims one as a last
//!   resort, so the B+tree root never leaves the pool under scan
//!   pressure;
//! * **sequential readahead**: a fault whose page id directly follows
//!   the previous access prefetches the next few file pages in one
//!   read. Prefetched frames start *unreferenced*, so a used-once scan
//!   page is the clock's first victim and never displaces a referenced
//!   working-set frame.
//!
//! The pool feeds `store.pins`, `store.evictions`, `store.page_reads`,
//! `store.page_writes` and `store.readaheads`.

use crate::page::{Page, PageId, PAGE_SIZE};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

struct Frame {
    page: Page,
    id: Option<PageId>,
    pins: u32,
    dirty: bool,
    referenced: bool,
    sticky: bool,
}

/// A pool of `capacity` frames over one page file.
pub struct BufferPool {
    file: File,
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    hand: usize,
    /// Number of pages the file logically holds (allocation high-water
    /// mark; trailing pages may not have hit the file yet).
    pages: u64,
    /// Pages materially present in the file (reads past this are zero).
    file_pages: u64,
    /// Pages marked scan-resistant (evicted only as a last resort).
    sticky: HashSet<PageId>,
    /// Most recently pinned page — sequential-fault detector for
    /// readahead.
    last_access: Option<PageId>,
}

impl BufferPool {
    /// Minimum frame count: enough for one root-to-leaf B+tree descent
    /// (parent + child pinned at once) with slack for splits.
    pub const MIN_FRAMES: usize = 8;

    /// Opens `path` (created and truncated — pool files are derived
    /// state, rebuilt by their owner on open) with `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < MIN_FRAMES`.
    pub fn create(path: &Path, capacity: usize) -> io::Result<Self> {
        assert!(
            capacity >= Self::MIN_FRAMES,
            "buffer pool needs at least {} frames",
            Self::MIN_FRAMES
        );
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(BufferPool {
            file,
            capacity,
            frames: Vec::with_capacity(capacity),
            map: HashMap::new(),
            hand: 0,
            pages: 0,
            file_pages: 0,
            sticky: HashSet::new(),
            last_access: None,
        })
    }

    /// Pages a sequential fault prefetches (bounded by a quarter of the
    /// pool so a prefetch batch can never sweep the whole frame set).
    const READAHEAD: u64 = 8;

    /// Frames the pool may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages allocated so far.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// Allocates a fresh (all-zero) page and returns its id. The page
    /// is not resident until pinned.
    pub fn allocate(&mut self) -> PageId {
        let id = self.pages;
        self.pages += 1;
        id
    }

    /// Pins `id` into a frame, faulting it in if absent, and returns
    /// the frame index for [`BufferPool::page`] / [`BufferPool::page_mut`].
    /// Every `pin` must be paired with an [`BufferPool::unpin`].
    pub fn pin(&mut self, id: PageId) -> io::Result<usize> {
        assert!(id < self.pages, "pin of unallocated page {id}");
        shard_obs::counter!("store.pins", crate::family).inc();
        if let Some(&idx) = self.map.get(&id) {
            self.frames[idx].pins += 1;
            self.frames[idx].referenced = true;
            self.last_access = Some(id);
            return Ok(idx);
        }
        let sequential = id > 0 && self.last_access == Some(id - 1);
        self.last_access = Some(id);
        let idx = self.free_frame()?;
        let mut page = Page::zeroed();
        if id < self.file_pages {
            self.file.seek(SeekFrom::Start(id * PAGE_SIZE as u64))?;
            self.file.read_exact(page.bytes_mut())?;
            shard_obs::counter!("store.page_reads", crate::family).inc();
        }
        self.frames[idx] = Frame {
            page,
            id: Some(id),
            pins: 1,
            dirty: false,
            referenced: true,
            sticky: self.sticky.contains(&id),
        };
        self.map.insert(id, idx);
        if sequential && id + 1 < self.file_pages {
            // Best effort: a prefetch failure (pool momentarily full,
            // short read) costs nothing — the page faults in normally
            // when actually pinned.
            let _ = self.readahead(id + 1);
        }
        Ok(idx)
    }

    /// Marks `id` scan-resistant (or clears the mark): the clock sweep
    /// skips a sticky frame and only evicts one once every non-sticky
    /// candidate is pinned. The B+tree pins its root this way so a
    /// full-order scan cannot flush the top of the tree.
    pub fn set_sticky(&mut self, id: PageId, sticky: bool) {
        if sticky {
            self.sticky.insert(id);
        } else {
            self.sticky.remove(&id);
        }
        if let Some(&idx) = self.map.get(&id) {
            self.frames[idx].sticky = sticky;
        }
    }

    /// Prefetches up to [`Self::READAHEAD`] file pages starting at
    /// `from` in a single read. Prefetched frames are installed
    /// unpinned and *unreferenced*, so they are the first eviction
    /// victims unless a pin promotes them first.
    fn readahead(&mut self, from: PageId) -> io::Result<()> {
        let span = Self::READAHEAD.min((self.capacity / 4).max(1) as u64);
        let end = (from + span).min(self.file_pages);
        if from >= end {
            return Ok(());
        }
        let n = (end - from) as usize;
        // Residency snapshot *before* the read: a resident (possibly
        // dirty) page in the range may be evicted — and written back —
        // by free_frame during the install loop below, at which point
        // the prefetch buffer holds stale bytes for it. Such pages are
        // never installed from the buffer; they refault normally.
        let resident: Vec<bool> = (0..n)
            .map(|j| self.map.contains_key(&(from + j as u64)))
            .collect();
        let mut buf = vec![0u8; n * PAGE_SIZE];
        self.file.seek(SeekFrom::Start(from * PAGE_SIZE as u64))?;
        self.file.read_exact(&mut buf)?;
        for j in 0..n {
            let id = from + j as u64;
            if resident[j] || self.map.contains_key(&id) {
                continue;
            }
            let idx = self.free_frame()?;
            let mut page = Page::zeroed();
            page.bytes_mut()
                .copy_from_slice(&buf[j * PAGE_SIZE..(j + 1) * PAGE_SIZE]);
            self.frames[idx] = Frame {
                page,
                id: Some(id),
                pins: 0,
                dirty: false,
                referenced: false,
                sticky: self.sticky.contains(&id),
            };
            self.map.insert(id, idx);
            shard_obs::counter!("store.page_reads", crate::family).inc();
            shard_obs::counter!("store.readaheads", crate::family).inc();
        }
        Ok(())
    }

    /// Releases one pin on `frame`.
    ///
    /// # Panics
    ///
    /// Panics on unpinning a frame that holds no pins (a pairing bug).
    pub fn unpin(&mut self, frame: usize) {
        let f = &mut self.frames[frame];
        assert!(f.pins > 0, "unpin without a matching pin");
        f.pins -= 1;
    }

    /// Read access to a pinned frame's page.
    pub fn page(&self, frame: usize) -> &Page {
        debug_assert!(self.frames[frame].pins > 0, "access to unpinned frame");
        &self.frames[frame].page
    }

    /// Write access to a pinned frame's page; marks it dirty.
    pub fn page_mut(&mut self, frame: usize) -> &mut Page {
        let f = &mut self.frames[frame];
        debug_assert!(f.pins > 0, "access to unpinned frame");
        f.dirty = true;
        &mut f.page
    }

    /// Writes every dirty frame back to the file (without evicting).
    pub fn flush(&mut self) -> io::Result<()> {
        for idx in 0..self.frames.len() {
            if self.frames[idx].dirty {
                self.write_back(idx)?;
            }
        }
        Ok(())
    }

    fn write_back(&mut self, idx: usize) -> io::Result<()> {
        let id = self.frames[idx].id.expect("write-back of empty frame");
        self.file.seek(SeekFrom::Start(id * PAGE_SIZE as u64))?;
        self.file.write_all(self.frames[idx].page.bytes())?;
        self.frames[idx].dirty = false;
        self.file_pages = self.file_pages.max(id + 1);
        shard_obs::counter!("store.page_writes", crate::family).inc();
        Ok(())
    }

    /// A frame to load into: a never-used slot while the pool is below
    /// capacity, otherwise the clock's next victim (written back iff
    /// dirty).
    fn free_frame(&mut self) -> io::Result<usize> {
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page: Page::zeroed(),
                id: None,
                pins: 0,
                dirty: false,
                referenced: false,
                sticky: false,
            });
            return Ok(self.frames.len() - 1);
        }
        // Second-chance sweep: at most two passes over the frames (one
        // to clear reference bits, one to claim a victim). Sticky
        // frames are skipped entirely on the first round and only
        // become candidates once nothing else is evictable.
        for honor_sticky in [true, false] {
            for _ in 0..2 * self.frames.len() {
                let idx = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                let f = &mut self.frames[idx];
                if f.pins > 0 {
                    continue;
                }
                if honor_sticky && f.sticky {
                    continue;
                }
                if f.referenced {
                    f.referenced = false;
                    continue;
                }
                if self.frames[idx].dirty {
                    self.write_back(idx)?;
                }
                let old = self.frames[idx]
                    .id
                    .take()
                    .expect("occupied frame has an id");
                self.map.remove(&old);
                shard_obs::counter!("store.evictions", crate::family).inc();
                return Ok(idx);
            }
        }
        Err(io::Error::other(
            "buffer pool exhausted: every frame is pinned",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("shard-store-pool-{name}-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Resident, currently pinned frames.
    fn pinned_frames(pool: &BufferPool) -> usize {
        pool.frames.iter().filter(|f| f.pins > 0).count()
    }

    /// Stamps a recognisable byte pattern for page `id`.
    fn stamp(pool: &mut BufferPool, frame: usize, id: PageId) {
        let p = pool.page_mut(frame);
        let b = (id % 251) as u8;
        p.bytes_mut().fill(b);
        p.put_u64(0, id);
    }

    /// Whether `id` occupies a frame. Faults and prefetches are read
    /// off the pool under test this way: the `store.*` counters are
    /// process-global and sibling tests move them.
    fn resident(pool: &BufferPool, id: PageId) -> bool {
        pool.map.contains_key(&id)
    }

    fn check(pool: &BufferPool, frame: usize, id: PageId) {
        let p = pool.page(frame);
        assert_eq!(p.u64_at(0), id, "page {id} content");
        assert_eq!(p.bytes()[PAGE_SIZE - 1], (id % 251) as u8);
    }

    #[test]
    fn pin_unpin_pairing_and_reuse() {
        let path = tmp("pairing");
        let mut pool = BufferPool::create(&path, 8).unwrap();
        let id = pool.allocate();
        let f1 = pool.pin(id).unwrap();
        let f2 = pool.pin(id).unwrap();
        assert_eq!(f1, f2, "same page shares a frame");
        assert_eq!(pinned_frames(&pool), 1);
        pool.unpin(f1);
        assert_eq!(pinned_frames(&pool), 1, "second pin still holds");
        pool.unpin(f2);
        assert_eq!(pinned_frames(&pool), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "unpin without a matching pin")]
    fn unbalanced_unpin_panics() {
        let path = tmp("unbalanced");
        let mut pool = BufferPool::create(&path, 8).unwrap();
        let id = pool.allocate();
        let f = pool.pin(id).unwrap();
        pool.unpin(f);
        pool.unpin(f);
    }

    #[test]
    fn eviction_under_pressure_round_trips_content() {
        let path = tmp("pressure");
        let mut pool = BufferPool::create(&path, 8).unwrap();
        // 64 pages through 8 frames: every page is written, evicted
        // (with write-back), and must read back intact.
        let ids: Vec<PageId> = (0..64).map(|_| pool.allocate()).collect();
        for &id in &ids {
            let f = pool.pin(id).unwrap();
            stamp(&mut pool, f, id);
            pool.unpin(f);
        }
        for &id in ids.iter().rev() {
            let f = pool.pin(id).unwrap();
            check(&pool, f, id);
            pool.unpin(f);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let path = tmp("pinned");
        let mut pool = BufferPool::create(&path, 8).unwrap();
        let hot = pool.allocate();
        let hf = pool.pin(hot).unwrap();
        stamp(&mut pool, hf, hot);
        // Flood the pool: the pinned frame must never be evicted.
        for _ in 0..50 {
            let id = pool.allocate();
            let f = pool.pin(id).unwrap();
            stamp(&mut pool, f, id);
            pool.unpin(f);
        }
        check(&pool, hf, hot);
        assert_eq!(pool.pin(hot).unwrap(), hf, "still resident in place");
        pool.unpin(hf);
        pool.unpin(hf);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn all_pinned_reports_exhaustion() {
        let path = tmp("exhaust");
        let mut pool = BufferPool::create(&path, 8).unwrap();
        let mut held = Vec::new();
        for _ in 0..8 {
            let id = pool.allocate();
            held.push(pool.pin(id).unwrap());
        }
        let extra = pool.allocate();
        assert!(pool.pin(extra).is_err(), "no evictable frame left");
        for f in held {
            pool.unpin(f);
        }
        assert!(pool.pin(extra).is_ok(), "recovers once pins release");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dirty_write_back_ordering() {
        // A dirty page evicted and re-faulted must come back from the
        // file with its latest content — i.e. write-back happens
        // *before* the frame is reused, never after.
        let path = tmp("wb-order");
        let mut pool = BufferPool::create(&path, 8).unwrap();
        let a = pool.allocate();
        let f = pool.pin(a).unwrap();
        stamp(&mut pool, f, a);
        pool.unpin(f);
        // Cycle enough distinct pages to guarantee `a` is evicted.
        for _ in 0..16 {
            let id = pool.allocate();
            let f = pool.pin(id).unwrap();
            stamp(&mut pool, f, id);
            pool.unpin(f);
        }
        assert!(!resident(&pool, a), "the cycle evicted the page");
        let f = pool.pin(a).unwrap();
        check(&pool, f, a);
        pool.unpin(f);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sticky_page_survives_scan_pressure() {
        let path = tmp("sticky");
        let mut pool = BufferPool::create(&path, 8).unwrap();
        let root = pool.allocate();
        let f = pool.pin(root).unwrap();
        stamp(&mut pool, f, root);
        pool.unpin(f);
        pool.set_sticky(root, true);
        // A long scan of used-once pages: without stickiness the root
        // would be clocked out; with it the frame must stay resident.
        for _ in 0..40 {
            let id = pool.allocate();
            let f = pool.pin(id).unwrap();
            stamp(&mut pool, f, id);
            pool.unpin(f);
            assert!(resident(&pool, root), "root never left the pool");
        }
        let f = pool.pin(root).unwrap();
        check(&pool, f, root);
        pool.unpin(f);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sticky_page_yields_as_last_resort() {
        let path = tmp("sticky-yield");
        let mut pool = BufferPool::create(&path, 8).unwrap();
        // Mark every resident page sticky, then demand a fresh frame:
        // the pool must still make progress (desperate pass) rather
        // than report exhaustion.
        let ids: Vec<PageId> = (0..8).map(|_| pool.allocate()).collect();
        for &id in &ids {
            let f = pool.pin(id).unwrap();
            stamp(&mut pool, f, id);
            pool.unpin(f);
            pool.set_sticky(id, true);
        }
        let extra = pool.allocate();
        let f = pool.pin(extra).unwrap();
        pool.unpin(f);
        // One of the sticky pages was evicted; its content survives on
        // disk and reads back intact.
        for &id in &ids {
            let f = pool.pin(id).unwrap();
            check(&pool, f, id);
            pool.unpin(f);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sequential_faults_trigger_readahead() {
        let path = tmp("readahead");
        // A pool much smaller than the page set: the write pass evicts
        // (and thus persists) almost everything, so the later forward
        // walk faults pages back in sequentially from the file.
        let mut pool = BufferPool::create(&path, 8).unwrap();
        let n = 64u64;
        let ids: Vec<PageId> = (0..n).map(|_| pool.allocate()).collect();
        for &id in &ids {
            let f = pool.pin(id).unwrap();
            stamp(&mut pool, f, id);
            pool.unpin(f);
        }
        pool.flush().unwrap();
        // Walk the pages the write pass did not leave resident: one
        // found resident when its turn comes was prefetched.
        let evicted: Vec<PageId> = ids
            .iter()
            .copied()
            .take_while(|&id| !resident(&pool, id))
            .collect();
        assert!(evicted.len() >= 48, "the write pass kept only a poolful");
        let mut prefetched = 0;
        for &id in &evicted {
            prefetched += usize::from(resident(&pool, id));
            let f = pool.pin(id).unwrap();
            check(&pool, f, id);
            pool.unpin(f);
        }
        assert!(
            prefetched * 2 >= evicted.len(),
            "most pages arrived via readahead batches ({prefetched} of {})",
            evicted.len()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_persists_without_eviction() {
        let path = tmp("flush");
        let mut pool = BufferPool::create(&path, 8).unwrap();
        let id = pool.allocate();
        let f = pool.pin(id).unwrap();
        stamp(&mut pool, f, id);
        pool.unpin(f);
        pool.flush().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), PAGE_SIZE);
        assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), id);
        std::fs::remove_file(&path).unwrap();
    }
}
