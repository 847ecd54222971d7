//! The page pins of one write operation.
//!
//! An update, insert or delete reads what it will change while it plans
//! and changes it when it applies: the same few pages, asked for again
//! and again. A [`PagePins`] keeps the pin of each page the operation
//! requested, so every later ask for that page is answered from the set
//! and the page costs one pool request per operation (the paper's
//! charge: one I/O per distinct page an update touches, §6).
//!
//! A pin is not a latch. Holding one only keeps the page resident: every
//! read and write still takes the frame latch and resolves its slot
//! again, so a held page carries no claim about its bytes.
//!
//! The set is bounded: it keeps at most [`PagePins::new`]'s cap of pins,
//! an eighth of the pool and never more than 16, so the pins of the
//! writers in flight leave the pool frames to evict. A request past the
//! cap is made as without a set, and its pin is not kept.
//! [`PagePins::none`] keeps nothing: every ask is one request, which is
//! what the readers and the bulk paths make.

use crate::error::Result;
use crate::oid::PageId;
use crate::{BufferPool, PageHandle};
use std::cell::RefCell;

/// The most pins one set keeps, whatever the pool's size.
const MAX_PINS: usize = 16;

/// A bounded set of page pins keyed by page id; see the module docs.
pub struct PagePins {
    held: RefCell<Vec<PageHandle>>,
    cap: usize,
}

impl PagePins {
    /// An empty set for one operation on `pool`: it keeps up to
    /// `min(capacity / 8, 16)` pins, and at least one.
    pub fn new(pool: &BufferPool) -> PagePins {
        PagePins {
            held: RefCell::new(Vec::new()),
            cap: (pool.capacity() / 8).clamp(1, MAX_PINS),
        }
    }

    /// A set that keeps no pin: every ask is a pool request.
    pub fn none() -> PagePins {
        PagePins {
            held: RefCell::new(Vec::new()),
            cap: 0,
        }
    }

    /// The handle of page `pid`: the one held, or a request to `pool`
    /// whose pin is kept while the set has room.
    pub fn fetch(&self, pool: &BufferPool, pid: PageId) -> Result<PageHandle> {
        if let Some(h) = self.held.borrow().iter().find(|h| h.pid == pid) {
            return Ok(h.clone());
        }
        let h = pool.fetch(pid)?;
        self.keep(&h);
        Ok(h)
    }

    /// Keep a pin of `page`, fetched or allocated without the set, while
    /// the set has room and does not hold it yet.
    pub(crate) fn keep(&self, page: &PageHandle) {
        let mut held = self.held.borrow_mut();
        if held.len() < self.cap && held.iter().all(|h| h.pid != page.pid) {
            held.push(page.clone());
        }
    }
}

impl std::fmt::Debug for PagePins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.held.borrow();
        f.debug_struct("PagePins")
            .field("cap", &self.cap)
            .field("held", &held.iter().map(|h| h.pid).collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    /// A pool of `frames` frames over a file of `pages` pages.
    fn pool_with(frames: usize, pages: usize) -> (BufferPool, Vec<PageId>) {
        let pool = BufferPool::new(Box::new(MemDisk::new()), frames);
        let f = pool.create_file().unwrap();
        let pids = (0..pages).map(|_| pool.new_page(f).unwrap().0).collect();
        pool.reset_profile();
        (pool, pids)
    }

    fn requests(pool: &BufferPool) -> u64 {
        let p = pool.io_profile();
        p.pool_hits + p.pool_misses
    }

    #[test]
    fn a_set_keeps_an_eighth_of_the_pool_between_one_and_sixteen_pins() {
        for (frames, cap) in [(4, 1), (8, 1), (16, 2), (40, 5), (128, 16), (400, 16)] {
            let (pool, pids) = pool_with(frames, 20.min(frames));
            let pins = PagePins::new(&pool);
            for &pid in &pids {
                pins.fetch(&pool, pid).unwrap();
            }
            assert_eq!(
                pool.pool_stats().pinned,
                cap.min(pids.len()),
                "{frames} frames"
            );
        }
        let (pool, pids) = pool_with(16, 1);
        let none = PagePins::none();
        none.fetch(&pool, pids[0]).unwrap();
        none.fetch(&pool, pids[0]).unwrap();
        assert_eq!((requests(&pool), pool.pool_stats().pinned), (2, 0));
    }

    #[test]
    fn a_held_page_costs_no_request_and_one_past_the_cap_costs_one_each_time() {
        let (pool, pids) = pool_with(16, 3);
        let pins = PagePins::new(&pool);
        for _ in 0..3 {
            for &pid in &pids {
                assert_eq!(pins.fetch(&pool, pid).unwrap().pid, pid);
            }
        }
        // Two pages held after their first request; the third asked each
        // time.
        assert_eq!(requests(&pool), 2 + 3);
        assert_eq!(pool.pool_stats().pinned, 2);
        drop(pins);
        assert_eq!(pool.pool_stats().pinned, 0, "the set's pins go with it");
    }
}
