//! A single-page miss stays off the heap.
//!
//! The counting allocator is this binary's global allocator, so the file
//! holds exactly one test: nothing else may allocate while it counts. A
//! miss of `fetch` takes the same claim → read → verify path as each run
//! of a batch, but gathers its one buffer on the stack; a run of one
//! gathered into `Vec`s would make two allocations per miss here.

// A `GlobalAlloc` impl is unsafe by signature; this test shim is allowed
// the way `crates/btree/tests/alloc_count.rs` is.
#![allow(unsafe_code)]

use fieldrep_storage::{BufferPool, MemDisk, PageId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a relaxed statistic that guards no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Pages on disk: four times the pool, so a cyclic scan misses on every
/// fetch and every miss evicts.
const PAGES: u32 = 256;
const FRAMES: usize = 64;
const FETCHES: u64 = 10_000;
/// Every fifth fetch dirties its page, which its eviction writes back.
const DIRTY_EVERY: u64 = 5;
/// Allocations the whole loop may make: none is needed, so this bounds
/// only incidental bookkeeping, far below one per miss.
const SLACK: usize = 16;

#[test]
fn ten_thousand_cold_fetches_make_no_allocation_per_miss() {
    let bp = BufferPool::new(Box::new(MemDisk::new()), FRAMES);
    let file = bp.create_file().unwrap();
    for page in 0..PAGES {
        bp.new_page(file).unwrap().1.data_mut()[100] = page as u8;
    }
    bp.flush_all().unwrap();
    let fetch = |n: u64| {
        let page = (n % u64::from(PAGES)) as u32;
        let h = bp.fetch(PageId::new(file, page)).unwrap();
        assert_eq!(h.data()[100], page as u8);
        if n.is_multiple_of(DIRTY_EVERY) {
            h.data_mut()[101] = n as u8;
        }
    };
    // Warm up: lazily-initialised metrics and thread-locals allocate once.
    (0..u64::from(PAGES)).for_each(fetch);
    bp.reset_profile();

    let (n, ()) = allocs_during(|| (0..FETCHES).for_each(fetch));
    let prof = bp.io_profile();
    assert_eq!(prof.pool_misses, FETCHES, "every fetch missed");
    assert_eq!(prof.disk.read_calls, FETCHES, "one read call per miss");
    assert!(
        prof.evictions >= FETCHES / DIRTY_EVERY - FRAMES as u64,
        "dirty victims were written back: {} evictions",
        prof.evictions
    );
    assert!(n <= SLACK, "{FETCHES} cold fetches made {n} allocations");
}
