//! A search allocates for what it returns, not for what it looks at.
//!
//! The counting allocator is this binary's global allocator, so the file
//! holds exactly one test: nothing else may allocate while it counts. It
//! replaces a timing assertion — when every node was parsed into owned
//! entries, a 20-entry range over a 3-level tree made several hundred
//! allocations (one `Vec<u8>` per entry of every node on the way).

// A `GlobalAlloc` impl is unsafe by signature; this test shim is the
// only one outside `storage::checksum` the workspace lint lets through.
#![allow(unsafe_code)]

use fieldrep_btree::{keys::encode_i64, BTreeIndex, Entry};
use fieldrep_storage::{FileId, Oid, StorageManager};
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

/// Allocations a search may make beyond what it returns: the two bound
/// keys, the result vector's doublings, span bookkeeping.
const SLACK: usize = 16;

#[test]
fn search_allocations_scale_with_the_result_not_the_nodes() {
    let sm = StorageManager::in_memory(2048);
    let w = sm.apply_section();
    let entries: Vec<Entry> = (0..100_000i64)
        .map(|i| {
            let n = i as u32;
            (
                encode_i64(i).to_vec(),
                Oid::new(FileId(9), n / 64, (n % 64) as u16),
            )
        })
        .collect();
    let idx = BTreeIndex::bulk_load(&w, &entries, 1.0).unwrap();
    assert_eq!(
        idx.height(&sm).unwrap(),
        3,
        "root, one internal level, leaves"
    );
    let (lo, hi) = (encode_i64(50_000), encode_i64(50_019));
    // Warm up: lazily-initialised metrics and thread-locals allocate once.
    idx.range(&sm, &lo, &hi).unwrap();

    let (n, hits) = allocs_during(|| idx.range(&sm, &lo, &hi).unwrap());
    assert_eq!(hits.len(), 20);
    assert!(n <= 20 + SLACK, "range of 20 made {n} allocations");

    // Ten times the result, ten times the keys — not ten times the nodes.
    let (n, hits) = allocs_during(|| idx.range(&sm, &lo, &encode_i64(50_199)).unwrap());
    assert_eq!(hits.len(), 200);
    assert!(n <= 200 + SLACK, "range of 200 made {n} allocations");

    // Callers that do not want the keys do not pay for them.
    let (n, oids) = allocs_during(|| idx.lookup(&sm, &lo).unwrap());
    assert_eq!(oids.len(), 1);
    assert!(n <= SLACK, "lookup made {n} allocations");
    let mut seen = 0;
    let (n, ()) = allocs_during(|| {
        idx.for_each_in_range(&sm, &lo, &encode_i64(50_199), |_, _| seen += 1)
            .unwrap();
    });
    assert_eq!(seen, 200);
    assert!(n <= SLACK, "visiting 200 entries made {n} allocations");
}
