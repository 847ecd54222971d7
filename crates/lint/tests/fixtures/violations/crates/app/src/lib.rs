//! Fixture app crate: one violation of each diagnostic rule (L5 twice,
//! once per way into the pool). L3 produces counts, not diagnostics:
//! this file has exactly two panic sites in library code.

// L1 fires here (raw file I/O outside crates/storage):
use std::fs;

pub fn read_config() -> Vec<u8> {
    // L3 site 1:
    fs::read("config.bin").unwrap()
}

pub fn rewrite(pool: &mut BufferPool, a: PageId, b: PageId) {
    let h = pool.fetch(a).unwrap(); // L3 site 2
    let mut g = h.data_mut();
    g[0] = 1;
    // L5 fires here (the pool entered while `g` is live):
    let _other = pool.fetch(b);
    drop(g);
    // Fine after the drop:
    let _ok = pool.fetch(b);
}

pub fn batched(pool: &mut BufferPool, a: PageId, b: PageId) {
    let h = pool.fetch(a);
    let mut g = h.data_mut();
    g[0] = 1;
    // L5 fires here too: the batch path enters the pool like any other.
    let _hs = pool.get_pages_batch(&[b]);
}

pub fn describe(reg: &Registry) {
    // A call site through the constant keeps APP_KNOWN alive for the
    // dead-name check (its sibling APP_DEAD has none).
    reg.counter(names::APP_KNOWN).inc();
}

pub fn bypass_log(store: &mut WalStore) {
    // L1 fires here (raw WAL store access outside crates/storage/src/wal):
    let _ = store.wal_append(b"rogue");
}

#[cfg(test)]
mod tests {
    // None of these fire: test code is out of scope.
    use std::fs;

    #[test]
    fn test_code_is_exempt() {
        fs::read("x").unwrap();
        panic!("fine in tests");
    }
}
