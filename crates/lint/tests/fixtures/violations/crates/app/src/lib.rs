//! Fixture app crate: one violation of each diagnostic rule (L5 twice,
//! once per way into the pool). L3 produces counts, not diagnostics:
//! this file has exactly two panic sites in library code.

// L1 fires here (raw file I/O outside crates/storage):
use std::fs;

pub fn read_config() -> Vec<u8> {
    // L3 site 1:
    fs::read("config.bin").unwrap()
}

pub fn record(reg: &Registry) {
    // Fine: registered name.
    reg.counter("app.known").inc();
    // L2 fires here (literal not in the registry):
    reg.counter("app.unknown").inc();
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

pub fn introspect(catalog: &SysCatalog) {
    // Fine: registered virtual-table name, as a literal and through the
    // constant (which also keeps SYS_OK alive for the dead-name check).
    catalog.open("sys.ok");
    catalog.open(names::SYS_OK);
    // L2 fires here (sys.* literal not in the registry):
    catalog.open("sys.bogus");
    // Fine: not name-shaped (format hole / prose / bare prefix).
    let _fmt = "sys.{}";
    let _prose = "sys. tables are virtual";
    let _prefix = "sys.";
}

pub fn hostile_lock(table: &LockTable, oid: Oid) {
    // L4 fires here (raw OID write lock outside the sorted-order
    // helper):
    let _held = table.raw_acquire(oid);
    // Fine: the sanctioned path hands the whole closure to lock_sorted.
    let _guard = table.lock_sorted(&[oid]);
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
