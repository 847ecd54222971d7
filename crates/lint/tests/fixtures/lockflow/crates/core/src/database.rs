//! Fixture database: two L7 violations — `pub` `&self` entry points
//! reaching a storage mutation outside the WAL apply section, one with no
//! section at all and one after the combinator's closure has ended —
//! plus the covered, suppressed, and exempt shapes that stay silent.

pub struct Database {
    heap: HeapFile,
    wal: Wal,
    sm: StorageManager,
}

impl Database {
    // L7 fires here (mutation with no apply section on the path):
    pub fn touch(&self, oid: Oid) {
        self.heap.rec_insert(&self.sm, 1, &[]);
    }

    pub fn touch_guarded(&self, oid: Oid) {
        // Fine: the mutation happens under the apply section.
        let _a = self.wal.apply_lock();
        self.heap.rec_update(&self.sm, oid, &[]);
    }

    // lint: allow(L7) both callers hold the apply section across this call
    pub fn touch_inherited(&self, oid: Oid) {
        self.heap.rec_update(&self.sm, oid, &[]);
    }

    fn touch_private(&self, oid: Oid) {
        // Fine: not an entry point — coverage is charged to the pub
        // callers that reach it (none here).
        self.heap.rec_delete(&self.sm, oid);
    }

    pub fn touch_exclusive(&mut self, oid: Oid) {
        // Fine: &mut self means no concurrent commit sweep can observe
        // a torn apply.
        self.heap.rec_delete(&self.sm, oid);
    }

    pub fn touch_in_section(&self, oid: Oid) {
        // Fine: the closure body runs under the section the combinator
        // takes.
        self.apply_and_commit(|db| {
            db.heap.rec_update(&db.sm, oid, &[]);
        });
    }

    // L7 fires here too: the section ends with the closure, and the
    // second mutation runs after it.
    pub fn touch_after_section(&self, oid: Oid) {
        self.apply_and_commit(|db| {
            db.heap.rec_update(&db.sm, oid, &[]);
        });
        self.heap.rec_delete(&self.sm, oid);
    }
}
