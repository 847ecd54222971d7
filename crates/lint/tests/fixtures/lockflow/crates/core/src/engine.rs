//! Fixture engine: exactly one L5 violation, reached *through* the
//! call graph — the caller holds a higher-ranked lock while a callee
//! blocking-acquires a lower-ranked one.

pub struct Engine {
    txn: TxnManager,
    idx: IndexState,
}

impl Engine {
    fn reindex(&self) {
        // Fine in isolation (nothing held here): the index guard is the
        // lowest rank in the declared order.
        let _g = self.idx.index_lock();
    }

    pub fn bad_order(&self, oids: &[Oid]) {
        let _set = self.txn.lock_sorted(oids); // OidSeqlock held
        // L5 fires here: the callee blocking-acquires TxnIndexGuard
        // (rank below OidSeqlock) while OidSeqlock is held.
        self.reindex();
    }

    pub fn good_order(&self, oids: &[Oid]) {
        // Fine: strictly increasing ranks.
        let _g = self.idx.index_lock();
        let _set = self.txn.lock_sorted(oids);
    }
}
