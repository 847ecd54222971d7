//! Fixture database: the apply section is a lock like any other. One L5
//! violation — lock words taken inside the section — plus the
//! straight-order shape and a reasoned suppression, which stay silent.

pub struct Database {
    sm: StorageManager,
    txn: TxnManager,
}

impl Database {
    pub fn lock_in_section(&self, oids: &[Oid]) {
        let w = self.sm.apply_section(); // WalApply held
        // L5 fires here: OidSeqlock ranks below WalApply.
        let _set = self.txn.lock_sorted(oids);
    }

    pub fn lock_then_section(&self, oids: &[Oid]) {
        // Fine: strictly increasing ranks.
        let _set = self.txn.lock_sorted(oids);
        let w = self.sm.apply_section();
    }

    pub fn lock_in_section_suppressed(&self, oids: &[Oid]) {
        let w = self.sm.apply_section();
        // lint: allow(L5) fixture: a reasoned marker suppresses and counts
        let _set = self.txn.lock_sorted(oids);
    }
}
