//! The process-wide `txn.active` gauge sums every open database's active
//! transactions. Alone in its binary: the metrics registry is shared by
//! the whole process, so any other test's transactions would move it.

use fieldrep_core::{Database, DbConfig};
use fieldrep_obs::metrics::registry;
use fieldrep_obs::names;

#[test]
fn the_active_gauge_sums_the_databases() {
    let active = || registry().gauge(names::TXN_ACTIVE).get();
    let (a, b) = (
        Database::in_memory(DbConfig::default()),
        Database::in_memory(DbConfig::default()),
    );
    let ta = a.txn().begin();
    let tb = b.txn().begin();
    assert_eq!(active(), 2, "one open in each database");
    b.txn().commit(tb);
    assert_eq!(active(), 1, "A's is still open");
    b.txn().abort(tb);
    assert_eq!(active(), 1, "an end without a begin moves nothing");
    a.txn().commit(ta);
    assert_eq!(active(), 0);
    assert_eq!((a.txn().stats().active, b.txn().stats().active), (0, 0));
}
