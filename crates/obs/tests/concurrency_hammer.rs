//! Multi-threaded hammer for the observability primitives.
//!
//! Two integrity properties under real contention:
//!
//! * **Registry**: counter deltas between snapshots are
//!   conservation-exact — with snapshots interleaved arbitrarily between
//!   increments from many threads, the per-window deltas sum to the
//!   number of increments; nothing is lost or double-counted.
//! * **Recorder**: ring events are never torn — every event snapshotted
//!   mid-hammer (and after) is internally consistent, with the payload
//!   matching the invariant each writer encoded into its events.
//!
//! Both run on private instances (`Registry::default()`,
//! `Recorder::with_capacity`) so they neither perturb nor race the
//! process-global pipeline other tests use.

use fieldrep_obs::names::{self, Name};
use fieldrep_obs::recorder::{EventKind, Recorder};
use fieldrep_obs::{IoCounts, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const THREADS: usize = 8;
const INCREMENTS_PER_THREAD: u64 = 20_000;
const EVENTS_PER_THREAD: u64 = 5_000;
const RING_CAPACITY: usize = 512;

#[test]
fn snapshot_deltas_never_lose_or_double_count_increments() {
    const NAME: Name = names::TXN_COMMIT;
    let reg = Arc::new(Registry::default());
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(THREADS + 1));

    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let reg = Arc::clone(&reg);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let c = reg.counter(NAME);
                start.wait();
                for _ in 0..INCREMENTS_PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();

    // The sampler races the workers: every snapshot lands mid-increment,
    // so window boundaries fall at arbitrary counts. It returns each
    // window's delta against the previous snapshot.
    let sampler = {
        let reg = Arc::clone(&reg);
        let done = Arc::clone(&done);
        let start = Arc::clone(&start);
        thread::spawn(move || {
            start.wait();
            let mut last = 0;
            let mut deltas = Vec::new();
            while !done.load(Ordering::Acquire) {
                let now = reg.snapshot().counter(NAME);
                assert!(now >= last, "a counter went backwards: {last} -> {now}");
                deltas.push(now - last);
                last = now;
                thread::yield_now();
            }
            (deltas, last)
        })
    };

    for w in workers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let (mut deltas, last) = sampler.join().unwrap();
    // Close the final window so increments after the last racing
    // snapshot are captured too.
    deltas.push(reg.snapshot().counter(NAME) - last);

    let expected = THREADS as u64 * INCREMENTS_PER_THREAD;
    assert_eq!(
        reg.counter(NAME).get(),
        expected,
        "the counter itself must be exact"
    );
    assert_eq!(
        deltas.iter().sum::<u64>(),
        expected,
        "sum of per-window deltas must equal the increments: no window \
         may lose or double-count"
    );
}

/// The invariant each writer encodes: a span-exit event for thread `t`
/// carries `nanos == seq_within_thread` and `io.disk_reads == nanos`,
/// so a torn slot (payload from one write, header from another) is
/// detectable from the event alone.
fn coherent(kind: &EventKind) -> bool {
    match kind {
        EventKind::SpanExit { nanos, io } => io.disk_reads == *nanos,
        _ => false,
    }
}

#[test]
fn recorder_ring_events_are_never_torn_under_contention() {
    let rec = Arc::new(Recorder::with_capacity(RING_CAPACITY));
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(THREADS + 1));

    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let rec = Arc::clone(&rec);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                for i in 0..EVENTS_PER_THREAD {
                    let io = IoCounts {
                        disk_reads: i,
                        ..IoCounts::default()
                    };
                    rec.record(
                        &format!("hammer.writer{t}"),
                        EventKind::SpanExit { nanos: i, io },
                    );
                }
            })
        })
        .collect();

    // A reader snapshots the ring while writers overwrite it: every
    // observed event must already be whole.
    let reader = {
        let rec = Arc::clone(&rec);
        let done = Arc::clone(&done);
        let start = Arc::clone(&start);
        thread::spawn(move || {
            start.wait();
            let mut snapshots = 0u64;
            loop {
                let finished = done.load(Ordering::Acquire);
                for e in rec.events() {
                    assert!(coherent(&e.kind), "torn event observed mid-hammer: {e:?}");
                }
                snapshots += 1;
                if finished {
                    break;
                }
                thread::yield_now();
            }
            snapshots
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let snapshots = reader.join().unwrap();
    assert!(snapshots > 0, "the reader must have raced the writers");

    let expected = THREADS as u64 * EVENTS_PER_THREAD;
    assert_eq!(
        rec.recorded_total(),
        expected,
        "every record() got a unique sequence number"
    );
    let events = rec.events();
    assert_eq!(
        events.len(),
        RING_CAPACITY,
        "the ring is full after {expected} events"
    );
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.dedup();
    assert_eq!(seqs.len(), RING_CAPACITY, "sequence numbers are unique");
    assert!(
        seqs.iter().all(|&s| s < expected),
        "no sequence number from the future"
    );
    for e in &events {
        assert!(coherent(&e.kind), "torn event in the final ring: {e:?}");
        assert!(
            e.name.starts_with("hammer.writer"),
            "foreign event in a private ring: {e:?}"
        );
    }
}
