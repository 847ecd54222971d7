//! One run: set up the world, warm up, measure a window, check the
//! database, and turn what was seen into metrics.
//!
//! `--trace 0` measures the end-to-end metrics with nothing attached.
//! `--trace 1` measures the per-layer metrics: a traced half in which
//! every operation is a span and one in 64 is peeled and probed, then a
//! plain half (the engine's flight recorder on and off by turns) that
//! gives the plain rate the traced rate is compared to.

use crate::client::{Client, Done, Engine};
use crate::epilogue::{self, Durability};
use crate::ledger::{Layers, Ledger, UnitCosts};
use crate::measure::{calibrate, peak_rss_mb, per, quantile, Counts, Tally};
use crate::ops::{Kind, OpGen};
use crate::probes::Probes;
use crate::spec::{Door, StoreKind, Workload, END_TO_END, PER_LAYER};
use crate::trace::{chrome_trace, Tracer};
use crate::witness::Witness;
use crate::world::{
    build, remove_store, verify, Rep, Store, World, WorldSpec, DATA_PAGES_AT_SCALE_1, S_COUNT,
};
use fieldrep_core::{Database, TxnStats};
use fieldrep_lang::Interpreter;
use fieldrep_storage::{IoProfile, WalStats};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One sampled operation per this many in a traced window.
pub const SAMPLE_EVERY: u64 = 64;
/// World builds per untraced run; `setup_s` is their median at
/// reference speed ([`setup_at_reference`]).
const SETUPS: usize = 5;
/// Plain slices of a traced run, recorder on and off by turns.
const SLICE_TURNS: usize = 8;

/// Operations over wall time.
#[derive(Clone, Copy, Default)]
struct Rate {
    ops: u64,
    wall_s: f64,
}

impl Rate {
    fn per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the world's shuffles and of the operation streams.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// World and op-count scale (1 = the benchmark; smaller for smoke).
    pub scale: f64,
    /// Directory for files the run creates (removed afterwards).
    pub scratch: PathBuf,
    /// Where to write `trace-<workload>.json` (traced runs).
    pub trace_dir: Option<PathBuf>,
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as declared in [`crate::spec`].
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether it was the traced run.
    pub trace: bool,
    /// Seed.
    pub seed: u64,
    /// Scale.
    pub scale: f64,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that errored or returned what the oracle rejects,
    /// plus objects the sweep found inconsistent, plus acknowledged
    /// writes the epilogue lost.
    pub failed: u64,
    /// Latency samples per kind in the measured window.
    pub samples: [u64; 7],
    /// Every declared metric of the run's mode, in declaration order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Engine-wide counters at one instant.
#[derive(Clone, Copy, Default)]
struct Global {
    wal: WalStats,
    txn: TxnStats,
    io: IoProfile,
}

impl Global {
    fn of(db: &Database) -> Global {
        Global {
            wal: db.sm().wal_stats(),
            txn: db.txn().stats(),
            io: db.io_profile(),
        }
    }
}

/// Commits of one client between two truncations of the log.
const TRUNCATE_EVERY: u64 = 2048;

/// Empty the in-memory log. Nothing ever recovers from it (the
/// durability epilogue has its own world on files), and left alone it
/// grows by tens of megabytes a second: gigabytes per window, with a
/// reallocation of all of it whenever the vector doubles. Done between
/// operations, so it is in no operation's latency.
fn recycle_log(db: &Database) {
    if let Some(wal) = db.sm().wal() {
        let _ = wal.checkpoint_truncate();
    }
}

/// When a phase ends.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many operations per client.
    Ops(u64),
    /// At the deadline, but not before this many operations per client.
    Time(Duration, u64),
}

/// What one client keeps across phases.
struct Slot<'a> {
    client: Client<'a>,
    gen: OpGen,
    probes: Option<Probes>,
    tracer: Option<Tracer>,
    layers: Layers,
    ledger: Ledger,
    /// Log bytes and commits by kind (traced window, one client).
    wal_by_kind: [(u64, u64); 7],
    /// Disk read calls and syncs the probes caused on the live
    /// database, to be taken out of the window's totals.
    probe_io: (u64, u64),
    next_op_id: u64,
    /// The host's witness, run between this client's operations.
    witness: Witness,
}

/// The count-type observations of one client at one instant.
#[derive(Clone, Copy)]
struct Counted {
    counts: Counts,
    global: Global,
    wal_by_kind: [(u64, u64); 7],
    probe_io: (u64, u64),
    /// Pool requests of the index-range probes, and how many probes.
    btree_pages: (u64, u64),
    /// Sources the inverse probes found, and how many probes.
    fanout: (u64, u64),
}

impl Counted {
    fn now(tally: &Tally, slot: &Slot) -> Counted {
        Counted {
            counts: tally.counts(),
            global: Global::of(slot.client.db()),
            wal_by_kind: slot.wal_by_kind,
            probe_io: slot.probe_io,
            btree_pages: slot.layers.btree_pages,
            fanout: slot.layers.fanout,
        }
    }
}

/// What one client saw in one phase.
struct PhaseOut {
    tally: Tally,
    /// The counts when the counted prefix ended (when the phase ended,
    /// if it has no prefix).
    counted: Counted,
    start: Instant,
    end: Instant,
}

fn drive(slot: &mut Slot, stop: Stop, traced: bool, counted: u64) -> PhaseOut {
    let mut tally = Tally::default();
    let mut prefix = None;
    // Attributing log bytes to an operation needs the log to itself.
    let log_by_kind = traced && slot.client.exact;
    slot.wal_by_kind = [(0, 0); 7];
    slot.probe_io = (0, 0);
    slot.witness.restart();
    let start = Instant::now();
    let mut prev_end = start;
    let mut n = 0u64;
    let mut commits_since_truncate = 0u64;
    loop {
        let op = slot.gen.next_op();
        let op_id = slot.next_op_id;
        slot.next_op_id += 1;
        let sampled = traced && n.is_multiple_of(SAMPLE_EVERY);
        let wal0 = log_by_kind.then(|| slot.client.db().sm().wal_stats().bytes);
        let peel = sampled && slot.client.can_peel(&op);
        let done: Done = match (&mut slot.tracer, peel) {
            (Some(tr), true) => {
                slot.client
                    .run_peeled(&op, op_id, tr, &mut slot.layers, &mut slot.ledger)
            }
            (Some(tr), false) if traced => {
                slot.client.run(&op, op_id, Some((tr, &mut slot.layers)))
            }
            _ => slot.client.run(&op, op_id, None),
        };
        let nanos = (done.t1 - done.t0).as_nanos() as u64;
        if sampled && !peel {
            // Not peeled: the whole call is the door's layer (core, on
            // the transactional door), minus its storage.
            slot.ledger.ops += 1;
            slot.ledger.measured_ns += nanos;
            slot.ledger.core.add(nanos, done.io);
        }
        let mut ok = done.ok;
        if let Some(consistent) = slot.client.path_check(&op) {
            slot.layers.path_checks += 1;
            ok &= consistent;
        }
        // The client's clock: the witness's bursts are not the engine's.
        tally.record(
            op.kind,
            nanos,
            (done.t1 - start).saturating_sub(slot.witness.spent),
            done.io,
            ok,
        );
        if let Some(w0) = wal0 {
            if !op.kind.is_read() {
                let k = &mut slot.wal_by_kind[op.kind.idx()];
                k.0 += slot.client.db().sm().wal_stats().bytes - w0;
                k.1 += 1;
            }
        }
        n += 1;
        if n == counted {
            prefix = Some(Counted::now(&tally, slot));
        }
        if !op.kind.is_read() {
            commits_since_truncate += 1;
            if commits_since_truncate == TRUNCATE_EVERY {
                commits_since_truncate = 0;
                recycle_log(slot.client.db());
            }
        }
        if sampled {
            if let (Some(probes), Some(tr)) = (&mut slot.probes, &mut slot.tracer) {
                let db = slot.client.db();
                let io0 = db.io_profile().disk;
                probes.after(&op, op_id, db, slot.client.oracle, tr, &mut slot.layers);
                let io1 = db.io_profile().disk;
                slot.probe_io.0 += io1.read_calls - io0.read_calls;
                slot.probe_io.1 += io1.syncs - io0.syncs;
            }
        }
        let now = if traced {
            // Harness time of this iteration: all of it but the call.
            let now = Instant::now();
            if !sampled {
                let iteration = (now - prev_end).as_nanos() as u64;
                slot.layers.op_self.push(iteration.saturating_sub(nanos));
            }
            prev_end = now;
            now
        } else {
            done.t1
        };
        if let Some(ln_slowdown) = slot.witness.tick(now) {
            tally.witnessed(
                (now - start).saturating_sub(slot.witness.spent),
                ln_slowdown,
            );
            prev_end = slot.witness.last();
        }
        let over = match stop {
            Stop::Ops(k) => n >= k,
            Stop::Time(length, at_least) => now - start >= length && n >= at_least,
        };
        if over {
            let counted = prefix.unwrap_or_else(|| Counted::now(&tally, slot));
            return PhaseOut {
                tally,
                counted,
                start,
                end: now,
            };
        }
    }
}

/// What all clients saw in one phase.
struct Phase {
    tally: Tally,
    /// Count-type observations: with one client those of the counted
    /// prefix (they repeat exactly), with two those of the whole phase.
    counts: Counts,
    global0: Global,
    global1: Global,
    wal_by_kind: [(u64, u64); 7],
    probe_io: (u64, u64),
    btree_pages: (u64, u64),
    fanout: (u64, u64),
    wall_s: f64,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.tally.attempted() as f64 / self.wall_s
    }
}

/// Run one phase on every client at once and fold what they saw.
fn run_phase(slots: &mut [Slot], stop: Stop, traced: bool, counted: u64) -> Phase {
    let global0 = Global::of(slots[0].client.db());
    let outs: Vec<PhaseOut> = if let [slot] = slots {
        vec![drive(slot, stop, traced, counted)]
    } else {
        let barrier = Barrier::new(slots.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = slots
                .iter_mut()
                .map(|slot| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        // No prefix: clients interleave, so no count of
                        // theirs repeats exactly anyway.
                        drive(slot, stop, traced, 0)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        })
    };
    let mut phase = Phase {
        tally: Tally::default(),
        counts: Counts::default(),
        global0,
        // With one client, the engine's counters at its prefix; with
        // two, at the end (the last client's reading is the latest).
        global1: outs.last().expect("a client ran").counted.global,
        wal_by_kind: [(0, 0); 7],
        probe_io: (0, 0),
        btree_pages: (0, 0),
        fanout: (0, 0),
        wall_s: 0.0,
    };
    if outs.len() > 1 {
        phase.global1 = Global::of(slots[0].client.db());
    }
    for out in &outs {
        phase.tally.merge(&out.tally);
        phase.counts.merge(&out.counted.counts);
        for k in 0..7 {
            phase.wal_by_kind[k].0 += out.counted.wal_by_kind[k].0;
            phase.wal_by_kind[k].1 += out.counted.wal_by_kind[k].1;
        }
        phase.probe_io.0 += out.counted.probe_io.0;
        phase.probe_io.1 += out.counted.probe_io.1;
        phase.btree_pages.0 += out.counted.btree_pages.0;
        phase.btree_pages.1 += out.counted.btree_pages.1;
        phase.fanout.0 += out.counted.fanout.0;
        phase.fanout.1 += out.counted.fanout.1;
    }
    let start = outs.iter().map(|o| o.start).min().expect("a client ran");
    let end = outs.iter().map(|o| o.end).max().expect("a client ran");
    phase.wall_s = (end - start).as_secs_f64();
    phase
}

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale) as u64).max(SAMPLE_EVERY * 4)
}

/// Run one workload once. Everything the run creates on disk lives
/// under `args.scratch` and is removed before returning.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let _ = std::fs::remove_dir_all(&args.scratch);
    let result = run_inner(args);
    let _ = std::fs::remove_dir_all(&args.scratch);
    result
}

fn run_inner(args: &RunArgs) -> Result<Report, String> {
    let w = args.workload;
    let e = |e: fieldrep_core::DbError| format!("{}: {e}", w.name);
    let store = match w.store {
        StoreKind::Mem => Store::Mem,
        StoreKind::MemWal => Store::MemWal,
        StoreKind::File => Store::File(args.scratch.join("world")),
    };
    let s_count = ((S_COUNT as f64 * args.scale) as usize).max(20);
    let data_pages = DATA_PAGES_AT_SCALE_1 as f64 * s_count as f64 / S_COUNT as f64;
    let pool_pages = ((data_pages * w.pool.0 as f64 / w.pool.1 as f64) as usize).max(24);
    let spec = WorldSpec {
        s_count,
        pool_pages,
        store: store.clone(),
        seed: args.seed,
    };

    // Set-up, several times when it is a reported metric.
    // Each as (log slowdown the witness saw beside it, seconds).
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut world = None;
    let mut witness = Witness::new();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(world.take());
        let mut seen = vec![witness.burst()];
        witness.restart();
        let t = Instant::now();
        world = Some(build(&spec, &mut || seen.extend(witness.tick(Instant::now()))).map_err(e)?);
        let took = t.elapsed().saturating_sub(witness.spent);
        seen.push(witness.burst());
        let x = seen.iter().sum::<f64>() / seen.len() as f64;
        setups.push((x, took.as_secs_f64()));
    }
    drop(witness);
    let World {
        db,
        oracle,
        paths,
        data_pages,
        space_amp,
    } = world.take().expect("built at least once");
    let exact = w.clients == 1;

    // The door. A statement client owns the database through its
    // interpreter; transactional clients share it.
    let mut interpreter = None;
    let mut shared = None;
    match w.door {
        Door::Stmt => interpreter = Some(Interpreter::with_db(db)),
        Door::Txn => shared = Some(db),
    }
    let counted = scaled(w.counted_ops, args.scale) / w.clients as u64;
    let warmup = scaled(w.warmup_ops, args.scale) / w.clients as u64;

    let (main, slice_on, slice_off, calib, layers, ledger, spans_dropped);
    {
        // The slots borrow the interpreter or the shared database for
        // as long as the phases run.
        let mut slots: Vec<Slot> = Vec::new();
        let epoch = Instant::now();
        let engines: Vec<Engine> = match (&mut interpreter, &shared) {
            (Some(it), _) => vec![Engine::Stmt(it)],
            (None, Some(db)) => (0..w.clients).map(|_| Engine::Txn(db)).collect(),
            (None, None) => unreachable!("the database went to one of the doors"),
        };
        for (c, engine) in engines.into_iter().enumerate() {
            let client = Client::new(engine, &oracle, paths, exact);
            let probes = if args.trace {
                let scratch = &args.scratch;
                Some(Probes::new(w.door, &store, scratch, c, client.db(), paths).map_err(e)?)
            } else {
                None
            };
            slots.push(Slot {
                gen: OpGen::new(w, &oracle, args.seed, c),
                client,
                probes,
                tracer: args.trace.then(|| Tracer::new(epoch, w.clients)),
                layers: Layers::default(),
                ledger: Ledger::default(),
                wal_by_kind: [(0, 0); 7],
                probe_io: (0, 0),
                next_op_id: 0,
                witness: Witness::new(),
            });
        }
        run_phase(&mut slots, Stop::Ops(warmup), false, 0);
        if args.trace {
            // The traced half first: it starts from the state the
            // fixed-count warm-up left, so its counted prefix sees the
            // same operations on the same database in every run.
            let c0 = calibrate();
            let half = Duration::from_secs_f64(args.seconds / 2.0);
            let counted = (counted / 4).max(SAMPLE_EVERY * 2);
            main = run_phase(&mut slots, Stop::Time(half, counted), true, counted);
            calib = (c0, calibrate());
            // Then the plain half, the recorder on and off by turns so
            // that a drift of the world or the host falls on both alike.
            let turn = Duration::from_secs_f64(args.seconds / 2.0 / SLICE_TURNS as f64);
            let (mut on, mut off) = (Rate::default(), Rate::default());
            for i in 0..SLICE_TURNS {
                let recorder_on = i % 2 == 0;
                fieldrep_obs::recorder::set_enabled(recorder_on);
                let p = run_phase(&mut slots, Stop::Time(turn, 0), false, 0);
                let rate = if recorder_on { &mut on } else { &mut off };
                rate.ops += p.tally.attempted();
                rate.wall_s += p.wall_s;
            }
            fieldrep_obs::recorder::set_enabled(true);
            slice_on = on;
            slice_off = off;
        } else {
            slice_on = Rate::default();
            slice_off = Rate::default();
            let c0 = calibrate();
            let window = Duration::from_secs_f64(args.seconds);
            main = run_phase(&mut slots, Stop::Time(window, counted), false, counted);
            calib = (c0, calibrate());
        }

        // Fold the clients' layer samples, and write the trace.
        let mut all_layers = Layers::default();
        let mut all_ledger = Ledger::default();
        let mut dropped = 0u64;
        for slot in &slots {
            all_layers.merge(&slot.layers);
            all_ledger.merge(&slot.ledger);
            dropped += slot.tracer.as_ref().map_or(0, |t| t.dropped);
        }
        if let (true, Some(dir)) = (args.trace, &args.trace_dir) {
            let spans: Vec<&[crate::trace::Span]> = slots
                .iter()
                .filter_map(|s| s.tracer.as_ref().map(Tracer::spans))
                .collect();
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            std::fs::write(
                dir.join(format!("trace-{}.json", w.name)),
                chrome_trace(w.name, &spans),
            )
            .map_err(|e| e.to_string())?;
        }
        layers = all_layers;
        ledger = all_ledger;
        spans_dropped = dropped;
    }

    // Checks after the window.
    let db: &Database = match (&interpreter, &shared) {
        (Some(it), _) => &it.db,
        (None, Some(db)) => db,
        (None, None) => unreachable!(),
    };
    let t_sweep = Instant::now();
    let mut failed = main.tally.failures() + verify(db, &oracle, paths, exact);
    let sweep_s = t_sweep.elapsed().as_secs_f64();
    let pool_frames = db.sm().pool().capacity();
    drop(interpreter);
    drop(shared);
    remove_store(&store);
    let t_epilogue = Instant::now();
    let durability = if w.epilogue {
        let d = epilogue::run(&args.scratch.join("epilogue"), args.seed, args.scale)?;
        failed += d.lost;
        d
    } else {
        Durability::default()
    };
    // Where a run's own time went, for whoever budgets the runs.
    eprintln!(
        "# {}: setups {:?}s, window {:.2}s, sweep {sweep_s:.2}s, epilogue {:.2}s",
        w.name,
        setups
            .iter()
            .map(|&(x, took)| format!("{took:.3}@{:.2}", x.exp()))
            .collect::<Vec<_>>(),
        main.wall_s,
        t_epilogue.elapsed().as_secs_f64()
    );

    let metrics = if args.trace {
        per_layer_metrics(&PerLayerInputs {
            w,
            main: &main,
            slice_on,
            slice_off,
            calib,
            layers: &layers,
            ledger: &ledger,
            spans_dropped,
            durability,
            data_pages,
            pool_frames,
        })
    } else {
        end_to_end_metrics(w, &main, setup_at_reference(&setups), space_amp)
    };
    let declared: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let got: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    if got != declared {
        return Err(format!(
            "{}: the run's metrics are not the declared ones: {got:?}",
            w.name
        ));
    }
    let mut samples = [0u64; 7];
    for k in Kind::ALL {
        samples[k.idx()] = main.tally.latency[k.idx()].len() as u64;
    }
    Ok(Report {
        workload: w.name,
        trace: args.trace,
        seed: args.seed,
        scale: args.scale,
        attempted: main.tally.attempted(),
        failed,
        samples,
        metrics,
    })
}

/// `setup_s`: the median, over the run's set-ups, of the set-up's time
/// divided by the slowdown the witness saw beside it.
///
/// A window holds hundreds of stretches at different host speeds and its
/// sensitivity is fitted ([`crate::witness::at_reference`]); five
/// set-ups are five points, usually at one speed, and fit nothing. So
/// the build is taken to feel the host as the witness does — sensitivity
/// 1, where builds repeated while the host changed speed put it between
/// 0.9 and 1.3.
fn setup_at_reference(setups: &[(f64, f64)]) -> f64 {
    let mut at_reference: Vec<f64> = setups.iter().map(|&(x, took)| took / x.exp()).collect();
    quantile(&mut at_reference, 0.5)
}

/// Page requests per operation of the kinds `pick` selects, each kind
/// weighted by its nominal share of the workload's mix rather than by
/// how often the seed happened to draw it.
fn page_reqs(w: &Workload, counts: &Counts, reads: bool) -> f64 {
    let (mut sum, mut weights) = (0.0, 0.0);
    for k in Kind::ALL {
        let (n, io) = (counts.ops[k.idx()], counts.io[k.idx()]);
        if k.is_read() != reads || n == 0 {
            continue;
        }
        let weight = match k {
            Kind::UpdateRepoint => f64::from(w.repoint_pct),
            k if k.is_read() => 100.0 / 3.0,
            _ => f64::from(100 - w.repoint_pct) / 3.0,
        };
        sum += weight * per(io.page_touches(), n);
        weights += weight;
    }
    if weights > 0.0 {
        sum / weights
    } else {
        0.0
    }
}

fn end_to_end_metrics(w: &Workload, main: &Phase, setup_s: f64, space_amp: f64) -> Vec<Metric> {
    let mut sensitivity = Vec::new();
    let mut p50 = |k: Kind| {
        let (us, b) = main.tally.p50_at_reference_us(k);
        sensitivity.push(b);
        us
    };
    let (rate, rate_sensitivity) = main
        .tally
        .rate_at_reference()
        .unwrap_or_else(|| (main.ops_per_s(), 0.0));
    let values = [
        setup_s,
        rate,
        p50(Kind::ReadNone),
        p50(Kind::ReadInplace),
        p50(Kind::ReadSeparate),
        p50(Kind::UpdatePlain),
        p50(Kind::UpdateInplace),
        p50(Kind::UpdateSeparate),
        page_reqs(w, &main.counts, true),
        page_reqs(w, &main.counts, false),
        space_amp,
    ];
    eprintln!(
        "# {}: host slowdown {:.2} (p05 {:.2}, p95 {:.2}); sensitivity of the rate {rate_sensitivity:.2}, of the six latencies {sensitivity:.2?}",
        w.name,
        main.tally.host_slowdown(0.5),
        main.tally.host_slowdown(0.05),
        main.tally.host_slowdown(0.95),
    );
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect()
}

struct PerLayerInputs<'a> {
    w: &'a Workload,
    main: &'a Phase,
    slice_on: Rate,
    slice_off: Rate,
    calib: (f64, f64),
    layers: &'a Layers,
    ledger: &'a Ledger,
    spans_dropped: u64,
    durability: Durability,
    data_pages: u64,
    pool_frames: usize,
}

fn per_layer_metrics(x: &PerLayerInputs) -> Vec<Metric> {
    let l = x.layers;
    let t = &x.main.tally;
    let c = &x.main.counts;
    let one = x.w.clients == 1;
    let (ops, io) = c.sum(|_| true);
    let (reads, read_io) = c.sum(Kind::is_read);
    let (updates, _) = c.sum(|k| !k.is_read());
    let kind_pages = |k: Kind| per(c.io[k.idx()].disk_total(), c.ops[k.idx()]);
    let g0 = &x.main.global0;
    let g1 = &x.main.global1;
    let commits = updates;
    let wal_bytes = g1.wal.bytes - g0.wal.bytes;
    let by_kind = |k: Kind| {
        let (bytes, n) = x.main.wal_by_kind[k.idx()];
        per(bytes, n)
    };
    // Read calls and syncs are only counted engine-wide; the probes'
    // calls on the live database are the harness's, not the window's.
    let (probe_calls, probe_syncs) = x.main.probe_io;
    let disk = g1.io.disk;
    let disk0 = g0.io.disk;
    let read_calls = (disk.read_calls - disk0.read_calls).saturating_sub(probe_calls);
    let syncs = (disk.syncs - disk0.syncs).saturating_sub(probe_syncs);

    // What the door above the peeled operations costs, by kind.
    let mut door_ns = [0.0f64; 7];
    for k in Kind::ALL {
        let i = k.idx();
        if !l.peeled[i].0.is_empty() {
            door_ns[i] = ((l.door[i].p50_us() - l.peeled[i].p50_us()) * 1000.0).max(0.0);
        }
    }
    let weighted = |pick: &dyn Fn(Kind) -> bool| {
        let (mut sum, mut n) = (0.0, 0.0);
        for k in Kind::ALL {
            if pick(k) {
                sum += door_ns[k.idx()] * l.peeled[k.idx()].len() as f64;
                n += l.peeled[k.idx()].len() as f64;
            }
        }
        if n > 0.0 {
            sum / n / 1000.0
        } else {
            0.0
        }
    };
    let sampled_commits: u64 = if one {
        0
    } else {
        // Two clients: sampled updates were not peeled; estimate their
        // commit logging from the log's volume and the unit costs.
        x.ledger.ops * updates / ops.max(1)
    };
    let page_frame = 4127.0; // one page-image frame in the log
    let wal_estimate_ns = sampled_commits as f64
        * (per(wal_bytes, commits) / page_frame * l.wal_append.p50_us() + l.commit_sweep.p50_us())
        * 1000.0;
    let shares = x.ledger.shares(&UnitCosts {
        hit_ns: l.fetch_hit.p50_us() * 1000.0,
        miss_ns: l.fetch_miss.p50_us() * 1000.0,
        door_ns,
        door_is_lang: x.w.door == Door::Stmt,
        wal_estimate_ns,
    });
    let d = &x.durability;
    let drift = (x.calib.1 - x.calib.0).abs() / x.calib.0.min(x.calib.1);
    let stmt = x.w.door == Door::Stmt;

    let values = [
        // lang
        l.parse.p50_us(),
        l.exec.p50_us(),
        if stmt { weighted(&Kind::is_read) } else { 0.0 },
        // query
        l.plan.p50_us(),
        l.query_run.p50_us(),
        if stmt {
            crate::ops::ROWS_PER_READ as f64
        } else {
            0.0
        },
        if stmt {
            per(
                read_io.page_touches(),
                reads * crate::ops::ROWS_PER_READ as u64,
            )
        } else {
            0.0
        },
        // btree
        l.btree_range.p50_us(),
        per(x.main.btree_pages.0, x.main.btree_pages.1),
        l.btree_height as f64,
        // model
        l.decode.p50_us(),
        l.encode.p50_us(),
        // core
        l.get.p50_us(),
        l.path_values[Rep::None as usize].p50_us(),
        l.path_values[Rep::Inplace as usize].p50_us(),
        l.path_values[Rep::Separate as usize].p50_us(),
        l.inverse.p50_us(),
        per(x.main.fanout.0, x.main.fanout.1),
        l.update[Kind::UpdatePlain.idx()].p50_us(),
        l.update[Kind::UpdateInplace.idx()].p50_us(),
        l.update[Kind::UpdateSeparate.idx()].p50_us(),
        l.update[Kind::UpdateRepoint.idx()].p50_us(),
        kind_pages(Kind::ReadNone),
        kind_pages(Kind::ReadInplace),
        kind_pages(Kind::ReadSeparate),
        kind_pages(Kind::UpdatePlain),
        kind_pages(Kind::UpdateInplace),
        kind_pages(Kind::UpdateSeparate),
        // core.txn
        l.lock_sorted.p50_us(),
        if stmt {
            0.0
        } else {
            weighted(&|k| !k.is_read())
        },
        per((g1.txn.conflicts - g0.txn.conflicts) * 1000, commits),
        per((g1.txn.lock_waits - g0.txn.lock_waits) * 1000, commits),
        per(
            (g1.txn.snapshot_retries - g0.txn.snapshot_retries) * 1000,
            reads,
        ),
        // storage.buffer
        per(io.pool_hits, io.page_touches()),
        per(io.pool_misses, ops),
        per(io.evictions, ops),
        per(io.disk_reads, read_calls),
        l.fetch_hit.p50_us(),
        l.fetch_miss.p50_us(),
        l.commit_sweep.p50_us(),
        // storage.heap
        l.heap_read.p50_us(),
        // storage.disk
        per(io.disk_reads, ops),
        per(read_calls, ops),
        per(io.disk_writes, ops),
        syncs as f64,
        // storage.wal
        per(wal_bytes, commits),
        by_kind(Kind::UpdatePlain),
        by_kind(Kind::UpdateInplace),
        by_kind(Kind::UpdateSeparate),
        by_kind(Kind::UpdateRepoint),
        per(g1.wal.appends - g0.wal.appends, commits),
        per(g1.wal.fsyncs - g0.wal.fsyncs, commits),
        per(g1.wal.coalesced - g0.wal.coalesced, commits),
        (g1.wal.autocommits - g0.wal.autocommits) as f64,
        l.log_commit.p50_us(),
        l.wal_append.p50_us(),
        l.wal_sync.p50_us(),
        d.recovery_s,
        if d.recovery_s > 0.0 {
            d.log_bytes as f64 / 1e6 / d.recovery_s
        } else {
            0.0
        },
        d.replayed_pages as f64,
        d.lost as f64,
        d.save_ms,
        // obs
        1.0 - x.slice_on.per_s() / x.slice_off.per_s(),
        // share
        shares.lang,
        shares.query,
        shares.core,
        shares.storage,
        shares.wal,
        shares.unattributed,
        // bench
        1.0 - x.main.ops_per_s() / x.slice_on.per_s(),
        l.op_self.p50_us(),
        drift,
        t.host_slowdown(0.5),
        peak_rss_mb(),
        t.pooled(Kind::is_read).quantile_us(0.95),
        t.pooled(|k| !k.is_read()).quantile_us(0.95),
        t.pooled(Kind::is_read).quantile_us(0.99),
        t.pooled(|k| !k.is_read()).quantile_us(0.99),
        t.latency[Kind::UpdateRepoint.idx()].p50_us(),
        x.main.wall_s,
        x.main.ops_per_s(),
        x.slice_on.per_s(),
        x.ledger.ops as f64,
        x.spans_dropped as f64,
        x.data_pages as f64,
        x.pool_frames as f64,
        l.path_checks as f64,
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per declared metric"
    );
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect()
}
