//! The operation stream: seven kinds, drawn from a seeded generator.
//! The engine sees only what a kind turns into — a statement's text or
//! an API call's arguments — never the seed.

use crate::spec::{Door, Workload};
use crate::world::{Oracle, Rep};
use fieldrep_model::Value;
use fieldrep_query::{Assign, Filter, ReadQuery, UpdateQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows one statement read selects (`field_r between k and k + 19`).
pub const ROWS_PER_READ: i64 = 20;
/// Hot `S` objects of `txn_mixed_t2`.
pub const HOT_S: usize = 16;

/// What an operation does and to which strategy's field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Read `rep_none` through a functional join.
    ReadNone,
    /// Read `rep_ip` from the in-place replica.
    ReadInplace,
    /// Read `rep_sep` from the separate replica.
    ReadSeparate,
    /// Update `rep_none`: no replica to maintain.
    UpdatePlain,
    /// Update `rep_ip`: ripples to `f` source objects.
    UpdateInplace,
    /// Update `rep_sep`: rewrites one shared replica object.
    UpdateSeparate,
    /// `sref := other S`: re-wires links, replicas and hidden values.
    UpdateRepoint,
}

impl Kind {
    /// Every kind, reads first.
    pub const ALL: [Kind; 7] = [
        Kind::ReadNone,
        Kind::ReadInplace,
        Kind::ReadSeparate,
        Kind::UpdatePlain,
        Kind::UpdateInplace,
        Kind::UpdateSeparate,
        Kind::UpdateRepoint,
    ];

    /// Index into per-kind tables.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Name in reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ReadNone => "read.none",
            Kind::ReadInplace => "read.inplace",
            Kind::ReadSeparate => "read.separate",
            Kind::UpdatePlain => "update.plain",
            Kind::UpdateInplace => "update.inplace",
            Kind::UpdateSeparate => "update.separate",
            Kind::UpdateRepoint => "update.repoint",
        }
    }

    /// Whether the kind reads.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            Kind::ReadNone | Kind::ReadInplace | Kind::ReadSeparate
        )
    }

    /// The `S` field the kind reads or writes (`None` for a re-point).
    pub fn rep(self) -> Option<Rep> {
        match self {
            Kind::ReadNone | Kind::UpdatePlain => Some(Rep::None),
            Kind::ReadInplace | Kind::UpdateInplace => Some(Rep::Inplace),
            Kind::ReadSeparate | Kind::UpdateSeparate => Some(Rep::Separate),
            Kind::UpdateRepoint => None,
        }
    }
}

/// One operation. What `a` and `b` mean depends on the kind and door:
///
/// * statement read — `a` is the low key of the `field_r` range;
/// * transactional read — `a` is the index of the `R` object read;
/// * field update — `a` is the index of the `S` object written;
/// * re-point — `a` is the `R` index, `b` the new `S` index.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Kind.
    pub kind: Kind,
    /// First argument.
    pub a: u32,
    /// Second argument (re-points only).
    pub b: u32,
}

/// One client's seeded operation stream.
pub struct OpGen {
    rng: StdRng,
    door: Door,
    read_pct: u32,
    repoint_pct: u32,
    hot_pct: u32,
    n_s: u32,
    n_r: u32,
    hot_s: Vec<u32>,
    hot_r: Vec<u32>,
}

impl OpGen {
    /// The stream of `client` under `seed`.
    pub fn new(w: &Workload, oracle: &Oracle, seed: u64, client: usize) -> OpGen {
        let n_s = oracle.s_count() as u32;
        let n_r = oracle.r_count() as u32;
        // Hot objects spread over S (neighbours would share a page and
        // measure its latch instead of the objects' locks).
        let hot = HOT_S.min(n_s as usize) as u32;
        let hot_s: Vec<u32> = (0..hot).map(|i| i * (n_s / hot)).collect();
        let hot_r = (0..n_r)
            .filter(|&r| hot_s.contains(&oracle.target(r)))
            .collect();
        OpGen {
            // Distinct streams per client, far apart in seed space.
            rng: StdRng::seed_from_u64(
                seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1)),
            ),
            door: w.door,
            read_pct: w.read_pct,
            repoint_pct: w.repoint_pct,
            hot_pct: w.hot_pct,
            n_s,
            n_r,
            hot_s,
            hot_r,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let rng = &mut self.rng;
        let read = rng.gen_range(0..100u32) < self.read_pct;
        let hot = self.hot_pct > 0 && rng.gen_range(0..100u32) < self.hot_pct;
        if read {
            let kind =
                [Kind::ReadNone, Kind::ReadInplace, Kind::ReadSeparate][rng.gen_range(0..3usize)];
            let a = match self.door {
                Door::Stmt => rng.gen_range(0..self.n_r - ROWS_PER_READ as u32 + 1),
                Door::Txn if hot => self.hot_r[rng.gen_range(0..self.hot_r.len())],
                Door::Txn => rng.gen_range(0..self.n_r),
            };
            return Op { kind, a, b: 0 };
        }
        if self.repoint_pct > 0 && rng.gen_range(0..100u32) < self.repoint_pct {
            return Op {
                kind: Kind::UpdateRepoint,
                a: rng.gen_range(0..self.n_r),
                b: rng.gen_range(0..self.n_s),
            };
        }
        let kind = [Kind::UpdatePlain, Kind::UpdateInplace, Kind::UpdateSeparate]
            [rng.gen_range(0..3usize)];
        let a = if hot {
            self.hot_s[rng.gen_range(0..self.hot_s.len())]
        } else {
            rng.gen_range(0..self.n_s)
        };
        Op { kind, a, b: 0 }
    }
}

/// The statement a statement-door operation sends, given the value an
/// update writes.
pub fn statement(op: &Op, oracle: &Oracle, new_value: &str) -> String {
    let rep = op.kind.rep().expect("statements never re-point");
    if op.kind.is_read() {
        let lo = i64::from(op.a);
        format!(
            "retrieve (R.field_r, R.sref.{}) where R.field_r between {lo} and {}",
            rep.field(),
            lo + ROWS_PER_READ - 1
        )
    } else {
        format!(
            "replace (S.{} = \"{new_value}\") where S.field_s = {}",
            rep.field(),
            oracle.s_keys[op.a as usize]
        )
    }
}

/// The query `execute_stmt` builds from a read's statement (what a
/// peeled read runs, and what the plan probe plans).
pub fn read_query(op: &Op) -> ReadQuery {
    let rep = op.kind.rep().expect("reads have a field");
    let lo = i64::from(op.a);
    ReadQuery::on("R")
        .project(["field_r".to_string(), format!("sref.{}", rep.field())])
        .filter(Filter::Range {
            path: "field_r".into(),
            lo: Value::Int(lo),
            hi: Value::Int(lo + ROWS_PER_READ - 1),
        })
}

/// The query `execute_stmt` builds from an update's statement.
pub fn update_query(op: &Op, oracle: &Oracle, new_value: &str) -> UpdateQuery {
    let rep = op.kind.rep().expect("statements never re-point");
    UpdateQuery::on("S")
        .filter(Filter::Eq {
            path: "field_s".into(),
            value: Value::Int(oracle.s_keys[op.a as usize]),
        })
        .assign(rep.field(), Assign::Set(Value::Str(new_value.into())))
}
