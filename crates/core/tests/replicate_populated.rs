//! `replicate` on a populated set: the benchmark world's order. S and R
//! are populated first, then one hop is replicated in place and the same
//! hop separately, so every source grows on a full page and the bulk
//! build forwards what no longer fits. At f = 2 the level-0 links are
//! inlined; at f = 10 they are chunk chains.

mod common;

use common::check_consistency;
use fieldrep_catalog::{IndexKind, Strategy};
use fieldrep_core::{Database, DbConfig};
use fieldrep_model::{Annotation, FieldType, Object, TypeDef, TypeId, Value};
use fieldrep_storage::{HeapFile, Oid};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The world's shape at `n_s` S objects, each referenced by exactly `f`
/// R objects from shuffled positions; returns the database and S's OIDs.
fn populate(n_s: usize, f: usize) -> (Database, Vec<Oid>) {
    let mut db = Database::in_memory(DbConfig {
        pool_pages: 2048,
        ..DbConfig::default()
    });
    db.define_type(TypeDef::new(
        "STYPE",
        vec![
            ("field_s", FieldType::Int),
            ("rep_none", FieldType::Str),
            ("rep_ip", FieldType::Str),
            ("rep_sep", FieldType::Str),
            ("pad", FieldType::Pad(131)),
        ],
    ))
    .unwrap();
    db.define_type(TypeDef::new(
        "RTYPE",
        vec![
            ("sref", FieldType::Ref("STYPE".into())),
            ("field_r", FieldType::Int),
            ("pad", FieldType::Pad(83)),
        ],
    ))
    .unwrap();
    db.create_set("S", "STYPE").unwrap();
    db.create_set("R", "RTYPE").unwrap();
    let mut rng = StdRng::seed_from_u64(7 + f as u64);
    let text = |i: usize, tag: char| format!("{i:05}{tag}{:012}", 0);
    let s_oids: Vec<Oid> = (0..n_s)
        .map(|i| {
            let values = vec![
                Value::Int(i as i64),
                Value::Str(text(i, 'n')),
                Value::Str(text(i, 'i')),
                Value::Str(text(i, 's')),
                Value::Unit,
            ];
            db.insert("S", values).unwrap()
        })
        .collect();
    let mut assign: Vec<usize> = (0..n_s * f).map(|i| i % n_s).collect();
    assign.shuffle(&mut rng);
    for (i, &s) in assign.iter().enumerate() {
        let values = vec![Value::Ref(s_oids[s]), Value::Int(i as i64), Value::Unit];
        db.insert("R", values).unwrap();
    }
    db.create_index("R.field_r", IndexKind::Unclustered)
        .unwrap();
    db.create_index("S.field_s", IndexKind::Unclustered)
        .unwrap();
    (db, s_oids)
}

/// Populate, replicate in place then separately, and check the result.
/// `pages` is `(R's pages, S′'s pages)` as a build that repacked the
/// page for every grown record left them: growing records where they lie
/// moves no record to another page.
fn populate_then_replicate(n_s: usize, f: usize, pages: (u32, u32)) {
    let (mut db, s_oids) = populate(n_s, f);
    db.replicate("R.sref.rep_ip", Strategy::InPlace).unwrap();
    db.replicate("R.sref.rep_sep", Strategy::Separate).unwrap();
    check_consistency(&mut db);

    // Every anchor counts its sources: each S is referenced f times.
    let group = db.catalog().groups().next().unwrap().clone();
    for &s in &s_oids {
        let anchors: Vec<u32> = db
            .get(s)
            .unwrap()
            .annotations
            .iter()
            .filter_map(|a| match a {
                Annotation::ReplicaAnchor {
                    group: g, refcount, ..
                } if *g == group.id.0 => Some(*refcount),
                _ => None,
            })
            .collect();
        assert_eq!(anchors, [f as u32], "anchor of {s}");
    }

    // The byte edits are canonical: each source's stored payload is the
    // encoding of the object it decodes to.
    let r_file = db.catalog().set(db.catalog().set_id("R").unwrap()).file;
    let r_oids = db.scan_set("R").unwrap();
    assert_eq!(r_oids.len(), n_s * f);
    for &r in &r_oids {
        let (tag, stored) = HeapFile::open(r_file).read(db.sm(), r).unwrap();
        let def = db.catalog().type_def(TypeId(tag));
        let obj = Object::decode(TypeId(tag), def, &stored).unwrap();
        assert_eq!(obj.encode(def), stored, "{r} is not stored canonically");
    }

    let got = (
        db.sm().page_count(r_file).unwrap(),
        db.sm().page_count(group.file).unwrap(),
    );
    assert_eq!(got, pages, "(R pages, S' pages) at f = {f}");
}

#[test]
fn populate_then_replicate_with_inline_links() {
    populate_then_replicate(600, 2, (50, 7));
}

#[test]
fn populate_then_replicate_with_chunk_chains() {
    populate_then_replicate(300, 10, (124, 4));
}
