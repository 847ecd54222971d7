//! Shared test support: a full-database consistency checker implementing
//! DESIGN.md invariants 1–3.
//!
//! The checker recomputes, from nothing but base objects and the schema,
//! what every replicated structure *should* contain, and compares that
//! against what the engine actually maintains:
//!
//! 1. every hidden replicated value (or `S'` replica read) equals the
//!    value reached by walking the forward path;
//! 2. every link object contains exactly the OIDs of the objects that
//!    currently lie on the path at that level;
//! 3. every replica anchor's refcount equals the number of source objects
//!    sharing it, and replica values match the terminal object.

use fieldrep_catalog::{LinkDef, LinkId};
use fieldrep_core::chain::{self, Entry};
use fieldrep_core::{Database, REPLICA_TAG};
use fieldrep_model::{Annotation, Value};
use fieldrep_storage::{HeapFile, Oid};
use std::collections::{BTreeMap, BTreeSet};

/// Walk the forward chain for `oid` along the ref-field indexes `hops`.
/// Returns node OIDs (None from the first broken hop).
fn chain_of(db: &mut Database, oid: Oid, hops: &[usize]) -> Vec<Option<Oid>> {
    let mut chain = vec![Some(oid)];
    let mut cur = Some(oid);
    for &h in hops {
        cur = match cur {
            None => None,
            Some(c) => {
                let obj = db.get(c).unwrap();
                match &obj.values[h] {
                    Value::Ref(o) if !o.is_null() => Some(*o),
                    _ => None,
                }
            }
        };
        chain.push(cur);
    }
    chain
}

/// Walk the link store at `head` through the shared chunk decoder, which
/// checks each chunk's record tag, mark byte (level, or the collapsed
/// mark) and length, and check what both kinds of store promise: every
/// chunk within capacity, no empty chunk but a lone head, keys ascending
/// across the whole chain. Returns the entries; adds the chunks to
/// `chunks`.
fn walk_store<E: Entry>(db: &Database, link: &LinkDef, head: Oid, chunks: &mut u64) -> Vec<E> {
    let (mut entries, mut lens) = (Vec::new(), Vec::new());
    chain::walk::<E>(db.sm(), link, head, |_, chunk| {
        lens.push(chunk.len());
        entries.extend(chunk);
        Ok(())
    })
    .unwrap_or_else(|e| panic!("store {head} of link {}: {e}", link.id.0));
    assert!(
        lens.iter().all(|&n| n <= E::CAPACITY),
        "chunk over capacity in store {head}: {lens:?}"
    );
    assert!(
        lens.len() == 1 || !lens.contains(&0),
        "empty chunk in store {head}: {lens:?}"
    );
    assert!(
        entries.windows(2).all(|x| x[0].key() < x[1].key()),
        "keys ascend across store {head}"
    );
    *chunks += lens.len() as u64;
    entries
}

/// Check one §4.3.3 collapsed link: every complete-or-parked chain has
/// exactly one tagged entry at the right holder; `CollapsedVia` markers
/// exist exactly on routing intermediates; no orphan chunks.
fn check_collapsed_link(
    db: &mut Database,
    link: &LinkDef,
    set_names: &[(fieldrep_catalog::SetId, String)],
) {
    let src_set_name = set_names
        .iter()
        .find(|(id, _)| *id == link.set)
        .map(|(_, n)| n.clone())
        .unwrap();
    let mut expected: BTreeMap<Oid, BTreeSet<(Oid, Oid)>> = BTreeMap::new();
    let mut vias: BTreeSet<Oid> = BTreeSet::new();
    for src in db.scan_set(&src_set_name).unwrap() {
        let chain = chain_of(db, src, &link.prefix);
        if let Some(d) = chain[1] {
            let holder = chain[2].unwrap_or(d);
            expected.entry(holder).or_default().insert((src, d));
            vias.insert(d);
        }
    }
    // Intermediate type: target of the first hop.
    let src_type = db.catalog().set(link.set).elem_type;
    let mid_type = db.catalog().ref_target(src_type, link.prefix[0]).unwrap();
    let mut holder_types = vec![link.dst_type];
    if mid_type != link.dst_type {
        holder_types.push(mid_type);
    }
    let holder_sets: Vec<String> = holder_types
        .iter()
        .flat_map(|t| {
            db.catalog()
                .sets_of_type(*t)
                .map(|s| s.name.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    let mut chunks_seen = 0u64;
    for hs in &holder_sets {
        for h in db.scan_set(hs).unwrap() {
            let obj = db.get(h).unwrap();
            let head = fieldrep_core::collapsed::find_store(&obj, link.id.0);
            match (head, expected.get(&h)) {
                (None, None) => {}
                (None, Some(w)) => panic!("holder {h} missing collapsed store ({w:?})"),
                (Some(_), None) => panic!("holder {h} has a stale collapsed store"),
                (Some(head), Some(w)) => {
                    let entries: Vec<(Oid, Oid)> = walk_store(db, link, head, &mut chunks_seen);
                    let got: BTreeSet<(Oid, Oid)> = entries.into_iter().collect();
                    assert_eq!(&got, w, "collapsed entries for holder {h}");
                }
            }
        }
    }
    // Markers on intermediates.
    let mid_sets: Vec<String> = db
        .catalog()
        .sets_of_type(mid_type)
        .map(|s| s.name.clone())
        .collect();
    for ms in &mid_sets {
        for d in db.scan_set(ms).unwrap() {
            let obj = db.get(d).unwrap();
            let marked = fieldrep_core::collapsed::has_via_marker(&obj, link.id.0);
            assert_eq!(
                marked,
                vias.contains(&d),
                "CollapsedVia marker on {d} (expected iff it routes sources)"
            );
        }
    }
    // No orphan chunks in the link file.
    let live = HeapFile::open(link.file).count(db.sm()).unwrap();
    assert_eq!(live, chunks_seen, "collapsed link file has orphan chunks");
}

/// Assert all replication invariants hold for the whole database.
pub(crate) fn check_consistency(db: &mut Database) {
    let paths: Vec<_> = db.catalog().paths().cloned().collect();
    let set_names: Vec<(fieldrep_catalog::SetId, String)> = db
        .catalog()
        .sets()
        .iter()
        .map(|s| (s.id, s.name.clone()))
        .collect();

    // ---------------- invariant 1: replicated values --------------------
    for p in &paths {
        let set_name = set_names
            .iter()
            .find(|(id, _)| *id == p.set)
            .map(|(_, n)| n.clone())
            .unwrap();
        let dotted = p.expr.segments.join(".");
        for oid in db.scan_set(&set_name).unwrap() {
            let expected = db.deref_path(oid, &dotted).unwrap();
            let actual = db.path_values(oid, p.id).unwrap();
            assert_eq!(
                actual, expected,
                "replica mismatch for {oid} along {} ({:?})",
                p.expr, p.strategy
            );
        }
    }

    // ---------------- invariant 2: link objects -------------------------
    let links: Vec<_> = db.catalog().links().cloned().collect();
    for link in links.iter().filter(|l| l.collapsed) {
        check_collapsed_link(db, link, &set_names);
    }
    for link in links.iter().filter(|l| !l.collapsed) {
        let src_set_name = set_names
            .iter()
            .find(|(id, _)| *id == link.set)
            .map(|(_, n)| n.clone())
            .unwrap();
        // expected: target -> members, derived from forward references.
        let mut expected: BTreeMap<Oid, BTreeSet<Oid>> = BTreeMap::new();
        for src in db.scan_set(&src_set_name).unwrap() {
            let chain = chain_of(db, src, &link.prefix);
            let member = chain[link.prefix.len() - 1];
            let target = chain[link.prefix.len()];
            if let (Some(m), Some(t)) = (member, target) {
                expected.entry(t).or_default().insert(m);
            }
        }
        // actual: iterate every object of the link's dst type.
        let dst_sets: Vec<String> = db
            .catalog()
            .sets_of_type(link.dst_type)
            .map(|s| s.name.clone())
            .collect();
        let mut link_objects_seen = 0u64;
        for ds in dst_sets {
            for t in db.scan_set(&ds).unwrap() {
                let obj = db.get(t).unwrap();
                let ann = obj.annotations.iter().find(|a| {
                    matches!(a,
                        Annotation::LinkRef { link: l, .. } | Annotation::InlineLink { link: l, .. }
                            if *l == link.id.0)
                });
                let want = expected.get(&t);
                match (ann, want) {
                    (None, None) => {}
                    (None, Some(w)) => panic!(
                        "target {t} missing link annotation for {:?}, expected members {w:?}",
                        LinkId(link.id.0)
                    ),
                    (Some(a), None) => {
                        panic!("target {t} has stale link annotation {a:?} (no referents)")
                    }
                    (Some(Annotation::InlineLink { oids, .. }), Some(w)) => {
                        assert!(
                            oids.len() <= db.config().inline_link_threshold,
                            "inline link exceeds threshold on {t}"
                        );
                        let got: BTreeSet<Oid> = oids.iter().copied().collect();
                        assert_eq!(&got, w, "inline link members for {t}");
                        assert!(
                            oids.windows(2).all(|x| x[0] < x[1]),
                            "inline members sorted on {t}"
                        );
                    }
                    (Some(Annotation::LinkRef { oid, .. }), Some(w)) => {
                        let members: Vec<Oid> = walk_store(db, link, *oid, &mut link_objects_seen);
                        assert!(
                            db.config().inline_link_threshold == 0
                                || link.level != 0
                                || members.len() > db.config().inline_link_threshold,
                            "link store on {t} should have been inlined"
                        );
                        let got: BTreeSet<Oid> = members.into_iter().collect();
                        assert_eq!(&got, w, "link-store members for {t}");
                    }
                    _ => unreachable!(),
                }
            }
        }
        // No orphan chunks in the link file.
        let live = HeapFile::open(link.file).count(db.sm()).unwrap();
        assert_eq!(
            live, link_objects_seen,
            "link file {} has orphan link chunks",
            link.file
        );
    }

    // ---------------- invariant 3: replica anchors ----------------------
    let groups: Vec<_> = db.catalog().groups().cloned().collect();
    for g in &groups {
        let src_set_name = set_names
            .iter()
            .find(|(id, _)| *id == g.set)
            .map(|(_, n)| n.clone())
            .unwrap();
        // expected: terminal -> source count (complete chains only).
        let mut expected: BTreeMap<Oid, u32> = BTreeMap::new();
        let mut src_ref_targets: BTreeMap<Oid, Oid> = BTreeMap::new(); // src -> expected replica terminal
        for src in db.scan_set(&src_set_name).unwrap() {
            let chain = chain_of(db, src, &g.hops);
            if let Some(t) = chain.last().copied().flatten() {
                *expected.entry(t).or_default() += 1;
                src_ref_targets.insert(src, t);
            }
        }
        let dst_sets: Vec<String> = db
            .catalog()
            .sets_of_type(g.terminal_type)
            .map(|s| s.name.clone())
            .collect();
        let mut anchors_seen = 0u64;
        let mut replica_of_terminal: BTreeMap<Oid, Oid> = BTreeMap::new();
        for ds in dst_sets {
            for t in db.scan_set(&ds).unwrap() {
                let obj = db.get(t).unwrap();
                let anchor = obj.annotations.iter().find_map(|a| match a {
                    Annotation::ReplicaAnchor {
                        group,
                        oid,
                        refcount,
                    } if *group == g.id.0 => Some((*oid, *refcount)),
                    _ => None,
                });
                match (anchor, expected.get(&t)) {
                    (None, None) => {}
                    (None, Some(n)) => panic!("terminal {t} missing anchor ({n} sources)"),
                    (Some((roid, _)), None) => {
                        panic!("terminal {t} has stale anchor to {roid}")
                    }
                    (Some((roid, rc)), Some(n)) => {
                        anchors_seen += 1;
                        assert_eq!(rc, *n, "refcount for terminal {t}");
                        replica_of_terminal.insert(t, roid);
                        // Replica values equal the terminal's fields.
                        let hf = HeapFile::open(g.file);
                        let (tag, payload) = hf.read(db.sm(), roid).unwrap();
                        assert_eq!(tag, REPLICA_TAG);
                        let vals = Value::decode_list(&payload).unwrap();
                        let want: Vec<Value> =
                            g.fields.iter().map(|&i| obj.values[i].clone()).collect();
                        assert_eq!(vals, want, "replica values for terminal {t}");
                    }
                }
            }
        }
        // Every source's ReplicaRef points at its terminal's replica.
        for (src, t) in &src_ref_targets {
            let obj = db.get(*src).unwrap();
            let rref = obj.annotations.iter().find_map(|a| match a {
                Annotation::ReplicaRef { group, oid } if *group == g.id.0 => Some(*oid),
                _ => None,
            });
            assert_eq!(
                rref,
                replica_of_terminal.get(t).copied(),
                "replica ref of source {src}"
            );
        }
        // No orphan replica objects.
        let live = HeapFile::open(g.file).count(db.sm()).unwrap();
        assert_eq!(live, anchors_seen, "orphan replica objects in group file");
    }
}
