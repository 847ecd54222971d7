//! Lint self-tests: each rule fires exactly once on the violation
//! fixture, suppressions behave, the ratchet only moves down, and the
//! real workspace is clean against its committed budget.

use fieldrep_lint::{budget, check_budget, run_checks, Budget, Report};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn rule_diags<'a>(r: &'a Report, rule: &str) -> Vec<(&'a str, u32)> {
    r.diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.file.as_str(), d.line))
        .collect()
}

#[test]
fn each_rule_fires_exactly_once_on_the_violation_fixture() {
    let r = run_checks(&fixture("violations")).unwrap();
    assert_eq!(
        rule_diags(&r, "L1"),
        [("crates/app/src/lib.rs", 6), ("crates/app/src/lib.rs", 40)],
        "L1: the one raw `use std::fs` and the one raw WAL store call in \
         library code (bin and test code exempt)"
    );
    assert_eq!(
        rule_diags(&r, "L2"),
        [("crates/obs/src/names.rs", 8)],
        "L2: the one dead registry const (the used const and the drift \
         gauge are fine)"
    );
    assert!(
        r.diags
            .iter()
            .any(|d| d.msg.contains("dead name") && d.msg.contains("APP_DEAD")),
        "{:?}",
        r.diags
    );
    assert_eq!(
        rule_diags(&r, "L5"),
        [("crates/app/src/lib.rs", 18), ("crates/app/src/lib.rs", 29)],
        "L5: the fetch and the batch fetch under a live page write guard \
         (FrameData held, PoolCore acquired; the post-drop fetch is fine)"
    );
    assert!(rule_diags(&r, "suppression").is_empty());
    assert_eq!(r.diags.len(), 5, "no other diagnostics: {:?}", r.diags);
    // L3 is a count, not a diagnostic: two library unwraps, none from the
    // bin or the test module.
    assert_eq!(r.panic_counts.get("crates/app"), Some(&2));
    assert_eq!(r.suppressions, 0);
}

#[test]
fn diagnostics_render_rustc_style() {
    let r = run_checks(&fixture("violations")).unwrap();
    let rendered = r.diags[0].to_string();
    assert!(
        rendered.starts_with("crates/app/src/lib.rs:6: error[L1]:"),
        "{rendered}"
    );
}

#[test]
fn reasoned_suppressions_silence_and_reasonless_ones_error() {
    let r = run_checks(&fixture("suppressed")).unwrap();
    // The reasoned marker on line 5 silences the `use std::fs` on line 6.
    assert!(
        !r.diags.iter().any(|d| d.rule == "L1" && d.line == 6),
        "{:?}",
        r.diags
    );
    // The reasonless marker is itself an error…
    assert_eq!(
        rule_diags(&r, "suppression"),
        [("crates/app/src/lib.rs", 12)]
    );
    // …and does not silence its finding.
    assert_eq!(rule_diags(&r, "L1"), [("crates/app/src/lib.rs", 14)]);
    // Both markers count toward the suppression ratchet.
    assert_eq!(r.suppressions, 2);
}

#[test]
fn lockflow_rules_fire_exactly_once_on_the_lockflow_fixture() {
    let r = run_checks(&fixture("lockflow")).unwrap();
    // L5 directly: lock words taken inside the apply section. And through
    // the call graph: `bad_order` holds OidSeqlock across a call whose
    // callee blocking-acquires the lower-ranked index guard.
    assert_eq!(
        rule_diags(&r, "L5"),
        [
            ("crates/core/src/database.rs", 14),
            ("crates/core/src/engine.rs", 21)
        ]
    );
    assert!(
        r.diags.iter().any(|d| d.rule == "L5"
            && d.file.ends_with("database.rs")
            && d.msg.contains("`OidSeqlock`")
            && d.msg.contains("`WalApply`")),
        "{:?}",
        r.diags
    );
    assert!(
        r.diags.iter().any(|d| d.rule == "L5"
            && d.msg.contains("`reindex`")
            && d.msg.contains("TxnIndexGuard")
            && d.msg.contains("OidSeqlock")),
        "{:?}",
        r.diags
    );
    // L6: fsync inside the WalInner append section (the PR 9 shape);
    // the log write under the same lock and the post-drop fsync are
    // fine.
    assert_eq!(
        rule_diags(&r, "L6"),
        [("crates/storage/src/wal/mod.rs", 15)]
    );
    assert!(
        r.diags
            .iter()
            .any(|d| d.rule == "L6" && d.msg.contains("fsync") && d.msg.contains("WalAppend")),
        "{:?}",
        r.diags
    );
    assert_eq!(r.diags.len(), 3, "no other diagnostics: {:?}", r.diags);
    // The reasoned allow in `lock_in_section_suppressed` suppresses (not
    // silences) its finding, and counts toward the ratchet.
    assert_eq!(
        r.suppressed
            .iter()
            .map(|d| (d.rule, d.file.as_str(), d.line))
            .collect::<Vec<_>>(),
        [("L5", "crates/core/src/database.rs", 26)]
    );
    assert_eq!(r.suppressions, 1);
}

#[test]
fn the_ratchet_only_moves_down() {
    let r = run_checks(&fixture("violations")).unwrap();
    // Exact budget: no budget diagnostics.
    let mut exact = Budget::default();
    for (k, v) in &r.panic_counts {
        exact.panic_budget.insert(k.clone(), *v);
    }
    assert!(check_budget(&r, &exact).is_empty());

    // Exceeding the budget is a regression.
    let mut tight = Budget::default();
    for (k, v) in &r.panic_counts {
        tight.panic_budget.insert(k.clone(), v.saturating_sub(1));
    }
    let diags = check_budget(&r, &tight);
    assert!(
        diags.iter().any(|d| d.msg.contains("budget allows 1")),
        "{diags:?}"
    );

    // A stale (too-generous) budget must be ratcheted down.
    let mut loose = Budget::default();
    for (k, v) in &r.panic_counts {
        loose.panic_budget.insert(k.clone(), v + 5);
    }
    let diags = check_budget(&r, &loose);
    assert!(
        diags.iter().any(|d| d.msg.contains("ratchet down")),
        "{diags:?}"
    );

    // Suppression counts ratchet the same way in both directions.
    let r2 = Report {
        suppressions: 3,
        ..Default::default()
    };
    let mut b = Budget {
        suppressions: 3,
        ..Default::default()
    };
    assert!(check_budget(&r2, &b).is_empty());
    b.suppressions = 2;
    assert_eq!(check_budget(&r2, &b).len(), 1);
    b.suppressions = 4;
    assert_eq!(check_budget(&r2, &b).len(), 1);
}

#[test]
fn the_workspace_is_clean_against_its_committed_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = run_checks(&root).unwrap();
    assert!(
        r.diags.is_empty(),
        "workspace lint violations: {:?}",
        r.diags
    );
    let text = std::fs::read_to_string(root.join("lint_budget.toml")).unwrap();
    let b = budget::parse(&text).unwrap();
    let diags = check_budget(&r, &b);
    assert!(diags.is_empty(), "budget drift: {diags:?}");
}
