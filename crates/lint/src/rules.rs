//! The rule engine: L1 layering, L2 dead names, L3 panic budget —
//! token-pattern checks over library sources — plus the
//! interprocedural pass for L5 lock order and L6 blocking under a lock
//! (see [`crate::callgraph`] and [`crate::locks`]).
//!
//! Scope: `crates/*/src/**/*.rs` and the root crate's `src/**/*.rs`,
//! minus `src/bin/` binaries and `#[cfg(test)]` modules. A finding on a
//! line covered by a `// lint: allow(<rule>) <reason>` marker (same line
//! or the line above) is suppressed; markers without a reason are
//! themselves errors, and the total marker count ratchets through
//! `lint_budget.toml` alongside the panic counts.

use crate::budget::Budget;
use crate::callgraph;
use crate::locks;
use crate::registry::registry_const_defs;
use crate::tokens::{tokenize, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// One finding, in rustc style: `file:line: error[rule]: message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`L1`, `L2`, `L5`, `L6`, `suppression`, `budget`).
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Rule violations (budget comparison is separate — see
    /// [`check_budget`]).
    pub diags: Vec<Diagnostic>,
    /// Panic-site count per crate dir (L3 raw counts).
    pub panic_counts: BTreeMap<String, u64>,
    /// Total `// lint: allow(..)` markers seen.
    pub suppressions: u64,
    /// Findings silenced by a reasoned allow marker.
    pub suppressed: Vec<Diagnostic>,
}

/// A parsed suppression marker.
struct Allow {
    line: u32,
    rule: String,
    has_reason: bool,
}

/// Rules L1/L2 fire as diagnostics; L3 only counts. `DiskManager` page
/// I/O and raw file APIs are the layering surface.
const DISK_METHODS: [&str; 4] = ["read_page", "read_pages", "write_page", "write_pages"];
/// Raw `WalStore` methods: the log's framing, fsync, and truncation
/// surface. Deliberately distinctive names so call sites are greppable.
const WAL_STORE_METHODS: [&str; 7] = [
    "wal_append",
    "wal_sync",
    "wal_read_all",
    "wal_truncate",
    "wal_len",
    "wal_syncer",
    "wal_sync_now",
];
/// The only directory allowed to touch the raw log store (L1, WAL half).
const WAL_DIR: &str = "crates/storage/src/wal";
/// Where the obs name registry lives; its own consts don't count as
/// usages of themselves.
const NAMES_FILE: &str = "crates/obs/src/names.rs";
/// Prefix of the drift gauge family — its consts are reached through
/// `names::drift(metric)` rather than by identifier, and the query
/// layer's tests pin them to the cost model's metrics instead.
const DRIFT_PREFIX: &str = "costmodel.drift.";

/// Run all checks over the workspace at `root`.
pub fn run_checks(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    // Ident usages outside the registry file itself, for the dead-name
    // check — tests count as usages, so collect before stripping.
    let mut used_idents: BTreeSet<String> = BTreeSet::new();
    // Pass-1 collection for the interprocedural L5/L6 pass.
    let mut all_fns: Vec<callgraph::FnInfo> = Vec::new();
    let mut allow_map: BTreeMap<String, Vec<Allow>> = BTreeMap::new();

    for file in source_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let crate_key = crate_key(&rel);
        let src = std::fs::read_to_string(&file)?;
        let parsed = tokenize(&src);
        if rel != NAMES_FILE {
            used_idents.extend(
                parsed
                    .toks
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone()),
            );
        }
        let toks = strip_test_modules(parsed.toks);
        let allows: Vec<Allow> = parsed
            .comments
            .iter()
            .filter_map(|c| parse_allow(c.text.as_str(), c.line))
            .collect();
        report.suppressions += allows.len() as u64;
        for a in &allows {
            if !a.has_reason {
                report.diags.push(Diagnostic {
                    file: rel.clone(),
                    line: a.line,
                    rule: "suppression",
                    msg: format!(
                        "`lint: allow({})` must carry a reason after the rule name",
                        a.rule
                    ),
                });
            }
        }

        let mut push = |line: u32, rule: &'static str, msg: String| {
            let suppressed = allows
                .iter()
                .any(|a| a.rule == rule && a.has_reason && (a.line == line || a.line + 1 == line));
            let diag = Diagnostic {
                file: rel.clone(),
                line,
                rule,
                msg,
            };
            if suppressed {
                report.suppressed.push(diag);
            } else {
                report.diags.push(diag);
            }
        };

        if crate_key != "crates/storage" && crate_key != "crates/lint" {
            check_layering(&toks, &mut push);
        }
        if crate_key != "crates/lint" && !rel.starts_with(WAL_DIR) {
            check_wal_confinement(&toks, &mut push);
        }
        *report.panic_counts.entry(crate_key.clone()).or_insert(0) += count_panics(&toks);
        if crate_key != "crates/lint" {
            all_fns.extend(callgraph::scan_file(&rel, &toks));
        }
        allow_map.insert(rel, allows);
    }
    // Pass 2: resolve the call graph, run the summary fixpoint, and
    // check lock order (L5) and blocking under a lock (L6) — suppression
    // markers apply at the anchor line.
    let graph = callgraph::Graph::build(all_fns);
    for diag in locks::check_lockflow(&graph) {
        let suppressed = allow_map.get(&diag.file).is_some_and(|allows| {
            allows.iter().any(|a| {
                a.rule == diag.rule
                    && a.has_reason
                    && (a.line == diag.line || a.line + 1 == diag.line)
            })
        });
        if suppressed {
            report.suppressed.push(diag);
        } else {
            report.diags.push(diag);
        }
    }
    check_dead_names(root, &used_idents, &mut report.diags);

    report
        .diags
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
        .suppressed
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Compare a report against the committed budget: counts may only match
/// exactly — higher is a regression, lower means the ratchet is stale.
pub fn check_budget(report: &Report, budget: &Budget) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut keys: Vec<&String> = report.panic_counts.keys().collect();
    for k in budget.panic_budget.keys() {
        if !report.panic_counts.contains_key(k) {
            keys.push(k);
        }
    }
    keys.sort();
    keys.dedup();
    for key in keys {
        let actual = report.panic_counts.get(key).copied().unwrap_or(0);
        let allowed = budget.panic_budget.get(key).copied().unwrap_or(0);
        if actual > allowed {
            diags.push(budget_diag(format!(
                "{key}: {actual} panic site(s) in library code, budget allows {allowed} — \
                 return an Err instead, or justify raising the budget in review"
            )));
        } else if actual < allowed {
            diags.push(budget_diag(format!(
                "{key}: budget allows {allowed} panic site(s) but only {actual} remain — \
                 ratchet down (run `cargo run -p fieldrep-lint -- --update-budget`)"
            )));
        }
    }
    if report.suppressions > budget.suppressions {
        diags.push(budget_diag(format!(
            "{} lint suppression(s) in tree, budget allows {} — remove markers or justify \
             raising the budget in review",
            report.suppressions, budget.suppressions
        )));
    } else if report.suppressions < budget.suppressions {
        diags.push(budget_diag(format!(
            "suppression budget allows {} but only {} remain — ratchet down",
            budget.suppressions, report.suppressions
        )));
    }
    diags
}

fn budget_diag(msg: String) -> Diagnostic {
    Diagnostic {
        file: "lint_budget.toml".into(),
        line: 1,
        rule: "budget",
        msg,
    }
}

/// `// lint: allow(L1) reads its own sidecar file` → marker.
fn parse_allow(text: &str, line: u32) -> Option<Allow> {
    let rest = text.trim().strip_prefix("lint:")?.trim();
    let rest = rest.strip_prefix("allow(")?;
    let (rule, reason) = rest.split_once(')')?;
    Some(Allow {
        line,
        rule: rule.trim().to_string(),
        has_reason: !reason.trim().is_empty(),
    })
}

/// All library sources: `crates/*/src/**` plus the root `src/**`,
/// excluding `bin/` subtrees.
fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                walk(&src, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue; // binaries are outside the library lint scope
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `crates/query/src/exec.rs` → `crates/query`; root `src/lib.rs` → `src`.
fn crate_key(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.first() == Some(&"crates") && parts.len() > 1 {
        format!("crates/{}", parts[1])
    } else {
        "src".to_string()
    }
}

/// Remove `#[cfg(test)] mod … { … }` blocks from the token stream.
fn strip_test_modules(toks: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        let is_cfg_test =
            toks[i].is_punct("#") && matches(&toks, i + 1, &["[", "cfg", "(", "test", ")", "]"]);
        if is_cfg_test {
            // Skip to the `mod` item's body (or `;` for out-of-line mods).
            let mut j = i + 7;
            while j < toks.len() && !toks[j].is_ident("mod") && !toks[j].is_punct(";") {
                j += 1;
            }
            while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct("{") {
                let mut depth = 1;
                j += 1;
                while j < toks.len() && depth > 0 {
                    if toks[j].is_punct("{") {
                        depth += 1;
                    } else if toks[j].is_punct("}") {
                        depth -= 1;
                    }
                    j += 1;
                }
            }
            i = j.max(i + 1);
        } else {
            out.push(toks[i].clone());
            i += 1;
        }
    }
    out
}

/// Does `toks[at..]` start with these texts (idents or puncts)?
fn matches(toks: &[Tok], at: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, t)| toks.get(at + k).is_some_and(|tok| tok.text == *t))
}

/// L1: `DiskManager` page I/O and raw file I/O stay inside
/// `crates/storage` — everything else goes through the buffer pool, or
/// the paper's Fig. 12/14 I/O accounting silently loses pages.
fn check_layering(toks: &[Tok], push: &mut impl FnMut(u32, &'static str, String)) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "std" if matches(toks, i + 1, &["::", "fs"]) => push(
                    t.line,
                    "L1",
                    "raw file I/O (`std::fs`) outside crates/storage — all page I/O must \
                     flow through the buffer pool"
                        .into(),
                ),
                "File" if matches(toks, i + 1, &["::", "open"]) => push(
                    t.line,
                    "L1",
                    "raw `File::open` outside crates/storage — open data through \
                     StorageManager/HeapFile instead"
                        .into(),
                ),
                "OpenOptions" => push(
                    t.line,
                    "L1",
                    "raw `OpenOptions` outside crates/storage".into(),
                ),
                "DiskManager"
                    if toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                        && toks
                            .get(i + 2)
                            .is_some_and(|n| DISK_METHODS.contains(&n.text.as_str())) =>
                {
                    push(
                        t.line,
                        "L1",
                        format!(
                            "`DiskManager::{}` outside crates/storage bypasses buffer-pool \
                             accounting",
                            toks[i + 2].text
                        ),
                    );
                }
                _ => {}
            }
        }
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && DISK_METHODS.contains(&n.text.as_str())
            })
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            push(
                toks[i + 1].line,
                "L1",
                format!(
                    "`.{}()` call outside crates/storage bypasses buffer-pool accounting",
                    toks[i + 1].text
                ),
            );
        }
    }
}

/// L1 (WAL half): raw [`WalStore`] access (`.wal_append(` …) stays
/// inside `crates/storage/src/wal` — everywhere else goes through the
/// `Wal` front end (or the recovery entry point), whose group-commit
/// coalescing, LSN assignment, and record framing a direct store call
/// would bypass.
fn check_wal_confinement(toks: &[Tok], push: &mut impl FnMut(u32, &'static str, String)) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct(".")
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && WAL_STORE_METHODS.contains(&n.text.as_str())
            })
            && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
        {
            push(
                toks[i + 1].line,
                "L1",
                format!(
                    "`.{}()` (raw WAL store access) outside crates/storage/src/wal — go \
                     through the `Wal` front end so commits keep their LSN and fsync \
                     accounting",
                    toks[i + 1].text
                ),
            );
        }
    }
}

/// L2 (dead names): every name const in `obs::names` must have a call
/// site — an identifier usage in some other library source, tests
/// included. A name nothing references is untested vocabulary: it rots
/// silently until someone "reuses" it with different semantics. (That a
/// name is registered at all is the compiler's job: obs APIs take an
/// `obs::Name`, which only `names.rs` can make.)
///
/// Exemptions: prefix consts (value ends in `.`) and the
/// `costmodel.drift.*` family (see [`DRIFT_PREFIX`]).
fn check_dead_names(root: &Path, used_idents: &BTreeSet<String>, diags: &mut Vec<Diagnostic>) {
    for def in registry_const_defs(root) {
        let [value] = def.values.as_slice() else {
            continue;
        };
        if value.ends_with('.') || value.starts_with(DRIFT_PREFIX) {
            continue;
        }
        if !used_idents.contains(&def.name) {
            diags.push(Diagnostic {
                file: NAMES_FILE.into(),
                line: def.line,
                rule: "L2",
                msg: format!(
                    "dead name: const `{}` ({value:?}) has no call site outside \
                     obs::names — wire it up or remove it",
                    def.name
                ),
            });
        }
    }
}

/// L3: count panic sites (`.unwrap(`, `.expect(`, `panic!`,
/// `unreachable!`) in library code.
fn count_panics(toks: &[Tok]) -> u64 {
    let mut n = 0;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct(".")
            && toks
                .get(i + 1)
                .is_some_and(|x| x.is_ident("unwrap") || x.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|x| x.is_punct("("))
        {
            n += 1;
        }
        if (t.is_ident("panic") || t.is_ident("unreachable"))
            && toks.get(i + 1).is_some_and(|x| x.is_punct("!"))
        {
            n += 1;
        }
    }
    n
}
