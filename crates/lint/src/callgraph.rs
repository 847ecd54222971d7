//! Workspace-wide call graph with per-function guard-flow summaries.
//!
//! Built on the token stream: one linear pass per file extracts every
//! `fn` (with its `impl` owner) and the events inside its body — lock
//! acquisitions (from the declarative registry in [`crate::locks`]),
//! recognised blocking operations, and outgoing calls — each annotated
//! with the set of locks held at that point.
//!
//! Held-lock tracking models the shapes the codebase actually uses:
//! `let`-bound guards live to the end of their enclosing block (an
//! `if let`/`while let` binding lives for the following block),
//! `drop(guard)` releases early, and a guard that is only a temporary
//! in a larger expression (`self.core.lock().fetch(pid)`,
//! `self.inner.lock().appended`) is held to the end of the statement —
//! which is exactly long enough for the callee invoked through it to
//! run under the lock. A projection through `.unwrap()`/`.expect()` is
//! recognised as still being the guard.
//!
//! Summaries (`may_acquire`, `may_block`) propagate up the call graph
//! to a fixpoint. Calls resolve by name;
//! `self.f()` and `Type::f()` resolve through the impl owner, and a
//! short stoplist of std-collection method names (`insert`, `push`,
//! `get`, …) is excluded from cross-impl name merging — those names
//! are too common for receiver-blind resolution to be meaningful, and
//! the workspace's own hot mutators deliberately use distinctive names
//! (`rec_insert`, `wal_append`, `data_mut`) so they resolve precisely.

use crate::locks::{self, BlockClass, LockId};
use crate::tokens::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// One lock held at an event, with the line it was taken on.
#[derive(Debug, Clone)]
pub struct Held {
    /// Which registered lock.
    pub lock: LockId,
    /// Line of the acquisition.
    pub line: u32,
}

/// A lock acquisition inside a function body.
#[derive(Debug)]
pub struct AcquireEv {
    /// Which lock.
    pub lock: LockId,
    /// Source line.
    pub line: u32,
    /// Locks already held (before this one).
    pub held: Vec<Held>,
}

/// A recognised blocking operation.
#[derive(Debug)]
pub struct BlockEv {
    /// Blocking class.
    pub class: BlockClass,
    /// Diagnostic label.
    pub label: &'static str,
    /// Source line.
    pub line: u32,
    /// Locks held at the call.
    pub held: Vec<Held>,
}

/// An outgoing call.
#[derive(Debug)]
pub struct CallEv {
    /// Callee name.
    pub name: String,
    /// Source line.
    pub line: u32,
    /// Locks held at the call site.
    pub held: Vec<Held>,
    /// `self.name(..)` shape.
    pub self_call: bool,
    /// `Qual::name(..)` shape.
    pub qualifier: Option<String>,
    /// Resolved definition indices (filled by [`Graph::build`]).
    pub targets: Vec<usize>,
}

/// Where a summarised fact was observed, for diagnostics.
#[derive(Debug, Clone)]
pub struct Witness {
    /// File of the underlying event.
    pub file: String,
    /// Line of the underlying event.
    pub line: u32,
    /// What it was.
    pub label: String,
    /// Call chain it was inherited through, if not local.
    pub via: Option<String>,
}

/// One function with its events and fixpoint summaries.
#[derive(Debug)]
pub struct FnInfo {
    /// Bare function name.
    pub name: String,
    /// `impl` owner type, if any.
    pub owner: Option<String>,
    /// Workspace-relative file.
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Lock acquisitions.
    pub acquires: Vec<AcquireEv>,
    /// Blocking operations.
    pub blocks: Vec<BlockEv>,
    /// Outgoing calls.
    pub calls: Vec<CallEv>,
    /// Locks this function may blocking-acquire, transitively.
    pub may_acquire: BTreeMap<LockId, Witness>,
    /// Blocking classes reachable from this function.
    pub may_block: BTreeMap<BlockClass, Witness>,
}

/// The whole workspace graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All scanned functions.
    pub fns: Vec<FnInfo>,
}

/// std-collection method names excluded from receiver-blind (weak)
/// call resolution: merging every `map.insert(..)` into every
/// `impl`'s `insert` poisons the graph with false edges.
const WEAK_STOPLIST: &[&str] = &[
    "insert",
    "update",
    "delete",
    "remove",
    "get",
    "get_mut",
    "set",
    "push",
    "pop",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "append",
    "extend",
    "drain",
    "take",
    "replace",
    "clone",
    "next",
    "iter",
    "into_iter",
    "map",
    "filter",
    "fold",
    "read",
    "write",
    "lock",
    "try_lock",
    "unwrap",
    "expect",
    "new",
    "default",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "open",
    "close",
    "create",
    "flush",
    "sync",
    "send",
    "recv",
    "join",
    "spawn",
    "entry",
    "keys",
    "values",
    "count",
    "find",
    "position",
    "sort",
    "min",
    "max",
    "start",
    "end",
    "run",
    "sleep",
    "begin",
    "commit",
    "abort",
    "eq",
    "cmp",
    "hash",
    "fmt",
    "to_string",
    "to_vec",
    "split",
    "parse",
    "encode",
    "decode",
    "name",
    "id",
    "with",
    "init",
    "load",
    "store",
    "save",
    "tick",
    "reset",
    "record",
    "emit",
    "scan",
    "register",
    "stats",
    "wait",
    "notify",
    "observe",
    "drop",
    "add",
    "first",
    "last",
    "retain",
    "resize",
    "swap",
    "copy",
    "fill",
    "zip",
    "chain",
    "rev",
    "all",
    "any",
    "sum",
    "collect",
    "get_or_insert_with",
    // Storage delegation-chain names that exist at every layer
    // (DiskManager / PoolCore / BufferPool / StorageManager): weak
    // resolution would merge the whole tower into a cycle. The real
    // edges still resolve through owner hints and self-call owners.
    "drop_file",
    "page_count",
];

/// Keywords that look like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "as", "in", "move", "fn", "let", "pub",
    "impl", "use", "mod", "where", "unsafe", "async", "else", "break", "continue", "ref", "mut",
    "box", "dyn", "type", "const", "static", "trait", "enum", "struct",
];

/// A live guard in the scanner.
struct LiveGuard {
    lock: LockId,
    line: u32,
    name: Option<String>,
    depth: usize,
    transient: bool,
}

/// Per-open-function scanner state.
struct FnCtx {
    info: FnInfo,
    open_depth: usize,
    paren_depth: usize,
    guards: Vec<LiveGuard>,
    let_ctx: Option<(String, bool)>, // (binding name, is if/while-let)
}

impl FnCtx {
    fn held(&self) -> Vec<Held> {
        let mut out: Vec<Held> = Vec::new();
        for g in &self.guards {
            if !out.iter().any(|h| h.lock == g.lock) {
                out.push(Held {
                    lock: g.lock,
                    line: g.line,
                });
            }
        }
        out
    }
}

/// Scan one file's (test-stripped) tokens into function records.
pub fn scan_file(rel: &str, toks: &[Tok]) -> Vec<FnInfo> {
    let mut out: Vec<FnInfo> = Vec::new();
    let mut depth = 0usize;
    let mut impl_stack: Vec<(Option<String>, usize)> = Vec::new();
    let mut pending_impl: Option<Option<String>> = None;
    let mut fn_stack: Vec<FnCtx> = Vec::new();
    // Ident positions consumed by acquire/blocking pattern matches —
    // excluded from generic call detection.
    let mut no_call: BTreeSet<usize> = BTreeSet::new();
    // Call positions projected directly through a fresh lock guard:
    // `self.core.lock().fetch(pid)` resolves `fetch` against the
    // guard's deref target ([`locks::LockDef::owner_hint`]), not the
    // whole same-name family.
    let mut owner_hints: BTreeMap<usize, &'static str> = BTreeMap::new();

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // Structure: braces, impl blocks, fn signatures.
        if t.is_punct("{") {
            depth += 1;
            if let Some(owner) = pending_impl.take() {
                impl_stack.push((owner, depth));
            }
            if let Some(f) = fn_stack.last_mut() {
                f.guards.retain(|g| !g.transient);
                f.let_ctx = None;
            }
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            while impl_stack.last().is_some_and(|(_, d)| *d > depth) {
                impl_stack.pop();
            }
            while fn_stack.last().is_some_and(|f| f.open_depth > depth) {
                if let Some(done) = fn_stack.pop() {
                    out.push(done.info);
                }
            }
            if let Some(f) = fn_stack.last_mut() {
                f.guards.retain(|g| !g.transient && g.depth <= depth);
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            // Find the impl header's `{`, extract the owner type name.
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut for_at: Option<usize> = None;
            while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "for" if angle == 0 && toks[j].kind == TokKind::Ident => for_at = Some(j),
                    _ => {}
                }
                j += 1;
            }
            let from = for_at.map(|k| k + 1).unwrap_or(i + 1);
            let mut owner = None;
            let mut k = from;
            let mut skip_angle = 0i32;
            while k < j {
                let tk = &toks[k];
                if tk.is_punct("<") {
                    skip_angle += 1;
                } else if tk.is_punct(">") {
                    skip_angle -= 1;
                } else if skip_angle == 0
                    && tk.kind == TokKind::Ident
                    && !matches!(tk.text.as_str(), "mut" | "dyn")
                {
                    // Take the last path segment (`wal::Wal` → `Wal`).
                    if toks.get(k + 1).is_some_and(|n| n.is_punct("::")) {
                        k += 2;
                        continue;
                    }
                    owner = Some(tk.text.clone());
                    break;
                }
                k += 1;
            }
            pending_impl = Some(owner);
            i = j; // land on the `{` (or stray `;`)
            continue;
        }
        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            let name_tok = &toks[i + 1];
            // Skip generics, then the parameter list.
            let mut j = i + 2;
            if toks.get(j).is_some_and(|n| n.is_punct("<")) {
                let mut angle = 0i32;
                while j < toks.len() {
                    if toks[j].is_punct("<") {
                        angle += 1;
                    } else if toks[j].is_punct(">") {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if toks.get(j).is_some_and(|n| n.is_punct("(")) {
                let mut paren = 0i32;
                while j < toks.len() {
                    if toks[j].is_punct("(") {
                        paren += 1;
                    } else if toks[j].is_punct(")") {
                        paren -= 1;
                        if paren == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                j += 1; // step past the params' closing `)`
            }
            // Advance to the body `{` (skipping return type / where
            // clause) or a `;` (trait declaration — no body).
            let mut brace = None;
            let mut paren = 0i32;
            while j < toks.len() {
                let x = &toks[j];
                if x.is_punct("(") || x.is_punct("[") {
                    paren += 1;
                } else if x.is_punct(")") || x.is_punct("]") {
                    paren -= 1;
                } else if paren == 0 && x.is_punct("{") {
                    brace = Some(j);
                    break;
                } else if paren == 0 && x.is_punct(";") {
                    break;
                }
                j += 1;
            }
            if let Some(b) = brace {
                depth += 1;
                fn_stack.push(FnCtx {
                    info: FnInfo {
                        name: name_tok.text.clone(),
                        owner: impl_stack.last().and_then(|(o, _)| o.clone()),
                        file: rel.to_string(),
                        line: name_tok.line,
                        acquires: Vec::new(),
                        blocks: Vec::new(),
                        calls: Vec::new(),
                        may_acquire: BTreeMap::new(),
                        may_block: BTreeMap::new(),
                    },
                    open_depth: depth,
                    paren_depth: 0,
                    guards: Vec::new(),
                    let_ctx: None,
                });
                i = b + 1;
            } else {
                i = j + 1;
            }
            continue;
        }

        // Event extraction, only inside a function body.
        if let Some(f) = fn_stack.last_mut() {
            if t.is_punct("(") || t.is_punct("[") {
                f.paren_depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                f.paren_depth = f.paren_depth.saturating_sub(1);
            } else if t.is_punct(";") && f.paren_depth == 0 {
                f.guards.retain(|g| !g.transient);
                f.let_ctx = None;
            } else if t.is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                    j += 1;
                }
                let mut name = None;
                if let Some(n) = toks.get(j) {
                    if n.kind == TokKind::Ident {
                        if matches!(n.text.as_str(), "Some" | "Ok")
                            && toks.get(j + 1).is_some_and(|x| x.is_punct("("))
                        {
                            let mut k = j + 2;
                            if toks.get(k).is_some_and(|x| x.is_ident("mut")) {
                                k += 1;
                            }
                            name = toks
                                .get(k)
                                .filter(|x| x.kind == TokKind::Ident)
                                .map(|x| x.text.clone());
                        } else if !n.text.chars().next().is_some_and(char::is_uppercase) {
                            name = Some(n.text.clone());
                        }
                    }
                }
                let if_let = i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
                f.let_ctx = name.map(|n| (n, if_let));
            } else if t.is_ident("drop")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                && toks.get(i + 3).is_some_and(|n| n.is_punct(")"))
            {
                if let Some(v) = toks.get(i + 2) {
                    f.guards
                        .retain(|g| g.name.as_deref() != Some(v.text.as_str()));
                }
            }

            // Acquire patterns.
            if let Some((lock, pattern)) = locks::match_acquire(toks, i, rel) {
                let plen = pattern.toks.len();
                let held = f.held();
                let line = toks[i + plen - 2].line;
                f.info.acquires.push(AcquireEv { lock, line, held });
                for (k, txt) in toks[i..i + plen].iter().enumerate() {
                    if txt.kind == TokKind::Ident {
                        no_call.insert(i + k);
                    }
                }
                // Binding position: find the call's closing paren, skip
                // `.unwrap()`/`.expect(..)`/`?`, then check whether the
                // guard is projected through (temporary) or bound.
                let open = i + plen - 1;
                let mut k = open;
                let mut paren = 0i32;
                while k < toks.len() {
                    if toks[k].is_punct("(") {
                        paren += 1;
                    } else if toks[k].is_punct(")") {
                        paren -= 1;
                        if paren == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                k += 1;
                loop {
                    if toks.get(k).is_some_and(|x| x.is_punct("?")) {
                        k += 1;
                    } else if toks.get(k).is_some_and(|x| x.is_punct("."))
                        && toks
                            .get(k + 1)
                            .is_some_and(|x| x.is_ident("unwrap") || x.is_ident("expect"))
                        && toks.get(k + 2).is_some_and(|x| x.is_punct("("))
                    {
                        let mut p = 0i32;
                        k += 2;
                        while k < toks.len() {
                            if toks[k].is_punct("(") {
                                p += 1;
                            } else if toks[k].is_punct(")") {
                                p -= 1;
                                if p == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            k += 1;
                        }
                    } else {
                        break;
                    }
                }
                let projected = toks.get(k).is_some_and(|x| x.is_punct("."));
                if projected {
                    if let Some(hint) = locks::LOCKS[lock].owner_hint {
                        if toks.get(k + 1).is_some_and(|x| x.kind == TokKind::Ident)
                            && toks.get(k + 2).is_some_and(|x| x.is_punct("("))
                        {
                            owner_hints.insert(k + 1, hint);
                        }
                    }
                }
                // What a closure-taking call returns is no guard, and a
                // function passed by name runs during the call itself.
                let binding = f.let_ctx.clone().filter(|_| !projected && !pattern.closure);
                let closure_body = toks[open..k].iter().any(|t| t.is_punct("{"));
                match binding {
                    // Held inside the closure block that follows.
                    _ if pattern.closure && closure_body => f.guards.push(LiveGuard {
                        lock,
                        line,
                        name: None,
                        depth: depth + 1,
                        transient: false,
                    }),
                    Some((name, if_let)) => f.guards.push(LiveGuard {
                        lock,
                        line,
                        name: Some(name),
                        depth: if if_let { depth + 1 } else { depth },
                        transient: false,
                    }),
                    None => f.guards.push(LiveGuard {
                        lock,
                        line,
                        name: None,
                        depth,
                        transient: true,
                    }),
                }
                i += 1;
                continue;
            }
            // Blocking operations.
            if let Some(op) = locks::match_blocking(toks, i) {
                let op = &locks::BLOCKING_OPS[op];
                let held = f.held();
                let line = toks[i + op.toks.len() - 2].line;
                f.info.blocks.push(BlockEv {
                    class: op.class,
                    label: op.label,
                    line,
                    held,
                });
                for (k, txt) in toks[i..i + op.toks.len()].iter().enumerate() {
                    if txt.kind == TokKind::Ident {
                        no_call.insert(i + k);
                    }
                }
                i += 1;
                continue;
            }
            // Generic call detection.
            if t.kind == TokKind::Ident
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                && !no_call.contains(&i)
                && !t.text.chars().next().is_some_and(char::is_uppercase)
                && !KEYWORDS.contains(&t.text.as_str())
            {
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let (self_call, qualifier) = match prev {
                    Some(p) if p.is_punct(".") => {
                        let sc = i >= 2 && toks[i - 2].is_ident("self");
                        let q = owner_hints.get(&i).map(ToString::to_string);
                        (sc && q.is_none(), q)
                    }
                    Some(p) if p.is_punct("::") => {
                        let q = i
                            .checked_sub(2)
                            .map(|p| &toks[p])
                            .filter(|x| x.kind == TokKind::Ident)
                            .map(|x| x.text.clone());
                        (false, q)
                    }
                    _ => (false, None),
                };
                // `fn` defs never reach here (signatures are skipped),
                // so this is a genuine call expression.
                f.info.calls.push(CallEv {
                    name: t.text.clone(),
                    line: t.line,
                    held: f.held(),
                    self_call: self_call || qualifier.as_deref() == Some("Self"),
                    qualifier: qualifier.filter(|q| q != "Self"),
                    targets: Vec::new(),
                });
            }
        }
        i += 1;
    }
    while let Some(done) = fn_stack.pop() {
        out.push(done.info);
    }
    out
}

impl Graph {
    /// Resolve calls and run the summary fixpoint.
    pub fn build(mut fns: Vec<FnInfo>) -> Graph {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(idx);
            if let Some(o) = &f.owner {
                by_owner_name
                    .entry((o.clone(), f.name.clone()))
                    .or_default()
                    .push(idx);
            }
        }
        #[allow(clippy::needless_range_loop)] // `fi` also filters self-edges below
        for fi in 0..fns.len() {
            let owner = fns[fi].owner.clone();
            let mut resolved: Vec<Vec<usize>> = Vec::with_capacity(fns[fi].calls.len());
            for call in &fns[fi].calls {
                let name = &call.name;
                let targets: Vec<usize> = if let Some(q) = &call.qualifier {
                    by_owner_name
                        .get(&(q.clone(), name.clone()))
                        .cloned()
                        .or_else(|| by_name.get(name).filter(|v| v.len() == 1).cloned())
                        .unwrap_or_default()
                } else if call.self_call {
                    owner
                        .as_ref()
                        .and_then(|o| by_owner_name.get(&(o.clone(), name.clone())))
                        .cloned()
                        .or_else(|| {
                            if WEAK_STOPLIST.contains(&name.as_str()) {
                                None
                            } else {
                                by_name.get(name).cloned()
                            }
                        })
                        .unwrap_or_default()
                } else if WEAK_STOPLIST.contains(&name.as_str()) {
                    Vec::new()
                } else {
                    by_name.get(name).cloned().unwrap_or_default()
                };
                resolved.push(targets.into_iter().filter(|t| *t != fi).collect());
            }
            for (call, targets) in fns[fi].calls.iter_mut().zip(resolved) {
                call.targets = targets;
            }
        }

        // Fixpoint: local events seed the summaries, call edges merge
        // callee summaries (Jacobi-style against a per-pass snapshot).
        for f in fns.iter_mut() {
            for ev in &f.acquires {
                f.may_acquire.entry(ev.lock).or_insert(Witness {
                    file: f.file.clone(),
                    line: ev.line,
                    label: locks::LOCKS[ev.lock].name.to_string(),
                    via: None,
                });
            }
            for ev in &f.blocks {
                f.may_block.entry(ev.class).or_insert(Witness {
                    file: f.file.clone(),
                    line: ev.line,
                    label: ev.label.to_string(),
                    via: None,
                });
            }
        }
        type Summary = (BTreeMap<LockId, Witness>, BTreeMap<BlockClass, Witness>);
        for _pass in 0..64 {
            let snapshot: Vec<Summary> = fns
                .iter()
                .map(|f| (f.may_acquire.clone(), f.may_block.clone()))
                .collect();
            let mut changed = false;
            #[allow(clippy::needless_range_loop)] // mutates fns[fi] after reading it
            for fi in 0..fns.len() {
                let mut add_acq: Vec<(LockId, Witness)> = Vec::new();
                let mut add_blk: Vec<(BlockClass, Witness)> = Vec::new();
                for call in &fns[fi].calls {
                    for &ti in &call.targets {
                        let (acq, blk) = &snapshot[ti];
                        for (l, w) in acq {
                            if !fns[fi].may_acquire.contains_key(l) {
                                add_acq.push((*l, inherit(w, &call.name)));
                            }
                        }
                        for (c, w) in blk {
                            if !fns[fi].may_block.contains_key(c) {
                                add_blk.push((*c, inherit(w, &call.name)));
                            }
                        }
                    }
                }
                let f = &mut fns[fi];
                for (l, w) in add_acq {
                    if f.may_acquire.insert(l, w).is_none() {
                        changed = true;
                    }
                }
                for (c, w) in add_blk {
                    if f.may_block.insert(c, w).is_none() {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Graph { fns }
    }
}

/// Re-anchor a witness one call-hop further from its event.
fn inherit(w: &Witness, via: &str) -> Witness {
    let chain = match &w.via {
        Some(rest) if rest.len() < 120 => format!("{via} → {rest}"),
        Some(rest) => rest.clone(),
        None => via.to_string(),
    };
    Witness {
        file: w.file.clone(),
        line: w.line,
        label: w.label.clone(),
        via: Some(chain),
    }
}
