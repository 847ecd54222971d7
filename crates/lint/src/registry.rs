//! Reading the central name registry (`obs::names`) with the lint
//! tokenizer, for the dead-name check: the `const` items of
//! `crates/obs/src/names.rs` that bind string values, with their lines.

use crate::tokens::{tokenize, TokKind};
use std::path::Path;

/// One `const` item binding string values: its line, identifier, and
/// every string literal in its initializer (one for a name, several for a
/// table).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstDef {
    /// 1-based line of the const's identifier.
    pub line: u32,
    /// The const's identifier.
    pub name: String,
    /// String literals in the initializer, in source order.
    pub values: Vec<String>,
}

/// All `const` items binding string values in a source file, with line
/// numbers — the dead-name check anchors its diagnostics here.
///
/// Matches `const NAME: … = Name("value");` and `const NAME: … = &["a",
/// "b"];` by scanning from each `const` keyword to the terminating `;`
/// and collecting every string literal in between.
pub fn const_defs(src: &str) -> Vec<ConstDef> {
    let toks = tokenize(src).toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("const") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            let mut values = Vec::new();
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct(";") {
                if toks[j].kind == TokKind::Str {
                    values.push(toks[j].text.clone());
                }
                j += 1;
            }
            if !values.is_empty() {
                out.push(ConstDef { line, name, values });
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// The registry's const definitions, for the dead-name check. Empty when
/// `crates/obs/src/names.rs` is absent (fixture trees without one).
pub fn registry_const_defs(root: &Path) -> Vec<ConstDef> {
    match std::fs::read_to_string(root.join("crates/obs/src/names.rs")) {
        Ok(src) => const_defs(&src),
        Err(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_defs_see_names_and_tables() {
        let src = r#"
            pub const A: Name = Name("x.y");
            pub const T: &[&str] = &["p", "q"];
            fn not_a_const() { let s = "ignored"; }
        "#;
        let got: Vec<(String, Vec<String>)> = const_defs(src)
            .into_iter()
            .map(|d| (d.name, d.values))
            .collect();
        assert_eq!(
            got,
            vec![
                ("A".to_string(), vec!["x.y".to_string()]),
                ("T".to_string(), vec!["p".to_string(), "q".to_string()]),
            ]
        );
    }

    #[test]
    fn const_defs_carry_the_identifier_line() {
        let src = "pub const A: &str = \"x\";\n\npub const T: &[&str] = &[\"p\"];\n";
        let got = const_defs(src);
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].line, got[0].name.as_str()), (1, "A"));
        assert_eq!((got[1].line, got[1].name.as_str()), (3, "T"));
    }
}
