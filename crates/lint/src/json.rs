//! JSONL rendering of lint results for `--json` (machine-readable
//! diagnostics: one object per line, like `obs`'s JSONL exporters).
//!
//! Schema per line:
//! `{"rule":"L6","file":"…","line":42,"msg":"…","suppressed":false}`
//!
//! Suppressed findings are included (with `"suppressed":true`) so
//! tooling can see what the reasoned allow markers are hiding; budget
//! comparison lines use rule `"budget"` like the text output.

use crate::rules::{Diagnostic, Report};

/// Render every diagnostic (live, suppressed, and budget) as JSONL.
pub fn render_jsonl(report: &Report, budget_diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in &report.diags {
        line(&mut out, d, false);
    }
    for d in &report.suppressed {
        line(&mut out, d, true);
    }
    for d in budget_diags {
        line(&mut out, d, false);
    }
    out
}

fn line(out: &mut String, d: &Diagnostic, suppressed: bool) {
    out.push_str("{\"rule\":");
    string(out, d.rule);
    out.push_str(",\"file\":");
    string(out, &d.file);
    out.push_str(&format!(",\"line\":{}", d.line));
    out.push_str(",\"msg\":");
    string(out, &d.msg);
    out.push_str(&format!(",\"suppressed\":{suppressed}}}\n"));
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}
