//! The little JSON the reports need: quoting and numbers. The reports
//! are written by concatenation; nothing here reads JSON back
//! (`compare.py` does).

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with all its digits. JSON has no NaN or
/// infinity; a metric that comes out as one is a harness bug, reported
/// as such rather than written as a made-up number.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "a metric came out as {v}");
    // `{}` prints the shortest text that parses back to the same f64.
    format!("{v}")
}
