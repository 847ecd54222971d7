//! Fixture registry: the only names the fixture workspace may use.

/// A registered metric name.
pub const APP_KNOWN: Name = Name("app.known");
/// A drift gauge: reached through `names::drift`, exempt by prefix.
pub const DRIFT_PLAN: Name = Name("costmodel.drift.plan");
/// Dead name: nothing outside this file references the constant.
pub const APP_DEAD: Name = Name("app.dead");
