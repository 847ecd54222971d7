//! How a run is reported: the one-line result the driver reads, the
//! table a person reads, and the `result.json` of a full set.

use crate::json::{number, quote};
use crate::ops::Kind;
use crate::run::Report;
use crate::spec::{self, END_TO_END, PER_LAYER};
use std::path::Path;

/// The last line of a run's standard output: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Every metric by name with its unit, for a person.
pub fn table(r: &Report) -> String {
    let mut out = format!(
        "# {} trace={} seed={} scale={}: attempted {} failed {}\n",
        r.workload,
        u8::from(r.trace),
        r.seed,
        r.scale,
        r.attempted,
        r.failed
    );
    for k in Kind::ALL {
        out.push_str(&format!(
            "#   samples {:<16} {}\n",
            k.name(),
            r.samples[k.idx()]
        ));
    }
    for m in &r.metrics {
        out.push_str(&format!("{:<40} {:>18.6} {}\n", m.name, m.value, m.unit));
    }
    out
}

/// One run as an entry of `result.json`: what the result line says plus
/// what the metric tables say about each metric.
pub fn fragment(r: &Report) -> String {
    let w = spec::workload(r.workload).expect("a report names a workload");
    let samples: Vec<String> = Kind::ALL
        .iter()
        .map(|k| format!("{}: {}", quote(k.name()), r.samples[k.idx()]))
        .collect();
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let (better, bound, exact, moves) = match (
                END_TO_END.iter().find(|e| e.name == m.name),
                PER_LAYER.iter().find(|p| p.name == m.name),
            ) {
                (Some(e), _) => (e.better, number(e.bound), false, ""),
                (None, Some(p)) => (p.better, "null".to_string(), p.exact, p.moves),
                (None, None) => unreachable!("run() only reports declared metrics"),
            };
            format!(
                "      {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}, \"exact\": {exact}, \"moves\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit),
                quote(better.word()),
                quote(moves)
            )
        })
        .collect();
    format!(
        "    {{\n      \"workload\": {}, \"trace\": {}, \"why\": {},\n      \"clients\": {}, \"seed\": {}, \"scale\": {},\n      \"correct\": {}, \"attempted\": {}, \"failed\": {},\n      \"samples\": {{{}}},\n      \"metrics\": {{\n  {}\n      }}\n    }}",
        quote(r.workload),
        u8::from(r.trace),
        quote(w.why),
        w.clients,
        r.seed,
        number(r.scale),
        r.correct(),
        r.attempted,
        r.failed,
        samples.join(", "),
        metrics.join(",\n  ")
    )
}

/// File name of a run's fragment under the output directory.
pub fn fragment_name(workload: &str, trace: bool) -> String {
    format!("run-{workload}-t{}.json", u8::from(trace))
}

/// The file-system type `dir` is on, from the kernel's mount table:
/// the entry with the longest mount point that is a prefix of `dir`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let Ok(table) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in table.lines() {
        // "... <mount point> <options> [optional...] - <fs type> <source> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() >= *n) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Assemble `result.json` in `out` from the fragments the set's runs
/// left there. Returns the text written.
pub fn merge(out: &Path, seed: u64, scale: f64, seconds: f64) -> Result<String, String> {
    let mut runs = Vec::new();
    for w in &spec::WORKLOADS {
        for trace in [false, true] {
            let path = out.join(fragment_name(w.name, trace));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e} (did the run finish?)", path.display()))?;
            runs.push(text.trim_end().to_string());
        }
    }
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let text = format!(
        "{{\n  \"benchmark\": \"fieldrep-benchmark\",\n  \"host\": {{\"nproc\": {nproc}, \"scratch_fs\": {}, \"rustc\": {}, \"git_commit\": {}, \"seed\": {seed}, \"scale\": {}, \"seconds\": {}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        quote(&fs_type(out)),
        quote(&env("BENCH_RUSTC")),
        quote(&env("BENCH_GIT_COMMIT")),
        number(scale),
        number(seconds),
        runs.join(",\n")
    );
    std::fs::write(out.join("result.json"), &text).map_err(|e| e.to_string())?;
    Ok(text)
}
