//! The closed metric-name set, percentiles and the result line.

use std::fmt::Write as _;

/// End-to-end metrics of an untraced run: name and unit. Every one is
/// non-zero on a healthy run; `fail_ratio` is printed beside them and
/// carried by the result line's `failed`/`attempted`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("admit_bidders_per_s", "1/s"),
    ("submit_ms.p50", "ms"),
    ("submit_ms.p99", "ms"),
    ("round_ms.p50", "ms"),
    ("round_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("wire_bytes_per_bidder", "bytes"),
];

/// Per-layer metrics of a traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("crypto.tag_ns", "ns"),
    ("ppbs.mask_ms.p50", "ms"),
    ("ppbs.remask_ms.p50", "ms"),
    ("ppbs.tags", "count"),
    ("ppbs.ns_per_tag", "ns"),
    ("wire.encode_ms.p50", "ms"),
    ("wire.ingest_ms.p50", "ms"),
    ("wire.frames_rejected", "count"),
    ("psd.classes_ms.p50", "ms"),
    ("graph.build_ms.p50", "ms"),
    ("graph.edges", "count"),
    ("graph.matrix_bytes", "bytes"),
    ("alloc.ms.p50", "ms"),
    ("alloc.select_calls", "count"),
    ("alloc.candidates_scanned", "count"),
    ("alloc.useful_ratio", "ratio"),
    ("ttp.charge_ms.p50", "ms"),
    ("ttp.opens", "count"),
    ("ttp.invalid_zero", "count"),
    ("engine.join_ms.p50", "ms"),
    ("engine.leave_ms.p50", "ms"),
    ("engine.revise_ms.p50", "ms"),
    ("engine.round_ms.p50", "ms"),
    ("engine.live", "count"),
    ("engine.index_entries", "count"),
    ("proc.cpu_util", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("self.ppbs_ms", "ms"),
    ("self.wire_ms", "ms"),
    ("self.engine_ms", "ms"),
    ("self.unexplained_ms", "ms"),
];

/// Samples a reported percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` of `samples`, refusing a percentile with
/// fewer than [`TAIL_SAMPLES`] samples beyond it.
///
/// # Errors
///
/// Names the shortfall.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + TAIL_SAMPLES {
        return Err(format!(
            "p{} from {n} samples leaves fewer than {TAIL_SAMPLES} beyond it",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample set, without the tail rule.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

/// Looks `name` up in `set` for its unit; panics on a name outside the
/// closed set, which would be a bug in this benchmark.
pub fn metric(
    set: &[(&'static str, &'static str)],
    name: &str,
    value: f64,
    samples: usize,
) -> Metric {
    let &(name, unit) = set
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"));
    Metric { name, unit, value, samples }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite JSON number (non-finite values print as 0).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Keys of a result line's `metrics` object, in order.
#[cfg(test)]
pub fn metric_keys(line: &str) -> Vec<String> {
    let body = line.split_once("\"metrics\": {").map(|(_, b)| b).unwrap_or("");
    body.split("}, ")
        .filter_map(|part| part.trim_start_matches(['{', ' ']).split_once("\": {"))
        .map(|(key, _)| key.trim_start_matches('"').to_string())
        .collect()
}
