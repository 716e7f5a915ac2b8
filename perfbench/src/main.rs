//! The LPPA repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-churn --seed 1 --seconds 55 --trace 0
//! ```
//!
//! One process runs one workload as a closed loop and prints a context
//! line, a human-readable metric table and, last, one JSON result line.
//! `--trace 0` reports the end-to-end metrics of an untraced run.
//! `--trace 1` traces every other round, reports per-layer metrics from
//! the traced rounds and writes their spans to `perfbench/out/`. Either
//! way a second, short pass replays the seed in the other trace mode,
//! and the process exits 1 if a correctness gate fails (see
//! `README.md`).

mod drive;
mod report;
mod spec;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use drive::{Pass, PassResult, Stop, Trace, FINGERPRINT_ROUNDS};
use report::{metric, percentile, Metric, END_TO_END, PER_LAYER};
use spec::Workload;
use trace::Site;

const USAGE: &str = "usage: perfbench --workload <paper-churn|dense-area> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// Worker threads (`LPPA_THREADS`) and shards (`LPPA_SHARDS`), capped
/// at the machine's parallelism.
const THREADS: usize = 2;
/// Setup repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Sample floors: ten samples beyond p90 of rounds and p99 of
/// submissions, and beyond the p50 of every traced layer and of both
/// halves of an alternating traced run.
const ROUND_FLOOR: usize = 100;
const SUBMIT_FLOOR: usize = 1000;
const TRACED_FLOOR: usize = 40;
/// A pass still short of its floors after this long fails.
const CAP_S: f64 = 120.0;
/// Composed-phase probes of a resident workload's final state.
const PROBE_REPS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    spec::workload(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(nproc);
    // Pinned before any engine call reads them (both are cached on
    // first use).
    std::env::set_var("LPPA_THREADS", threads.to_string());
    std::env::set_var("LPPA_SHARDS", threads.to_string());

    let stop = Stop::Deadline {
        seconds: args.seconds,
        min_rounds: if args.traced { TRACED_FLOOR } else { ROUND_FLOOR },
        min_submits: if args.traced { TRACED_FLOOR } else { SUBMIT_FLOOR },
        admissions: if args.traced { 1 } else { args.workload.admissions },
        cap: CAP_S,
    };
    let bench = measure(&args.workload, args.seed, args.traced, stop);

    let mut context = bench.context.clone();
    let _ = write!(
        context,
        ", \"nproc\": {nproc}, \"threads\": {threads}, \"shards\": {threads}, \
         \"sha_lanes\": {}, \"cpu_features\": \"{}\", \"seconds\": {}}}}}",
        lppa_crypto::lanes::lane_width(),
        lppa_crypto::lanes::cpu_features(),
        args.seconds
    );
    println!("{context}");
    for line in &bench.table {
        println!("# {line}");
    }
    for m in &bench.mismatches {
        println!("# GATE FAILED: {m}");
    }
    if args.traced {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload.name, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &bench.spans)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
    }
    let correct = bench.mismatches.is_empty() && bench.failed == 0;
    println!("{}", report::result_line(correct, bench.attempted, bench.failed, &bench.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Everything one benchmark process reports.
struct Bench {
    /// The context line, left open for the caller's machine fields.
    context: String,
    table: Vec<String>,
    metrics: Vec<Metric>,
    mismatches: Vec<String>,
    attempted: u64,
    failed: u64,
    spans: String,
}

/// Sets up, runs the primary pass under `stop` and the replay pass in
/// the other trace mode, checks the gates and assembles the metrics.
fn measure(w: &Workload, seed: u64, traced: bool, stop: Stop) -> Bench {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        setup = Some(spec::setup(w, seed, 0));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one setup");

    // A traced run alternates traced and untraced rounds; either way the
    // replay repeats the seed with the other mode on every round.
    let (trace, replay_trace) =
        if traced { (Trace::Alternate, Trace::Off) } else { (Trace::Off, Trace::On) };
    let probe_reps = if traced { PROBE_REPS } else { 0 };
    let primary = drive::run(w, seed, &setup, Pass { trace, stop, gates: true, probe_reps });
    let peak_rss_mb = peak_rss_mb();
    let replay = drive::run(
        w,
        seed,
        &setup,
        Pass {
            trace: replay_trace,
            stop: Stop::Rounds(FINGERPRINT_ROUNDS),
            gates: false,
            probe_reps: 0,
        },
    );

    let mut mismatches: Vec<String> =
        primary.mismatches.iter().chain(&replay.mismatches).cloned().collect();
    if primary.fingerprint != replay.fingerprint {
        mismatches.push(format!(
            "fingerprint {:#018x} of the measured pass differs from {:#018x} of its replay \
             in the other trace mode",
            primary.fingerprint, replay.fingerprint
        ));
    }
    let traced_pass = if traced { &primary } else { &replay };

    // Tags per full submission, and masking cost per tag: the ratio to
    // the kernel floor is tracked in the context line.
    let tags = traced_pass.counters.mask_tags as f64 / traced_pass.counters.masked.max(1) as f64;
    let mask = traced_pass.tracer.durations_ms(Site::Mask, Site::Round);
    let ns_per_tag = if mask.is_empty() { 0.0 } else { report::median(&mask) * 1e6 / tags };

    let set: &'static [(&'static str, &'static str)] =
        if traced { &PER_LAYER } else { &END_TO_END };
    let mut m = Metrics { set, out: Vec::new(), table: Vec::new(), errors: Vec::new() };
    if traced {
        m.per_layer(&primary, setup.tag_ns, ns_per_tag);
    } else {
        m.end_to_end(&primary, &setup_s, peak_rss_mb);
    }
    let failed = (primary.failures.len() + replay.failures.len()) as u64;
    let attempted = primary.attempted + replay.attempted;
    m.table.push(format!(
        "fail_ratio {} ratio ({failed} of {attempted} operations)",
        report::number(failed as f64 / attempted.max(1) as f64)
    ));
    for f in primary.failures.iter().chain(&replay.failures).take(10) {
        m.table.push(format!("failure: {f}"));
    }
    mismatches.append(&mut m.errors);

    let context = format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"channels\": {}, \
         \"areas\": {}, \"bidders\": {}, \"churn\": {}, \"rounds\": {}, \"replay_rounds\": {}, \
         \"fingerprint\": \"{:#018x}\", \"tag_ns\": {}, \
         \"ns_per_tag\": {}, \"ns_per_tag_over_tag_ns\": {}",
        w.name,
        u8::from(traced),
        w.channels,
        w.areas,
        w.bidders,
        w.churn,
        primary.rounds,
        replay.rounds,
        primary.fingerprint,
        report::number(setup.tag_ns),
        report::number(ns_per_tag),
        report::number(ns_per_tag / setup.tag_ns),
    );
    Bench {
        context,
        table: m.table,
        metrics: m.out,
        mismatches,
        attempted,
        failed,
        spans: if traced { primary.tracer.to_jsonl() } else { String::new() },
    }
}

/// Metric assembly over one closed name set.
struct Metrics {
    set: &'static [(&'static str, &'static str)],
    out: Vec<Metric>,
    table: Vec<String>,
    errors: Vec<String>,
}

impl Metrics {
    fn push(&mut self, name: &str, value: f64, samples: usize) {
        let m = metric(self.set, name, value, samples);
        self.table.push(format!(
            "{} {} {} (n={})",
            m.name,
            report::number(m.value),
            m.unit,
            m.samples
        ));
        self.out.push(m);
    }

    /// A percentile under the tail rule.
    fn pct(&mut self, name: &str, samples: &[f64], q: f64) {
        match percentile(samples, q) {
            Ok(v) => self.push(name, v, samples.len()),
            Err(e) => {
                self.errors.push(format!("{name}: {e}"));
                self.push(name, 0.0, samples.len());
            }
        }
    }

    fn end_to_end(&mut self, p: &PassResult, setup_s: &[f64], peak_rss_mb: f64) {
        self.push("setup_s", report::median(setup_s), setup_s.len());
        self.push("admit_bidders_per_s", report::median(&p.admit_per_s), p.admit_per_s.len());
        self.pct("submit_ms.p50", &p.submit_ms, 0.50);
        self.pct("submit_ms.p99", &p.submit_ms, 0.99);
        self.pct("round_ms.p50", &p.round_ms, 0.50);
        self.pct("round_ms.p90", &p.round_ms, 0.90);
        self.push("peak_rss_mb", peak_rss_mb, 1);
        self.push(
            "wire_bytes_per_bidder",
            p.frame_bytes as f64 / p.frames.max(1) as f64,
            p.frames as usize,
        );
    }

    fn per_layer(&mut self, p: &PassResult, tag_ns: f64, ns_per_tag: f64) {
        let tr = &p.tracer;
        let c = p.counters;
        // Whole auctions run inside `run_round_in`; the final-state probes
        // time their phases.
        let per_auction = |v: u64| v as f64 / c.auctions.max(1) as f64;
        let n_auctions = c.auctions as usize;

        self.push("crypto.tag_ns", tag_ns, 1);
        let mask = tr.durations_ms(Site::Mask, Site::Round);
        self.pct("ppbs.mask_ms.p50", &mask, 0.5);
        self.pct("ppbs.remask_ms.p50", &tr.durations_ms(Site::Remask, Site::Round), 0.5);
        self.push("ppbs.tags", c.mask_tags as f64 / c.masked.max(1) as f64, c.masked as usize);
        self.push("ppbs.ns_per_tag", ns_per_tag, mask.len());
        self.pct("wire.encode_ms.p50", &tr.durations_ms(Site::Encode, Site::Round), 0.5);
        self.pct("wire.ingest_ms.p50", &tr.durations_ms(Site::Ingest, Site::Round), 0.5);
        self.push("wire.frames_rejected", c.frames_rejected as f64, p.frames as usize);
        self.pct("psd.classes_ms.p50", &tr.durations_ms(Site::Classes, Site::Probe), 0.5);
        self.pct("graph.build_ms.p50", &tr.durations_ms(Site::Graph, Site::Probe), 0.5);
        self.push("graph.edges", per_auction(c.edges), n_auctions);
        self.push("graph.matrix_bytes", per_auction(c.matrix_bytes), n_auctions);
        self.pct("alloc.ms.p50", &tr.durations_ms(Site::Alloc, Site::Probe), 0.5);
        self.push("alloc.select_calls", per_auction(c.select_calls), n_auctions);
        self.push("alloc.candidates_scanned", per_auction(c.candidates_scanned), n_auctions);
        self.push("alloc.useful_ratio", c.valid as f64 / c.grants.max(1) as f64, c.grants as usize);
        self.pct("ttp.charge_ms.p50", &tr.durations_ms(Site::Charge, Site::Probe), 0.5);
        self.push("ttp.opens", per_auction(c.ttp_opens), n_auctions);
        self.push("ttp.invalid_zero", per_auction(c.invalid_zero), n_auctions);
        self.pct("engine.join_ms.p50", &tr.durations_ms(Site::Join, Site::Round), 0.5);
        self.pct("engine.leave_ms.p50", &tr.durations_ms(Site::Leave, Site::Round), 0.5);
        self.pct("engine.revise_ms.p50", &tr.durations_ms(Site::Revise, Site::Round), 0.5);
        self.pct("engine.round_ms.p50", &tr.durations_ms(Site::EngineRound, Site::Round), 0.5);
        self.push("engine.live", c.live as f64, 1);
        self.push("engine.index_entries", c.index_entries as f64, 1);
        self.push("proc.cpu_util", p.cpu_s / p.wall_s, 1);

        let split = |traced: bool| -> Vec<f64> {
            p.round_ms
                .iter()
                .zip(&p.round_traced)
                .filter(|(_, &t)| t == traced)
                .map(|(&v, _)| v)
                .collect()
        };
        let (on, off) = (split(true), split(false));
        match (percentile(&on, 0.5), percentile(&off, 0.5)) {
            (Ok(a), Ok(b)) => self.push("trace.overhead_ratio", a / b, on.len().min(off.len())),
            (Err(e), _) | (_, Err(e)) => {
                self.errors.push(format!("trace.overhead_ratio: {e}"));
                self.push("trace.overhead_ratio", 0.0, 0);
            }
        }

        let (layers, unexplained, rounds) = tr.self_times();
        let per_round = |v: f64| v / rounds.max(1) as f64;
        let total: f64 = layers.iter().map(|&(_, v)| v).sum::<f64>() + unexplained;
        for (layer, v) in &layers {
            self.push(&format!("self.{}_ms", layer.name()), per_round(*v), rounds);
        }
        self.push("self.unexplained_ms", per_round(unexplained), rounds);
        let mut shares: Vec<(f64, &str)> =
            layers.iter().map(|&(l, v)| (v / total.max(f64::MIN_POSITIVE), l.name())).collect();
        shares.push((unexplained / total.max(f64::MIN_POSITIVE), "unexplained"));
        shares.sort_by(|a, b| b.0.total_cmp(&a.0));
        let line: Vec<String> =
            shares.iter().map(|(s, n)| format!("{n} {:.1}%", s * 100.0)).collect();
        self.table.push(format!("self time per round by layer: {}", line.join(", ")));
    }
}

/// `VmHWM` of this process in MiB, from `/proc/self/status` (0 where
/// that file is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Counters, Span};

    const CHURN: Workload = Workload {
        name: "paper-churn",
        channels: 6,
        areas: 2,
        bidders: 40,
        churn: 0.2,
        admissions: 3,
    };
    const DENSE: Workload = Workload {
        name: "dense-area",
        channels: 2,
        areas: 1,
        bidders: 120,
        churn: 0.1,
        admissions: 3,
    };

    fn pass(w: &Workload, key_salt: u64, trace: Trace) -> PassResult {
        let setup = spec::setup(w, 7, key_salt);
        let probe_reps = if trace == Trace::Off { 0 } else { 2 };
        drive::run(w, 7, &setup, Pass { trace, stop: Stop::Rounds(3), gates: true, probe_reps })
    }

    /// Span identity without timing: site, parent site and round.
    fn span_multiset(spans: &[Span]) -> Vec<(Site, Option<Site>, u32)> {
        let mut set: Vec<_> = spans
            .iter()
            .map(|s| (s.site, spans.get(s.parent as usize).map(|p| p.site), s.round))
            .collect();
        set.sort();
        set
    }

    #[test]
    fn rotating_the_ttp_master_secret_moves_no_counter_or_span() {
        for w in [CHURN, DENSE] {
            let (a, b) = (pass(&w, 0, Trace::Alternate), pass(&w, 1, Trace::Alternate));
            assert!(a.failures.is_empty() && a.mismatches.is_empty(), "{:?}", a.mismatches);
            assert!(b.failures.is_empty() && b.mismatches.is_empty(), "{:?}", b.mismatches);
            assert_ne!(a.counters, Counters::default());
            assert_eq!(a.counters, b.counters, "{}: counters depend on key material", w.name);
            assert_eq!(
                span_multiset(a.tracer.spans()),
                span_multiset(b.tracer.spans()),
                "{}",
                w.name
            );
            assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name);
        }
    }

    #[test]
    fn rotated_keys_really_change_the_masked_bytes() {
        let (a, b) = (spec::setup(&CHURN, 7, 0), spec::setup(&CHURN, 7, 1));
        let bidder = &a.population[0][0];
        let build = |setup: &spec::Setup| {
            let mut rng =
                <lppa_rng::rngs::StdRng as lppa_rng::SeedableRng>::seed_from_u64(bidder.seed);
            lppa::protocol::SuSubmission::build(
                bidder.location,
                &bidder.bids,
                &setup.ttps[0],
                &setup.policy,
                &mut rng,
            )
            .unwrap()
            .checksum()
        };
        assert_ne!(build(&a), build(&b));
    }

    #[test]
    fn traced_untraced_and_repeated_passes_share_one_fingerprint() {
        for w in [CHURN, DENSE] {
            let runs = [
                pass(&w, 0, Trace::Off),
                pass(&w, 0, Trace::On),
                pass(&w, 0, Trace::Alternate),
                pass(&w, 0, Trace::Off),
            ];
            for r in &runs {
                assert!(r.failures.is_empty(), "{:?}", r.failures);
                assert!(r.mismatches.is_empty(), "{:?}", r.mismatches);
                assert_eq!(r.fingerprint, runs[0].fingerprint, "{}", w.name);
            }
        }
    }

    /// `"key": ` occurrences of a JSON line, in order.
    fn json_keys(line: &str) -> Vec<String> {
        line.split('"')
            .collect::<Vec<_>>()
            .windows(2)
            .filter(|w| w[1].starts_with(": "))
            .map(|w| w[0].to_string())
            .collect()
    }

    #[test]
    fn every_emitted_key_comes_from_the_closed_set() {
        const CONTEXT_KEYS: [&str; 14] = [
            "context",
            "workload",
            "seed",
            "trace",
            "channels",
            "areas",
            "bidders",
            "churn",
            "rounds",
            "replay_rounds",
            "fingerprint",
            "tag_ns",
            "ns_per_tag",
            "ns_per_tag_over_tag_ns",
        ];
        for w in [CHURN, DENSE] {
            for (traced, set) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let bench = measure(&w, 3, traced, Stop::Rounds(3));
                let line = report::result_line(true, bench.attempted, bench.failed, &bench.metrics);
                let names: Vec<&str> = set.iter().map(|(n, _)| *n).collect();
                assert_eq!(report::metric_keys(&line), names);
                for key in json_keys(&bench.context) {
                    assert!(CONTEXT_KEYS.contains(&key.as_str()), "context key {key}");
                }
                for line in &bench.table {
                    let first = line.split(' ').next().unwrap();
                    assert!(
                        names.contains(&first) || ["fail_ratio", "self"].contains(&first),
                        "table line {line}"
                    );
                }
                let spans: Vec<String> =
                    bench.spans.lines().flat_map(json_keys).filter(|k| k != "name").collect();
                assert!(spans
                    .iter()
                    .all(|k| ["start_ns", "end_ns", "parent", "round"].contains(&k.as_str())));
            }
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_workloads_and_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let declared = |name: &str| json.matches(&format!("\"name\": \"{name}\"")).count();
        for w in spec::WORKLOADS {
            assert_eq!(declared(w.name), 1, "{}", w.name);
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert_eq!(declared(name), 1, "{name}");
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        let total = json.matches("\"name\": ").count();
        assert_eq!(total, spec::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert!(percentile(&samples(99), 0.9).is_err());
        assert_eq!(percentile(&samples(100), 0.9), Ok(89.0));
        assert!(percentile(&samples(999), 0.99).is_err());
        assert!(percentile(&samples(1000), 0.99).is_ok());
        assert!(percentile(&samples(19), 0.5).is_err());
        assert_eq!(percentile(&samples(20), 0.5), Ok(9.0));
    }
}
