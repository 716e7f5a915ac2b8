//! Workload definitions and seeded input generation.
//!
//! Every input derives from the run's `--seed`: plaintext bidder inputs
//! from one family of streams, TTP key material from another (salted by
//! `key_salt`, so the leak-fence tests can rotate keys while the
//! plaintext stays fixed). The engine only ever sees the generated
//! inputs, never the seed.

use std::hint::black_box;
use std::time::Instant;

use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaConfig;
use lppa_auction::bidder::Location;
use lppa_crypto::{HmacKey, Tag};
use lppa_prefix::MASK_INPUT_LEN;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, RngCore, SeedableRng};

const STREAM_POPULATION: u64 = 0x7065_7266_0000_0001;
const STREAM_CHURN: u64 = 0x7065_7266_0000_0003;
const STREAM_ROUND: u64 = 0x7065_7266_0000_0004;
const STREAM_KEYS: u64 = 0x7065_7266_0000_0005;
const STREAM_KERNEL: u64 = 0x7065_7266_0000_0006;

/// Probability that a zero bid is disguised, and the geometric decay of
/// the disguise values (the §VI experiments' policy).
const DISGUISE_PROB: f64 = 0.5;
const DISGUISE_DECAY: f64 = 0.75;

/// Tags hashed per calibration batch, and batches timed.
const KERNEL_BATCH: usize = 2048;
const KERNEL_REPS: usize = 48;

/// One benchmark workload: resident areas whose live population churns
/// every round.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Channels auctioned per area.
    pub channels: usize,
    /// Independent areas (one TTP key schedule each).
    pub areas: usize,
    /// Initial population of each area.
    pub bidders: usize,
    /// Share of the live population churning per round, split
    /// join : leave : revise = 1 : 1 : 2.
    pub churn: f64,
    /// Timed admissions of the initial population in an untraced run,
    /// spread over the run; `admit_bidders_per_s` is their median.
    pub admissions: usize,
}

/// The benchmark's workloads; `BENCHMARK.json` lists the same names.
pub const WORKLOADS: [Workload; 2] = [
    // §VI.A shape: masking at k = 129, engine re-ranking and the bid-only
    // re-mask path; never runs batch class ranking inside a round.
    // About 1.8 s per admission on a 2-vCPU host.
    Workload {
        name: "paper-churn",
        channels: 129,
        areas: 2,
        bidders: 300,
        churn: 0.03,
        admissions: 15,
    },
    // One crowded area at k = 2: the n×n conflict graph and allocation
    // dominate, masking is nearly absent.
    // About 4 s per admission on a 2-vCPU host.
    Workload {
        name: "dense-area",
        channels: 2,
        areas: 1,
        bidders: 10_000,
        churn: 0.01,
        admissions: 11,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One simulated bidder's plaintext input. `seed` fixes its masking
/// randomness, so a re-mask reproduces the same location tags.
#[derive(Clone, Debug)]
pub struct BidderInput {
    pub location: Location,
    pub bids: Vec<u32>,
    pub seed: u64,
}

/// The protocol configuration of every workload: §VI.A parameters.
pub fn config() -> LppaConfig {
    LppaConfig::default()
}

fn stream(seed: u64, domain: u64, a: u64, b: u64) -> StdRng {
    let mut mix = StdRng::seed_from_u64(seed ^ domain);
    let base = mix.next_u64();
    StdRng::seed_from_u64(base ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.rotate_left(32))
}

/// About half the channels unavailable (zero bid), the rest uniform.
pub fn draw_bids(rng: &mut StdRng, k: usize, bid_max: u32) -> Vec<u32> {
    (0..k).map(|_| if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..=bid_max) }).collect()
}

/// A fresh bidder at a uniform grid location.
pub fn draw_bidder(rng: &mut StdRng, k: usize) -> BidderInput {
    let config = config();
    let location =
        Location::new(rng.gen_range(0..=config.loc_max()), rng.gen_range(0..=config.loc_max()));
    let bids = draw_bids(rng, k, config.bid_max());
    BidderInput { location, bids, seed: rng.next_u64() }
}

/// The churn-event stream of a resident area.
pub fn churn_stream(seed: u64, area: usize) -> StdRng {
    stream(seed, STREAM_CHURN, area as u64, 0)
}

/// The allocation RNG of one area's round.
pub fn round_rng(seed: u64, area: usize, round: u64) -> StdRng {
    stream(seed, STREAM_ROUND, area as u64, round)
}

/// Everything a run needs before admission starts.
pub struct Setup {
    /// One TTP per area.
    pub ttps: Vec<Ttp>,
    pub policy: ZeroReplacePolicy,
    /// Initial population per area.
    pub population: Vec<Vec<BidderInput>>,
    /// Median ns per tag of the batched tag kernel.
    pub tag_ns: f64,
}

/// Generates the workload, derives every area's TTP key schedule and
/// calibrates the tag kernel.
///
/// # Panics
///
/// Panics if the built-in configuration is rejected by the TTP, which
/// would be a bug in this benchmark.
pub fn setup(w: &Workload, seed: u64, key_salt: u64) -> Setup {
    let config = config();
    let population = (0..w.areas)
        .map(|area| {
            let mut rng = stream(seed, STREAM_POPULATION, area as u64, 0);
            (0..w.bidders).map(|_| draw_bidder(&mut rng, w.channels)).collect()
        })
        .collect();
    let mut master = [0u8; 32];
    stream(seed, STREAM_KEYS, key_salt, 0).fill_bytes(&mut master);
    let ttps = (0..w.areas)
        .map(|area| {
            Ttp::from_master(&master, area as u64, w.channels, config)
                .expect("the §VI.A configuration is valid")
        })
        .collect();
    let policy = ZeroReplacePolicy::geometric(DISGUISE_PROB, DISGUISE_DECAY, config.bid_max());
    Setup { ttps, policy, population, tag_ns: calibrate_tag_ns(seed) }
}

/// Median ns per tag of `Tag::compute_batch` over mask-input-shaped
/// messages: the kernel floor masking is compared against.
fn calibrate_tag_ns(seed: u64) -> f64 {
    let mut rng = stream(seed, STREAM_KERNEL, 0, 0);
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let key = HmacKey::from_bytes(key);
    let messages: Vec<[u8; MASK_INPUT_LEN]> = (0..KERNEL_BATCH)
        .map(|_| {
            let mut m = [0u8; MASK_INPUT_LEN];
            rng.fill_bytes(&mut m);
            m
        })
        .collect();
    let mut per_tag: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(Tag::compute_batch(&key, black_box(&messages)));
            t.elapsed().as_nanos() as f64 / KERNEL_BATCH as f64
        })
        .collect();
    per_tag.sort_by(f64::total_cmp);
    per_tag[per_tag.len() / 2]
}
