//! The closed loop: one pass over a workload.
//!
//! A round starts only after the previous one settled, and simulated
//! bidders submit one after another. Bidders mask with
//! `SuSubmission::build_in` (or `rebuild_bids_in` for a bid-only
//! revision), frame with `encode_submission_frame`, and the auctioneer
//! accepts through `WireCollectEngine::ingest`/`close`. Each area applies
//! its deltas to an `IncrementalAuctioneer` and runs `run_round_in`. A
//! traced round opens a span around each of those calls; a traced pass
//! also composes the final state's auction from the public phase
//! functions.

use std::collections::BTreeSet;
use std::time::Instant;

use lppa::arena::{MaskScratch, RoundScratch};
use lppa::ppbs::location::{build_conflict_graph, LocationSubmission};
use lppa::protocol::{charge_requests, run_private_auction_with_model, SuSubmission};
use lppa::ttp::Ttp;
use lppa::{
    AuctioneerModel, ChargeDecision, IncrementalAuctioneer, LppaError, MaskedBidTable,
    PrivateAuctionResult,
};
use lppa_auction::allocation::{greedy_allocate, Grant};
use lppa_auction::outcome::Assignment;
use lppa_rng::rngs::StdRng;
use lppa_rng::{RngCore, SeedableRng};
use lppa_session::journal::Journal;
use lppa_session::wire_round::{encode_submission_frame, WireCollectEngine};

use crate::spec::{self, BidderInput, Setup, Workload};
use crate::trace::{Counters, CountingOracle, Site, Tracer};

/// Rounds folded into a pass's fingerprint.
pub const FINGERPRINT_ROUNDS: u64 = 5;

const MODEL: AuctioneerModel = AuctioneerModel::IterativeCharging;

/// When a pass stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After `seconds` (admission included) once at least `min_rounds`
    /// rounds, `min_submits` submissions and `admissions` admissions
    /// are timed; a pass still short of those floors after `cap`
    /// seconds fails. Admissions after the first repeat the initial
    /// population's admission into fresh areas, spread evenly over
    /// `seconds` between rounds.
    Deadline { seconds: f64, min_rounds: usize, min_submits: usize, admissions: usize, cap: f64 },
    /// After exactly this many rounds.
    Rounds(u64),
}

/// Which rounds of a pass record spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trace {
    Off,
    On,
    /// Even rounds traced, odd rounds not: both modes see the same
    /// machine conditions, so their ratio is the tracing overhead.
    Alternate,
}

/// How one pass runs.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    pub trace: Trace,
    pub stop: Stop,
    /// Whether the first and last rounds are checked against
    /// `run_private_auction_with_model`.
    pub gates: bool,
    /// Composed-phase probes of the final state.
    pub probe_reps: usize,
}

/// The decisions of one area's round: what the fingerprint and the
/// equality gates compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    pub bidders: usize,
    pub grants: Vec<Grant>,
    pub assignments: Vec<Assignment>,
    pub invalid: usize,
}

impl Summary {
    fn of(result: &PrivateAuctionResult) -> Self {
        Self {
            bidders: result.outcome.n_bidders(),
            grants: result.grants.clone(),
            assignments: result.outcome.assignments().to_vec(),
            invalid: result.invalid_grants.len(),
        }
    }

    fn fold_into(&self, acc: &mut u64) {
        fold(acc, self.bidders as u64);
        for g in &self.grants {
            fold(acc, g.bidder.0 as u64);
            fold(acc, g.channel.0 as u64);
        }
        for a in &self.assignments {
            fold(acc, a.bidder.0 as u64);
            fold(acc, a.channel.0 as u64);
            fold(acc, u64::from(a.price));
        }
        fold(acc, self.invalid as u64);
    }
}

fn fold(acc: &mut u64, value: u64) {
    *acc = (*acc ^ value).wrapping_mul(0x0000_0100_0000_01b3);
}

/// What one pass measured.
pub struct PassResult {
    /// Bidders per second of each admission: the initial population's
    /// submissions and joins over their wall time.
    pub admit_per_s: Vec<f64>,
    /// Per warm submission, masking through acceptance and the engine
    /// `join`/`put_revised`.
    pub submit_ms: Vec<f64>,
    /// Per round, all areas, and whether the round was traced.
    pub round_ms: Vec<f64>,
    pub round_traced: Vec<bool>,
    pub frame_bytes: u64,
    pub frames: u64,
    pub rounds: u64,
    /// Digest of the first [`FINGERPRINT_ROUNDS`] rounds' decisions.
    pub fingerprint: u64,
    pub attempted: u64,
    /// Operations that failed: rejected frames, quarantined bidders,
    /// round or TTP errors.
    pub failures: Vec<String>,
    /// Correctness-gate mismatches.
    pub mismatches: Vec<String>,
    pub tracer: Tracer,
    pub counters: Counters,
    /// Wall and CPU seconds of the pass.
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// One resident bidder: its plaintext input, stable slot and the masked
/// location it keeps for bid-only revisions.
struct Member {
    slot: u32,
    input: BidderInput,
    location: LocationSubmission,
}

/// One resident area's auctioneer state.
struct Area {
    engine: IncrementalAuctioneer,
    scratch: RoundScratch,
    members: Vec<Member>,
    free: BTreeSet<u32>,
    slots: u32,
    churn: StdRng,
}

impl Area {
    /// The slot the engine's lowest-first free list will hand out next.
    fn take_slot(&mut self) -> u32 {
        self.free.pop_first().unwrap_or_else(|| {
            self.slots += 1;
            self.slots - 1
        })
    }
}

/// A submission accepted on the wire and waiting for the engine.
struct Pending {
    slot: u32,
    join: Option<Member>,
    ms: f64,
}

/// The last round of each area: its RNG before the round and its
/// decisions, kept for the equality gates.
struct Settled {
    rng: StdRng,
    summary: Summary,
}

struct Runner<'a> {
    w: &'a Workload,
    seed: u64,
    setup: &'a Setup,
    pass: Pass,
    scratch: MaskScratch,
    out: PassResult,
    started: Instant,
}

/// Runs one pass of `w` under `pass`.
pub fn run(w: &Workload, seed: u64, setup: &Setup, pass: Pass) -> PassResult {
    let cpu0 = cpu_seconds();
    let mut d = Runner {
        w,
        seed,
        setup,
        pass,
        scratch: MaskScratch::new(),
        out: PassResult {
            admit_per_s: Vec::new(),
            submit_ms: Vec::new(),
            round_ms: Vec::new(),
            round_traced: Vec::new(),
            frame_bytes: 0,
            frames: 0,
            rounds: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
            attempted: 0,
            failures: Vec::new(),
            mismatches: Vec::new(),
            tracer: Tracer::new(pass.trace != Trace::Off),
            counters: Counters::default(),
            wall_s: 0.0,
            cpu_s: 0.0,
        },
        started: Instant::now(),
    };
    d.resident();
    d.out.wall_s = d.started.elapsed().as_secs_f64();
    d.out.cpu_s = cpu_seconds() - cpu0;
    d.out
}

impl Runner<'_> {
    fn fail(&mut self, what: String) {
        self.out.failures.push(what);
    }

    fn mismatch(&mut self, what: String) {
        self.out.mismatches.push(what);
    }

    /// Whether the loop stops after the round just finished.
    fn stop_now(&mut self) -> bool {
        match self.pass.stop {
            Stop::Rounds(n) => self.out.rounds >= n,
            Stop::Deadline { seconds, min_rounds, min_submits, admissions, cap } => {
                let elapsed = self.started.elapsed().as_secs_f64();
                let floors = self.out.round_ms.len() >= min_rounds
                    && self.out.submit_ms.len() >= min_submits
                    && self.out.admit_per_s.len() >= admissions;
                if !floors && elapsed >= cap {
                    self.mismatch(format!(
                        "sample floors ({min_rounds} rounds, {min_submits} submissions, \
                         {admissions} admissions) not reached in {cap} s"
                    ));
                    return true;
                }
                floors && elapsed >= seconds
            }
        }
    }

    /// Starts round `r`: stamps its id and switches tracing for it.
    fn start_round(&mut self, r: u64) {
        let on = match self.pass.trace {
            Trace::Off => false,
            Trace::On => true,
            Trace::Alternate => r.is_multiple_of(2),
        };
        self.out.tracer.set_on(on);
        self.out.tracer.set_round(r);
        self.out.round_traced.push(on);
        self.out.tracer.begin(Site::Round);
    }

    /// Folds a round's decisions into the fingerprint while inside the
    /// fingerprinted prefix.
    fn fingerprint(&mut self, round: u64, summary: &Summary) {
        if round < FINGERPRINT_ROUNDS {
            summary.fold_into(&mut self.out.fingerprint);
        }
    }

    /// Masks one bidder's full submission.
    fn mask(&mut self, b: &BidderInput, ttp: &Ttp) -> Result<SuSubmission, LppaError> {
        let tr = &mut self.out.tracer;
        tr.begin(Site::Mask);
        let mut rng = StdRng::seed_from_u64(b.seed);
        let built = SuSubmission::build_in(
            b.location,
            &b.bids,
            ttp,
            &self.setup.policy,
            &mut rng,
            &mut self.scratch,
        );
        tr.end(Site::Mask);
        built
    }

    /// Frames `sub` as bidder `index` and hands it to the auctioneer,
    /// which quarantines it at `close` unless accepted. The bidder's
    /// copy is recycled.
    fn deliver(
        &mut self,
        index: usize,
        sub: SuSubmission,
        wire: &mut WireCollectEngine,
        journal: &mut Journal,
    ) {
        let tr = &mut self.out.tracer;
        tr.begin(Site::Encode);
        let frame = encode_submission_frame(index, 1, &sub);
        tr.end(Site::Encode);
        tr.begin(Site::Ingest);
        let ack = wire.ingest(0, &frame, journal);
        tr.end(Site::Ingest);
        self.out.frame_bytes += frame.len() as u64;
        self.out.frames += 1;
        sub.reclaim(&mut self.scratch);
        if !ack.is_some_and(|a| a.accepted && a.bidder == index) {
            self.out.counters.frames_rejected += 1;
        }
    }

    fn count_tags(&mut self, sub: &SuSubmission) {
        let loc = &sub.location;
        let mut tags = loc.point_x().len() + loc.range_x().len();
        tags += loc.point_y().len() + loc.range_y().len();
        tags += sub.bids.bids().iter().map(|b| b.point.len() + b.range.len()).sum::<usize>();
        self.out.counters.masked += 1;
        self.out.counters.mask_tags += tags as u64;
    }

    /// Closes a collect; every bidder sent exactly once.
    fn close(
        &mut self,
        wire: WireCollectEngine,
        n: usize,
        journal: &mut Journal,
    ) -> Vec<(usize, SuSubmission)> {
        self.out.tracer.begin(Site::Close);
        let collected = wire.close(&vec![1; n], journal);
        self.out.tracer.end(Site::Close);
        for (bidder, reason) in collected.quarantine.iter() {
            self.fail(format!("bidder {bidder} quarantined: {reason}"));
        }
        collected.accepted.into_iter().zip(collected.accepted_submissions).collect()
    }

    /// One auction composed from the public phase functions:
    /// `build_conflict_graph` → `collect_pruned` → `greedy_allocate` →
    /// `charge_requests` + `open_charges`.
    fn composed(
        &mut self,
        subs: &[SuSubmission],
        ttp: &Ttp,
        rng: &mut StdRng,
    ) -> Result<Summary, LppaError> {
        let tr = &mut self.out.tracer;
        tr.begin(Site::Graph);
        let locations: Vec<LocationSubmission> = subs.iter().map(|s| s.location.clone()).collect();
        let graph = build_conflict_graph(&locations);
        tr.end(Site::Graph);
        tr.begin(Site::Classes);
        let table = MaskedBidTable::collect_pruned(subs.iter().map(|s| s.bids.clone()).collect());
        tr.end(Site::Classes);
        let table = table?;
        tr.begin(Site::Alloc);
        let oracle = CountingOracle::new(&table);
        let grants = greedy_allocate(&oracle, &graph, rng);
        tr.end(Site::Alloc);
        tr.begin(Site::Charge);
        let decisions = charge_requests(&table, &grants).and_then(|r| ttp.open_charges(&r));
        tr.end(Site::Charge);
        let decisions = decisions?;

        let mut assignments = Vec::new();
        let mut invalid = 0;
        for (g, d) in grants.iter().zip(&decisions) {
            match *d {
                ChargeDecision::Valid { raw_price } => assignments.push(Assignment {
                    bidder: g.bidder,
                    channel: g.channel,
                    price: raw_price,
                }),
                ChargeDecision::InvalidZero => invalid += 1,
            }
        }
        let c = &mut self.out.counters;
        c.auctions += 1;
        c.select_calls += oracle.select_calls.get();
        c.candidates_scanned += oracle.scanned.get();
        c.grants += grants.len() as u64;
        c.valid += assignments.len() as u64;
        c.invalid_zero += invalid as u64;
        c.ttp_opens += decisions.len() as u64;
        c.edges += graph.edge_count() as u64;
        c.matrix_bytes += graph.into_matrix().capacity() as u64;
        Ok(Summary { bidders: subs.len(), grants, assignments, invalid })
    }

    /// Gate: `what` must equal the batch auction over `subs` from `rng`.
    fn check_batch(
        &mut self,
        what: &str,
        round: u64,
        subs: &[SuSubmission],
        ttp: &Ttp,
        rng: &StdRng,
        got: &Summary,
    ) {
        match run_private_auction_with_model(subs, ttp, MODEL, &mut rng.clone()) {
            Ok(r) if Summary::of(&r) == *got => {}
            Ok(_) => self.mismatch(format!(
                "round {round}: {what} does not match run_private_auction_with_model"
            )),
            Err(e) => self.mismatch(format!("round {round}: reference auction failed: {e}")),
        }
    }

    /// Empty areas with their churn streams at the start.
    fn areas(&self) -> Vec<Area> {
        (0..self.w.areas)
            .map(|area| Area {
                engine: IncrementalAuctioneer::new(MODEL),
                scratch: RoundScratch::new(),
                members: Vec::new(),
                free: BTreeSet::new(),
                slots: 0,
                churn: spec::churn_stream(self.seed, area),
            })
            .collect()
    }

    /// Admission: every initial bidder masks, frames and is accepted,
    /// then joins the engine.
    fn admit(&mut self, areas: &mut [Area]) {
        let (w, setup) = (self.w, self.setup);
        self.out.tracer.set_round(u64::from(u32::MAX));
        self.out.tracer.begin(Site::Admission);
        let admission = Instant::now();
        let mut admitted = 0;
        for (a, area) in areas.iter_mut().enumerate() {
            let ttp = &setup.ttps[a];
            let population = &setup.population[a];
            let mut wire = WireCollectEngine::new(population.len(), w.channels, *ttp.config());
            let mut journal = Journal::new();
            let mut pending = Vec::with_capacity(population.len());
            for b in population {
                self.out.tracer.begin(Site::Submit);
                match self.mask(b, ttp) {
                    Ok(sub) => {
                        let slot = area.take_slot();
                        let member =
                            Member { slot, input: b.clone(), location: sub.location.clone() };
                        self.deliver(pending.len(), sub, &mut wire, &mut journal);
                        pending.push(Pending { slot, join: Some(member), ms: 0.0 });
                    }
                    Err(e) => self.fail(format!("admission mask: {e}")),
                }
                self.out.tracer.end(Site::Submit);
                self.out.attempted += 1;
            }
            let accepted = self.close(wire, population.len(), &mut journal);
            self.apply(area, pending, accepted, false);
            admitted += population.len();
        }
        self.out.admit_per_s.push(admitted as f64 / admission.elapsed().as_secs_f64());
        self.out.tracer.end(Site::Admission);
    }

    /// Whether a repeated admission is due: the `i`th of `admissions`
    /// starts once `i / admissions` of `seconds` have passed.
    fn admission_due(&self) -> bool {
        match self.pass.stop {
            Stop::Rounds(_) => false,
            Stop::Deadline { seconds, admissions, .. } => {
                let done = self.out.admit_per_s.len();
                done < admissions
                    && self.started.elapsed().as_secs_f64()
                        >= seconds * done as f64 / admissions as f64
            }
        }
    }

    fn resident(&mut self) {
        let (w, setup) = (self.w, self.setup);
        let rate = w.churn;
        let mut areas = self.areas();
        self.admit(&mut areas);

        let mut last_round: Vec<Option<Settled>> = (0..w.areas).map(|_| None).collect();
        loop {
            let r = self.out.rounds;
            self.start_round(r);
            let t = Instant::now();
            for (a, area) in areas.iter_mut().enumerate() {
                last_round[a] = self.churn_round(a, area, rate, r);
            }
            self.out.round_ms.push(ms(t));
            self.out.tracer.end(Site::Round);
            self.out.rounds += 1;
            if self.admission_due() {
                // Into fresh areas: the resident state and its RNG streams
                // are untouched, so the fingerprint does not see it.
                self.admit(&mut self.areas());
            }
            let last = self.stop_now();
            if self.pass.gates && (r == 0 || last) {
                for (a, area) in areas.iter().enumerate() {
                    if let Some(s) = &last_round[a] {
                        let compact = area.engine.compact_submissions();
                        self.check_batch(
                            "run_round_in",
                            r,
                            &compact,
                            &setup.ttps[a],
                            &s.rng,
                            &s.summary,
                        );
                    }
                }
            }
            if last {
                break;
            }
        }

        // The traced probe: compose the final state's auction from the
        // public phase functions, equal to the engine's last round.
        self.out.tracer.set_on(self.pass.probe_reps > 0);
        let compact: Vec<Vec<SuSubmission>> = if self.pass.probe_reps > 0 {
            areas.iter().map(|a| a.engine.compact_submissions()).collect()
        } else {
            Vec::new()
        };
        for rep in 0..self.pass.probe_reps {
            let a = rep % w.areas;
            let Some(s) = &last_round[a] else { continue };
            self.out.tracer.begin(Site::Probe);
            let got = self.composed(&compact[a], &setup.ttps[a], &mut s.rng.clone());
            self.out.tracer.end(Site::Probe);
            match got {
                Ok(summary) if summary == s.summary => {}
                Ok(_) => self.mismatch("composed phases differ from run_round_in".into()),
                Err(e) => self.mismatch(format!("composed probe failed: {e}")),
            }
        }
        for area in &areas {
            let (ranges, points) = area.engine.index_entries();
            self.out.counters.live += area.engine.live_count() as u64;
            self.out.counters.index_entries += (ranges + points) as u64;
        }
    }

    /// Hands accepted submissions to the engine in index order: joins for
    /// new members, `take_for_revise` + `put_revised` for revisions.
    /// `timed` adds each engine call to its submission's sample.
    fn apply(
        &mut self,
        area: &mut Area,
        pending: Vec<Pending>,
        accepted: Vec<(usize, SuSubmission)>,
        timed: bool,
    ) {
        let mut pending: Vec<Option<Pending>> = pending.into_iter().map(Some).collect();
        for (index, sub) in accepted {
            let Some(p) = pending.get_mut(index).and_then(Option::take) else {
                self.mismatch(format!("accepted frame {index} matches no submission"));
                continue;
            };
            let t = Instant::now();
            match p.join {
                Some(member) => {
                    self.out.tracer.begin(Site::Join);
                    let slot = area.engine.join(sub);
                    self.out.tracer.end(Site::Join);
                    if slot != p.slot {
                        self.mismatch(format!("engine gave slot {slot}, expected {}", p.slot));
                    }
                    area.members.push(member);
                }
                None => {
                    self.out.tracer.begin(Site::Revise);
                    let _retired = area.engine.take_for_revise(p.slot);
                    area.engine.put_revised(p.slot, sub);
                    self.out.tracer.end(Site::Revise);
                }
            }
            area.scratch.charge_clear_slot(p.slot);
            if timed {
                self.out.submit_ms.push(p.ms + ms(t));
            }
        }
        // A submission the wire refused never reaches the engine; its
        // slot goes back to the free list the engine also keeps.
        for p in pending.into_iter().flatten() {
            if p.join.is_some() {
                area.free.insert(p.slot);
            }
        }
    }

    /// One resident area's round: leaves, bid revisions and joins drawn
    /// from its churn stream, then `run_round_in`.
    fn churn_round(&mut self, a: usize, area: &mut Area, rate: f64, r: u64) -> Option<Settled> {
        let (w, setup) = (self.w, self.setup);
        let ttp = &setup.ttps[a];
        let bid_max = ttp.config().bid_max();
        let live = area.members.len() as f64;
        let count = |share: f64| (share * rate * live).round() as usize;
        let (n_leave, n_revise, n_join) = (count(0.25), count(0.5), count(0.25));

        for _ in 0..n_leave.min(area.members.len()) {
            let i = (area.churn.next_u64() % area.members.len() as u64) as usize;
            let member = area.members.swap_remove(i);
            self.out.tracer.begin(Site::Leave);
            area.engine.leave(member.slot);
            self.out.tracer.end(Site::Leave);
            area.scratch.charge_clear_slot(member.slot);
            area.free.insert(member.slot);
        }

        let n = n_revise.min(area.members.len()) + n_join;
        let mut wire = WireCollectEngine::new(n, w.channels, *ttp.config());
        let mut journal = Journal::new();
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n_revise.min(area.members.len()) {
            let i = (area.churn.next_u64() % area.members.len() as u64) as usize;
            area.members[i].input.bids = spec::draw_bids(&mut area.churn, w.channels, bid_max);
            let m = &area.members[i];
            let t = Instant::now();
            self.out.tracer.begin(Site::Submit);
            self.out.tracer.begin(Site::Remask);
            let mut rng = StdRng::seed_from_u64(m.input.seed);
            let built = SuSubmission::rebuild_bids_in(
                m.location.clone(),
                m.input.location,
                &m.input.bids,
                ttp,
                &setup.policy,
                &mut rng,
                &mut self.scratch,
            );
            self.out.tracer.end(Site::Remask);
            let slot = m.slot;
            match built {
                Ok(sub) => {
                    self.deliver(pending.len(), sub, &mut wire, &mut journal);
                    pending.push(Pending { slot, join: None, ms: ms(t) });
                }
                Err(e) => self.fail(format!("remask: {e}")),
            }
            self.out.tracer.end(Site::Submit);
        }
        for _ in 0..n_join {
            let input = spec::draw_bidder(&mut area.churn, w.channels);
            let t = Instant::now();
            self.out.tracer.begin(Site::Submit);
            match self.mask(&input, ttp) {
                Ok(sub) => {
                    let slot = area.take_slot();
                    self.count_tags(&sub);
                    let member = Member { slot, input, location: sub.location.clone() };
                    self.deliver(pending.len(), sub, &mut wire, &mut journal);
                    pending.push(Pending { slot, join: Some(member), ms: ms(t) });
                }
                Err(e) => self.fail(format!("mask: {e}")),
            }
            self.out.tracer.end(Site::Submit);
        }
        self.out.attempted += n as u64;
        let accepted = self.close(wire, n, &mut journal);
        self.apply(area, pending, accepted, true);

        let mut rng = spec::round_rng(self.seed, a, r);
        let before = rng.clone();
        self.out.tracer.begin(Site::EngineRound);
        let result = area.engine.run_round_in(ttp, &mut rng, &mut area.scratch);
        self.out.tracer.end(Site::EngineRound);
        self.out.attempted += 1;
        match result {
            Ok(result) => {
                let summary = Summary::of(&result);
                self.fingerprint(r, &summary);
                Some(Settled { rng: before, summary })
            }
            Err(e) => {
                self.fail(format!("round {r}: {e}"));
                None
            }
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// User + system CPU seconds of this process, from `/proc/self/stat`
/// (0 where that file is unavailable).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks of 1/100 s.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}
