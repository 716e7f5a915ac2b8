//! The fault-tolerant auction session state machine.
//!
//! One session runs a full LPPA round — `Announce → Collect → Allocate →
//! Charge → Settle` — as a deterministic discrete-event simulation over
//! the unreliable [`SimTransport`] link and the periodically-online
//! [`TtpLink`]. Every failure is handled per bidder:
//!
//! * **Collect**: each bidder retries on the shared [`BidderSendState`]
//!   backoff schedule until the collect deadline, and the shared
//!   [`WireCollectEngine`] admits every delivery: corrupt copies
//!   (checksum mismatch) are discarded and retransmissions cover them;
//!   bidders whose submission never arrives intact are quarantined as
//!   `MissedDeadline`; ragged or truncated submissions are quarantined as
//!   `Rejected`. [`commit_collect`] commits with whoever made the
//!   deadline, provided the configured quorum is met.
//! * **Allocate**: the greedy allocation runs over the accepted subset,
//!   seeded from the session seed — independent of transport timing.
//! * **Charge**: sealed winning bids drain through the [`TtpLink`] queue
//!   whenever the TTP's availability schedule permits, retrying failed
//!   batches with backoff. If the TTP misses its window, the affected
//!   grants degrade to *provisional* allocations with deferred charging
//!   instead of failing the round. A refused charge (manipulated price)
//!   strikes only its own grant and quarantines that bidder.
//! * **Settle**: the outcome is finalized and fingerprinted.
//!
//! All randomness — fault schedule, allocation tie-breaks, TTP
//! connection flaps — derives from one seed, so a session replays
//! byte-identically, and the journal of an interrupted session can be
//! [resumed](resume_round) to the identical outcome.

use lppa::backend::{charge_payload, grant_payload, submission_payload, BackendBidTable};
use lppa::ppbs::bid::AdvancedBidSubmission;
use lppa::protocol::{charge_request_for, masked_conflict_graph, AuctioneerModel, SuSubmission};
use lppa::psd::table::MaskedBidTable;
use lppa::ttp::{ChargeDecision, ChargeRequest, Ttp};
use lppa::LppaError;
use lppa_auction::allocation::{greedy_allocate, Grant};
use lppa_auction::bidder::BidderId;
use lppa_auction::conflict::ConflictGraph;
use lppa_auction::outcome::{Assignment, AuctionOutcome};
use lppa_crypto::commit::CommitmentLedger;
use lppa_prefix::backend::BackendKind;
use lppa_rng::rngs::StdRng;
use lppa_rng::{RngCore, SeedableRng};

use crate::fault::FaultConfig;
use crate::journal::{Journal, JournalEntry, Phase};
use crate::quarantine::{QuarantineReason, QuarantineReport};
use crate::transport::{SimTransport, TransportStats};
use crate::ttp_link::{ChargeBackend, LocalTtp, TtpLink, TtpLinkConfig, TtpSchedule};
use crate::wire_round::{BidderSendState, WireCollectEngine, WireCollectResult};

/// Tuning for one auction session.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Transport fault profile.
    pub faults: FaultConfig,
    /// Last tick of the collect phase; submissions arriving later are
    /// lost.
    pub collect_deadline: u64,
    /// Base resend interval in ticks; doubles per attempt.
    pub retry_backoff: u64,
    /// Send attempts beyond the first each bidder may make.
    pub max_retries: u32,
    /// Minimum accepted submissions for the round to commit; below this
    /// the session fails with [`LppaError::QuorumNotReached`]. Clamped
    /// to at least 1.
    pub min_accepted: usize,
    /// How the auctioneer treats unprovable cells.
    pub model: AuctioneerModel,
    /// When the TTP is reachable.
    pub ttp_schedule: TtpSchedule,
    /// Auctioneer ↔ TTP connection tuning.
    pub ttp_link: TtpLinkConfig,
    /// Ticks the charge phase may spend before undecided grants degrade
    /// to provisional allocations.
    pub charge_deadline: u64,
    /// Which [`MaskingBackend`](lppa_prefix::backend::MaskingBackend)
    /// answers the allocation's masked comparisons. The default reads
    /// the `LPPA_BACKEND` environment knob (falling back to `hmac`).
    /// `ledger` additionally audits the round through a
    /// [`CommitmentLedger`] whose settle-time root lands in
    /// [`SessionOutcome::ledger_root`].
    pub backend: BackendKind,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            faults: FaultConfig::none(),
            collect_deadline: 16,
            retry_backoff: 2,
            max_retries: 4,
            min_accepted: 1,
            model: AuctioneerModel::default(),
            ttp_schedule: TtpSchedule::always_online(),
            ttp_link: TtpLinkConfig::default(),
            charge_deadline: 32,
            backend: BackendKind::from_env(),
        }
    }
}

/// The wire message a bidder sends during collect: the submission plus
/// the sender-computed transport checksum the receiver verifies.
#[derive(Clone, Debug)]
pub struct SubmissionMsg {
    /// Original submission index.
    pub bidder: usize,
    /// 1-based send attempt.
    pub attempt: u32,
    /// [`SuSubmission::checksum`] computed by the sender.
    pub checksum: u64,
    /// The submission payload.
    pub submission: SuSubmission,
}

/// Everything a settled session reports.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Valid, TTP-charged assignments (original bidder ids).
    pub outcome: AuctionOutcome,
    /// Disguised-zero wins the TTP invalidated (original ids).
    pub invalid_grants: Vec<Grant>,
    /// Grants whose charge the TTP never decided before the deadline:
    /// the winner keeps the channel provisionally, charging is deferred
    /// (original ids).
    pub provisional: Vec<Grant>,
    /// Every grant the allocation issued (original ids).
    pub grants: Vec<Grant>,
    /// Conflict graph over the accepted subset (compact ids, indexing
    /// into `accepted`).
    pub conflicts: ConflictGraph,
    /// Original indices of the submissions that entered the auction.
    pub accepted: Vec<usize>,
    /// Per-bidder exclusions with reasons.
    pub quarantine: QuarantineReport,
    /// The session's decision log.
    pub journal: Journal,
    /// Transport counters. Observational only — not part of the
    /// [fingerprint](Self::fingerprint), because a resumed session
    /// cannot reconstruct them from the journal.
    pub stats: TransportStats,
    /// The tick the session settled at.
    pub ticks: u64,
    /// Root of the settle-time-verified commitment ledger
    /// ([`BackendKind::Ledger`] only, `None` otherwise). An audit
    /// artefact, deliberately outside the
    /// [fingerprint](Self::fingerprint) so fingerprints stay comparable
    /// across backends; its own determinism is tested separately.
    pub ledger_root: Option<[u8; 32]>,
}

impl SessionOutcome {
    /// Gross revenue of the charged assignments.
    pub fn revenue(&self) -> u64 {
        self.outcome.revenue()
    }

    /// A stable digest of every round decision: assignments, invalid
    /// and provisional grants, the accepted set, the quarantine report
    /// and the settle tick. Two runs from the same seed — or a run and
    /// its journal-recovered replay — must agree on this value.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |value: u64| {
            for b in value.to_le_bytes() {
                acc ^= u64::from(b);
                acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for a in self.outcome.assignments() {
            eat(a.bidder.0 as u64);
            eat(a.channel.0 as u64);
            eat(u64::from(a.price));
        }
        for g in self.invalid_grants.iter().chain(&self.provisional).chain(&self.grants) {
            eat(g.bidder.0 as u64);
            eat(g.channel.0 as u64);
        }
        for &i in &self.accepted {
            eat(i as u64);
        }
        eat(self.quarantine.fingerprint());
        eat(self.ticks);
        acc
    }
}

/// Derives the per-subsystem seeds every driver (typed sim, wire sim,
/// socket round) draws from the session master seed, in this exact
/// order: `(transport_seed, auction_seed, ttp_seed)`. Sim-vs-socket
/// equivalence starts here — both sides must agree on all three.
pub fn derive_seeds(seed: u64) -> (u64, u64, u64) {
    let mut master = StdRng::seed_from_u64(seed);
    let transport_seed = master.next_u64();
    let auction_seed = master.next_u64();
    let ttp_seed = master.next_u64();
    (transport_seed, auction_seed, ttp_seed)
}

/// A fault-tolerant auction session over `ttp`.
#[derive(Debug)]
pub struct AuctionSession<'a> {
    ttp: &'a Ttp,
    config: SessionConfig,
}

impl<'a> AuctionSession<'a> {
    /// A session charging through `ttp` with the given tuning.
    pub fn new(ttp: &'a Ttp, config: SessionConfig) -> Self {
        Self { ttp, config }
    }

    /// Runs one complete round from `seed`. The same `(submissions,
    /// seed, config)` triple always produces the identical outcome and
    /// journal.
    ///
    /// # Errors
    ///
    /// [`LppaError::QuorumNotReached`] if fewer than
    /// [`SessionConfig::min_accepted`] submissions survive collect;
    /// [`LppaError::Internal`] for table inconsistencies (impossible for
    /// validated submissions).
    pub fn run(
        &self,
        submissions: &[SuSubmission],
        seed: u64,
    ) -> Result<SessionOutcome, LppaError> {
        run_local(self.ttp, &self.config, submissions.len(), seed, |transport_seed, journal| {
            self.collect(submissions, transport_seed, journal)
        })
    }

    /// Recovers an interrupted session from its journal and replays the
    /// remaining phases to the identical outcome (see [`resume_round`]).
    /// `submissions` must be the same slice the original run collected.
    ///
    /// # Errors
    ///
    /// As [`resume_round`], plus [`LppaError::Internal`] if the journal
    /// references bidders outside `submissions`.
    pub fn resume(
        &self,
        submissions: &[SuSubmission],
        journal: &Journal,
    ) -> Result<SessionOutcome, LppaError> {
        resume_round(&self.config, LocalTtp(self.ttp), submissions.len(), journal, |accepted| {
            let pick = |&i: &usize| {
                submissions.get(i).cloned().ok_or_else(|| LppaError::Internal {
                    what: format!("journal accepts bidder {i} outside the submission set"),
                })
            };
            accepted.iter().map(pick).collect()
        })
    }

    /// The typed collect: [`SubmissionMsg`] structs through the chaos
    /// link, whose corruption damages one tag
    /// ([`crate::chaos::corrupt_in_flight`]), on the shared
    /// [`BidderSendState`] schedule and [`WireCollectEngine`] state.
    fn collect(
        &self,
        submissions: &[SuSubmission],
        transport_seed: u64,
        journal: &mut Journal,
    ) -> (WireCollectResult, TransportStats) {
        let n = submissions.len();
        let mut link: SimTransport<SubmissionMsg> =
            SimTransport::new(self.config.faults, transport_seed);
        let mut senders = vec![BidderSendState::new(); n];
        let mut engine = WireCollectEngine::new(n, self.ttp.n_channels(), *self.ttp.config());
        for tick in 0..=self.config.collect_deadline {
            for (i, (sender, submission)) in senders.iter_mut().zip(submissions).enumerate() {
                if let Some(attempt) = sender.should_send(tick, &self.config) {
                    let checksum = submission.checksum();
                    let msg = SubmissionMsg {
                        bidder: i,
                        attempt,
                        checksum,
                        submission: submission.clone(),
                    };
                    link.send(tick, msg, crate::chaos::corrupt_in_flight);
                }
            }
            for msg in link.deliver(tick) {
                let ack = engine.admit(tick, msg.bidder, journal, || {
                    let intact = msg.submission.checksum() == msg.checksum;
                    intact.then_some(Ok((msg.submission, msg.attempt)))
                });
                if let Some(ack) = ack {
                    senders[ack.bidder].mark_done();
                }
            }
        }
        link.flush();
        let attempts: Vec<u32> = senders.iter().map(BidderSendState::attempts).collect();
        (engine.close(&attempts, journal), link.stats)
    }
}

/// One in-process round from `seed`: the Announce and Collect phase
/// entries, `collect` (handed the transport seed), [`commit_collect`],
/// then [`finish_round`] against the local `ttp`. The typed session and
/// [`crate::wire_round::run_wire_round`] differ only in `collect`.
pub(crate) fn run_local(
    ttp: &Ttp,
    config: &SessionConfig,
    n_bidders: usize,
    seed: u64,
    collect: impl FnOnce(u64, &mut Journal) -> (WireCollectResult, TransportStats),
) -> Result<SessionOutcome, LppaError> {
    let (transport_seed, auction_seed, ttp_seed) = derive_seeds(seed);
    let mut journal = Journal::new();
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Announce, tick: 0 });
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Collect, tick: 0 });
    let (collected, stats) = collect(transport_seed, &mut journal);
    commit_collect(config, &collected.accepted, auction_seed, ttp_seed, &mut journal)?;
    finish_round(config, LocalTtp(ttp), n_bidders, collected, journal, stats)
}

/// Commits a closed collect at the deadline — the one commit step of
/// every driver: checks the quorum, then journals `CollectCommitted`
/// with the seeds the later phases (and [`resume_round`]) replay from.
///
/// # Errors
///
/// [`LppaError::QuorumNotReached`] if fewer than
/// [`SessionConfig::min_accepted`] (at least 1) bidders were accepted.
pub fn commit_collect(
    config: &SessionConfig,
    accepted: &[usize],
    auction_seed: u64,
    ttp_seed: u64,
    journal: &mut Journal,
) -> Result<(), LppaError> {
    let required = config.min_accepted.max(1);
    if accepted.len() < required {
        return Err(LppaError::QuorumNotReached { accepted: accepted.len(), required });
    }
    journal.append(JournalEntry::CollectCommitted {
        accepted: accepted.to_vec(),
        auction_seed,
        ttp_seed,
        tick: config.collect_deadline,
    });
    Ok(())
}

/// Resumes an interrupted round from its journal — the one resume path
/// of every driver, charging through any [`ChargeBackend`].
///
/// `journal` must contain the `CollectCommitted` entry; everything
/// after it is discarded and regenerated. A round interrupted before
/// collect committed holds no decisions worth recovering — rerun it.
/// `accepted_submissions` maps the committed accepted set to its
/// submissions, in order. Collect-time quarantines are recovered from
/// the journal prefix, and Allocate → Settle replays from the committed
/// seeds through [`finish_round`]. Transport counters cannot be
/// reconstructed, so [`SessionOutcome::stats`] is zeroed; every
/// fingerprinted field matches the original run exactly.
///
/// # Errors
///
/// [`LppaError::Internal`] if the journal has no committed collect
/// phase; whatever `accepted_submissions` or [`finish_round`] fail with.
pub fn resume_round<B: ChargeBackend>(
    config: &SessionConfig,
    backend: B,
    n_bidders: usize,
    journal: &Journal,
    accepted_submissions: impl FnOnce(&[usize]) -> Result<Vec<SuSubmission>, LppaError>,
) -> Result<SessionOutcome, LppaError> {
    let Some(((accepted, ..), prefix)) =
        journal.collect_snapshot().zip(journal.prefix_through_collect())
    else {
        return Err(LppaError::Internal {
            what: "journal has no committed collect phase to resume from".into(),
        });
    };
    let mut quarantine = QuarantineReport::new();
    for (bidder, reason) in prefix.quarantine_events() {
        quarantine.insert(bidder, QuarantineReason::Recovered { detail: reason.to_string() });
    }
    let collected = WireCollectResult {
        accepted_submissions: accepted_submissions(accepted)?,
        accepted: accepted.to_vec(),
        quarantine,
    };
    finish_round(config, backend, n_bidders, collected, prefix, TransportStats::default())
}

/// Phases 1–3 over a committed accepted set: the masked conflict
/// graph, the bid table [`SessionConfig::model`] and
/// [`SessionConfig::backend`] call for, the greedy allocation seeded
/// from `auction_seed`, and one TTP charge request per grant — all over
/// compact ids (indices into `accepted_submissions`).
///
/// [`finish_round`], the socket auctioneer's mid-charge crash and the
/// wire-cost accounting all replay this one function, so they agree on
/// the round's grants and charge set.
///
/// # Errors
///
/// [`LppaError::InvalidConfig`] for an empty accepted set,
/// [`LppaError::ChannelCountMismatch`] for ragged channel counts.
pub fn allocate_accepted(
    config: &SessionConfig,
    accepted_submissions: &[SuSubmission],
    auction_seed: u64,
) -> Result<(ConflictGraph, Vec<Grant>, Vec<ChargeRequest>), LppaError> {
    let conflicts = masked_conflict_graph(accepted_submissions);
    let bids: Vec<&AdvancedBidSubmission> = accepted_submissions.iter().map(|s| &s.bids).collect();
    let mut rng = StdRng::seed_from_u64(auction_seed);
    let grants = match config.backend {
        BackendKind::Hmac => {
            let table = MaskedBidTable::for_model(config.model, bids.clone(), None)?;
            greedy_allocate(&table, &conflicts, &mut rng)
        }
        kind => {
            // Probe the allocation through the selected backend. The
            // exact backends replicate the hmac classes and RNG draws,
            // so grants stay bit-identical; bloom may diverge within
            // its configured false-positive budget.
            let owned = bids.iter().map(|&b| b.clone()).collect();
            let table = BackendBidTable::collect(kind, owned, config.model)?;
            greedy_allocate(&table, &conflicts, &mut rng)
        }
    };
    let requests = grants.iter().map(|g| charge_request_for(&bids, g)).collect::<Result<_, _>>()?;
    Ok((conflicts, grants, requests))
}

/// Allocate + Charge + Settle over a committed collect, charging
/// through any [`ChargeBackend`].
///
/// This is the shared tail of every driver: the in-process rounds call
/// it with [`LocalTtp`], the socket auctioneer with a remote TTP
/// connection, and [`resume_round`] with whichever the caller resumes
/// over. `journal` must run through the `CollectCommitted` entry
/// ([`commit_collect`]): the allocation and TTP-link seeds and the start
/// tick are read from it, so a fresh run and a resumed one replay from
/// exactly the recorded values. `collected` is *compact* — it holds only
/// the submissions that survived collect, because a networked
/// auctioneer never materializes the others. `n_bidders` sizes the
/// outcome's bidder space (original indices).
///
/// # Errors
///
/// [`LppaError::Internal`] if collect never committed or `collected`
/// disagrees with the commitment, or for table inconsistencies
/// (impossible for validated submissions).
pub fn finish_round<B: ChargeBackend>(
    config: &SessionConfig,
    backend: B,
    n_bidders: usize,
    collected: WireCollectResult,
    mut journal: Journal,
    stats: TransportStats,
) -> Result<SessionOutcome, LppaError> {
    let WireCollectResult { accepted, accepted_submissions, mut quarantine } = collected;
    let (auction_seed, ttp_seed, start_tick) = match journal.collect_snapshot() {
        Some((committed, auction_seed, ttp_seed, tick))
            if committed == accepted && accepted.len() == accepted_submissions.len() =>
        {
            (auction_seed, ttp_seed, tick)
        }
        _ => {
            return Err(LppaError::Internal {
                what: "finish_round: the collected set does not match a committed collect".into(),
            })
        }
    };
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Allocate, tick: start_tick });
    let (conflicts, compact_grants, requests) =
        allocate_accepted(config, &accepted_submissions, auction_seed)?;
    // The ledger backend's audit chain is built from journal-recoverable
    // data only (accepted set, grants, charge verdicts), so a resumed
    // session replays to the byte-identical root.
    let mut ledger = match config.backend {
        BackendKind::Ledger => Some(CommitmentLedger::new()),
        _ => None,
    };
    let to_original = |g: &Grant| Grant { bidder: BidderId(accepted[g.bidder.0]), ..*g };
    if let Some(ledger) = ledger.as_mut() {
        for (&original, submission) in accepted.iter().zip(&accepted_submissions) {
            ledger.append("submission", &submission_payload(original, submission.checksum()));
        }
    }
    for grant in compact_grants.iter().map(to_original) {
        let (bidder, channel) = (grant.bidder.0, grant.channel.0);
        journal.append(JournalEntry::GrantIssued { bidder, channel });
        if let Some(ledger) = ledger.as_mut() {
            ledger.append("grant", &grant_payload(&grant));
        }
    }

    journal.append(JournalEntry::PhaseEntered { phase: Phase::Charge, tick: start_tick });
    let mut link = TtpLink::new(backend, config.ttp_schedule, config.ttp_link, ttp_seed);
    link.enqueue(requests);
    let charge_end = start_tick + config.charge_deadline;
    let mut tick = start_tick;
    while tick <= charge_end {
        if link.pump(tick, &mut journal) {
            break;
        }
        tick += 1;
    }

    let mut assignments = Vec::new();
    let mut invalid_grants = Vec::new();
    let mut provisional = Vec::new();
    let mut deferred = Vec::new();
    for (slot, grant) in compact_grants.iter().enumerate() {
        let original = to_original(grant);
        match &link.decisions()[slot] {
            Some(Ok(ChargeDecision::Valid { raw_price })) => {
                journal.append(JournalEntry::ChargeDecided {
                    bidder: original.bidder.0,
                    channel: original.channel.0,
                    verdict: format!("valid:{raw_price}"),
                });
                assignments.push(Assignment {
                    bidder: original.bidder,
                    channel: original.channel,
                    price: *raw_price,
                });
            }
            Some(Ok(ChargeDecision::InvalidZero)) => {
                journal.append(JournalEntry::ChargeDecided {
                    bidder: original.bidder.0,
                    channel: original.channel.0,
                    verdict: "invalid-zero".into(),
                });
                invalid_grants.push(original);
            }
            Some(Err(cause)) => {
                journal.append(JournalEntry::ChargeDecided {
                    bidder: original.bidder.0,
                    channel: original.channel.0,
                    verdict: format!("refused: {cause}"),
                });
                let reason = QuarantineReason::ChargeFailed { cause: cause.clone() };
                journal.append(JournalEntry::Quarantined {
                    bidder: original.bidder.0,
                    reason: reason.to_string(),
                });
                quarantine.insert(original.bidder.0, reason);
            }
            None => {
                deferred.push(original.bidder.0);
                provisional.push(original);
            }
        }
    }
    if !deferred.is_empty() {
        journal.append(JournalEntry::ChargesDeferred { bidders: deferred, tick });
    }
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Settle, tick });
    if let Some(ledger) = ledger.as_mut() {
        for (slot, grant) in compact_grants.iter().enumerate() {
            let verdict = link.decisions()[slot].as_ref();
            ledger.append("charge", &charge_payload(&to_original(grant), verdict));
        }
    }
    // The audited backend replays its chain before the round commits.
    let ledger_root = match ledger.as_ref() {
        Some(ledger) => {
            ledger.verify().map_err(|e| LppaError::LedgerTampered { detail: e.to_string() })?;
            Some(ledger.root())
        }
        None => None,
    };
    journal.append(JournalEntry::Settled { tick });

    Ok(SessionOutcome {
        outcome: AuctionOutcome::from_assignments(assignments, n_bidders),
        invalid_grants,
        provisional,
        grants: compact_grants.iter().map(to_original).collect(),
        conflicts,
        accepted,
        quarantine,
        journal,
        stats,
        ticks: tick,
        ledger_root,
    })
}
