//! The one collect path under every round driver.
//!
//! The typed [`crate::session::AuctionSession::run`] moves
//! [`crate::session::SubmissionMsg`] structs through the chaos link;
//! [`run_wire_round`] and the socket auctioneer in `lppa-net` move
//! encoded frames through it. Past the link all three share one path:
//! the [`BidderSendState`] send schedule, and [`WireCollectEngine`]'s
//! admit step (unknown bidder → skipped, settled → `DuplicateIgnored`,
//! checksum mismatch → `CorruptDiscarded`, then accepted or quarantined
//! as `Rejected`) and deadline [`close`](WireCollectEngine::close).
//! [`WireCollectEngine::ingest`] is frame decode + admit; bytes that
//! don't decode are journalled as [`JournalEntry::FrameRejected`]. The
//! simulated and socket rounds also share the tick loop,
//! [`collect_frames`], and differ only in their [`FrameIo`]: local
//! encode vs socket receive. The engine thus sees the same bytes in the
//! same order on both sides — the whole sim-vs-socket equivalence
//! argument — and every driver journals the same decisions, so
//! [`crate::session::commit_collect`] and
//! [`crate::session::resume_round`] serve them all.

use lppa::protocol::{validate_submission_with, SuSubmission};
use lppa::ttp::Ttp;
use lppa::wire::{decode_submission, encode_submission};
use lppa::{LppaConfig, LppaError};

use crate::chaos::corrupt_frame;
use crate::frame::{decode_frame_exact, encode_frame, FrameKind};
use crate::journal::{Journal, JournalEntry};
use crate::quarantine::{QuarantineReason, QuarantineReport};
use crate::session::{run_local, SessionConfig, SessionOutcome};
use crate::transport::{SimTransport, TransportStats};

/// One bidder's retry/backoff bookkeeping during collect — the only send
/// schedule in the workspace.
///
/// This is the *sender's* state machine, split out of the collect loop
/// so a real bidder process can run it against its own clock: ask
/// [`Self::should_send`] once per tick, transmit when it says so, and
/// [`Self::mark_done`] when the auctioneer acknowledges (accept *or*
/// reject — both end the resend loop). The collect drivers run one per
/// bidder as the auctioneer's mirror of that schedule.
#[derive(Clone, Debug, Default)]
pub struct BidderSendState {
    next_send: u64,
    attempts: u32,
    done: bool,
}

impl BidderSendState {
    /// A bidder that has not sent yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this bidder transmits at `tick`. If so, records the
    /// attempt, schedules the exponential-backoff resend, and returns
    /// the 1-based attempt number to stamp on the wire.
    pub fn should_send(&mut self, tick: u64, config: &SessionConfig) -> Option<u32> {
        if self.done || tick < self.next_send || self.attempts > config.max_retries {
            return None;
        }
        self.attempts += 1;
        let backoff = config.retry_backoff.max(1) << u64::from(self.attempts - 1).min(16);
        self.next_send = tick + backoff;
        Some(self.attempts)
    }

    /// The auctioneer settled this bidder; stop resending.
    pub fn mark_done(&mut self) {
        self.done = true;
    }

    /// Send attempts made so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

/// The verdict the collect engine asks the driver to relay back to a
/// bidder. Both verdicts end that bidder's resend loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmissionAck {
    /// Original submission index.
    pub bidder: usize,
    /// `true` for accepted, `false` for structurally rejected.
    pub accepted: bool,
}

/// What a closed collect hands to [`crate::session::finish_round`].
#[derive(Debug)]
pub struct WireCollectResult {
    /// Accepted original indices, ascending.
    pub accepted: Vec<usize>,
    /// The accepted submissions, parallel to `accepted`.
    pub accepted_submissions: Vec<SuSubmission>,
    /// Per-bidder exclusions.
    pub quarantine: QuarantineReport,
}

/// The auctioneer's per-bidder collect state, shared by every driver.
///
/// Feed it every arriving frame in delivery order via [`Self::ingest`]
/// (the typed driver hands it decoded messages directly); it checksums,
/// validates and journals each copy, then [`Self::close`] settles the
/// stragglers at the deadline.
#[derive(Debug)]
pub struct WireCollectEngine {
    n: usize,
    n_channels: usize,
    config: LppaConfig,
    done: Vec<bool>,
    corrupt_copies: Vec<u32>,
    accepted: Vec<usize>,
    submissions: Vec<Option<SuSubmission>>,
    quarantine: QuarantineReport,
}

impl WireCollectEngine {
    /// An engine for a round of `n_bidders` bidders over `n_channels`
    /// channels under the announced public `config` — everything
    /// validation needs, no TTP keys required.
    pub fn new(n_bidders: usize, n_channels: usize, config: LppaConfig) -> Self {
        Self {
            n: n_bidders,
            n_channels,
            config,
            done: vec![false; n_bidders],
            corrupt_copies: vec![0; n_bidders],
            accepted: Vec::new(),
            submissions: vec![None; n_bidders],
            quarantine: QuarantineReport::new(),
        }
    }

    /// Processes one delivered frame at `tick`: decode, then admit.
    /// Returns the ack to relay when the frame settles a bidder
    /// (accepted or rejected); `None` for everything that a
    /// retransmission may still cover (corrupt copies, undecodable
    /// frames) or that needs no answer (duplicates, unknown bidders).
    pub fn ingest(
        &mut self,
        tick: u64,
        bytes: &[u8],
        journal: &mut Journal,
    ) -> Option<SubmissionAck> {
        let view = match decode_frame_exact(bytes) {
            Ok(frame) if frame.kind == FrameKind::Submission => {
                decode_submission(frame.payload).ok()
            }
            _ => None,
        };
        let Some(view) = view else {
            // Too damaged to attribute to any bidder.
            journal.append(JournalEntry::FrameRejected { tick });
            return None;
        };
        self.admit(tick, view.bidder(), journal, || {
            (view.computed_checksum() == view.declared_checksum())
                .then(|| view.materialize().map(|(submission, attempt, _)| (submission, attempt)))
        })
    }

    /// The admit step behind every driver: one delivered copy claiming
    /// to come from `bidder`. `open` runs only for an unsettled, known
    /// bidder; it returns `None` when the copy fails its transport
    /// checksum (a retransmission may still cover it), otherwise the
    /// submission and its 1-based attempt, or why it could not be built.
    pub(crate) fn admit(
        &mut self,
        tick: u64,
        bidder: usize,
        journal: &mut Journal,
        open: impl FnOnce() -> Option<Result<(SuSubmission, u32), LppaError>>,
    ) -> Option<SubmissionAck> {
        if bidder >= self.n {
            // A corrupted header naming a nonexistent bidder: nothing to
            // quarantine, nothing to poison.
            return None;
        }
        if self.done[bidder] {
            journal.append(JournalEntry::DuplicateIgnored { bidder, tick });
            return None;
        }
        let Some(opened) = open() else {
            self.corrupt_copies[bidder] += 1;
            journal.append(JournalEntry::CorruptDiscarded { bidder, tick });
            return None;
        };
        self.done[bidder] = true;
        let validated = opened.and_then(|(submission, attempt)| {
            validate_submission_with(&submission, self.n_channels, &self.config)?;
            Ok((submission, attempt))
        });
        match validated {
            Ok((submission, attempt)) => {
                self.accepted.push(bidder);
                journal.append(JournalEntry::SubmissionAccepted { bidder, tick, attempt });
                self.submissions[bidder] = Some(submission);
                Some(SubmissionAck { bidder, accepted: true })
            }
            Err(cause) => {
                // A structurally-bad submission that passed the checksum
                // is bad at the *sender* — retries would fail
                // identically, so quarantine now.
                let reason = QuarantineReason::Rejected { cause };
                journal.append(JournalEntry::Quarantined { bidder, reason: reason.to_string() });
                self.quarantine.insert(bidder, reason);
                Some(SubmissionAck { bidder, accepted: false })
            }
        }
    }

    /// Closes the phase at the deadline: quarantines every unsettled
    /// bidder as `MissedDeadline` (with the send `attempts` counted by
    /// the driver's [`BidderSendState`] mirrors) and sorts the accepted
    /// set.
    pub fn close(mut self, attempts: &[u32], journal: &mut Journal) -> WireCollectResult {
        for i in 0..self.n {
            if !self.done[i] {
                let reason = QuarantineReason::MissedDeadline {
                    attempts: attempts.get(i).copied().unwrap_or(0),
                    corrupt_copies: self.corrupt_copies[i],
                };
                journal.append(JournalEntry::Quarantined { bidder: i, reason: reason.to_string() });
                self.quarantine.insert(i, reason);
            }
        }
        self.accepted.sort_unstable();
        let accepted_submissions = self
            .accepted
            .iter()
            .map(|&i| self.submissions[i].take().expect("accepted bidders stored a submission"))
            .collect();
        WireCollectResult {
            accepted: self.accepted,
            accepted_submissions,
            quarantine: self.quarantine,
        }
    }
}

/// Encodes one submission as a complete frame: the [`lppa::wire`]
/// payload wrapped in a [`FrameKind::Submission`] header, seq stamped
/// with the attempt number.
pub fn encode_submission_frame(bidder: usize, attempt: u32, sub: &SuSubmission) -> Vec<u8> {
    let mut payload = Vec::with_capacity(sub.wire_len() + 64);
    encode_submission(bidder, attempt, sub.checksum(), sub, &mut payload);
    encode_frame(FrameKind::Submission, u64::from(attempt), &payload)
}

/// The I/O a driver supplies to [`collect_frames`]: where each tick's
/// submission frames come from and where acks go.
pub trait FrameIo {
    /// Why the driver ended the collect early (a socket failure, a
    /// simulated crash). The in-process round cannot fail.
    type Error;

    /// The frames the bidders send at `tick`, in bidder order.
    /// `sends[i]` is bidder `i`'s attempt number when its
    /// [`BidderSendState`] schedule transmits now, `None` otherwise.
    fn frames(&mut self, tick: u64, sends: &[Option<u32>]) -> Result<Vec<Vec<u8>>, Self::Error>;

    /// Relays `ack` back to its bidder. The in-process round has no one
    /// to tell.
    fn ack(&mut self, _ack: SubmissionAck) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The one wire collect loop, run by [`run_wire_round`] and the socket
/// auctioneer: every tick, the [`BidderSendState`] mirrors decide who
/// sends, `io` supplies those frames, the seeded chaos link (frame
/// corruption via [`corrupt_frame`]) carries them, and `engine` ingests
/// what the link delivers, each ack going back through `io`. Returns
/// the closed collect and the link counters.
///
/// # Errors
///
/// Whatever `io` fails with.
pub fn collect_frames<I: FrameIo>(
    config: &SessionConfig,
    mut engine: WireCollectEngine,
    transport_seed: u64,
    journal: &mut Journal,
    io: &mut I,
) -> Result<(WireCollectResult, TransportStats), I::Error> {
    let mut link: SimTransport<Vec<u8>> = SimTransport::new(config.faults, transport_seed);
    let mut senders = vec![BidderSendState::new(); engine.n];
    for tick in 0..=config.collect_deadline {
        let sends: Vec<Option<u32>> =
            senders.iter_mut().map(|s| s.should_send(tick, config)).collect();
        for frame in io.frames(tick, &sends)? {
            link.send(tick, frame, |bytes, rng| corrupt_frame(bytes, rng));
        }
        for bytes in link.deliver(tick) {
            if let Some(ack) = engine.ingest(tick, &bytes, journal) {
                senders[ack.bidder].mark_done();
                io.ack(ack)?;
            }
        }
    }
    link.flush();
    let attempts: Vec<u32> = senders.iter().map(BidderSendState::attempts).collect();
    Ok((engine.close(&attempts, journal), link.stats))
}

/// In-process bidders: every scheduled send encodes a fresh frame.
struct LocalBidders<'a>(&'a [SuSubmission]);

impl FrameIo for LocalBidders<'_> {
    type Error = std::convert::Infallible;

    fn frames(&mut self, _tick: u64, sends: &[Option<u32>]) -> Result<Vec<Vec<u8>>, Self::Error> {
        let frames = sends.iter().zip(self.0).enumerate();
        Ok(frames
            .filter_map(|(i, (attempt, sub))| attempt.map(|a| encode_submission_frame(i, a, sub)))
            .collect())
    }
}

/// Runs one complete round over encoded frames through the simulated
/// chaos link — the in-process reference the socket round must match
/// fingerprint-for-fingerprint under the same seeds.
///
/// # Errors
///
/// [`LppaError::QuorumNotReached`] below the configured quorum;
/// [`LppaError::Internal`] for table inconsistencies.
pub fn run_wire_round(
    ttp: &Ttp,
    config: SessionConfig,
    submissions: &[SuSubmission],
    seed: u64,
) -> Result<SessionOutcome, LppaError> {
    run_local(ttp, &config, submissions.len(), seed, |transport_seed, journal| {
        let engine = WireCollectEngine::new(submissions.len(), ttp.n_channels(), *ttp.config());
        let Ok(collected) = collect_frames(
            &config,
            engine,
            transport_seed,
            journal,
            &mut LocalBidders(submissions),
        );
        collected
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::session::AuctionSession;
    use lppa::protocol::build_submissions;
    use lppa::zero_replace::ZeroReplacePolicy;
    use lppa_auction::bidder::Location;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

    fn setup(n_bidders: usize) -> (Ttp, Vec<SuSubmission>) {
        let mut rng = StdRng::seed_from_u64(99);
        let ttp = Ttp::new(2, LppaConfig::default(), &mut rng).unwrap();
        let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
        let bidders: Vec<_> = (0..n_bidders)
            .map(|i| {
                let base = 10 + 13 * i as u32;
                (Location::new(base, base), vec![10 + i as u32, 30 - i as u32])
            })
            .collect();
        let submissions = build_submissions(&bidders, &ttp, &policy, &mut rng).unwrap();
        (ttp, submissions)
    }

    #[test]
    fn reliable_wire_round_matches_typed_round() {
        let (ttp, submissions) = setup(4);
        let config = SessionConfig::default();
        let typed = AuctionSession::new(&ttp, config).run(&submissions, 7).unwrap();
        let wired = run_wire_round(&ttp, config, &submissions, 7).unwrap();
        assert_eq!(typed.fingerprint(), wired.fingerprint());
        assert_eq!(typed.accepted, wired.accepted);
        assert_eq!(typed.outcome.revenue(), wired.outcome.revenue());
    }

    #[test]
    fn chaotic_wire_round_replays_identically() {
        let (ttp, submissions) = setup(6);
        let config = SessionConfig {
            faults: FaultConfig::chaotic(),
            min_accepted: 1,
            ..SessionConfig::default()
        };
        let a = run_wire_round(&ttp, config, &submissions, 1234).unwrap();
        let b = run_wire_round(&ttp, config, &submissions, 1234).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.journal.fingerprint(), b.journal.fingerprint());
        let c = run_wire_round(&ttp, config, &submissions, 1235).unwrap();
        assert_ne!(a.journal.fingerprint(), c.journal.fingerprint());
    }

    #[test]
    fn wire_journal_resumes_to_identical_fingerprint() {
        let (ttp, submissions) = setup(5);
        let config = SessionConfig {
            faults: FaultConfig::chaotic(),
            min_accepted: 1,
            ..SessionConfig::default()
        };
        let full = run_wire_round(&ttp, config, &submissions, 42).unwrap();
        let resumed =
            AuctionSession::new(&ttp, config).resume(&submissions, &full.journal).unwrap();
        assert_eq!(full.fingerprint(), resumed.fingerprint());
    }

    #[test]
    fn send_state_mirrors_the_typed_schedule() {
        let config = SessionConfig { retry_backoff: 2, max_retries: 2, ..SessionConfig::default() };
        let mut state = BidderSendState::new();
        let mut sent = Vec::new();
        for tick in 0..=16 {
            if let Some(attempt) = state.should_send(tick, &config) {
                sent.push((tick, attempt));
            }
        }
        // Backoff: 2 << 0, 2 << 1, 2 << 2 → sends at 0, 2, 6, then the
        // attempt cap (max_retries + 1 total sends) stops the loop.
        assert_eq!(sent, vec![(0, 1), (2, 2), (6, 3)]);
        let mut done = BidderSendState::new();
        assert!(done.should_send(0, &config).is_some());
        done.mark_done();
        assert!(done.should_send(10, &config).is_none());
        assert_eq!(done.attempts(), 1);
    }

    #[test]
    fn engine_rejects_garbage_and_quarantines_bad_senders() {
        let (ttp, submissions) = setup(2);
        let mut journal = Journal::new();
        let mut engine = WireCollectEngine::new(2, ttp.n_channels(), *ttp.config());

        // Pure garbage: frame-rejected, no ack.
        assert!(engine.ingest(1, &[0xFF; 40], &mut journal).is_none());
        // A non-submission frame: frame-rejected.
        let stray = encode_frame(FrameKind::TickStart, 0, &crate::frame::encode_tick_start(1));
        assert!(engine.ingest(1, &stray, &mut journal).is_none());
        // A checksum mismatch: corrupt-discarded, no ack.
        let mut bad = encode_submission_frame(0, 1, &submissions[0]);
        let len = bad.len();
        bad[len - 1] ^= 0x01;
        assert!(engine.ingest(1, &bad, &mut journal).is_none());
        // The honest copy still lands.
        let good = encode_submission_frame(0, 2, &submissions[0]);
        assert_eq!(
            engine.ingest(2, &good, &mut journal),
            Some(SubmissionAck { bidder: 0, accepted: true })
        );
        // And a duplicate is ignored without an ack.
        let dup = encode_submission_frame(0, 3, &submissions[0]);
        assert!(engine.ingest(3, &dup, &mut journal).is_none());

        let result = engine.close(&[2, 0], &mut journal);
        assert_eq!(result.accepted, vec![0]);
        assert_eq!(result.accepted_submissions.len(), 1);
        assert!(result.quarantine.contains(1), "silent bidder quarantined at close");
        let rendered = journal.to_string();
        assert!(rendered.contains("FrameRejected"), "{rendered}");
        assert!(rendered.contains("CorruptDiscarded"), "{rendered}");
        assert!(rendered.contains("DuplicateIgnored"), "{rendered}");
    }
}
