//! End-to-end masking-backend coverage for the session layer: every
//! [`BackendKind`] drives a full collect → allocate → charge → settle
//! round, the exact backends agree bit-for-bit, and the audited ledger
//! backend's root survives crash-recovery replay.

use std::collections::BTreeSet;

use lppa::protocol::{build_submissions, AuctioneerModel, SuSubmission};
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::{LppaConfig, Ttp};
use lppa_auction::bidder::Location;
use lppa_prefix::backend::BackendKind;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, SeedableRng};
use lppa_session::fault::FaultConfig;
use lppa_session::session::{AuctionSession, SessionConfig};
use lppa_session::ttp_link::{TtpLinkConfig, TtpSchedule};
use lppa_session::{Journal, JournalEntry};

fn fleet(n_bidders: usize, n_channels: usize, seed: u64) -> (Ttp, Vec<SuSubmission>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ttp = Ttp::new(n_channels, LppaConfig::default(), &mut rng).unwrap();
    let policy = ZeroReplacePolicy::uniform(0.5, ttp.config().bid_max());
    let bidders: Vec<(Location, Vec<u32>)> = (0..n_bidders)
        .map(|_| {
            let loc = Location::new(rng.gen_range(0..=127), rng.gen_range(0..=127));
            let bids = (0..n_channels).map(|_| rng.gen_range(0..=100)).collect();
            (loc, bids)
        })
        .collect();
    let submissions = build_submissions(&bidders, &ttp, &policy, &mut rng).unwrap();
    (ttp, submissions)
}

fn config_for(backend: BackendKind) -> SessionConfig {
    SessionConfig { backend, ..SessionConfig::default() }
}

#[test]
fn every_backend_settles_a_clean_round() {
    let (ttp, submissions) = fleet(10, 4, 41);
    for kind in BackendKind::ALL {
        let outcome = AuctionSession::new(&ttp, config_for(kind)).run(&submissions, 17).unwrap();
        assert_eq!(outcome.accepted.len(), 10, "{kind:?}");
        // Grants partition into charged, invalid and provisional.
        assert_eq!(
            outcome.outcome.assignments().len()
                + outcome.invalid_grants.len()
                + outcome.provisional.len(),
            outcome.grants.len(),
            "{kind:?}"
        );
        assert_eq!(outcome.ledger_root.is_some(), kind == BackendKind::Ledger, "{kind:?}");
    }
}

#[test]
fn exact_backends_are_bit_identical_and_deterministic() {
    let (ttp, submissions) = fleet(12, 3, 52);
    let run = |kind: BackendKind, seed: u64| {
        AuctionSession::new(&ttp, config_for(kind)).run(&submissions, seed).unwrap()
    };
    for seed in [5u64, 99] {
        let hmac = run(BackendKind::Hmac, seed);
        let ledger = run(BackendKind::Ledger, seed);
        // The ledger backend replicates the hmac classes and RNG draws.
        assert_eq!(hmac.fingerprint(), ledger.fingerprint(), "seed {seed}");
        assert_eq!(hmac.outcome.assignments(), ledger.outcome.assignments());
        assert_eq!(hmac.grants, ledger.grants);
        // Each backend is individually deterministic (bloom included —
        // its filters are keyed only by the tags they index).
        for kind in BackendKind::ALL {
            assert_eq!(
                run(kind, seed).fingerprint(),
                run(kind, seed).fingerprint(),
                "{kind:?} seed {seed}"
            );
        }
    }
}

#[test]
fn ledger_root_is_deterministic_and_replays_on_resume() {
    let (ttp, submissions) = fleet(9, 3, 43);
    let config = SessionConfig {
        backend: BackendKind::Ledger,
        faults: FaultConfig::chaotic(),
        collect_deadline: 20,
        max_retries: 6,
        ttp_schedule: TtpSchedule { offline_until: 24, online: 3, offline: 3 },
        ttp_link: TtpLinkConfig { batch_size: 2, failure: 0.25, backoff: 1, max_batch_retries: 8 },
        charge_deadline: 48,
        ..SessionConfig::default()
    };
    let session = AuctionSession::new(&ttp, config);
    let original = session.run(&submissions, 555).unwrap();
    let root = original.ledger_root.expect("ledger backend publishes a root");

    // Same inputs, same audit chain.
    let rerun = session.run(&submissions, 555).unwrap();
    assert_eq!(rerun.ledger_root, Some(root));

    // Crash after collect committed: the journal-recovered session
    // rebuilds the byte-identical chain and root.
    let salvaged = original.journal.prefix_through_collect().unwrap();
    let recovered = session.resume(&submissions, &salvaged).unwrap();
    assert_eq!(recovered.fingerprint(), original.fingerprint());
    assert_eq!(recovered.ledger_root, Some(root));

    // A different session seed audits to a different root.
    let other = session.run(&submissions, 556).unwrap();
    assert_ne!(other.ledger_root, Some(root));
}

/// The pinned fleet: 12 bidders over 3 channels whose zeros always
/// disguise as a high bid, bidder 5 ragged (quarantined at collect) and
/// bidder 8 a price manipulator (its charge is refused).
fn pinned_fleet() -> (Ttp, Vec<SuSubmission>) {
    let mut rng = StdRng::seed_from_u64(44);
    let ttp = Ttp::new(3, LppaConfig::default(), &mut rng).unwrap();
    // Zeros always disguise as a high bid, so disguised zeros win.
    let mut disguise = vec![0.0; ttp.config().bid_max() as usize + 1];
    disguise[110] = 1.0;
    let policy = ZeroReplacePolicy::from_probabilities(disguise);
    let bidders: Vec<(Location, Vec<u32>)> = (0..12)
        .map(|i| {
            let loc = Location::new(rng.gen_range(0..=127), rng.gen_range(0..=127));
            let bids = (0..3).map(|ch| if (i + ch) % 6 == 0 { 0 } else { rng.gen_range(1..=100) });
            (loc, bids.collect())
        })
        .collect();
    let mut submissions = build_submissions(&bidders, &ttp, &policy, &mut rng).unwrap();
    lppa_session::chaos::truncate_point(&mut submissions[5], 2, 3).unwrap();
    lppa_session::chaos::forge_presented_bid(&mut submissions[8], &ttp, 0, 125, &mut rng).unwrap();
    (ttp, submissions)
}

/// The collect-phase journal entry kinds `journal` records, by name;
/// quarantines split into `Rejected` and `MissedDeadline`.
fn collect_kinds(journal: &Journal) -> BTreeSet<&'static str> {
    journal
        .entries()
        .iter()
        .filter_map(|e| match e {
            JournalEntry::SubmissionAccepted { .. } => Some("SubmissionAccepted"),
            JournalEntry::DuplicateIgnored { .. } => Some("DuplicateIgnored"),
            JournalEntry::CorruptDiscarded { .. } => Some("CorruptDiscarded"),
            JournalEntry::FrameRejected { .. } => Some("FrameRejected"),
            JournalEntry::Quarantined { reason, .. }
                if reason.starts_with("submission rejected") =>
            {
                Some("Rejected")
            }
            JournalEntry::Quarantined { reason, .. } if reason.starts_with("missed collect") => {
                Some("MissedDeadline")
            }
            _ => None,
        })
        .collect()
}

#[test]
fn audited_and_wire_rounds_are_pinned_to_exact_bytes() {
    // The determinism tests above compare runs against each other, so a
    // change that moved a ledger payload byte (or any round decision)
    // consistently everywhere would pass them. These literals pin the
    // absolute values instead. The audited round carries a ragged
    // sender (quarantined at collect), a price manipulator (its charge
    // is refused and only its own grant struck), disguised zeros
    // (invalidated charges) and a TTP that goes dark mid-charge
    // (deferred charges), so the chain records every verdict tag.
    let (ttp, submissions) = pinned_fleet();
    let config = SessionConfig {
        backend: BackendKind::Ledger,
        faults: FaultConfig::chaotic(),
        collect_deadline: 20,
        max_retries: 6,
        ttp_schedule: TtpSchedule { offline_until: 22, online: 6, offline: 40 },
        ttp_link: TtpLinkConfig { batch_size: 1, failure: 0.0, backoff: 1, max_batch_retries: 8 },
        charge_deadline: 16,
        model: AuctioneerModel::Oblivious,
        ..SessionConfig::default()
    };
    let audited = AuctionSession::new(&ttp, config).run(&submissions, 2026).unwrap();
    let verdicts: Vec<String> = audited
        .journal
        .entries()
        .iter()
        .filter_map(|e| match e {
            JournalEntry::ChargeDecided { verdict, .. } => Some(verdict.clone()),
            JournalEntry::ChargesDeferred { .. } => Some("deferred".into()),
            _ => None,
        })
        .collect();
    for tag in ["valid:", "invalid-zero", "refused:", "deferred"] {
        assert!(verdicts.iter().any(|v| v.starts_with(tag)), "no {tag} verdict in {verdicts:?}");
    }
    assert!(audited.quarantine.contains(5), "ragged sender must be quarantined");
    assert!(!audited.accepted.contains(&5));
    assert!(audited.quarantine.contains(8), "refused manipulator must be quarantined");
    assert!(audited.outcome.assignments().iter().all(|a| a.bidder.0 != 8));
    let root: String = audited.ledger_root.unwrap().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(root, "a4b8b3bd10ef5bc9a864d04cd8bd72df1386902a75c6ffa2321f85e7bd001136");
    assert_eq!(audited.fingerprint(), 0x22d4f597cd947e5);
    assert_eq!(audited.journal.fingerprint(), 0x0698d4aaed84030c);

    let wire_config = SessionConfig {
        backend: BackendKind::Hmac,
        faults: FaultConfig::chaotic(),
        ..SessionConfig::default()
    };
    let wired = lppa_session::run_wire_round(&ttp, wire_config, &submissions, 77).unwrap();
    assert_eq!(wired.fingerprint(), 0x22da2e7a432f780e);
    assert_eq!(wired.journal.fingerprint(), 0x2530ae3a770d9795);
}

#[test]
fn lossy_collects_journal_every_collect_entry_kind_at_exact_bytes() {
    // The pinned rounds above never miss the deadline or reject a frame.
    // A lossy link with a tight deadline does both: some bidders never
    // get an intact copy through (MissedDeadline), and frame-level
    // corruption that lands in a header makes bytes no bidder can own
    // (FrameRejected, wire only — typed corruption damages one tag).
    let (ttp, submissions) = pinned_fleet();
    let config = SessionConfig {
        backend: BackendKind::Hmac,
        faults: FaultConfig {
            drop: 0.45,
            duplicate: 0.3,
            corrupt: 0.4,
            delay: 0.4,
            max_delay: 3,
            reorder: true,
        },
        collect_deadline: 7,
        max_retries: 2,
        ..SessionConfig::default()
    };
    let typed = AuctionSession::new(&ttp, config).run(&submissions, 19).unwrap();
    let wired = lppa_session::run_wire_round(&ttp, config, &submissions, 19).unwrap();
    let typed_kinds = [
        "SubmissionAccepted",
        "DuplicateIgnored",
        "CorruptDiscarded",
        "Rejected",
        "MissedDeadline",
    ];
    assert_eq!(
        collect_kinds(&typed.journal),
        typed_kinds.into_iter().collect(),
        "{}",
        typed.journal
    );
    let mut wire_kinds: BTreeSet<_> = typed_kinds.into_iter().collect();
    wire_kinds.insert("FrameRejected");
    assert_eq!(collect_kinds(&wired.journal), wire_kinds, "{}", wired.journal);
    assert_eq!(typed.fingerprint(), 0xbdabc9510fbe0d59);
    assert_eq!(typed.journal.fingerprint(), 0x404e1c92b6577eb6);
    assert_eq!(wired.fingerprint(), 0x3e3dc8349529d23f);
    assert_eq!(wired.journal.fingerprint(), 0xbfe998cd0f296acc);
}
