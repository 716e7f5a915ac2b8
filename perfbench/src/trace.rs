//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded in the benchmark's own code, around each call into
//! a layer's public functions. Names come from the closed [`Site`] enum
//! and counters are plain integers, so nothing the trace holds can carry
//! a plaintext location or bid.

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

use lppa_auction::allocation::BidOracle;
use lppa_auction::bidder::BidderId;
use lppa_rng::RngCore;
use lppa_spectrum::ChannelId;

/// Marks a span with no parent.
const ROOT: u32 = u32::MAX;

/// The layers a round's time is attributed to, named after the
/// workspace modules. Tie classes, the conflict graph, allocation and
/// charging run inside `run_round_in`, so within a round they are engine
/// time; the probes time them on their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Ppbs,
    Wire,
    Engine,
}

impl Layer {
    pub const ALL: [Layer; 3] = [Layer::Ppbs, Layer::Wire, Layer::Engine];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Ppbs => "ppbs",
            Layer::Wire => "wire",
            Layer::Engine => "engine",
        }
    }
}

/// Every place a span is opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Site {
    /// One auction round, all areas (root).
    Round,
    /// Initial admission of a resident population (root).
    Admission,
    /// The composed-phase probe on a resident workload's final state
    /// (root).
    Probe,
    /// One bidder's submission, masking through acceptance.
    Submit,
    /// `SuSubmission::build_in`.
    Mask,
    /// `SuSubmission::rebuild_bids_in`.
    Remask,
    /// `encode_submission_frame`.
    Encode,
    /// `WireCollectEngine::ingest`.
    Ingest,
    /// `WireCollectEngine::close`.
    Close,
    /// `build_conflict_graph`.
    Graph,
    /// `MaskedBidTable::collect_pruned`.
    Classes,
    /// `greedy_allocate`.
    Alloc,
    /// `charge_requests` + `Ttp::open_charges`.
    Charge,
    /// `IncrementalAuctioneer::join`.
    Join,
    /// `IncrementalAuctioneer::leave`.
    Leave,
    /// `IncrementalAuctioneer::{take_for_revise, put_revised}`.
    Revise,
    /// `IncrementalAuctioneer::run_round_in`.
    EngineRound,
}

impl Site {
    pub fn name(self) -> &'static str {
        match self {
            Site::Round => "round",
            Site::Admission => "admission",
            Site::Probe => "probe",
            Site::Submit => "submit",
            Site::Mask => "ppbs.mask",
            Site::Remask => "ppbs.remask",
            Site::Encode => "wire.encode",
            Site::Ingest => "wire.ingest",
            Site::Close => "wire.close",
            Site::Graph => "graph.build",
            Site::Classes => "psd.classes",
            Site::Alloc => "alloc.greedy",
            Site::Charge => "ttp.charge",
            Site::Join => "engine.join",
            Site::Leave => "engine.leave",
            Site::Revise => "engine.revise",
            Site::EngineRound => "engine.round",
        }
    }

    /// The layer a span's self time inside a round belongs to; `None`
    /// for the benchmark's own container spans, whose self time is
    /// unexplained, and for the probe-only phase spans.
    pub fn layer(self) -> Option<Layer> {
        match self {
            Site::Mask | Site::Remask => Some(Layer::Ppbs),
            Site::Encode | Site::Ingest | Site::Close => Some(Layer::Wire),
            Site::Join | Site::Leave | Site::Revise | Site::EngineRound => Some(Layer::Engine),
            Site::Round
            | Site::Admission
            | Site::Probe
            | Site::Submit
            | Site::Graph
            | Site::Classes
            | Site::Alloc
            | Site::Charge => None,
        }
    }
}

/// One closed span; times are ns since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub site: Site,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub round: u32,
}

/// Span recorder. While off, `begin`/`end` do nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), round: 0 }
    }

    /// Switches recording on or off; spans already open must be closed
    /// first.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "switched with open spans");
        self.on = on;
    }

    /// Round id stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u64) {
        self.round = u32::try_from(round).unwrap_or(u32::MAX);
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, site: Site) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(self.spans.len() as u32);
        let start = self.now();
        self.spans.push(Span { site, start, end: start, parent, round: self.round });
    }

    /// Closes the innermost open span, which must be `site`.
    pub fn end(&mut self, site: Site) {
        if !self.on {
            return;
        }
        let end = self.now();
        let id = self.open.pop().expect("end without begin") as usize;
        assert_eq!(self.spans[id].site, site, "spans must nest");
        self.spans[id].end = end;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span at `site` whose root is a `root`
    /// span.
    pub fn durations_ms(&self, site: Site, root: Site) -> Vec<f64> {
        let roots = self.roots();
        self.spans
            .iter()
            .zip(&roots)
            .filter(|(s, &r)| s.site == site && self.spans[r].site == root)
            .map(|(s, _)| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    /// Index of each span's root span.
    fn roots(&self) -> Vec<usize> {
        let mut roots = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let r = if s.parent == ROOT { i } else { roots[s.parent as usize] };
            roots.push(r);
        }
        roots
    }

    /// Self time in ms per layer, summed over every span under a
    /// `Round` root, plus the unexplained remainder (self time of the
    /// benchmark's container spans), and the number of rounds seen.
    pub fn self_times(&self) -> (Vec<(Layer, f64)>, f64, usize) {
        let roots = self.roots();
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut per_layer: Vec<(Layer, f64)> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
        let mut unexplained = 0.0;
        let mut rounds = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[roots[i]].site != Site::Round {
                continue;
            }
            rounds += usize::from(s.parent == ROOT);
            let own = (s.end - s.start).saturating_sub(child[i]) as f64 / 1e6;
            match s.site.layer() {
                Some(layer) => per_layer[layer as usize].1 += own,
                None => unexplained += own,
            }
        }
        (per_layer, unexplained, rounds)
    }

    /// The spans as JSON lines: site, start, end, parent, round.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
                s.site.name(),
                s.start,
                s.end,
                parent,
                s.round
            );
        }
        out
    }
}

/// Work counters recorded at the same boundaries as the spans. Every
/// field is a count of operations, never a value derived from a bid or
/// a location.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Composed auctions (probes) counted below.
    pub auctions: u64,
    pub select_calls: u64,
    pub candidates_scanned: u64,
    pub grants: u64,
    pub valid: u64,
    pub invalid_zero: u64,
    pub ttp_opens: u64,
    pub edges: u64,
    pub matrix_bytes: u64,
    /// Full submissions masked, and the tags they hold.
    pub masked: u64,
    pub mask_tags: u64,
    /// Frames the auctioneer rejected or quarantined.
    pub frames_rejected: u64,
    /// Engine state after the last round, summed over areas.
    pub live: u64,
    pub index_entries: u64,
}

/// A [`BidOracle`] wrapper counting winner selections and the
/// candidates each one scans.
pub struct CountingOracle<'a, O> {
    inner: &'a O,
    pub select_calls: Cell<u64>,
    pub scanned: Cell<u64>,
}

impl<'a, O> CountingOracle<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        Self { inner, select_calls: Cell::new(0), scanned: Cell::new(0) }
    }
}

impl<O: BidOracle> BidOracle for CountingOracle<'_, O> {
    fn n_bidders(&self) -> usize {
        self.inner.n_bidders()
    }

    fn n_channels(&self) -> usize {
        self.inner.n_channels()
    }

    fn has_entry(&self, bidder: BidderId, channel: ChannelId) -> bool {
        self.inner.has_entry(bidder, channel)
    }

    fn select_winner(
        &self,
        channel: ChannelId,
        candidates: &[BidderId],
        rng: &mut dyn RngCore,
    ) -> BidderId {
        self.select_calls.set(self.select_calls.get() + 1);
        self.scanned.set(self.scanned.get() + candidates.len() as u64);
        self.inner.select_winner(channel, candidates, rng)
    }
}
