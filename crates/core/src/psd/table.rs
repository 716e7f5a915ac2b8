//! The auctioneer's masked bid table.
//!
//! After the bidding phase the auctioneer holds one
//! [`AdvancedBidSubmission`] per bidder. It cannot read any price, but
//! within a channel it can test `a ≥ b` through prefix membership — which
//! is enough to drive the greedy allocation (as the [`BidOracle`]
//! implementation) and to rank a column (which is also exactly the
//! information the §VI attacker can exploit, see
//! `lppa_attack::ChannelRankings`).

use lppa_auction::allocation::BidOracle;
use lppa_auction::bidder::BidderId;
use lppa_prefix::TagIndex;
use lppa_spectrum::ChannelId;

use std::borrow::Borrow;

use crate::error::LppaError;
use crate::ppbs::bid::AdvancedBidSubmission;
use crate::protocol::AuctioneerModel;

/// All bidders' masked submissions, as the auctioneer stores them.
#[derive(Clone, Debug)]
pub struct MaskedBidTable<S = AdvancedBidSubmission> {
    submissions: Vec<S>,
    n_channels: usize,
    prune_plain_zeros: bool,
    /// Per-channel *tie classes*: `classes[ch][b]` is bidder `b`'s rank
    /// class on channel `ch` by descending masked bid, `0` highest, with
    /// equal transformed values (mutual masked `≥`) sharing a class.
    /// Computed once per collect — every later winner selection is then
    /// pure integer work instead of `O(m)` masked membership tests.
    classes: Vec<Vec<u32>>,
    /// One inverted index per channel over every bidder's *point* tags,
    /// built lazily on first use. Probing a range against it yields all
    /// bidders whose masked bid is ≥ that range's lower bound — the
    /// reference path ([`Self::maxima_indexed`]) the class-based winner
    /// selection is property-tested against.
    point_indexes: std::sync::OnceLock<Vec<TagIndex>>,
}

impl<S: Borrow<AdvancedBidSubmission> + Sync> MaskedBidTable<S> {
    /// Collects the submissions into a fully oblivious table: every cell
    /// is an entry, because the auctioneer cannot tell zeros apart.
    ///
    /// # Errors
    ///
    /// Returns [`LppaError::ChannelCountMismatch`] if the submissions do
    /// not all cover the same channels, or [`LppaError::InvalidConfig`]
    /// if there are none.
    pub fn collect(submissions: Vec<S>) -> Result<Self, LppaError> {
        Self::collect_inner(submissions, false, None)
    }

    /// Collects the submissions with *plain-zero pruning*: cells whose
    /// presented value is an undisguised zero are treated as absent.
    ///
    /// This models the iterative charging protocol
    /// ([`AuctioneerModel::IterativeCharging`]): whenever
    /// a plain zero wins, the TTP detects it (the winner's prefixes match
    /// its sealed zero-band value), reveals it, and the auctioneer
    /// strikes the cell and re-auctions the channel. Since a plain zero
    /// never beats a positive-looking entry, striking them all up front
    /// yields the same final allocation as the round-by-round iteration.
    pub fn collect_pruned(submissions: Vec<S>) -> Result<Self, LppaError> {
        Self::collect_inner(submissions, true, None)
    }

    /// Collects the submissions the way `model` needs them: as
    /// [`Self::collect`] for [`AuctioneerModel::Oblivious`], as
    /// [`Self::collect_pruned`] for
    /// [`AuctioneerModel::IterativeCharging`].
    ///
    /// `classes`, when given, are *precomputed* per-channel tie classes
    /// (see [`Self::classes`]) — for callers that maintain the channel
    /// orders incrementally across rounds (`crate::incremental`) and so
    /// skip the per-collect masked ranking sort.
    ///
    /// # Errors
    ///
    /// As for [`Self::collect`], plus [`LppaError::InvalidConfig`] if
    /// the class table is not `n_channels × n_bidders`.
    pub fn for_model(
        model: AuctioneerModel,
        submissions: Vec<S>,
        classes: Option<Vec<Vec<u32>>>,
    ) -> Result<Self, LppaError> {
        Self::collect_inner(submissions, model.prunes_plain_zeros(), classes)
    }

    fn collect_inner(
        submissions: Vec<S>,
        prune_plain_zeros: bool,
        classes: Option<Vec<Vec<u32>>>,
    ) -> Result<Self, LppaError> {
        let n_channels = submissions
            .first()
            .map(|s| s.borrow().n_channels())
            .ok_or_else(|| LppaError::InvalidConfig { reason: "no submissions".into() })?;
        for s in &submissions {
            if s.borrow().n_channels() != n_channels {
                return Err(LppaError::ChannelCountMismatch {
                    submitted: s.borrow().n_channels(),
                    expected: n_channels,
                });
            }
        }
        let classes = match classes {
            Some(classes) => {
                if classes.len() != n_channels
                    || classes.iter().any(|col| col.len() != submissions.len())
                {
                    return Err(LppaError::InvalidConfig {
                        reason: "class table is not n_channels × n_bidders".into(),
                    });
                }
                classes
            }
            None => compute_classes(&submissions),
        };
        Ok(Self {
            submissions,
            n_channels,
            prune_plain_zeros,
            classes,
            point_indexes: std::sync::OnceLock::new(),
        })
    }

    /// The per-channel tie classes driving winner selection;
    /// `classes()[ch][b]` is bidder `b`'s descending-bid rank class on
    /// channel `ch` (`0` highest, ties share a class).
    pub fn classes(&self) -> &[Vec<u32>] {
        &self.classes
    }

    /// Tears the table down to its tie-class vectors so a pooled round
    /// loop can recycle their backing storage.
    pub(crate) fn into_classes(self) -> Vec<Vec<u32>> {
        self.classes
    }

    /// The per-channel point-tag indexes, built on first use (the
    /// class-based winner selection never needs them).
    fn point_index(&self, channel: ChannelId) -> &TagIndex {
        &self.point_indexes.get_or_init(|| {
            let channels: Vec<usize> = (0..self.n_channels).collect();
            lppa_par::par_map(&channels, |&ch| {
                let tags_per_point = self.submissions[0].borrow().bids()[ch].point.len();
                let mut index = TagIndex::with_capacity(self.submissions.len() * tags_per_point);
                for (bidder, s) in self.submissions.iter().enumerate() {
                    index.insert_all(s.borrow().bids()[ch].point.iter(), bidder as u32);
                }
                index
            })
        })[channel.0]
    }

    /// The stored submissions (owned or borrowed, per `S`).
    pub fn submissions(&self) -> &[S] {
        &self.submissions
    }

    /// The masked comparison `bid(a, channel) ≥ bid(b, channel)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range; use [`Self::try_ge`] for
    /// untrusted indices.
    pub fn ge(&self, channel: ChannelId, a: BidderId, b: BidderId) -> bool {
        let pa = &self.submissions[a.0].borrow().bids()[channel.0];
        let pb = &self.submissions[b.0].borrow().bids()[channel.0];
        pa.point.in_range(&pb.range)
    }

    /// Bounds-checked [`Self::ge`] for indices from untrusted inputs.
    ///
    /// # Errors
    ///
    /// Returns [`LppaError::Internal`] naming the out-of-range index.
    pub fn try_ge(&self, channel: ChannelId, a: BidderId, b: BidderId) -> Result<bool, LppaError> {
        let cell = |bidder: BidderId| {
            self.submissions
                .get(bidder.0)
                .and_then(|s| s.borrow().bids().get(channel.0))
                .ok_or_else(|| LppaError::Internal {
                    what: format!("bid cell ({}, {}) out of range", bidder.0, channel.0),
                })
        };
        Ok(cell(a)?.point.in_range(&cell(b)?.range))
    }

    /// Ranks all bidders on `channel` by descending masked bid — the
    /// §VI attacker's view of a column.
    pub fn rank_channel(&self, channel: ChannelId) -> Vec<BidderId> {
        let mut order: Vec<BidderId> = (0..self.submissions.len()).map(BidderId).collect();
        // The masked ≥ relation is a total preorder on the column;
        // testing both directions keeps the comparator consistent even
        // when two transformed values tie (equal raw bids landing in the
        // same cr slot).
        order.sort_by(|&a, &b| {
            if a == b {
                return std::cmp::Ordering::Equal;
            }
            match (self.ge(channel, a, b), self.ge(channel, b, a)) {
                (true, false) => std::cmp::Ordering::Less, // larger bid sorts first
                (false, true) => std::cmp::Ordering::Greater,
                // Tied transformed values — or, unreachable for a sound
                // oracle, mutually incomparable ones.
                _ => std::cmp::Ordering::Equal,
            }
        });
        order
    }

    /// Per-channel descending rankings for every channel.
    pub fn channel_rankings(&self) -> Vec<Vec<BidderId>> {
        (0..self.n_channels).map(|c| self.rank_channel(ChannelId(c))).collect()
    }

    /// One maximal element of the column restricted to `candidates`:
    /// a single tournament pass of masked comparisons. `None` iff
    /// `candidates` is empty.
    fn scan_best(&self, channel: ChannelId, candidates: &[BidderId]) -> Option<BidderId> {
        let (&first, rest) = candidates.split_first()?;
        let mut best = first;
        for &c in rest {
            if !self.ge(channel, best, c) {
                best = c;
            }
        }
        Some(best)
    }

    /// Finds the bidders holding the column maximum among `candidates`
    /// (usually one; several only on a transformed-value tie), using the
    /// per-channel point-tag index.
    ///
    /// After the `O(m)` tournament pass finds one maximal element
    /// `best`, the tie set `{c : bid(c) ≥ bid(best)}` is collected by
    /// probing `best`'s range tags against the prebuilt index — a
    /// constant number of probes plus one mark per hit — instead of `m`
    /// further masked membership tests. A probe hit is literally the
    /// predicate `point(c) ∩ range(best) ≠ ∅` that [`Self::ge`]
    /// evaluates, so the result equals [`Self::maxima_linear`] exactly;
    /// the property suite asserts as much.
    ///
    /// Returns an empty vector for empty `candidates`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn maxima_indexed(&self, channel: ChannelId, candidates: &[BidderId]) -> Vec<BidderId> {
        let Some(best) = self.scan_best(channel, candidates) else { return Vec::new() };
        let range = &self.submissions[best.0].borrow().bids()[channel.0].range;
        let index = self.point_index(channel);
        let mut hit = vec![false; self.submissions.len()];
        for tag in range.iter() {
            for &owner in index.owners(tag) {
                hit[owner as usize] = true;
            }
        }
        // Filter in candidate order so callers observe the same tie
        // ordering as the linear reference.
        candidates.iter().copied().filter(|&c| hit[c.0]).collect()
    }

    /// Reference implementation of [`Self::maxima_indexed`]: the
    /// tournament pass followed by a second linear pass of masked
    /// comparisons against the champion.
    ///
    /// Returns an empty vector for empty `candidates`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn maxima_linear(&self, channel: ChannelId, candidates: &[BidderId]) -> Vec<BidderId> {
        let Some(best) = self.scan_best(channel, candidates) else { return Vec::new() };
        candidates.iter().copied().filter(|&c| self.ge(channel, c, best)).collect()
    }
}

impl<S: Borrow<AdvancedBidSubmission> + Sync> BidOracle for MaskedBidTable<S> {
    fn n_bidders(&self) -> usize {
        self.submissions.len()
    }

    fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// In the oblivious model every cell is an entry — the auctioneer
    /// cannot distinguish zeros, which is precisely why disguised zeros
    /// can win and why the TTP must invalidate them at charging time. In
    /// the pruned (iterative-charging) model, cells whose presented value
    /// is a plain zero are absent.
    fn has_entry(&self, bidder: BidderId, channel: ChannelId) -> bool {
        if self.prune_plain_zeros {
            self.submissions[bidder.0].borrow().presented_positive()[channel.0]
        } else {
            true
        }
    }

    fn select_winner(
        &self,
        channel: ChannelId,
        candidates: &[BidderId],
        rng: &mut dyn lppa_rng::RngCore,
    ) -> BidderId {
        // Integer-only maxima via the precomputed tie classes: the
        // candidates in the lowest class are exactly the mutual-`≥` tie
        // set of the column maximum, the same set (in the same candidate
        // order) as [`Self::maxima_indexed`] — asserted by the property
        // suite — so the RNG draw sequence is unchanged.
        let classes = &self.classes[channel.0];
        let Some(best) = candidates.iter().map(|c| classes[c.0]).min() else {
            // Empty candidates break the trait contract; mirror the old
            // fallback shape instead of panicking mid-auction.
            return candidates.first().copied().unwrap_or(BidderId(0));
        };
        // Count-then-draw-then-scan replaces collecting the maxima into
        // a Vec and calling `choose`: `choose` on a length-`m` slice
        // draws exactly `gen_range(0..m)`, so the RNG stream and the
        // picked bidder are bit-identical — with zero allocations in the
        // auction's innermost loop.
        let m = candidates.iter().filter(|c| classes[c.0] == best).count();
        if m == 0 {
            return candidates[0];
        }
        let pick = lppa_rng::Rng::gen_range(rng, 0..m);
        candidates
            .iter()
            .copied()
            .filter(|c| classes[c.0] == best)
            .nth(pick)
            .unwrap_or(candidates[0])
    }
}

/// Computes the per-channel tie classes of [`MaskedBidTable::classes`]
/// from scratch: one stable masked-comparison sort per channel
/// (channels rank in parallel), then a single adjacent-pair walk
/// assigning class ids. Within a class the sort leaves bidder ids
/// ascending — the canonical order incremental maintainers must match.
pub fn compute_classes<S: Borrow<AdvancedBidSubmission> + Sync>(
    submissions: &[S],
) -> Vec<Vec<u32>> {
    let n_channels = submissions.first().map_or(0, |s| s.borrow().n_channels());
    let channels: Vec<usize> = (0..n_channels).collect();
    lppa_par::par_map(&channels, |&ch| {
        let ge = |a: usize, b: usize| {
            submissions[a].borrow().bids()[ch]
                .point
                .in_range(&submissions[b].borrow().bids()[ch].range)
        };
        let mut order: Vec<usize> = (0..submissions.len()).collect();
        // Stable sort under the masked total preorder: descending bid,
        // ties (mutual ≥) kept in ascending-id order.
        order.sort_by(|&a, &b| match (ge(a, b), ge(b, a)) {
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            _ => std::cmp::Ordering::Equal,
        });
        let mut classes = vec![0u32; submissions.len()];
        let mut class = 0u32;
        for (i, &id) in order.iter().enumerate() {
            // Descending order makes `prev ≥ id` a given; the pair is
            // tied iff `id ≥ prev` holds too.
            if i > 0 && !ge(id, order[i - 1]) {
                class += 1;
            }
            classes[id] = class;
        }
        classes
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LppaConfig;
    use crate::ttp::Ttp;
    use crate::zero_replace::ZeroReplacePolicy;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

    fn table_for(raw_rows: &[Vec<u32>], seed: u64) -> (MaskedBidTable, Vec<Vec<u32>>) {
        let config = LppaConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let k = raw_rows[0].len();
        let ttp = Ttp::new(k, config, &mut rng).unwrap();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let submissions = raw_rows
            .iter()
            .map(|row| {
                AdvancedBidSubmission::build(row, ttp.bidder_keys(), &config, &policy, &mut rng)
                    .unwrap()
            })
            .collect();
        (MaskedBidTable::collect(submissions).unwrap(), raw_rows.to_vec())
    }

    #[test]
    fn ge_matches_plaintext_for_distinct_bids() {
        let (table, raws) = table_for(&[vec![5, 80], vec![9, 3], vec![1, 40]], 1);
        for (ch, _) in raws[0].iter().enumerate() {
            for a in 0..3usize {
                for b in 0..3usize {
                    let (ra, rb) = (raws[a][ch], raws[b][ch]);
                    if ra == rb {
                        continue;
                    }
                    assert_eq!(
                        table.ge(ChannelId(ch), BidderId(a), BidderId(b)),
                        ra > rb,
                        "ch={ch} {ra} vs {rb}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranking_matches_plaintext_order() {
        let rows = vec![vec![5u32], vec![90], vec![13], vec![0], vec![55]];
        let (table, raws) = table_for(&rows, 2);
        let ranking = table.rank_channel(ChannelId(0));
        let ranked_raws: Vec<u32> = ranking.iter().map(|b| raws[b.0][0]).collect();
        let mut expected: Vec<u32> = rows.iter().map(|r| r[0]).collect();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(ranked_raws, expected);
        assert_eq!(table.channel_rankings().len(), 1);
    }

    #[test]
    fn select_winner_picks_the_plaintext_maximum() {
        let (table, _) = table_for(&[vec![5], vec![90], vec![13]], 3);
        let mut rng = StdRng::seed_from_u64(4);
        let winner =
            table.select_winner(ChannelId(0), &[BidderId(0), BidderId(1), BidderId(2)], &mut rng);
        assert_eq!(winner, BidderId(1));
        // Restricting candidates excludes the global maximum.
        let winner = table.select_winner(ChannelId(0), &[BidderId(0), BidderId(2)], &mut rng);
        assert_eq!(winner, BidderId(2));
    }

    #[test]
    fn every_cell_is_an_entry() {
        let (table, _) = table_for(&[vec![0, 0], vec![1, 0]], 5);
        for b in 0..2 {
            for c in 0..2 {
                assert!(BidOracle::has_entry(&table, BidderId(b), ChannelId(c)));
            }
        }
        assert_eq!(BidOracle::n_bidders(&table), 2);
        assert_eq!(BidOracle::n_channels(&table), 2);
    }

    #[test]
    fn collect_rejects_mismatched_submissions() {
        let config = LppaConfig::default();
        let mut rng = StdRng::seed_from_u64(6);
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let ttp2 = Ttp::new(2, config, &mut rng).unwrap();
        let ttp3 = Ttp::new(3, config, &mut rng).unwrap();
        let a =
            AdvancedBidSubmission::build(&[1, 2], ttp2.bidder_keys(), &config, &policy, &mut rng)
                .unwrap();
        let b = AdvancedBidSubmission::build(
            &[1, 2, 3],
            ttp3.bidder_keys(),
            &config,
            &policy,
            &mut rng,
        )
        .unwrap();
        assert!(matches!(
            MaskedBidTable::collect(vec![a, b]),
            Err(LppaError::ChannelCountMismatch { .. })
        ));
        assert!(MaskedBidTable::<AdvancedBidSubmission>::collect(vec![]).is_err());
    }
}
