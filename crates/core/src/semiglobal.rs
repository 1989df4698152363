//! The semi-global (hop-limited) outlier detection algorithm (§6, Algorithm 2).
//!
//! Instead of the outliers of the whole network's data, each sensor computes
//! the outliers of the data sampled within `d` hops of itself
//! (`O_n(D_i^{≤d})`). Every point carries a hop counter: 0 at birth,
//! incremented each time it is forwarded. A sensor keeps only the lowest-hop
//! copy of each observation, runs the global sufficient-set computation
//! separately on every hop-prefix `P_i^{≤h}` for `h ∈ [0, d−1]`, unions the
//! results (keeping minimum hops), suppresses anything the neighbour already
//! holds at an equal or smaller hop, and broadcasts the rest. Setting `d` to
//! at least the network diameter makes the algorithm behave exactly like the
//! global one.
//!
//! **Exchanged copies carry hop ≥ 1.** A sender hop-increments every point
//! it forwards, so [`OutlierDetector::receive_arcs`] refuses a copy that
//! claims hop 0 (as it refuses one beyond `d`). Two things follow: the hop-0
//! prefix `P_i^{≤0}` holds exactly the node's own samples, and no
//! shared-knowledge set ever holds a hop-0 point, so `known^{≤0}` is empty
//! for every neighbour. The hop-0 sufficient set `Z_0 = SS(P_i^{≤0}, ∅)` is
//! therefore one set per own-data change, shared by every neighbour; only
//! the prefixes `h ∈ [1, d−1]` run a per-neighbour fixed point (none for
//! `d = 1`).

use crate::cache::RevisionCache;
use crate::detector::OutlierDetector;
use crate::ledger::{fold_min_timestamp, QuietLedger};
use crate::message::OutlierBroadcast;
use crate::persist::{self, PersistError};
use crate::sufficient::{sufficient_set_indexed, FixedPointEngine};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wsn_data::window::WindowConfig;
use wsn_data::{DataPoint, HopCount, PointSet, SensorId, SlidingWindow, Timestamp};
use wsn_json::JsonValue;
use wsn_ranking::index::{AnyIndex, IndexStrategy};
use wsn_ranking::{top_n_outliers, OutlierEstimate, RankingFunction};

/// The hop-prefixes `P_i^{≤h}` for `h ∈ [1, d−1]` (entry `h − 1` holds
/// prefix `h`), each with its neighbour index, precomputed once per window
/// revision and reused for every neighbour's sufficient-set fixed point.
type HopPrefixes = Vec<(PointSet, AnyIndex)>;

/// Per-sensor state of the semi-global algorithm.
#[derive(Debug, Clone)]
pub struct SemiGlobalNode<R> {
    id: SensorId,
    ranking: R,
    n: usize,
    hop_diameter: HopCount,
    window: SlidingWindow,
    /// Per neighbour, the points this node knows the neighbour holds at the
    /// minimum hop count at which they were ever exchanged in either
    /// direction (`[D^i_{i,j} ∪ D^i_{j,i}]^min`), maintained incrementally:
    /// sends and receipts min-hop-insert into it, window slides evict from
    /// it. Only the min-hop union is ever read, so the two directions live
    /// merged.
    shared_with: BTreeMap<SensorId, PointSet>,
    /// The smallest timestamp ever inserted into any shared-knowledge set
    /// and still possibly present (conservative: never later than the true
    /// minimum). Clock advances whose cutoff does not pass it skip the
    /// whole per-neighbour eviction sweep in O(1) — the common case, since
    /// every delivery advances the clock but only window slides evict.
    shared_oldest: Option<Timestamp>,
    points_sent: u64,
    points_received: u64,
    /// Moves whenever the own-sample prefix `P_i^{≤0}` may change: on an
    /// accepted local insert, on a clock advance that evicts anything and on
    /// a restore. Received copies (hop ≥ 1) never move it.
    own_revision: u64,
    /// `Z_0 = SS(P_i^{≤0}, ∅)` with every point already hop-incremented,
    /// keyed by `own_revision`. Every neighbour's outgoing set starts from
    /// it and shares its points.
    hop_zero_cache: RevisionCache<PointSet>,
    /// The hop-prefixes `P_i^{≤h}` for `h ∈ [1, d−1]` with their neighbour
    /// indexes, invalidated whenever the window slides or changes.
    prefix_cache: RevisionCache<HopPrefixes>,
    /// Per-neighbour revision bookkeeping behind the "nothing to send" memo
    /// (see [`crate::global::GlobalNode`] for the full rationale).
    ledger: QuietLedger,
    /// One reusable sufficient-set evaluator per hop prefix `P_i^{≤h}` for
    /// `h ∈ [1, d−1]` (engine `h − 1` serves prefix `h`; none for `d = 1`):
    /// each prefix is a pure function of the window contents, so the window
    /// revision pins an engine's caches to its prefix and the seed/support
    /// work is shared across all neighbours of a protocol step.
    engines: Vec<FixedPointEngine>,
    /// Silence threshold in seconds after which a neighbour is presumed dead
    /// (`None` = disabled; see [`crate::global::GlobalNode`]).
    liveness_timeout_secs: Option<f64>,
    /// The clock of the most recent [`OutlierDetector::advance_time`] call.
    last_now: Timestamp,
    /// When each neighbour was last heard from (maintained only while the
    /// timeout is on).
    last_heard: BTreeMap<SensorId, Timestamp>,
    /// Neighbours aged out by the timeout, skipped until they speak again.
    presumed_dead: BTreeSet<SensorId>,
}

impl<R: RankingFunction> SemiGlobalNode<R> {
    /// Creates the state for sensor `id`, computing the top `n` outliers of
    /// the data within `hop_diameter` hops (the paper's `d` / `ε` parameter).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `hop_diameter` is zero.
    pub fn new(
        id: SensorId,
        ranking: R,
        n: usize,
        hop_diameter: HopCount,
        window: WindowConfig,
    ) -> Self {
        assert!(n > 0, "the number of reported outliers n must be at least 1");
        assert!(hop_diameter > 0, "the hop diameter d must be at least 1");
        SemiGlobalNode {
            id,
            ranking,
            n,
            hop_diameter,
            window: SlidingWindow::new(window),
            shared_with: BTreeMap::new(),
            shared_oldest: None,
            points_sent: 0,
            points_received: 0,
            own_revision: 0,
            hop_zero_cache: RevisionCache::new(),
            prefix_cache: RevisionCache::new(),
            ledger: QuietLedger::new(),
            engines: (1..hop_diameter).map(|_| FixedPointEngine::new()).collect(),
            liveness_timeout_secs: None,
            last_now: Timestamp::ZERO,
            last_heard: BTreeMap::new(),
            presumed_dead: BTreeSet::new(),
        }
    }

    /// Enables the staleness liveness timeout (see
    /// [`crate::global::GlobalNode::with_liveness_timeout`]).
    pub fn with_liveness_timeout(mut self, secs: f64) -> Self {
        self.liveness_timeout_secs = Some(secs);
        self
    }

    /// Whether this node currently retains any per-neighbour protocol state
    /// for `neighbor` (diagnostics for the churn tests).
    pub fn shares_state_with(&self, neighbor: SensorId) -> bool {
        self.shared_with.contains_key(&neighbor)
            || self.engines.iter().any(|e| e.tracks_neighbor(neighbor))
            || self.last_heard.contains_key(&neighbor)
    }

    /// Whether the liveness timeout has aged `neighbor` out.
    pub fn presumes_dead(&self, neighbor: SensorId) -> bool {
        self.presumed_dead.contains(&neighbor)
    }

    /// Drops all per-neighbour state for `neighbor` across every hop
    /// prefix's engine.
    fn forget_neighbor(&mut self, neighbor: SensorId) {
        self.shared_with.remove(&neighbor);
        self.ledger.forget(neighbor);
        for engine in &mut self.engines {
            engine.forget_neighbor(neighbor);
        }
        self.last_heard.remove(&neighbor);
    }

    /// The hop diameter `d` of the spatial extent of detection.
    pub fn hop_diameter(&self) -> HopCount {
        self.hop_diameter
    }

    /// The ranking function in use.
    pub fn ranking(&self) -> &R {
        &self.ranking
    }

    /// Total data points this node has put on the air so far.
    pub fn points_sent(&self) -> u64 {
        self.points_sent
    }

    /// Total data points this node has accepted from neighbours so far.
    pub fn points_received(&self) -> u64 {
        self.points_received
    }

    /// The points this node knows it shares with `neighbor`, at the hop
    /// counts at which they were exchanged (min-hop merged). The returned
    /// set shares the stored points.
    pub fn known_common_with(&self, neighbor: SensorId) -> PointSet {
        self.shared_with.get(&neighbor).cloned().unwrap_or_default()
    }

    /// Forwards a just-recorded shared-knowledge delta to every engine: a
    /// point at hop `v` enters `known^{≤h}` for every `h ≥ v`, and engines
    /// whose prefix the delta does not touch still get an (empty) note so
    /// their sync chain follows the bookkeeping revision.
    fn note_shared(&mut self, neighbor: SensorId, fresh: &[Arc<DataPoint>]) {
        let revision = self.ledger.state(neighbor, 0).1;
        let mut batch: Vec<Arc<DataPoint>> = Vec::with_capacity(fresh.len());
        for (engine, h) in self.engines.iter_mut().zip(1..) {
            batch.clear();
            batch.extend(fresh.iter().filter(|p| p.hop <= h).cloned());
            engine.note_shared_points(neighbor, &batch, revision);
        }
    }

    /// Serializes this node's complete canonical protocol state for
    /// [`crate::persist`] — like
    /// [`crate::global::GlobalNode::persist_snapshot`], plus the hop
    /// diameter and one engine chain set per hop prefix `h ∈ [1, d−1]`. The
    /// hop-0 set and the hop-prefix cache are derived state and not
    /// included.
    pub fn persist_snapshot(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("kind".into(), JsonValue::from("semiglobal")),
            ("id".into(), JsonValue::from(self.id.raw())),
            ("n".into(), JsonValue::from(self.n)),
            ("hop_diameter".into(), JsonValue::from(u32::from(self.hop_diameter))),
            ("liveness_timeout_secs".into(), persist::opt_f64_to_json(self.liveness_timeout_secs)),
            ("window".into(), persist::snapshot_window(&self.window)),
            ("shared_with".into(), persist::sets_by_id_to_json(&self.shared_with)),
            (
                "shared_oldest".into(),
                persist::opt_u64_to_json(self.shared_oldest.map(|t| t.as_micros())),
            ),
            ("points_sent".into(), JsonValue::from(self.points_sent)),
            ("points_received".into(), JsonValue::from(self.points_received)),
            ("ledger".into(), persist::ledger_to_json(&self.ledger)),
            (
                "engines".into(),
                JsonValue::Array(self.engines.iter().map(persist::engine_to_json).collect()),
            ),
            ("last_now".into(), JsonValue::from(self.last_now.as_micros())),
            ("last_heard".into(), persist::times_by_id_to_json(&self.last_heard)),
            ("presumed_dead".into(), persist::ids_to_json(self.presumed_dead.iter().copied())),
        ])
    }

    /// Installs a [`SemiGlobalNode::persist_snapshot`] into this node,
    /// refusing snapshots from a differently configured node (id, `n`, hop
    /// diameter, window length, liveness timeout).
    ///
    /// # Errors
    ///
    /// [`PersistError::Schema`] for malformed dumps,
    /// [`PersistError::Mismatch`] for configuration disagreements. On error
    /// the node is left untouched.
    pub fn persist_restore(&mut self, dump: &JsonValue) -> Result<(), PersistError> {
        persist::expect_kind(dump, "semiglobal")?;
        let id = persist::u32_field(dump, "id")?;
        if id != self.id.raw() {
            return Err(PersistError::Mismatch(format!(
                "snapshot is for sensor {id}, restoring into sensor {}",
                self.id.raw()
            )));
        }
        let n = persist::usize_field(dump, "n")?;
        if n != self.n {
            return Err(PersistError::Mismatch(format!(
                "snapshot reports top-{n}, this node reports top-{}",
                self.n
            )));
        }
        let hop_diameter = persist::u32_field(dump, "hop_diameter")?;
        if hop_diameter != u32::from(self.hop_diameter) {
            return Err(PersistError::Mismatch(format!(
                "snapshot hop diameter is {hop_diameter}, this node's is {}",
                self.hop_diameter
            )));
        }
        if persist::opt_f64_field(dump, "liveness_timeout_secs")? != self.liveness_timeout_secs {
            return Err(PersistError::Mismatch("liveness timeout differs".into()));
        }
        let window = persist::restore_window(persist::field(dump, "window")?)?;
        if window.config().length_micros != self.window.config().length_micros {
            return Err(PersistError::Mismatch(format!(
                "snapshot window is {}µs long, this node's is {}µs",
                window.config().length_micros,
                self.window.config().length_micros
            )));
        }
        let engine_values = persist::array_field(dump, "engines")?;
        if engine_values.len() != self.engines.len() {
            return Err(PersistError::Mismatch(format!(
                "snapshot holds {} engine chains, this node runs {}",
                engine_values.len(),
                self.engines.len()
            )));
        }
        let engine_dumps = engine_values
            .iter()
            .map(persist::engine_dumps_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let shared_with = persist::sets_by_id_from_json(persist::field(dump, "shared_with")?)?;
        let shared_oldest =
            persist::opt_u64_field(dump, "shared_oldest")?.map(Timestamp::from_micros);
        let points_sent = persist::u64_field(dump, "points_sent")?;
        let points_received = persist::u64_field(dump, "points_received")?;
        let ledger = persist::ledger_from_json(persist::field(dump, "ledger")?)?;
        let last_now = Timestamp::from_micros(persist::u64_field(dump, "last_now")?);
        let last_heard = persist::times_by_id_from_json(persist::field(dump, "last_heard")?)?;
        let presumed_dead: BTreeSet<SensorId> =
            persist::ids_from_json(persist::field(dump, "presumed_dead")?)?.into_iter().collect();
        self.window = window;
        self.shared_with = shared_with;
        self.shared_oldest = shared_oldest;
        self.points_sent = points_sent;
        self.points_received = points_received;
        self.own_revision += 1;
        self.prefix_cache.invalidate();
        self.ledger = ledger;
        for (engine, dumps) in self.engines.iter_mut().zip(engine_dumps) {
            engine.restore_neighbor_states(dumps);
        }
        self.last_now = last_now;
        self.last_heard = last_heard;
        self.presumed_dead = presumed_dead;
        Ok(())
    }
}

impl<R: RankingFunction> OutlierDetector for SemiGlobalNode<R> {
    fn id(&self) -> SensorId {
        self.id
    }

    fn n(&self) -> usize {
        self.n
    }

    fn add_local_points(&mut self, points: Vec<DataPoint>) {
        for mut p in points {
            p.hop = 0; // points are born at their origin
            if self.window.insert(p) {
                self.own_revision += 1;
            }
        }
    }

    fn receive(&mut self, from: SensorId, points: Vec<DataPoint>) {
        self.receive_arcs(from, points.into_iter().map(Arc::new).collect());
    }

    fn receive_arcs(&mut self, from: SensorId, points: Vec<Arc<DataPoint>>) {
        if self.liveness_timeout_secs.is_some() {
            self.last_heard.insert(from, self.last_now);
            self.presumed_dead.remove(&from);
        }
        let shared = self.shared_with.entry(from).or_default();
        let mut fresh: Vec<Arc<DataPoint>> = Vec::new();
        for p in points {
            if p.hop == 0 || p.hop > self.hop_diameter {
                // A copy that travelled farther than the spatial extent can
                // never influence this node's result; ignore it outright. A
                // copy claiming hop 0 was not forwarded by an honest sender
                // and would pose as a local sample in `P_i^{≤0}`.
                continue;
            }
            // The bookkeeping set, the window and the sender's copy share
            // one allocation.
            if shared.insert_min_hop_arc(Arc::clone(&p)).changed() {
                fresh.push(Arc::clone(&p));
            }
            if self.window.insert_arc(p) {
                self.points_received += 1;
            }
        }
        if !fresh.is_empty() {
            self.ledger.bump(from);
            self.note_shared(from, &fresh);
        }
        if let Some(min_ts) = fresh.iter().map(|p| p.timestamp).min() {
            fold_min_timestamp(&mut self.shared_oldest, min_ts);
        }
    }

    fn advance_time(&mut self, now: Timestamp) {
        self.last_now = now;
        if let Some(timeout) = self.liveness_timeout_secs {
            let stale: Vec<SensorId> = self
                .last_heard
                .iter()
                .filter(|(_, heard)| now.as_secs_f64() - heard.as_secs_f64() > timeout)
                .map(|(j, _)| *j)
                .collect();
            for j in stale {
                self.forget_neighbor(j);
                self.presumed_dead.insert(j);
                crate::telemetry::STALE_NEIGHBORS_PRUNED.add(1);
            }
        }
        if self.window.advance_to(now) > 0 {
            self.own_revision += 1;
        }
        let cutoff = self.window.config().cutoff(now);
        self.ledger.evict_and_bump_gated(&mut self.shared_with, cutoff, &mut self.shared_oldest);
    }

    fn retain_neighbors(&mut self, live: &[SensorId]) {
        let tracked: BTreeSet<SensorId> = self
            .shared_with
            .keys()
            .copied()
            .chain(self.engines.iter().flat_map(|e| e.tracked_neighbors()))
            .chain(self.last_heard.keys().copied())
            .chain(self.presumed_dead.iter().copied())
            .collect();
        for j in tracked {
            if !live.contains(&j) {
                self.forget_neighbor(j);
                self.presumed_dead.remove(&j);
                crate::telemetry::STALE_NEIGHBORS_PRUNED.add(1);
            }
        }
    }

    fn process(&mut self, neighbors: &[SensorId]) -> Option<OutlierBroadcast> {
        // A zero-copy snapshot of P_i: the window is read, never cloned, and
        // the hop-prefixes derived from it share its stored points.
        let pi = self.window.snapshot();
        let hop_diameter = self.hop_diameter;
        let revision = self.window.revision();
        let (ranking, n) = (&self.ranking, self.n);
        // Z_0 = SS(P_i^{≤0}, ∅), hop-incremented once: `known^{≤0}` is
        // empty for every neighbour (see the module docs).
        let hop_zero = self.hop_zero_cache.get_or_build(self.own_revision, || {
            let own = pi.filter_max_hop(0);
            let index = AnyIndex::build(IndexStrategy::Auto, &own);
            let z_0 = sufficient_set_indexed(ranking, n, &own, &index, &PointSet::new());
            let mut forwarded = PointSet::new();
            for p in z_0.iter() {
                forwarded.insert(p.with_incremented_hop());
            }
            forwarded
        });
        let prefixes = self.prefix_cache.get_or_build(revision, || {
            (1..hop_diameter)
                .map(|h| {
                    let pi_h = pi.filter_max_hop(h);
                    let index = AnyIndex::build(IndexStrategy::Auto, &pi_h);
                    (pi_h, index)
                })
                .collect()
        });
        let mut message = OutlierBroadcast::new();
        for &j in neighbors {
            if j == self.id || self.presumed_dead.contains(&j) {
                continue;
            }
            if self.liveness_timeout_secs.is_some() {
                // First contact attempt starts the liveness clock, so a
                // neighbour that never answers also ages out.
                self.last_heard.entry(j).or_insert(self.last_now);
            }
            let state = self.ledger.state(j, revision);
            if self.ledger.is_quiet(j, state) {
                // Same P_i, same shared knowledge: replay the empty outcome.
                continue;
            }
            // The min-hop shared-knowledge set is maintained incrementally;
            // reading it here is free.
            let empty = PointSet::new();
            let known = self.shared_with.get(&j).unwrap_or(&empty);
            // Per-prefix sufficient sets, hop-incremented and min-merged onto
            // the shared hop-0 set. The hop increment of a higher prefix
            // materialises a fresh copy of each forwarded point; every set
            // below shares those copies and the hop-0 set's.
            let mut z = PointSet::clone(&hop_zero);
            for ((pi_h, index), (engine, h)) in
                prefixes.iter().zip(self.engines.iter_mut().zip(1..))
            {
                let known_h = known.filter_max_hop(h);
                let z_h = engine.sufficient_set(
                    &self.ranking,
                    self.n,
                    pi_h,
                    Some(index),
                    j,
                    &known_h,
                    state,
                );
                for p in z_h.iter() {
                    z.insert_min_hop(p.with_incremented_hop());
                }
            }
            // Suppress points the neighbour already holds at an equal or
            // smaller hop count.
            let to_send: Vec<&Arc<DataPoint>> = z
                .iter_arcs()
                .filter(|x| match known.get(&x.key) {
                    Some(y) => x.hop < y.hop,
                    None => true,
                })
                .collect();
            if to_send.is_empty() {
                self.ledger.mark_quiet(j, state);
                continue;
            }
            let batch: Vec<Arc<DataPoint>> = to_send.into_iter().map(Arc::clone).collect();
            if let Some(min_ts) = batch.iter().map(|p| p.timestamp).min() {
                fold_min_timestamp(&mut self.shared_oldest, min_ts);
            }
            let shared = self.shared_with.entry(j).or_default();
            let mut recorded: Vec<Arc<DataPoint>> = Vec::with_capacity(batch.len());
            for p in &batch {
                if shared.insert_min_hop_arc(Arc::clone(p)).changed() {
                    recorded.push(Arc::clone(p));
                }
            }
            self.ledger.bump(j);
            self.note_shared(j, &recorded);
            self.points_sent += batch.len() as u64;
            crate::telemetry::POINTS_BROADCAST.add(batch.len() as u64);
            crate::telemetry::NEIGHBOR_BATCH_POINTS.record(batch.len() as u64);
            message.add_entry_arcs(j, batch);
        }
        if message.is_empty() {
            None
        } else {
            Some(message)
        }
    }

    fn estimate(&self) -> OutlierEstimate {
        // `receive_arcs` admits hops in [1, d] and local points are hop 0,
        // so the whole window is `D_i^{≤d}`.
        let held = self.window.contents();
        debug_assert!(held.iter().all(|p| p.hop <= self.hop_diameter));
        top_n_outliers(&self.ranking, self.n, held)
    }

    fn held_points(&self) -> &PointSet {
        self.window.contents()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_data::Epoch;
    use wsn_ranking::NnDistance;

    fn pt(origin: u32, epoch: u64, v: f64) -> DataPoint {
        DataPoint::new(SensorId(origin), Epoch(epoch), Timestamp::from_secs(1), vec![v]).unwrap()
    }

    fn window() -> WindowConfig {
        WindowConfig::from_secs(1_000).unwrap()
    }

    /// Builds a chain of `count` semi-global nodes with the given hop
    /// diameter; node `i` holds a small cluster around `10 * i` plus, for the
    /// first node, one clear outlier.
    fn chain(count: u32, d: HopCount) -> Vec<SemiGlobalNode<NnDistance>> {
        (0..count)
            .map(|i| {
                let mut node = SemiGlobalNode::new(SensorId(i), NnDistance, 1, d, window());
                let base = 10.0 * i as f64;
                node.add_local_points((0..4).map(|e| pt(i, e, base + e as f64 * 0.1)).collect());
                node
            })
            .collect()
    }

    /// Synchronously runs the chain protocol (each node talks to its chain
    /// neighbours) until no node has anything to send.
    fn run_chain(nodes: &mut [SemiGlobalNode<NnDistance>]) {
        let ids: Vec<SensorId> = nodes.iter().map(|n| n.id()).collect();
        for _ in 0..100 {
            let mut progress = false;
            for idx in 0..nodes.len() {
                let mut neighbors = Vec::new();
                if idx > 0 {
                    neighbors.push(ids[idx - 1]);
                }
                if idx + 1 < nodes.len() {
                    neighbors.push(ids[idx + 1]);
                }
                if let Some(m) = nodes[idx].process(&neighbors) {
                    progress = true;
                    for (nb_idx, nb_id) in ids.iter().enumerate() {
                        if neighbors.contains(nb_id) {
                            let pts = m.points_for(*nb_id);
                            if !pts.is_empty() {
                                let from = ids[idx];
                                nodes[nb_idx].receive(from, pts);
                            }
                        }
                    }
                }
            }
            if !progress {
                return;
            }
        }
        panic!("chain protocol did not terminate");
    }

    #[test]
    fn constructor_validates_parameters() {
        assert!(std::panic::catch_unwind(|| SemiGlobalNode::new(
            SensorId(1),
            NnDistance,
            0,
            1,
            window()
        ))
        .is_err());
        assert!(std::panic::catch_unwind(|| SemiGlobalNode::new(
            SensorId(1),
            NnDistance,
            1,
            0,
            window()
        ))
        .is_err());
        let node = SemiGlobalNode::new(SensorId(1), NnDistance, 2, 3, window());
        assert_eq!(node.hop_diameter(), 3);
        assert_eq!(node.n(), 2);
        assert_eq!(node.id(), SensorId(1));
    }

    #[test]
    fn local_points_are_reset_to_hop_zero() {
        let mut node = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 2, window());
        node.add_local_points(vec![pt(1, 0, 5.0).with_hop(7)]);
        assert_eq!(node.held_points().iter().next().unwrap().hop, 0);
    }

    #[test]
    fn points_beyond_the_hop_diameter_are_ignored_on_receipt() {
        let mut node = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 2, window());
        node.receive(SensorId(2), vec![pt(2, 0, 5.0).with_hop(3)]);
        assert!(node.held_points().is_empty());
        assert_eq!(node.points_received(), 0);
        node.receive(SensorId(2), vec![pt(2, 1, 5.0).with_hop(2)]);
        assert_eq!(node.points_received(), 1);
    }

    #[test]
    fn copies_claiming_hop_zero_are_refused_on_receipt() {
        let mut node = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 2, window());
        node.add_local_points(vec![pt(1, 0, 1.0)]);
        node.receive(SensorId(2), vec![pt(2, 0, 5.0).with_hop(1)]);
        let held = node.held_points().clone();
        let known = node.known_common_with(SensorId(2));
        node.receive(SensorId(2), vec![pt(2, 1, 500.0).with_hop(0)]);
        assert_eq!(node.held_points(), &held, "the window is untouched");
        assert_eq!(node.points_received(), 1, "the refused copy is not counted");
        assert_eq!(node.known_common_with(SensorId(2)), known, "nothing is recorded as shared");
    }

    #[test]
    fn sent_points_carry_incremented_hops_bounded_by_d() {
        let mut node = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 2, window());
        node.add_local_points((0..4).map(|e| pt(1, e, e as f64)).collect());
        node.receive(SensorId(3), vec![pt(3, 0, 100.0).with_hop(1)]);
        let m = node.process(&[SensorId(2)]).expect("something to send");
        for p in m.points_for(SensorId(2)) {
            assert!(p.hop >= 1, "forwarded copies have travelled at least one hop");
            assert!(p.hop <= 2, "no copy may claim more hops than the diameter");
        }
    }

    #[test]
    fn chain_with_d1_keeps_detection_local() {
        // Three nodes in a chain, d = 1: the ends never learn about each
        // other's data, so their estimates are based on at most their own and
        // the middle node's points.
        let mut nodes = chain(3, 1);
        // Give node 0 an extreme outlier.
        nodes[0].add_local_points(vec![pt(0, 99, -500.0)]);
        run_chain(&mut nodes);
        // Node 2 must not hold the far-away outlier: it lives two hops away.
        assert!(
            !nodes[2].held_points().iter().any(|p| p.features[0] == -500.0),
            "a d=1 node must never see data from two hops away"
        );
        // Node 1 (adjacent) does see it and reports it.
        assert_eq!(nodes[1].estimate().points()[0].features, vec![-500.0]);
    }

    #[test]
    fn chain_with_large_d_behaves_like_the_global_algorithm() {
        let mut nodes = chain(4, 8);
        nodes[3].add_local_points(vec![pt(3, 99, 500.0)]);
        run_chain(&mut nodes);
        // Everybody agrees on the single global outlier at 500.
        for node in &nodes {
            assert_eq!(
                node.estimate().points()[0].features,
                vec![500.0],
                "node {} disagrees",
                node.id()
            );
        }
    }

    #[test]
    fn larger_hop_diameter_moves_more_points() {
        let mut local = chain(4, 1);
        run_chain(&mut local);
        let sent_local: u64 = local.iter().map(|n| n.points_sent()).sum();

        let mut wide = chain(4, 3);
        run_chain(&mut wide);
        let sent_wide: u64 = wide.iter().map(|n| n.points_sent()).sum();
        assert!(sent_wide > sent_local, "d=3 sent {sent_wide} points, d=1 sent {sent_local}");
    }

    #[test]
    fn known_common_tracks_minimum_hops() {
        let mut node = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 3, window());
        node.receive(SensorId(2), vec![pt(3, 0, 5.0).with_hop(2)]);
        node.receive(SensorId(2), vec![pt(3, 0, 5.0).with_hop(1)]);
        let known = node.known_common_with(SensorId(2));
        assert_eq!(known.get(&pt(3, 0, 5.0).key).unwrap().hop, 1);
        assert!(node.known_common_with(SensorId(9)).is_empty());
    }

    #[test]
    fn window_eviction_cleans_all_bookkeeping() {
        let mut node = SemiGlobalNode::new(
            SensorId(1),
            NnDistance,
            1,
            2,
            WindowConfig::from_secs(10).unwrap(),
        );
        node.add_local_points(vec![pt(1, 0, 1.0)]);
        node.receive(SensorId(2), vec![pt(2, 0, 2.0).with_hop(1)]);
        node.advance_time(Timestamp::from_secs(100));
        assert!(node.held_points().is_empty());
        assert!(node.known_common_with(SensorId(2)).is_empty());
    }

    #[test]
    fn estimate_only_uses_points_within_the_diameter() {
        let mut node = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 2, window());
        node.add_local_points((0..4).map(|e| pt(1, e, e as f64 * 0.1)).collect());
        node.receive(SensorId(2), vec![pt(5, 0, 1000.0).with_hop(2)]);
        // The far value is within the diameter and dominates the estimate.
        assert_eq!(node.estimate().points()[0].features, vec![1000.0]);
    }

    #[test]
    fn dead_neighbor_state_is_pruned_and_pins_no_points() {
        let mut node = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 2, window());
        node.add_local_points((0..4).map(|e| pt(1, e, e as f64 * 0.1)).collect());
        let shared = Arc::new(pt(2, 0, 500.0).with_hop(1));
        node.receive_arcs(SensorId(2), vec![Arc::clone(&shared)]);
        // Run one exchange round so per-neighbour engine state exists too.
        let _ = node.process(&[SensorId(2)]);
        assert!(node.shares_state_with(SensorId(2)));

        node.retain_neighbors(&[]);
        assert!(!node.shares_state_with(SensorId(2)), "all per-neighbour state dropped");
        // Flush the window so the held copy is evicted as well, then run one
        // protocol step against a live neighbour: that rolls the engines'
        // revision-scoped own-window caches forward. The dead neighbour's
        // hypothetical-set state would survive that roll — only the explicit
        // prune above removes it. Afterwards the only strong reference left
        // must be the test's own.
        node.advance_time(Timestamp::from_secs(5_000));
        let _ = node.process(&[SensorId(3)]);
        assert_eq!(Arc::strong_count(&shared), 1, "dead neighbour pins no data points");
    }

    #[test]
    fn retain_neighbors_keeps_live_neighbors_untouched() {
        let mut node = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 2, window());
        node.receive(SensorId(2), vec![pt(2, 0, 5.0).with_hop(1)]);
        node.receive(SensorId(3), vec![pt(3, 0, 6.0).with_hop(1)]);
        node.retain_neighbors(&[SensorId(2)]);
        assert!(node.shares_state_with(SensorId(2)), "live neighbour survives");
        assert!(!node.shares_state_with(SensorId(3)), "dead neighbour pruned");
    }

    #[test]
    fn silent_neighbors_age_out_and_resync_on_return() {
        let mut node = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 2, window())
            .with_liveness_timeout(30.0);
        node.add_local_points((0..4).map(|e| pt(1, e, e as f64 * 0.1)).collect());
        node.advance_time(Timestamp::from_secs(1));
        // A contact attempt starts the liveness clock for the silent peer.
        let _ = node.process(&[SensorId(2)]);
        node.advance_time(Timestamp::from_secs(40));
        assert!(node.presumes_dead(SensorId(2)), "silent neighbour aged out");
        // A presumed-dead neighbour is skipped entirely by process.
        assert!(node.process(&[SensorId(2)]).is_none());
        // Hearing from it again resurrects it and restarts the exchange.
        node.receive(SensorId(2), vec![pt(2, 9, 7.0).with_hop(1)]);
        assert!(!node.presumes_dead(SensorId(2)));
        assert!(node.process(&[SensorId(2)]).is_some(), "resync resumes from scratch");
    }

    #[test]
    fn persist_snapshot_round_trips_mid_protocol() {
        let mut nodes = chain(3, 2);
        nodes[0].add_local_points(vec![pt(0, 99, -500.0)]);
        // A couple of exchange rounds leaves live per-neighbour state in
        // every hop prefix's engine.
        for _ in 0..2 {
            for idx in 0..nodes.len() {
                let neighbors: Vec<SensorId> = [idx.wrapping_sub(1), idx + 1]
                    .iter()
                    .filter_map(|&i| nodes.get(i).map(|n| n.id()))
                    .collect();
                if let Some(m) = nodes[idx].process(&neighbors) {
                    let from = nodes[idx].id();
                    for (nb, node) in nodes.iter_mut().enumerate() {
                        let pts = m.points_for(node.id());
                        if nb != idx && !pts.is_empty() {
                            node.receive(from, pts);
                        }
                    }
                }
            }
        }
        let dump = nodes[1].persist_snapshot();
        let mut fresh = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 2, window());
        fresh.persist_restore(&dump).unwrap();
        assert_eq!(fresh.persist_snapshot(), dump, "restore is lossless");
        assert_eq!(
            fresh.process(&[SensorId(0), SensorId(2)]),
            nodes[1].process(&[SensorId(0), SensorId(2)]),
            "the restored node continues identically"
        );
        assert!(fresh.estimate().same_outliers_as(&nodes[1].estimate()));
        // A node with a different hop diameter refuses the snapshot.
        let mut other = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 3, window());
        assert!(matches!(other.persist_restore(&dump), Err(PersistError::Mismatch(_))));
    }

    #[test]
    fn liveness_timeout_off_never_presumes_death() {
        let mut node = SemiGlobalNode::new(SensorId(1), NnDistance, 1, 2, window());
        node.add_local_points(vec![pt(1, 0, 1.0)]);
        node.advance_time(Timestamp::from_secs(1));
        let _ = node.process(&[SensorId(2)]);
        node.advance_time(Timestamp::from_secs(900));
        assert!(!node.presumes_dead(SensorId(2)), "default behaviour is unchanged");
    }
}
