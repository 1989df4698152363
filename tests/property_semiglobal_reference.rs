//! The semi-global detector's `process` against its executable
//! specification, message for message, over seeded random protocol
//! histories.
//!
//! The oracle is Algorithm 2 written out with the kept reference fixed
//! point [`sufficient_set_rebuild_reference`]: for every hop prefix
//! `h ∈ [0, d−1]` it computes `SS(P_i^{≤h}, known^{≤h})` from scratch,
//! hop-increments and min-merges the results, and suppresses whatever the
//! neighbour already holds at an equal or smaller hop. It shares no cache,
//! engine chain or memo with the detector, so every shortcut the detector
//! takes — the shared hop-0 set, the per-prefix engine chains, the
//! nothing-to-send ledger — must reproduce it exactly.
//!
//! Each of the 144 cases draws a connected topology, `d ∈ {1, 2, 3}` and
//! NN or KNN ranking, then interleaves local sampling, lossy exchange
//! rounds, clock advances that evict old samples mid-history, and
//! snapshot/restore round trips of random nodes (into a fresh node, or back
//! into the live node it was taken from).

use in_network_outlier::detection::persist::JsonValue;
use in_network_outlier::detection::sufficient::sufficient_set_rebuild_reference;
use in_network_outlier::prelude::*;
use wsn_data::rng::SeededRng;
use wsn_data::HopCount;

/// Fixed seed for the property loop.
const SEED: u64 = 0x5EED_5E61;
/// Property cases: 24 per (hop diameter, ranking) pair.
const CASES: usize = 144;
/// Protocol history steps per case.
const STEPS: usize = 40;
/// Window length in seconds; clock advances are drawn around it so that
/// some histories evict mid-run and some never do.
const WINDOW_SECS: u64 = 10;

/// What one case exercised, summed over the suite so the properties are
/// not vacuous.
#[derive(Default)]
struct Coverage {
    compared: usize,
    non_empty: usize,
    evictions: usize,
    restores: usize,
}

/// A random connected adjacency: a random spanning tree plus extra edges.
fn gen_adjacency(rng: &mut SeededRng, count: usize) -> Vec<Vec<usize>> {
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); count];
    let mut connect = |a: usize, b: usize| {
        if a != b && !neighbors[a].contains(&b) {
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
    };
    for child in 1..count {
        let parent = rng.gen_index(child);
        connect(parent, child);
    }
    for _ in 0..rng.gen_index(count) {
        connect(rng.gen_index(count), rng.gen_index(count));
    }
    neighbors
}

/// The message Algorithm 2 sends from `node` to `neighbors`, computed from
/// scratch with the reference fixed point.
fn oracle<R: RankingFunction>(
    node: &SemiGlobalNode<R>,
    neighbors: &[SensorId],
) -> OutlierBroadcast {
    let held = node.held_points();
    let mut message = OutlierBroadcast::new();
    for &j in neighbors {
        let known = node.known_common_with(j);
        let mut z = PointSet::new();
        for h in 0..node.hop_diameter() {
            let pi_h = held.filter_max_hop(h);
            let index = AnyIndex::build(IndexStrategy::Auto, &pi_h);
            let known_h = known.filter_max_hop(h);
            let z_h =
                sufficient_set_rebuild_reference(node.ranking(), node.n(), &pi_h, &index, &known_h);
            for p in z_h.iter() {
                z.insert_min_hop(p.with_incremented_hop());
            }
        }
        let to_send: Vec<DataPoint> = z
            .iter()
            .filter(|x| match known.get(&x.key) {
                Some(y) => x.hop < y.hop,
                None => true,
            })
            .cloned()
            .collect();
        message.add_entry(j, to_send);
    }
    message
}

/// One random history over a fresh network; every `process` call is
/// checked against the oracle.
fn run_case<R: RankingFunction + Clone>(
    rng: &mut SeededRng,
    ranking: R,
    d: HopCount,
    case: usize,
    coverage: &mut Coverage,
) {
    let count = rng.gen_range(2usize..6);
    let n = rng.gen_range(1usize..4);
    let adjacency = gen_adjacency(rng, count);
    let window = WindowConfig::from_secs(WINDOW_SECS).unwrap();
    let make = |i: usize| SemiGlobalNode::new(SensorId(i as u32), ranking.clone(), n, d, window);
    let mut nodes: Vec<SemiGlobalNode<R>> = (0..count).map(make).collect();
    let mut epochs = vec![0u64; count];
    let mut saved: Vec<Option<JsonValue>> = vec![None; count];
    let mut now = 1u64;
    let loss = if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(0.0..0.4) };

    for step in 0..STEPS {
        let roll = rng.gen_f64();
        if roll < 0.35 {
            // A node samples a few readings at the current time.
            let i = rng.gen_index(count);
            let points = (0..rng.gen_range(1usize..4))
                .map(|_| {
                    let value = if rng.gen_bool(0.8) {
                        rng.gen_range(18.0..24.0)
                    } else {
                        rng.gen_range(-100.0..150.0)
                    };
                    epochs[i] += 1;
                    DataPoint::new(
                        SensorId(i as u32),
                        Epoch(epochs[i]),
                        Timestamp::from_secs(now),
                        vec![value],
                    )
                    .unwrap()
                })
                .collect();
            nodes[i].add_local_points(points);
        } else if roll < 0.5 {
            // The clock moves; a long step evicts older samples everywhere.
            now += rng.gen_range(1u64..WINDOW_SECS / 2);
            for node in &mut nodes {
                let before = node.held_points().len();
                node.advance_time(Timestamp::from_secs(now));
                coverage.evictions += usize::from(node.held_points().len() < before);
            }
        } else if roll < 0.92 {
            // One node runs a protocol step; the broadcast is delivered with
            // independent per-receiver loss.
            let i = rng.gen_index(count);
            let neighbors: Vec<SensorId> =
                adjacency[i].iter().map(|&j| SensorId(j as u32)).collect();
            let expected = oracle(&nodes[i], &neighbors);
            let actual = nodes[i].process(&neighbors).unwrap_or_default();
            assert_eq!(actual, expected, "case {case}, step {step}: node {i} diverged (d = {d})");
            coverage.compared += 1;
            if actual.is_empty() {
                continue;
            }
            coverage.non_empty += 1;
            for &j in &adjacency[i] {
                let points = actual.points_for_arcs(SensorId(j as u32));
                if !points.is_empty() && !rng.gen_bool(loss) {
                    nodes[j].receive_arcs(SensorId(i as u32), points);
                }
            }
        } else {
            // A random node is snapshotted and replaced by a fresh restore,
            // or rolled back in place to the snapshot it took last time.
            let i = rng.gen_index(count);
            match saved[i].take() {
                Some(dump) if rng.gen_bool(0.5) => {
                    nodes[i].persist_restore(&dump).expect("an earlier snapshot restores");
                }
                _ => {
                    let dump = nodes[i].persist_snapshot();
                    let mut restored = make(i);
                    restored.persist_restore(&dump).expect("a node's own snapshot restores");
                    assert_eq!(restored.persist_snapshot(), dump, "case {case}: lossless restore");
                    nodes[i] = restored;
                    saved[i] = Some(dump);
                }
            }
            coverage.restores += 1;
        }
    }
}

#[test]
fn process_matches_the_reference_oracle_message_for_message() {
    let mut rng = SeededRng::seed_from_u64(SEED);
    let mut coverage = Coverage::default();
    for case in 0..CASES {
        let d = (case % 3) as HopCount + 1;
        let mut case_rng = rng.fork();
        if (case / 3) % 2 == 0 {
            run_case(&mut case_rng, NnDistance, d, case, &mut coverage);
        } else {
            let k = case_rng.gen_range(2usize..4);
            run_case(&mut case_rng, KnnAverageDistance::new(k), d, case, &mut coverage);
        }
    }
    assert!(coverage.compared > 1_000, "only {} process calls compared", coverage.compared);
    assert!(coverage.non_empty > 100, "only {} non-empty messages", coverage.non_empty);
    assert!(coverage.evictions > 50, "only {} evicting clock advances", coverage.evictions);
    assert!(coverage.restores > 50, "only {} snapshot round trips", coverage.restores);
}
