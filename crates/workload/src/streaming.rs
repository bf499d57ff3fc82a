//! The streaming variant of the contact-tracing workload: the same trajectories
//! as [`crate::contact_tracing`], emitted as a sequence of epoched mutation
//! [`Batch`]es instead of one bulk graph.
//!
//! The stream simulates how contact-tracing data actually arrives: at each time
//! slot τ the generator emits everything that *starts* at τ — people entering
//! campus (node creation on first sight, existence and risk over the stay),
//! room visits, co-location meetings, and positive test results (asserted from
//! the test time to the end of the person's lifespan).  Every batch is valid
//! against the prefix that precedes it: an edge's existence interval starts no
//! earlier than the covering stays of both endpoints, so by the time the edge
//! arrives, its endpoints already exist throughout it.
//!
//! The resulting graph is *shaped* like the bulk generator's output (same stays,
//! same co-location edges, same property mix) but not identical to it: the bulk
//! generator gives each room one hull interval from first entrance to last exit,
//! which a causal stream cannot know in advance — here room existence is the
//! union of its visits.  Benchmarks compare the maintained results against a
//! from-scratch evaluation of the *streamed* graph, so this difference never
//! enters any equivalence check.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgraph::{Batch, Interval, Time};

use crate::contact_tracing::ContactTracingConfig;
use crate::trajectory::{generate_stays, Place, Stay};

/// Generates the contact-tracing workload as a stream of epoched batches, one
/// batch per time slot at which something starts (epoch = time slot).  The
/// stream is fully deterministic given the configuration's seed.
pub fn stream_contact_batches(config: &ContactTracingConfig) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let stays = generate_stays(&config.trajectories, &mut rng);
    let num_persons = config.trajectories.num_persons;

    // Per-person lifespan bounds and risk/test draws, mirroring the bulk
    // generator's assignment logic (risk for everyone, a positive test for a
    // configurable fraction, from a uniform time point to the end of life).
    let mut first_seen: Vec<Option<Time>> = vec![None; num_persons];
    let mut last_seen: Vec<Option<Time>> = vec![None; num_persons];
    for stay in &stays {
        let first = first_seen[stay.person].get_or_insert(stay.interval.start());
        *first = (*first).min(stay.interval.start());
        let last = last_seen[stay.person].get_or_insert(stay.interval.end());
        *last = (*last).max(stay.interval.end());
    }
    let mut risk_of: Vec<&'static str> = Vec::with_capacity(num_persons);
    let mut positive_at: Vec<Option<Time>> = Vec::with_capacity(num_persons);
    for person in 0..num_persons {
        risk_of.push(if rng.gen_bool(config.high_risk_rate) { "high" } else { "low" });
        let positive = first_seen[person].is_some() && rng.gen_bool(config.positivity_rate);
        positive_at.push(positive.then(|| {
            let (first, last) =
                (first_seen[person].expect("seen"), last_seen[person].expect("seen"));
            rng.gen_range(first..=last)
        }));
    }

    // Group the events by the epoch at which they become known.
    let mut batches: HashMap<Time, Batch> = HashMap::new();
    fn batch_at(batches: &mut HashMap<Time, Batch>, t: Time) -> &mut Batch {
        batches.entry(t).or_insert_with(|| Batch::new(t))
    }

    // Person arrival, stay existence, risk — and the positive-test tail of every
    // stay it intersects (known from the test time onwards).
    let mut person_known: Vec<bool> = vec![false; num_persons];
    let mut sorted_stays: Vec<&Stay> = stays.iter().collect();
    sorted_stays.sort_by_key(|s| (s.interval.start(), s.person, s.interval.end()));
    for stay in &sorted_stays {
        let epoch = stay.interval.start();
        let name = format!("p{}", stay.person);
        let batch = batch_at(&mut batches, epoch);
        if !person_known[stay.person] {
            person_known[stay.person] = true;
            batch.add_node(name.clone(), "Person");
        }
        batch.add_existence(name.clone(), stay.interval);
        batch.set_property(name.clone(), "risk", risk_of[stay.person], stay.interval);
        if let Some(pos_time) = positive_at[stay.person] {
            let last = last_seen[stay.person].expect("positive persons were seen");
            if let Some(tail) = stay.interval.intersect(&Interval::of(pos_time, last)) {
                batch_at(&mut batches, tail.start()).set_property(name, "test", "pos", tail);
            }
        }
    }

    // Rooms and visits: the room node arrives with its first visit; each visit
    // extends the room's existence and adds a `visits` edge over the stay.
    let mut room_known: HashSet<usize> = HashSet::new();
    let mut visit_count = 0usize;
    for stay in &sorted_stays {
        let Place::Room(room) = stay.place else { continue };
        let epoch = stay.interval.start();
        let room_name = format!("r{room}");
        let batch = batch_at(&mut batches, epoch);
        if room_known.insert(room) {
            batch.add_node(room_name.clone(), "Room");
        }
        batch.add_existence(room_name.clone(), stay.interval);
        batch.set_property(room_name.clone(), "num", room as i64, stay.interval);
        let edge_name = format!("v{visit_count}");
        visit_count += 1;
        batch
            .add_edge(edge_name.clone(), "visits", format!("p{}", stay.person), room_name)
            .add_existence(edge_name, stay.interval);
    }

    // Meets edges: co-located pairs at meeting locations, emitted at the start
    // of the overlap — by which time both covering stays have already arrived.
    let mut per_location: HashMap<usize, Vec<&Stay>> = HashMap::new();
    for stay in &stays {
        if let Place::MeetingPoint(loc) = stay.place {
            per_location.entry(loc).or_default().push(stay);
        }
    }
    let mut locations: Vec<(usize, Vec<&Stay>)> = per_location.into_iter().collect();
    locations.sort_by_key(|(loc, _)| *loc);
    let mut meet_count = 0usize;
    for (loc, mut stays_here) in locations {
        stays_here.sort_by_key(|s| (s.interval.start(), s.person));
        for i in 0..stays_here.len() {
            for j in (i + 1)..stays_here.len() {
                let (a, b) = (stays_here[i], stays_here[j]);
                if b.interval.start() > a.interval.end() {
                    break; // sorted by start: no later stay can overlap a.
                }
                if a.person == b.person {
                    continue;
                }
                let Some(overlap) = a.interval.intersect(&b.interval) else { continue };
                let edge_name = format!("m{meet_count}");
                meet_count += 1;
                let batch = batch_at(&mut batches, overlap.start());
                batch
                    .add_edge(
                        edge_name.clone(),
                        "meets",
                        format!("p{}", a.person),
                        format!("p{}", b.person),
                    )
                    .add_existence(edge_name.clone(), overlap)
                    .set_property(edge_name, "loc", format!("loc{loc}"), overlap);
            }
        }
    }

    let mut out: Vec<Batch> = batches.into_values().filter(|b| !b.is_empty()).collect();
    out.sort_by_key(|b| b.epoch);
    out
}

/// The total number of mutations across a batch stream — the unit of ingest
/// throughput reported by `tpath-serve`.
pub fn mutation_count(batches: &[Batch]) -> usize {
    batches.iter().map(|b| b.mutations.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{Itpg, Object};

    fn config() -> ContactTracingConfig {
        ContactTracingConfig::with_persons(120).with_seed(7).with_positivity_rate(0.2)
    }

    fn apply_all(batches: &[Batch]) -> Itpg {
        let mut graph = Itpg::empty(Interval::of(0, 1));
        for batch in batches {
            graph.apply_batch(batch).expect("streamed batches are valid against their prefix");
        }
        graph
    }

    #[test]
    fn streamed_batches_apply_cleanly_and_deterministically() {
        let batches = stream_contact_batches(&config());
        assert!(batches.len() > 1, "the stream spans several epochs");
        assert!(batches.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert!(mutation_count(&batches) > batches.len());
        let graph = apply_all(&batches);
        graph.validate().unwrap();
        assert_eq!(graph, apply_all(&stream_contact_batches(&config())));
    }

    #[test]
    fn streamed_graph_has_the_contact_tracing_shape() {
        let graph = apply_all(&stream_contact_batches(&config()));
        let persons =
            graph.node_ids().filter(|&n| graph.label(Object::Node(n)) == "Person").count();
        let rooms = graph.node_ids().filter(|&n| graph.label(Object::Node(n)) == "Room").count();
        let meets = graph.edge_ids().filter(|&e| graph.label(Object::Edge(e)) == "meets").count();
        let visits = graph.edge_ids().filter(|&e| graph.label(Object::Edge(e)) == "visits").count();
        assert!(persons > 0 && persons <= 120);
        assert!(rooms > 0);
        assert!(meets > 0 && visits > 0);
        let positives = graph
            .node_ids()
            .filter(|&n| graph.properties(Object::Node(n)).any(|(p, _)| p == "test"))
            .count();
        assert!(positives > 0, "the raised positivity rate must produce positive tests");
    }

    #[test]
    fn every_prefix_of_the_stream_is_a_valid_graph() {
        let batches = stream_contact_batches(&ContactTracingConfig::with_persons(60).with_seed(3));
        let mut graph = Itpg::empty(Interval::of(0, 1));
        for batch in &batches {
            graph.apply_batch(batch).expect("prefix validity");
            graph.validate().expect("every prefix is well-formed");
        }
    }
}
