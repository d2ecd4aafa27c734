//! Request lists, each a pure function of the benchmark seed.
//!
//! The service workloads draw from the 17 experiments other than E4 and
//! E6. Those two are the bandwidth-roof and traffic-counter experiments
//! that take about 80% of a quick sweep; `sweep_quick` covers them, and
//! leaving them out keeps one cold fleet pass at about 4 s, so a run
//! holds several passes and its medians are steady.

use experiments::platforms::Fidelity;
use experiments::registry::Experiment;
use roofline_loadgen::{Rng, Zipf};

/// The platforms `fleet_cold` requests; `snb-2s` is the paper's NUMA box.
pub const FLEET_PLATFORMS: [&str; 4] = ["snb", "ivb", "hsw", "snb-2s"];

/// Zipf exponent of `roofd_warm`'s popularity distribution.
pub const ZIPF_S: f64 = 1.1;

/// One request: an experiment on a platform, always at quick fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    /// Which experiment.
    pub experiment: Experiment,
    /// Platform preset.
    pub platform: &'static str,
}

impl Tuple {
    /// Every tuple runs at quick fidelity.
    pub const FIDELITY: Fidelity = Fidelity::Quick;

    /// `E12@snb`.
    pub fn label(&self) -> String {
        format!("{}@{}", self.experiment.id(), self.platform)
    }
}

/// The experiments the service workloads request, in canonical order.
pub fn service_experiments() -> Vec<Experiment> {
    Experiment::ALL
        .into_iter()
        .filter(|e| !matches!(e, Experiment::E4 | Experiment::E6))
        .collect()
}

/// The stream of a benchmark seed. The seed enters through a fork because
/// `Rng::new` drops its low bit, which would give seeds 42 and 43 the
/// same inputs.
pub fn seeded(seed: u64) -> Rng {
    Rng::new(1).fork(seed)
}

/// The stream for one client of one round: rounds and clients never share
/// draws, and the same `(seed, round, client)` always gives the same list.
fn stream(seed: u64, round: usize, client: usize) -> Rng {
    seeded(seed).fork(round as u64).fork(client as u64)
}

/// `roofd_warm`: each client draws `per_client` zipf-distributed `snb`
/// requests (rank 1 = E1, the hottest).
pub fn warm_lists(seed: u64, round: usize, clients: usize, per_client: usize) -> Vec<Vec<Tuple>> {
    let exps = service_experiments();
    let zipf = Zipf::new(exps.len(), ZIPF_S);
    (0..clients)
        .map(|c| {
            let mut rng = stream(seed, round, c);
            (0..per_client)
                .map(|_| Tuple {
                    experiment: exps[zipf.sample(&mut rng)],
                    platform: "snb",
                })
                .collect()
        })
        .collect()
}

/// `fleet_cold`: each client requests every (experiment × platform) tuple
/// once, in its own shuffled order, so every tuple is requested twice.
pub fn cold_lists(seed: u64, round: usize, clients: usize) -> Vec<Vec<Tuple>> {
    let all: Vec<Tuple> = FLEET_PLATFORMS
        .into_iter()
        .flat_map(|platform| {
            service_experiments()
                .into_iter()
                .map(move |experiment| Tuple {
                    experiment,
                    platform,
                })
        })
        .collect();
    (0..clients)
        .map(|c| {
            let mut rng = stream(seed, round, c);
            let mut list = all.clone();
            for i in (1..list.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                list.swap(i, j);
            }
            list
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn lists_are_a_pure_function_of_the_seed() {
        assert_eq!(warm_lists(42, 0, 2, 50), warm_lists(42, 0, 2, 50));
        assert_eq!(cold_lists(42, 3, 2), cold_lists(42, 3, 2));
        assert_ne!(warm_lists(42, 0, 2, 50), warm_lists(43, 0, 2, 50));
        assert_ne!(cold_lists(42, 0, 2), cold_lists(43, 0, 2));
        assert_ne!(cold_lists(42, 0, 2), cold_lists(42, 1, 2));
        let lists = warm_lists(7, 0, 2, 50);
        assert_ne!(lists[0], lists[1], "clients draw from their own streams");
    }

    #[test]
    fn cold_lists_hold_each_tuple_exactly_twice() {
        let lists = cold_lists(42, 0, 2);
        let mut counts: BTreeMap<Tuple, usize> = BTreeMap::new();
        for t in lists.iter().flatten() {
            *counts.entry(*t).or_default() += 1;
        }
        assert_eq!(counts.len(), 17 * FLEET_PLATFORMS.len());
        assert!(counts.values().all(|&n| n == 2), "{counts:?}");
        assert_eq!(lists[0].len(), lists[1].len());
    }

    #[test]
    fn warm_lists_stay_on_the_service_set_and_favour_rank_one() {
        let lists = warm_lists(42, 0, 2, 400);
        let exps = service_experiments();
        assert_eq!(exps.len(), 17);
        assert!(lists
            .iter()
            .flatten()
            .all(|t| exps.contains(&t.experiment) && t.platform == "snb"));
        let e1 = lists
            .iter()
            .flatten()
            .filter(|t| t.experiment == Experiment::E1)
            .count();
        let e19 = lists
            .iter()
            .flatten()
            .filter(|t| t.experiment == Experiment::E19)
            .count();
        assert!(
            e1 > 4 * e19.max(1),
            "zipf rank 1 must dominate: E1 {e1}, E19 {e19}"
        );
    }
}
