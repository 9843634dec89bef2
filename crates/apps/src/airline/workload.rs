//! Randomized workload generation for the airline application.
//!
//! The experiments of §5 need executions with realistic transaction
//! mixes: a stream of requests and cancellations interleaved with the
//! "agent" transactions MOVE-UP and MOVE-DOWN. The generator is
//! deterministic given a seed, so every experiment is reproducible.

use super::AirlineTxn;
use crate::person::Person;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative weights of the four transaction kinds in a generated mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AirlineMix {
    /// Weight of `REQUEST` transactions.
    pub request: f64,
    /// Weight of `CANCEL` transactions (targets a random known person).
    pub cancel: f64,
    /// Weight of `MOVE-UP` transactions.
    pub move_up: f64,
    /// Weight of `MOVE-DOWN` transactions.
    pub move_down: f64,
}

impl Default for AirlineMix {
    /// A booking-heavy mix: many requests, frequent move-ups, occasional
    /// cancels and move-downs (the compensators run on demand anyway).
    fn default() -> Self {
        AirlineMix {
            request: 0.40,
            cancel: 0.10,
            move_up: 0.40,
            move_down: 0.10,
        }
    }
}

/// A deterministic stream of airline transactions.
#[derive(Debug)]
pub struct AirlineWorkload {
    rng: StdRng,
    mix: AirlineMix,
    next_person: u32,
    issued: Vec<Person>,
}

impl AirlineWorkload {
    /// A workload with the given seed and mix.
    pub fn new(seed: u64, mix: AirlineMix) -> Self {
        AirlineWorkload {
            rng: StdRng::seed_from_u64(seed),
            mix,
            next_person: 1,
            issued: Vec::new(),
        }
    }

    /// A workload with the default mix.
    pub fn with_seed(seed: u64) -> Self {
        AirlineWorkload::new(seed, AirlineMix::default())
    }

    /// Draws the next transaction. `CANCEL` targets a uniformly random
    /// previously requested person (falling back to a fresh `REQUEST`
    /// when nobody has requested yet).
    pub fn next_txn(&mut self) -> AirlineTxn {
        let total = self.mix.request + self.mix.cancel + self.mix.move_up + self.mix.move_down;
        let x: f64 = self.rng.random::<f64>() * total;
        if x < self.mix.request {
            return self.fresh_request();
        }
        if x < self.mix.request + self.mix.cancel {
            if self.issued.is_empty() {
                return self.fresh_request();
            }
            let idx = self.rng.random_range(0..self.issued.len());
            return AirlineTxn::Cancel(self.issued[idx]);
        }
        if x < self.mix.request + self.mix.cancel + self.mix.move_up {
            AirlineTxn::MoveUp
        } else {
            AirlineTxn::MoveDown
        }
    }

    fn fresh_request(&mut self) -> AirlineTxn {
        let p = Person(self.next_person);
        self.next_person += 1;
        self.issued.push(p);
        AirlineTxn::Request(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` transactions `w` generates.
    fn take(mut w: AirlineWorkload, n: usize) -> Vec<AirlineTxn> {
        (0..n).map(|_| w.next_txn()).collect()
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let a = take(AirlineWorkload::with_seed(42), 100);
        let b = take(AirlineWorkload::with_seed(42), 100);
        assert_eq!(a, b);
        let c = take(AirlineWorkload::with_seed(43), 100);
        assert_ne!(a, c);
    }

    #[test]
    fn requests_use_fresh_people() {
        let txns = take(AirlineWorkload::with_seed(7), 500);
        let mut requested = Vec::new();
        for t in txns {
            if let AirlineTxn::Request(p) = t {
                assert!(!requested.contains(&p), "person reused: {p}");
                requested.push(p);
            }
        }
        assert!(!requested.is_empty());
    }

    #[test]
    fn cancels_target_known_people() {
        let txns = take(AirlineWorkload::with_seed(11), 1000);
        let mut requested = Vec::new();
        for t in &txns {
            match t {
                AirlineTxn::Request(p) => requested.push(*p),
                AirlineTxn::Cancel(p) => {
                    assert!(requested.contains(p), "cancel of never-requested {p}")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn mix_weights_are_roughly_respected() {
        let mix = AirlineMix {
            request: 1.0,
            cancel: 0.0,
            move_up: 1.0,
            move_down: 0.0,
        };
        let txns = take(AirlineWorkload::new(3, mix), 2000);
        let requests = txns
            .iter()
            .filter(|t| matches!(t, AirlineTxn::Request(_)))
            .count();
        let move_ups = txns
            .iter()
            .filter(|t| matches!(t, AirlineTxn::MoveUp))
            .count();
        assert_eq!(requests + move_ups, 2000);
        assert!((800..1200).contains(&requests), "requests={requests}");
    }

    #[test]
    fn zero_weight_kinds_never_appear() {
        let mix = AirlineMix {
            request: 1.0,
            cancel: 0.0,
            move_up: 0.0,
            move_down: 0.0,
        };
        let txns = take(AirlineWorkload::new(5, mix), 300);
        assert!(txns.iter().all(|t| matches!(t, AirlineTxn::Request(_))));
    }
}
