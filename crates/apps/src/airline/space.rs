//! Exhaustive state spaces for the airline application.
//!
//! The transaction properties of §4 quantify over *all* well-formed
//! states. For a scaled-down instance (small capacity, few people) the
//! quantifier can be discharged exactly by enumerating every ordered
//! pair of disjoint lists over the people. The §4 properties of the
//! full-size airline follow by the obvious monotonicity (the paper's
//! arguments never depend on the magnitude of `capacity`), and the
//! experiments use the 100-seat instance for the execution-level claims.

use super::AirlineState;
use crate::person::Person;

/// Every well-formed airline state over people `P1..=Pn` (both lists in
/// every possible order). Grows super-exponentially: n=3 gives 49
/// states, n=4 gives 261, n=5 gives 1 631 — keep `n ≤ 5`.
pub fn all_states(n: u32) -> Vec<AirlineState> {
    over(&(1..=n).map(Person).collect::<Vec<_>>())
}

/// Every well-formed airline state over an explicit set of people.
pub fn over(people: &[Person]) -> Vec<AirlineState> {
    // Choose an ordered assigned list from the people, then an ordered
    // waiting list from the remainder.
    let mut out = Vec::new();
    pick_assigned(people, &mut Vec::new(), &mut out);
    out
}

fn pick_assigned(people: &[Person], assigned: &mut Vec<Person>, out: &mut Vec<AirlineState>) {
    // For the current assigned list, enumerate all waiting lists.
    let remaining: Vec<Person> = people
        .iter()
        .copied()
        .filter(|p| !assigned.contains(p))
        .collect();
    pick_waiting(&remaining, &mut Vec::new(), assigned, out);
    // Extend the assigned list by each unused person.
    for p in remaining {
        assigned.push(p);
        pick_assigned(people, assigned, out);
        assigned.pop();
    }
}

fn pick_waiting(
    pool: &[Person],
    waiting: &mut Vec<Person>,
    assigned: &[Person],
    out: &mut Vec<AirlineState>,
) {
    out.push(AirlineState::from_lists(assigned.to_vec(), waiting.clone()));
    for &p in pool {
        if waiting.contains(&p) {
            continue;
        }
        waiting.push(p);
        pick_waiting(pool, waiting, assigned, out);
        waiting.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airline::FlyByNight;
    use shard_core::Application;

    #[test]
    fn enumeration_counts_match_combinatorics() {
        // Σ_a P(n,a) · Σ_w P(n−a,w): ordered disjoint list pairs.
        assert_eq!(all_states(0).len(), 1);
        assert_eq!(all_states(1).len(), 3); // {}, [P1| ], [ |P1]
        assert_eq!(all_states(2).len(), 11);
        assert_eq!(all_states(3).len(), 49);
        assert_eq!(all_states(4).len(), 261);
    }

    #[test]
    fn all_enumerated_states_are_well_formed() {
        let app = FlyByNight::new(2);
        for s in all_states(3) {
            assert!(app.is_well_formed(&s), "ill-formed: {s}");
        }
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let states = all_states(3);
        for (i, a) in states.iter().enumerate() {
            for b in &states[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn over_custom_people() {
        assert_eq!(over(&[Person(7)]).len(), 3);
    }
}
