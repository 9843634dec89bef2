//! Assignment and waiting witnesses (§5.3).
//!
//! The refined cost bounds of Theorems 20–21 replace blanket
//! k-completeness by *witnesses*: small sets of updates whose presence in
//! a transaction's prefix subsequence guarantees it has accurate
//! information about a particular person.
//!
//! For an update sequence `𝒜` and a person `P`:
//!
//! * an **assignment witness** is a pair `(A, B)` where `A` is a
//!   `request(P)`, `B` a `move-up(P)`, `A` precedes `B`, there is no
//!   `cancel(P)` after `A` and no `move-down(P)` after `B`;
//! * a **waiting witness** is either a `request(P)` with no `cancel(P)`
//!   or `move-up(P)` after it, or a pair (`request(P)`, `move-down(P)`)
//!   with no `cancel(P)` after the request and no `move-up(P)` after the
//!   move-down.
//!
//! Lemma 14 characterizes membership: `P ∈ ASSIGNED-LIST(result(𝒜))` iff
//! `𝒜` contains an assignment witness for `P`, and similarly for the
//! wait list; the property tests below verify this mechanically.

use super::AirlineUpdate;
use crate::person::Person;

/// A view over an update sequence with per-person position queries.
///
/// # Examples
///
/// ```
/// use shard_apps::airline::witness::UpdateHistory;
/// use shard_apps::airline::AirlineUpdate::{MoveUp, Request};
/// use shard_apps::Person;
///
/// let seq = [Request(Person(1)), MoveUp(Person(1))];
/// let h = UpdateHistory::new(&seq);
/// assert_eq!(h.assignment_witness(Person(1)), Some((0, 1)));
/// assert_eq!(h.waiting_witness(Person(1)), None);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct UpdateHistory<'a> {
    seq: &'a [AirlineUpdate],
}

/// A waiting witness (§5.3): either a pending request or a
/// request/move-down pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitingWitness {
    /// Form (1): index of a `request(P)` with no later `cancel(P)` or
    /// `move-up(P)`.
    Pending(usize),
    /// Form (2): indices of a `request(P)` and a later `move-down(P)`,
    /// with no `cancel(P)` after the request and no `move-up(P)` after
    /// the move-down.
    Demoted(usize, usize),
}

impl<'a> UpdateHistory<'a> {
    /// Wraps an update sequence.
    pub fn new(seq: &'a [AirlineUpdate]) -> Self {
        UpdateHistory { seq }
    }

    fn last_index(&self, pred: impl Fn(&AirlineUpdate) -> bool) -> Option<usize> {
        self.seq.iter().rposition(pred)
    }

    /// Index of the last `cancel(P)`, if any.
    pub fn last_cancel(&self, p: Person) -> Option<usize> {
        self.last_index(|u| *u == AirlineUpdate::Cancel(p))
    }

    /// Index of the last `move-up(P)`, if any.
    pub fn last_move_up(&self, p: Person) -> Option<usize> {
        self.last_index(|u| *u == AirlineUpdate::MoveUp(p))
    }

    /// Index of the last `move-down(P)`, if any.
    pub fn last_move_down(&self, p: Person) -> Option<usize> {
        self.last_index(|u| *u == AirlineUpdate::MoveDown(p))
    }

    /// Index of the last `request(P)`, if any.
    pub fn last_request(&self, p: Person) -> Option<usize> {
        self.last_index(|u| *u == AirlineUpdate::Request(p))
    }

    /// An assignment witness for `p`, if one exists: returns the pair of
    /// indices `(request, move_up)`.
    pub fn assignment_witness(&self, p: Person) -> Option<(usize, usize)> {
        self.assignment_witness_within(p, |_| true)
    }

    /// An assignment witness for `p` both of whose updates satisfy
    /// `seen` (Theorem 20/21 ask whether a transaction's prefix
    /// subsequence *includes* a witness: the witness conditions are
    /// evaluated against the full history, membership against the seen
    /// set).
    pub fn assignment_witness_within(
        &self,
        p: Person,
        seen: impl Fn(usize) -> bool,
    ) -> Option<(usize, usize)> {
        let cancel_bar = self.last_cancel(p).map_or(0, |c| c + 1);
        let down_bar = self.last_move_down(p).map_or(0, |d| d + 1);
        // Candidate requests: after the last cancel. Candidate move-ups:
        // after the last move-down and after the chosen request.
        let mut best_request: Option<usize> = None;
        for (i, u) in self.seq.iter().enumerate() {
            match u {
                AirlineUpdate::Request(q)
                    if *q == p && i >= cancel_bar && seen(i) && best_request.is_none() =>
                {
                    // Keep the earliest seen request; any later move-up
                    // pairs with it.
                    best_request = Some(i);
                }
                AirlineUpdate::MoveUp(q) if *q == p && i >= down_bar && seen(i) => {
                    if let Some(a) = best_request {
                        if a < i {
                            return Some((a, i));
                        }
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// A waiting witness for `p`, if one exists.
    ///
    /// # Erratum (mechanization finding)
    ///
    /// The paper's form (1) — "a `request(P)` with no `cancel(P)` or
    /// `move-up(P)` after it" — misclassifies a *duplicate request*
    /// arriving while `P` is assigned (a scenario §5.1 explicitly
    /// allows): e.g. after `request(P), move-up(P), request(P)` the
    /// person is assigned, not waiting, yet the second request satisfies
    /// form (1) verbatim. We therefore implement the exact
    /// characterization — `P` is waiting iff `P` is known and has **no
    /// assignment witness** — and report it in the paper's two witness
    /// shapes. Lemma 14(c) then holds exactly (verified exhaustively in
    /// the tests); EXPERIMENTS.md records the erratum.
    pub fn waiting_witness(&self, p: Person) -> Option<WaitingWitness> {
        if !self.known_by_history(p) || self.assignment_witness(p).is_some() {
            return None;
        }
        let cancel_bar = self.last_cancel(p).map_or(0, |c| c + 1);
        // The request establishing membership: the first one after the
        // last cancel (it exists because P is known).
        let a = self
            .seq
            .iter()
            .enumerate()
            .position(|(i, u)| i >= cancel_bar && *u == AirlineUpdate::Request(p))
            .expect("known person has an uncancelled request");
        match self.last_move_up(p) {
            // No move-up since the establishing request: still pending.
            None => Some(WaitingWitness::Pending(a)),
            Some(u) if u < a => Some(WaitingWitness::Pending(a)),
            // A move-up happened but P is not assigned, so a later
            // move-down demoted them (otherwise (a, u) would be an
            // assignment witness).
            Some(u) => {
                let d = self
                    .last_move_down(p)
                    .expect("unassigned person with move-up has a later move-down");
                debug_assert!(d > u);
                Some(WaitingWitness::Demoted(a, d))
            }
        }
    }

    /// The subsequence of updates whose indices satisfy `seen`, as an
    /// owned sequence — the history a transaction that saw exactly those
    /// updates reasons over. Exact subsequence-state questions
    /// ("is P waiting in the apparent state?") are witness queries on
    /// the restriction.
    pub fn restricted(&self, seen: impl Fn(usize) -> bool) -> Vec<AirlineUpdate> {
        self.seq
            .iter()
            .enumerate()
            .filter(|(i, _)| seen(*i))
            .map(|(_, u)| *u)
            .collect()
    }

    /// Lemma 14(a): whether `p` is *known* in the resulting state —
    /// there is a `request(P)` not followed by a `cancel(P)`.
    pub fn known_by_history(&self, p: Person) -> bool {
        match (self.last_request(p), self.last_cancel(p)) {
            (Some(r), Some(c)) => r > c,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airline::FlyByNight;
    use shard_core::Application;

    fn p(n: u32) -> Person {
        Person(n)
    }

    use AirlineUpdate::{Cancel, MoveDown, MoveUp, Request};

    #[test]
    fn simple_assignment_witness() {
        let seq = [Request(p(1)), MoveUp(p(1))];
        let h = UpdateHistory::new(&seq);
        assert_eq!(h.assignment_witness(p(1)), Some((0, 1)));
        assert_eq!(h.assignment_witness(p(2)), None);
    }

    #[test]
    fn cancel_after_request_kills_witness() {
        let seq = [Request(p(1)), MoveUp(p(1)), Cancel(p(1))];
        let h = UpdateHistory::new(&seq);
        assert_eq!(h.assignment_witness(p(1)), None);
    }

    #[test]
    fn move_down_after_move_up_kills_witness() {
        let seq = [Request(p(1)), MoveUp(p(1)), MoveDown(p(1))];
        let h = UpdateHistory::new(&seq);
        assert_eq!(h.assignment_witness(p(1)), None);
        // But a later move-up restores it.
        let seq = [Request(p(1)), MoveUp(p(1)), MoveDown(p(1)), MoveUp(p(1))];
        let h = UpdateHistory::new(&seq);
        assert_eq!(h.assignment_witness(p(1)), Some((0, 3)));
    }

    #[test]
    fn re_request_after_cancel_gives_fresh_witness() {
        let seq = [
            Request(p(1)),
            MoveUp(p(1)),
            Cancel(p(1)),
            Request(p(1)),
            MoveUp(p(1)),
        ];
        let h = UpdateHistory::new(&seq);
        assert_eq!(h.assignment_witness(p(1)), Some((3, 4)));
    }

    #[test]
    fn waiting_witness_forms() {
        // Form 1: pending request.
        let seq = [Request(p(1))];
        assert_eq!(
            UpdateHistory::new(&seq).waiting_witness(p(1)),
            Some(WaitingWitness::Pending(0))
        );
        // Move-up kills form 1…
        let seq = [Request(p(1)), MoveUp(p(1))];
        assert_eq!(UpdateHistory::new(&seq).waiting_witness(p(1)), None);
        // …but a move-down creates form 2.
        let seq = [Request(p(1)), MoveUp(p(1)), MoveDown(p(1))];
        assert_eq!(
            UpdateHistory::new(&seq).waiting_witness(p(1)),
            Some(WaitingWitness::Demoted(0, 2))
        );
        // Cancel kills both forms.
        let seq = [Request(p(1)), MoveUp(p(1)), MoveDown(p(1)), Cancel(p(1))];
        assert_eq!(UpdateHistory::new(&seq).waiting_witness(p(1)), None);
    }

    #[test]
    fn witness_within_respects_seen_filter() {
        let seq = [Request(p(1)), MoveUp(p(1))];
        let h = UpdateHistory::new(&seq);
        // Not seeing the move-up: no witness within.
        assert_eq!(h.assignment_witness_within(p(1), |i| i == 0), None);
        assert_eq!(h.assignment_witness_within(p(1), |_| true), Some((0, 1)));
    }

    #[test]
    fn restricted_history_answers_subsequence_questions() {
        let seq = [Request(p(1)), MoveUp(p(1)), Cancel(p(1))];
        let h = UpdateHistory::new(&seq);
        // Seeing everything: P1 is gone.
        assert!(!UpdateHistory::new(&h.restricted(|_| true)).known_by_history(p(1)));
        // Missing the cancel: P1 appears assigned.
        let sub = h.restricted(|i| i < 2);
        assert!(UpdateHistory::new(&sub).assignment_witness(p(1)).is_some());
        // Missing the move-up and the cancel: P1 appears waiting.
        let sub = h.restricted(|i| i == 0);
        assert_eq!(
            UpdateHistory::new(&sub).waiting_witness(p(1)),
            Some(WaitingWitness::Pending(0))
        );
    }

    /// The corrected semantics for the duplicate-request corner the
    /// paper's form (1) misses (see the erratum note on
    /// [`UpdateHistory::waiting_witness`]).
    #[test]
    fn duplicate_request_while_assigned_is_not_a_waiting_witness() {
        let seq = [Request(p(1)), MoveUp(p(1)), Request(p(1))];
        let h = UpdateHistory::new(&seq);
        assert_eq!(h.waiting_witness(p(1)), None);
        assert!(h.assignment_witness(p(1)).is_some());
    }

    #[test]
    fn last_index_queries() {
        let seq = [
            Request(p(1)),
            Cancel(p(1)),
            Request(p(1)),
            MoveUp(p(1)),
            MoveDown(p(1)),
        ];
        let h = UpdateHistory::new(&seq);
        assert_eq!(h.last_cancel(p(1)), Some(1));
        assert_eq!(h.last_request(p(1)), Some(2));
        assert_eq!(h.last_move_up(p(1)), Some(3));
        assert_eq!(h.last_move_down(p(1)), Some(4));
        assert_eq!(h.last_cancel(p(2)), None);
    }

    #[test]
    fn known_by_history_matches_lemma_14a() {
        let seq = [Request(p(1)), Cancel(p(1))];
        assert!(!UpdateHistory::new(&seq).known_by_history(p(1)));
        let seq = [Request(p(1)), Cancel(p(1)), Request(p(1))];
        assert!(UpdateHistory::new(&seq).known_by_history(p(1)));
        let seq = [MoveUp(p(1))];
        assert!(!UpdateHistory::new(&seq).known_by_history(p(1)));
    }

    /// Lemma 14(b)/(c): witness existence coincides with actual list
    /// membership, exhaustively over all short update sequences drawn
    /// from the updates touching two people.
    #[test]
    fn lemma_14_exhaustive_over_short_sequences() {
        let app = FlyByNight::new(1);
        let universe = [
            Request(p(1)),
            Cancel(p(1)),
            MoveUp(p(1)),
            MoveDown(p(1)),
            Request(p(2)),
            MoveUp(p(2)),
        ];
        // All sequences of length ≤ 4 over the universe (6^0+…+6^4 = 1555).
        let mut stack: Vec<Vec<AirlineUpdate>> = vec![vec![]];
        while let Some(seq) = stack.pop() {
            let mut s = app.initial_state();
            for u in &seq {
                s = app.apply(&s, u);
            }
            let h = UpdateHistory::new(&seq);
            for person in [p(1), p(2)] {
                assert_eq!(
                    s.is_assigned(person),
                    h.assignment_witness(person).is_some(),
                    "assignment mismatch for {person} after {seq:?}"
                );
                assert_eq!(
                    s.is_waiting(person),
                    h.waiting_witness(person).is_some(),
                    "waiting mismatch for {person} after {seq:?}"
                );
                assert_eq!(
                    s.is_known(person),
                    h.known_by_history(person),
                    "known mismatch for {person} after {seq:?}"
                );
            }
            if seq.len() < 4 {
                for u in universe {
                    let mut next = seq.clone();
                    next.push(u);
                    stack.push(next);
                }
            }
        }
    }
}
