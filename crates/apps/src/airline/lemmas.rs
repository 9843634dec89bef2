//! The update-sequence lemmas of §5.3, as executable statements.
//!
//! Lemmas 14–19 relate the state `s` produced by a full update sequence
//! `𝒜` to the state `t` produced by a subsequence `𝒮 ⊆ 𝒜`. They are the
//! engine room of the refined Theorems 20–21: each says that if `𝒮`
//! contains certain critical updates, then `t` agrees with `s` about a
//! particular person. Each lemma here is a function returning whether
//! the implication held on a concrete `(𝒜, 𝒮, P)` instance. An
//! exhaustive sweep over small update universes found the Lemma 16 and
//! Lemma 19 errata (see below); experiment E05 runs that sweep
//! (`shard_analysis::exhaustive::check_lemma_exhaustively`) as one claim
//! per lemma, and prints each erratum's counterexample.

use super::witness::{UpdateHistory, WaitingWitness};
use super::{AirlineState, AirlineUpdate, FlyByNight};
use crate::person::Person;
use shard_core::{Replayer, DEFAULT_CHECKPOINT_INTERVAL};

/// The pair of states `(s, t)` a lemma instance compares: `s` from the
/// full sequence, `t` from the subsequence keeping the (strictly
/// increasing) indices `kept`.
pub fn states_of(
    app: &FlyByNight,
    seq: &[AirlineUpdate],
    kept: &[usize],
) -> (AirlineState, AirlineState) {
    let mut replayer = Replayer::from_updates_with_interval(app, seq, DEFAULT_CHECKPOINT_INTERVAL);
    (replayer.final_state(), replayer.state_after_prefix(kept))
}

/// **Lemma 15.** If `P ∈ ASSIGNED-LIST(s)` and `(A, B)` is an assignment
/// witness for `P` in `𝒜` with both `A, B ∈ 𝒮`, then
/// `P ∈ ASSIGNED-LIST(t)`. Returns `None` when the hypothesis is unmet,
/// `Some(conclusion)` otherwise.
pub fn lemma15(app: &FlyByNight, seq: &[AirlineUpdate], kept: &[usize], p: Person) -> Option<bool> {
    let (s, t) = states_of(app, seq, kept);
    if !s.is_assigned(p) {
        return None;
    }
    let h = UpdateHistory::new(seq);
    h.assignment_witness_within(p, |i| kept.contains(&i))?;
    Some(t.is_assigned(p))
}

/// **Lemma 16 (corrected).** If `P ∈ WAIT-LIST(s)` and `𝒮` contains a
/// waiting witness for `P` (corrected semantics — see the erratum on
/// [`UpdateHistory::waiting_witness`]), then `P ∈ WAIT-LIST(t)`.
///
/// With the **paper's literal form-(1)** hypothesis instead — "a
/// request(P) in `𝒮` with no cancel(P) or move-up(P) after it *in 𝒜*" —
/// the implication fails: take `𝒜 = [request(P), move-up(P), cancel(P),
/// request(P)]` and `𝒮` keeping everything but the cancel. `P` waits in
/// `s` and the second request satisfies form (1), but in `t` the
/// un-cancelled move-up leaves `P` assigned. [`lemma16_literal`] exposes
/// that reading so E05 can exhibit the counterexample.
pub fn lemma16(app: &FlyByNight, seq: &[AirlineUpdate], kept: &[usize], p: Person) -> Option<bool> {
    let (s, t) = states_of(app, seq, kept);
    if !s.is_waiting(p) {
        return None;
    }
    // Corrected witness, required to lie inside 𝒮 with its defining
    // conditions evaluated in 𝒜: conditions from the full history,
    // membership from the kept set.
    let h = UpdateHistory::new(seq);
    let witness = h.waiting_witness(p)?;
    let in_kept = |i: usize| kept.contains(&i);
    let included = match witness {
        WaitingWitness::Pending(a) => in_kept(a),
        WaitingWitness::Demoted(a, d) => in_kept(a) && in_kept(d),
    };
    // The corrected reading additionally requires 𝒮 to keep the last
    // cancel(P) and last move-up(P) (Lemmas 17/19's conditions), which
    // is what makes the transfer sound.
    let negatives_kept =
        h.last_cancel(p).is_none_or(in_kept) && h.last_move_up(p).is_none_or(in_kept);
    if !included || !negatives_kept {
        return None;
    }
    Some(t.is_waiting(p))
}

/// The paper's **literal Lemma 16 form (1)** hypothesis: some
/// `request(P)` in `𝒮` with no `cancel(P)` or `move-up(P)` after it in
/// `𝒜`. Returns `Some(t-waiting?)` when that hypothesis holds — E05
/// shows this implication is falsifiable (the erratum).
pub fn lemma16_literal(
    app: &FlyByNight,
    seq: &[AirlineUpdate],
    kept: &[usize],
    p: Person,
) -> Option<bool> {
    let (s, t) = states_of(app, seq, kept);
    if !s.is_waiting(p) {
        return None;
    }
    let h = UpdateHistory::new(seq);
    let cancel_bar = h.last_cancel(p).map_or(0, |c| c + 1);
    let up_bar = h.last_move_up(p).map_or(0, |u| u + 1);
    let bar = cancel_bar.max(up_bar);
    let hypothesis = kept
        .iter()
        .any(|&i| i >= bar && seq[i] == AirlineUpdate::Request(p));
    if !hypothesis {
        return None;
    }
    Some(t.is_waiting(p))
}

/// **Lemma 17.** If `𝒮` contains the last `cancel(P)` (if any) of `𝒜`
/// and `P` is known in `t`, then `P` is known in `s`.
pub fn lemma17(app: &FlyByNight, seq: &[AirlineUpdate], kept: &[usize], p: Person) -> Option<bool> {
    let (s, t) = states_of(app, seq, kept);
    let h = UpdateHistory::new(seq);
    if !h.last_cancel(p).is_none_or(|c| kept.contains(&c)) || !t.is_known(p) {
        return None;
    }
    Some(s.is_known(p))
}

/// **Lemma 18.** If `𝒮` contains the last `move-down(P)` and the last
/// `cancel(P)` (if any) of `𝒜`, and `P ∈ ASSIGNED-LIST(t)`, then
/// `P ∈ ASSIGNED-LIST(s)`.
pub fn lemma18(app: &FlyByNight, seq: &[AirlineUpdate], kept: &[usize], p: Person) -> Option<bool> {
    let (s, t) = states_of(app, seq, kept);
    let h = UpdateHistory::new(seq);
    let negatives = h.last_move_down(p).is_none_or(|d| kept.contains(&d))
        && h.last_cancel(p).is_none_or(|c| kept.contains(&c));
    if !negatives || !t.is_assigned(p) {
        return None;
    }
    Some(s.is_assigned(p))
}

/// **Lemma 19 (corrected).** If `𝒮` contains the last `move-up(P)`, the
/// last `cancel(P)`, **and the first `request(P)` after the last
/// cancel** (each if it exists), and `P ∈ WAIT-LIST(t)`, then
/// `P ∈ WAIT-LIST(s)`.
///
/// # Erratum (mechanization finding)
///
/// The paper states the hypothesis with only the two "last" updates
/// ("Assume that 𝒮 contains the last move-up(P)… the last cancel(P)…",
/// proof "analogous"). E05's exhaustive sweep falsifies that
/// reading — the same duplicate-request corner as Lemma 16: with
/// `𝒜 = [request(P), move-up(P), request(P)]` and `𝒮 = {move-up,
/// second request}`, both "lasts" are kept and `P` waits in `t` (the
/// move-up replays as a no-op before the request), yet `P` is assigned
/// in `s`. Keeping the *establishing* request closes the gap:
/// [`lemma19_literal`] exposes the paper's reading for E05.
pub fn lemma19(app: &FlyByNight, seq: &[AirlineUpdate], kept: &[usize], p: Person) -> Option<bool> {
    let (s, t) = states_of(app, seq, kept);
    let h = UpdateHistory::new(seq);
    let cancel_bar = h.last_cancel(p).map_or(0, |c| c + 1);
    let establishing = seq
        .iter()
        .enumerate()
        .position(|(i, u)| i >= cancel_bar && *u == AirlineUpdate::Request(p));
    let negatives = h.last_move_up(p).is_none_or(|u| kept.contains(&u))
        && h.last_cancel(p).is_none_or(|c| kept.contains(&c))
        && establishing.is_none_or(|r| kept.contains(&r));
    if !negatives || !t.is_waiting(p) {
        return None;
    }
    Some(s.is_waiting(p))
}

/// The paper's **literal Lemma 19** hypothesis (last move-up and last
/// cancel only). Falsifiable — see the erratum on [`lemma19`].
pub fn lemma19_literal(
    app: &FlyByNight,
    seq: &[AirlineUpdate],
    kept: &[usize],
    p: Person,
) -> Option<bool> {
    let (s, t) = states_of(app, seq, kept);
    let h = UpdateHistory::new(seq);
    let negatives = h.last_move_up(p).is_none_or(|u| kept.contains(&u))
        && h.last_cancel(p).is_none_or(|c| kept.contains(&c));
    if !negatives || !t.is_waiting(p) {
        return None;
    }
    Some(s.is_waiting(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_of_computes_both_sides() {
        use AirlineUpdate::*;
        let app = FlyByNight::new(1);
        let seq = [Request(Person(1)), MoveUp(Person(1))];
        let (s, t) = states_of(&app, &seq, &[0]);
        assert!(s.is_assigned(Person(1)));
        assert!(t.is_waiting(Person(1)));
    }
}
