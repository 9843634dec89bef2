//! Exhaustive verification of the §4.1 bound-function claims:
//! "900k bounds the cost increase for the overbooking constraint, while
//! 300k bounds the cost increase for the underbooking constraint" —
//! i.e. for every pair `s ≤ₖ t` realized by an update sequence and a
//! subsequence missing at most k updates,
//! `cost(s, i) ≤ cost(t, i) + f(k)`.
//!
//! Checked over *all* update sequences of bounded length and *all* of
//! their subsequences, so within the scope the claim is verified rather
//! than sampled.

use shard::analysis::exhaustive::check_bound_exhaustively;
use shard::apps::airline::{AirlineUpdate, FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard::apps::banking::{AccountId, Bank, BankUpdate};
use shard::apps::Person;
use shard::core::costs::{check_bound_instance, for_each_sequence_and_subsequence, BoundFn};

#[test]
fn airline_bound_functions_verified_exhaustively() {
    // 7^0..7^4 sequences × 2^len subsequences each = 41 371 instances,
    // the scope experiments E02 and E03 claim.
    for (constraint, f) in [
        (OVERBOOKING, BoundFn::linear(900)),
        (UNDERBOOKING, BoundFn::linear(300)),
    ] {
        let check = check_bound_exhaustively(constraint, &f);
        assert!(check.holds(), "{check}");
        assert!(check.instances > 40_000, "non-trivial scope: {check}");
    }
    // One missed MOVE-UP can overbook by a whole passenger: 899·k fails.
    assert!(!check_bound_exhaustively(OVERBOOKING, &BoundFn::linear(899)).holds());
}

#[test]
fn bank_bound_function_verified_exhaustively() {
    // max_debit = 10: each missing update can raise an account's
    // overdraft by at most 10, so f(k) = 10·k bounds the increase.
    let app = Bank::new(1, 10);
    let a = AccountId(1);
    let f = BoundFn::linear(10);
    let universe = [
        BankUpdate::Credit(a, 10),
        BankUpdate::Credit(a, 3),
        BankUpdate::Debit(a, 10),
        BankUpdate::Debit(a, 7),
        BankUpdate::Sweep(a),
    ];
    let mut checked = 0u64;
    for_each_sequence_and_subsequence(&universe, 5, |seq, kept| {
        checked += 1;
        assert!(
            check_bound_instance(&app, &f, 0, seq, kept),
            "max_debit·k bound failed: seq={seq:?} kept={kept:?}"
        );
    });
    assert!(checked > 50_000, "non-trivial scope: {checked}");
}

/// Sanity for the checker itself: an intentionally too-small bound
/// function must be caught.
#[test]
fn undersized_bound_is_rejected() {
    let app = FlyByNight::new(1);
    let f_bogus = BoundFn::linear(1);
    use AirlineUpdate::*;
    // Missing the move-down leaves the plane overbooked by $900 > $1·1.
    let seq = vec![
        Request(Person(1)),
        MoveUp(Person(1)),
        Request(Person(2)),
        MoveUp(Person(2)),
        MoveDown(Person(2)),
    ];
    let kept = [0usize, 1, 2, 3]; // drop the move-down: k = 1
                                  // s has cost 0 (move-down ran); t is overbooked by 900. The bound
                                  // direction is cost(s) ≤ cost(t) + f(k) — trivially fine here. The
                                  // interesting direction drops the *move-up* instead:
    let kept2 = [0usize, 1, 2, 4];
    // s: both moved up then one moved down → AL=1, cost 0. Still fine.
    assert!(check_bound_instance(
        &app,
        &f_bogus,
        OVERBOOKING,
        &seq,
        &kept
    ));
    assert!(check_bound_instance(
        &app,
        &f_bogus,
        OVERBOOKING,
        &seq,
        &kept2
    ));
    // A genuinely violating pair: full sequence overbooks, subsequence
    // does not see the second move-up.
    let seq = vec![
        Request(Person(1)),
        MoveUp(Person(1)),
        Request(Person(2)),
        MoveUp(Person(2)),
    ];
    let kept = [0usize, 1, 2]; // k = 1: cost(s)=900 > cost(t)=0 + f(1)=1
    assert!(!check_bound_instance(
        &app,
        &f_bogus,
        OVERBOOKING,
        &seq,
        &kept
    ));
}
