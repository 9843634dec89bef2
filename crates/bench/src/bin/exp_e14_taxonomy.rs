//! E14 — the §4.1/§4.2 taxonomy, verified exhaustively.
//!
//! The paper proves, by hand, a classification of the four airline
//! transactions against the two constraints (safe/unsafe, cost-
//! preserving, compensating) and the priority properties (all preserve
//! priority; REQUEST/CANCEL strongly preserve it; the movers do not).
//! This experiment discharges every one of those quantified claims
//! *exactly* on a scaled-down instance (capacity 2, people P1–P4, all
//! 261 well-formed states enumerated) — the arguments in §4.1 are
//! capacity-independent, so the small instance is faithful.

use shard_analysis::{ClaimCheck, Table};
use shard_apps::airline::space;
use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard_apps::Person;
use shard_core::costs::{classify_transaction, updates_preserve_well_formedness};
use shard_core::fairness::{preserves_priority, strongly_preserves_priority};

fn main() {
    let mut exp = shard_bench::Experiment::start("e14");
    let app = FlyByNight::new(2);
    let states = space::all_states(4);
    println!("E14: §4.1/§4.2 taxonomy, exhaustive over capacity-2 / 4-person instance\n");

    let txns: Vec<(&str, AirlineTxn)> = vec![
        ("REQUEST(P)", AirlineTxn::Request(Person(1))),
        ("CANCEL(P)", AirlineTxn::Cancel(Person(1))),
        ("MOVE-UP", AirlineTxn::MoveUp),
        ("MOVE-DOWN", AirlineTxn::MoveDown),
    ];

    // §4.1's safe and preserves columns are `FlyByNight::is_statically_safe`
    // and `FlyByNight::preserves`, judged here against the dynamic
    // classification. Only MOVE-DOWN compensates for overbooking and
    // only MOVE-UP for underbooking (Corollary 2's compensators).
    let compensates_over = [false, false, false, true];
    let compensates_under = [false, false, true, false];

    let mut classified = ClaimCheck::new("§4.1: every classification matches the paper's prose");
    for (constraint, cname, compensates) in [
        (OVERBOOKING, "overbooking", &compensates_over),
        (UNDERBOOKING, "underbooking", &compensates_under),
    ] {
        let mut t = Table::new(
            format!("E14 classification vs {cname} constraint"),
            &[
                "transaction",
                "safe",
                "preserves",
                "compensates",
                "matches §4.1",
            ],
        );
        for ((name, txn), e_comp) in txns.iter().zip(compensates) {
            let c = classify_transaction(&app, txn, constraint, &states);
            let matches = c.safe == app.is_statically_safe(txn, constraint)
                && c.preserves == app.preserves(txn, constraint)
                && c.compensates == *e_comp;
            classified.record((!matches).then(|| format!("{name} vs {cname}")));
            t.push_row(vec![
                name.to_string(),
                c.safe.to_string(),
                c.preserves.to_string(),
                c.compensates.to_string(),
                matches.to_string(),
            ]);
        }
        println!("{t}");
    }
    exp.claim(classified);

    // Well-formedness preservation (§2.3's requirement on all updates).
    let mut t = Table::new(
        "E14 updates preserve well-formedness",
        &["transaction", "holds"],
    );
    let mut well_formed = ClaimCheck::new("§2.3: every update preserves well-formedness");
    for (name, txn) in &txns {
        let holds = updates_preserve_well_formedness(&app, txn, &states);
        well_formed.record((!holds).then(|| name.to_string()));
        t.push_row(vec![name.to_string(), holds.to_string()]);
    }
    println!("{t}");
    exp.claim(well_formed);

    // Priority properties (§4.2): all four preserve priority; only
    // REQUEST and CANCEL strongly preserve it.
    let expected_strong = [true, true, false, false];
    let mut t = Table::new(
        "E14 priority preservation (§4.2)",
        &[
            "transaction",
            "preserves",
            "strongly preserves",
            "matches §4.2",
        ],
    );
    let mut priority =
        ClaimCheck::new("§4.2: all four preserve priority, only REQUEST and CANCEL strongly");
    for ((name, txn), e_strong) in txns.iter().zip(expected_strong.iter()) {
        let weak = preserves_priority(&app, txn, &states);
        let strong = strongly_preserves_priority(&app, txn, &states);
        let matches = weak && strong == *e_strong;
        priority.record((!matches).then(|| name.to_string()));
        t.push_row(vec![
            name.to_string(),
            weak.to_string(),
            strong.to_string(),
            matches.to_string(),
        ]);
    }
    println!("{t}");
    exp.claim(priority);
    println!(
        "note: MOVE-DOWN preserves priority only because move-down(P) inserts at the\n\
         *head* of the wait list — §5.5's reading, contradicting §2.3's 'end of\n\
         WAIT-LIST' program text; see the erratum in DESIGN.md"
    );

    exp.finish();
}
