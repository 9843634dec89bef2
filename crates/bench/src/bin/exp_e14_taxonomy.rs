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

use shard_analysis::Table;
use shard_apps::airline::space;
use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard_apps::Person;
use shard_core::costs::{classify_transaction, updates_preserve_well_formedness};
use shard_core::fairness::{preserves_priority, strongly_preserves_priority};

fn main() {
    let exp = shard_bench::Experiment::start("e14");
    let app = FlyByNight::new(2);
    let states = space::all_states(4);
    let mut ok = true;
    println!("E14: §4.1/§4.2 taxonomy, exhaustive over capacity-2 / 4-person instance\n");

    let txns: Vec<(&str, AirlineTxn)> = vec![
        ("REQUEST(P)", AirlineTxn::Request(Person(1))),
        ("CANCEL(P)", AirlineTxn::Cancel(Person(1))),
        ("MOVE-UP", AirlineTxn::MoveUp),
        ("MOVE-DOWN", AirlineTxn::MoveDown),
    ];

    // Expected classification straight from §4.1's prose.
    // (safe, preserves, compensates) per (txn, constraint).
    let expected_over = [
        (true, true, false),
        (true, true, false),
        (false, true, false),
        (true, true, true),
    ];
    // §4.1: "the MOVE-UP transaction is safe for the underbooking
    // constraint, but the other three transactions are all unsafe".
    let expected_under = [
        (false, false, false),
        (false, false, false),
        (true, true, true),
        (false, true, false),
    ];

    for (constraint, cname, expected) in [
        (OVERBOOKING, "overbooking", &expected_over),
        (UNDERBOOKING, "underbooking", &expected_under),
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
        for ((name, txn), (e_safe, e_pres, e_comp)) in txns.iter().zip(expected.iter()) {
            let c = classify_transaction(&app, txn, constraint, &states);
            let matches = c.safe == *e_safe && c.preserves == *e_pres && c.compensates == *e_comp;
            ok &= matches;
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

    // Well-formedness preservation (§2.3's requirement on all updates).
    let mut t = Table::new(
        "E14 updates preserve well-formedness",
        &["transaction", "holds"],
    );
    for (name, txn) in &txns {
        let holds = updates_preserve_well_formedness(&app, txn, &states);
        ok &= holds;
        t.push_row(vec![name.to_string(), holds.to_string()]);
    }
    println!("{t}");

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
    for ((name, txn), e_strong) in txns.iter().zip(expected_strong.iter()) {
        let weak = preserves_priority(&app, txn, &states);
        let strong = strongly_preserves_priority(&app, txn, &states);
        let matches = weak && strong == *e_strong;
        ok &= matches;
        t.push_row(vec![
            name.to_string(),
            weak.to_string(),
            strong.to_string(),
            matches.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "note: MOVE-DOWN preserves priority only because move-down(P) inserts at the\n\
         *head* of the wait list — §5.5's reading, contradicting §2.3's 'end of\n\
         WAIT-LIST' program text; see the erratum in DESIGN.md"
    );

    exp.finish(ok);
}
