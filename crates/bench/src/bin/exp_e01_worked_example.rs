//! E01 — the worked example of §3.1 (and the §3.2 transitivity remark).
//!
//! Reconstructs the paper's 206-transaction execution of the airline
//! system verbatim: 102 REQUEST/MOVE-UP pairs, a MOVE-DOWN, and
//! CANCEL(P1), with the exact prefix subsequences the paper prescribes.
//! Checks every quantitative statement the paper makes about it:
//!
//! * state s₂₀₄ has 102 people assigned in numerical order and an empty
//!   wait list (overbooking cost $1800 — "nonzero");
//! * after the MOVE-DOWN, P101 waits and the assigned list is
//!   P1…P100,P102;
//! * the final cancellation leaves exactly 100 assigned:
//!   P2…P100,P102 — and P102 kept a seat although P101 asked first
//!   (the unfairness remark);
//! * the execution as given is **not** transitive, but reassigning the
//!   trivial-decision REQUESTs the 198-transaction prefix (as §3.2
//!   suggests) makes it transitive without changing any update.

use shard_analysis::{trace, ClaimCheck, Table};
use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard_apps::Person;
use shard_core::Application as _;
use shard_core::{conditions, Execution, ExecutionBuilder, TxnIndex};

/// Builds the §3.1 execution. `transitive_requests` applies the §3.2
/// modification (requests P101/P102 see only the first 198 txns).
fn build(app: &FlyByNight, transitive_requests: bool) -> Execution<FlyByNight> {
    let mut b = ExecutionBuilder::new(app);
    // Blocks 1..=100: complete prefixes everywhere.
    for i in 1..=100u32 {
        b.push_complete(AirlineTxn::Request(Person(i))).unwrap();
        b.push_complete(AirlineTxn::MoveUp).unwrap();
    }
    // first 198 txns = requests P1..P99 and move-ups 1..99.
    let first198: Vec<TxnIndex> = (0..198).collect();

    // REQUEST(P101): complete (or, modified, the first 198).
    let r101 = if transitive_requests {
        b.push(AirlineTxn::Request(Person(101)), first198.clone())
            .unwrap()
    } else {
        b.push_complete(AirlineTxn::Request(Person(101))).unwrap()
    };
    // MOVE-UP #101 sees the first 99 requests and move-ups + REQUEST(P101).
    let mut pre = first198.clone();
    pre.push(r101);
    b.push(AirlineTxn::MoveUp, pre).unwrap();

    let r102 = if transitive_requests {
        b.push(AirlineTxn::Request(Person(102)), first198.clone())
            .unwrap()
    } else {
        b.push_complete(AirlineTxn::Request(Person(102))).unwrap()
    };
    let mut pre = first198.clone();
    pre.push(r102);
    b.push(AirlineTxn::MoveUp, pre).unwrap();

    // MOVE-DOWN sees the results of the first 202 transactions only.
    b.push(AirlineTxn::MoveDown, (0..202).collect()).unwrap();
    // CANCEL(P1): complete prefix.
    b.push_complete(AirlineTxn::Cancel(Person(1))).unwrap();
    b.finish()
}

fn main() {
    let mut exp = shard_bench::Experiment::start("e01");
    let app = FlyByNight::default();
    let e = build(&app, false);
    e.verify(&app)
        .expect("the worked example satisfies §3.1 conditions 1-4");
    println!("E01: §3.1 worked example — {} transactions\n", e.len());
    let assigned = |s: &shard_apps::airline::AirlineState| -> Vec<u32> {
        s.assigned().iter().map(|p| p.0).collect()
    };

    // s204: 102 assigned in numerical order, nobody waiting.
    let s204 = e.actual_state_after(&app, 203);
    let mut c = ClaimCheck::new("§3.1 s204: P1..P102 assigned in order, none waiting, $1800 over");
    c.record((assigned(&s204) != (1..=102).collect::<Vec<u32>>()).then(|| "assigned".into()));
    c.record((s204.wl() != 0).then(|| format!("WL = {}", s204.wl())));
    c.record((app.cost(&s204, OVERBOOKING) != 1800).then(|| "overbooking cost".into()));
    exp.claim(c);
    println!(
        "s204: AL={} WL={} overbooking cost ${} (paper: 102, 0, nonzero)",
        s204.al(),
        s204.wl(),
        app.cost(&s204, OVERBOOKING)
    );

    // After the MOVE-DOWN: P101 waits; assigned P1..P100,P102.
    let s205 = e.actual_state_after(&app, 204);
    let mut c = ClaimCheck::new("§3.1 s205: P101 waits, P1..P100,P102 assigned");
    c.record((!s205.is_waiting(Person(101))).then(|| "P101 not waiting".into()));
    let want: Vec<u32> = (1..=100).chain([102]).collect();
    c.record((assigned(&s205) != want).then(|| "assigned".into()));
    exp.claim(c);
    println!(
        "s205: P101 waitlisted, assigned = P1..P100,P102: {}",
        s205.is_waiting(Person(101))
    );

    // Final state: exactly 100 assigned, P2..P100,P102.
    let fin = e.final_state(&app);
    let mut c = ClaimCheck::new("§3.1 final: P2..P100,P102 assigned at zero cost");
    let want: Vec<u32> = (2..=100).chain([102]).collect();
    c.record((assigned(&fin) != want).then(|| "assigned".into()));
    c.record((app.total_cost(&fin) != 0).then(|| "nonzero cost".into()));
    exp.claim(c);
    println!(
        "final: AL={} = P2..P100,P102; costs ({}, {})",
        fin.al(),
        app.cost(&fin, OVERBOOKING),
        app.cost(&fin, UNDERBOOKING)
    );

    // The unfairness remark: P102 requested after P101, yet P102 flies.
    let mut c = ClaimCheck::new("§3.1 unfairness: P102 seated, P101 bumped");
    let unfair = fin.is_assigned(Person(102)) && !fin.is_assigned(Person(101));
    c.record((!unfair).then(|| "the later requester does not fly instead".into()));
    exp.claim(c);
    println!("unfairness: P102 seated, P101 bumped (requested earlier)");

    // Cost trace table.
    let mut t = Table::new(
        "E01 cost trace (selected states)",
        &["state", "AL", "WL", "over $", "under $"],
    );
    let over = trace::cost_trace(&app, &e, OVERBOOKING);
    let under = trace::cost_trace(&app, &e, UNDERBOOKING);
    let states = e.actual_states(&app);
    for idx in [0usize, 100, 200, 202, 204, 205, 206] {
        t.push_row(vec![
            format!("s{idx}"),
            states[idx].al().to_string(),
            states[idx].wl().to_string(),
            over[idx].to_string(),
            under[idx].to_string(),
        ]);
    }
    println!("\n{t}");

    // Transitivity: fails as given, holds after the §3.2 modification.
    let raw_transitive = conditions::is_transitive(&e);
    let modified = build(&app, true);
    modified.verify(&app).expect("modified execution is valid");
    let mod_transitive = conditions::is_transitive(&modified);
    // "without changing the updates generated":
    let same_updates = e
        .records()
        .iter()
        .zip(modified.records())
        .all(|(a, b)| a.update == b.update);
    let mut c = ClaimCheck::new("§3.2: not transitive as given, transitive once modified");
    c.record(raw_transitive.then(|| "raw execution is transitive".into()));
    c.record((!mod_transitive).then(|| "modified execution is not transitive".into()));
    c.record((!same_updates).then(|| "the modification changed an update".into()));
    exp.claim(c);
    println!("transitivity: raw={raw_transitive} (paper: fails), modified={mod_transitive} (paper: holds), updates unchanged={same_updates}");

    // The example's k-completeness: the two blind MOVE-UPs and the
    // MOVE-DOWN are the only incomplete transactions.
    let mut kt = Table::new("E01 measured missed counts", &["txn", "kind", "missed"]);
    for i in [200usize, 201, 202, 203, 204, 205] {
        kt.push_row(vec![
            i.to_string(),
            format!("{:?}", e.record(i).decision),
            conditions::missed_count(&e, i).to_string(),
        ]);
    }
    println!("{kt}");

    exp.finish();
}
