//! The host-speed reference: fixed work owned by the benchmark, run
//! between the rounds of every timed phase, so that each round's clock
//! reading can be restated at the reference host's speed.
//!
//! The benchmark's hosts are small guests of shared machines. The same
//! binary on the same inputs ran 1.7 × slower for minutes at a time, and
//! ten runs of one workload span several such states — wider apart than
//! any regression bound the contract allows. What a later change is
//! judged by must not move with the neighbours, so every gated time is
//! divided by how slow a yardstick of its own kind ran beside it
//! (README.md, "Reference speed"). Two kinds, because the host has two
//! kinds of slow. Neighbours in the caches slow computing — a pure ALU
//! loop holds its speed meanwhile — so the CPU yardstick is
//! pointer-chasing, allocating, branchy code over a few megabytes, like
//! the program's own hot paths. A busy hypervisor wakes a halted vCPU
//! late, which computing never notices and a live transaction's life is
//! mostly made of, so the hand-off yardstick sleeps and wakes threads
//! the way the runtime's node threads do. Neither shares code with the
//! program, so no change to the program can move them.

use crate::host::thread_cpu_seconds;
use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// Keys of the reference map; with their value vectors about 8 MiB,
/// four times this host's L2.
const KEYS: u64 = 1 << 16;
/// Operations of one slice: an untimed stretch that brings a napping
/// core back up to speed, then the timed part.
const WARM_OPS: usize = 50_000;
const TIMED_OPS: usize = 250_000;
/// Seconds the timed part takes on the reference host (README.md) while
/// its neighbours are quiet: the median over a calm hour's runs.
const NOMINAL_S: f64 = 0.051;

/// What a clock reading is restated by: how slow the host ran the fixed
/// work that is of the reading's own kind.
#[derive(Clone, Copy)]
pub enum Yardstick {
    /// [`Reference::slice`]: single-threaded computing.
    Cpu,
    /// [`hand_off_slice`]: a sleeping thread woken by a timer or by
    /// another thread, which is most of a live transaction's life.
    HandOff,
}

impl Yardstick {
    /// CPU seconds one sample of the yardstick burns on the reference
    /// host while its neighbours are quiet.
    fn nominal_cpu_s(self) -> f64 {
        match self {
            Yardstick::Cpu => NOMINAL_S,
            Yardstick::HandOff => HAND_OFF_NOMINAL_CPU_S,
        }
    }
}

/// One sample of a yardstick, as multiples of its calm readings on the
/// reference host (1 = as fast as there).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// How slow it ran by the wall clock.
    pub slowness: f64,
    /// How much CPU time it burned: what a neighbour in the caches
    /// inflates and a vCPU left waiting does not.
    pub cpu: f64,
}

/// The reference work and its state.
pub struct Reference {
    map: BTreeMap<u64, Vec<u64>>,
    x: u64,
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Reference {
            map: BTreeMap::new(),
            x: 0x9E37_79B9_7F4A_7C15,
        };
        r.churn(4 * KEYS as usize);
        r
    }

    /// `ops` seeded insert-or-append operations, every third followed by
    /// a removal: tree descents, node splits and merges, small vectors
    /// allocated, grown and freed.
    fn churn(&mut self, ops: usize) {
        let mut x = self.x;
        for i in 0..ops {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = self.map.entry(x % KEYS).or_default();
            if v.len() >= 6 {
                *v = Vec::new();
            }
            v.push(i as u64);
            if i % 3 == 0 {
                self.map.remove(&((x >> 20) % KEYS));
            }
        }
        self.x = x;
    }

    /// One slice: how slow the host computes right now.
    pub fn slice(&mut self) -> Sample {
        self.churn(WARM_OPS);
        let (t0, cpu0) = (Instant::now(), thread_cpu_seconds());
        self.churn(TIMED_OPS);
        Sample {
            slowness: t0.elapsed().as_secs_f64() / NOMINAL_S,
            cpu: (thread_cpu_seconds() - cpu0) / Yardstick::Cpu.nominal_cpu_s(),
        }
    }
}

/// Rounds and pace of one hand-off slice: the gap is a node thread's at
/// `live-eager`'s 40 000 txn/s over two nodes.
const HAND_OFFS: usize = 1_000;
const HAND_OFF_GAP_US: u64 = 50;
/// Microseconds a hand-off slice reads on the reference host while its
/// neighbours are quiet.
const HAND_OFF_NOMINAL_US: f64 = 52.0;
/// CPU seconds both threads of a hand-off slice burn there.
const HAND_OFF_NOMINAL_CPU_S: f64 = 0.017;

/// Microseconds of `rounds` paced hand-offs, and the CPU seconds both
/// threads spent on them. Every `gap_us` the caller — asleep until then
/// on a channel's timed receive, as the runtime's node threads sleep —
/// sends a token to a helper thread and blocks until it comes back. Each
/// sample runs from the due time to the return: one timer wake-up and two
/// thread wake-ups, the blocking steps of a live transaction's life.
fn hand_offs(rounds: usize, gap_us: u64) -> (Vec<f64>, f64) {
    let (to_helper, helper_rx) = channel::<()>();
    let (to_caller, caller_rx) = channel::<()>();
    let mut late_us = Vec::with_capacity(rounds);
    let cpu0 = thread_cpu_seconds();
    let helper_cpu_s = std::thread::scope(|s| {
        let helper = s.spawn(move || {
            while helper_rx.recv().is_ok() && to_caller.send(()).is_ok() {}
            thread_cpu_seconds()
        });
        let start = Instant::now();
        for i in 1..=rounds as u64 {
            let due = Duration::from_micros(gap_us * i);
            while let Some(wait) = due.checked_sub(start.elapsed()).filter(|w| !w.is_zero()) {
                let _ = caller_rx.recv_timeout(wait);
            }
            to_helper.send(()).expect("the helper outlives the loop");
            caller_rx.recv().expect("the helper answers every token");
            late_us.push((start.elapsed() - due).as_nanos() as f64 / 1e3);
        }
        drop(to_helper);
        helper.join().expect("the helper only forwards tokens")
    });
    (late_us, thread_cpu_seconds() - cpu0 + helper_cpu_s)
}

/// One hand-off slice: how slow the host hands work from thread to
/// thread right now. The hand-offs cluster in a few modes (which vCPU
/// was napping, how deeply) and their median jumps from mode to mode; the
/// mean of their middle fifth moves smoothly, and like the p50 it stands
/// beside it does not hear a burst that delays four hand-offs in ten.
pub fn hand_off_slice() -> Sample {
    let (late_us, cpu_s) = hand_offs(HAND_OFFS, HAND_OFF_GAP_US);
    Sample {
        slowness: crate::stats::midmean(&late_us) / HAND_OFF_NOMINAL_US,
        cpu: cpu_s / Yardstick::HandOff.nominal_cpu_s(),
    }
}

/// The median of one clock reading per round, each divided by how slow
/// the host ran the yardstick on either side of its round (`slowness`
/// holds a sample before every round and one after the last): the
/// reading the calm reference host would give.
pub fn at_reference_speed(per_round: &[f64], slowness: &[f64]) -> f64 {
    assert_eq!(
        per_round.len() + 1,
        slowness.len(),
        "a yardstick sample on either side of every round"
    );
    let restated: Vec<f64> = per_round
        .iter()
        .zip(slowness.windows(2))
        .map(|(v, s)| v / ((s[0] + s[1]) / 2.0))
        .collect();
    crate::stats::median(&restated)
}

/// What [`settle`] saw.
pub struct Settled {
    pub waited_s: f64,
    pub handoff_us: f64,
}

/// Holds the run back while the host is in a storm. For some twenty
/// seconds after a two-core burst such as the build that precedes the
/// first run, this host stalls both vCPUs for milliseconds at a time
/// (hand-offs of 50 µs read 700 … 46 000 µs) and no figure taken then
/// means anything. Samples the hand-off every 100 ms, idle in between,
/// until five in a row agree within a factor of three and stay under a
/// millisecond — about half a second on a calm host — or `max_wait`
/// has passed.
pub fn settle(max_wait: Duration) -> Settled {
    const WINDOW: usize = 5;
    let start = Instant::now();
    let mut recent: Vec<f64> = Vec::new();
    loop {
        recent.push(crate::stats::median(&hand_offs(400, HAND_OFF_GAP_US).0));
        let tail = &recent[recent.len().saturating_sub(WINDOW)..];
        let (lo, hi) = tail
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let calm = tail.len() == WINDOW && hi <= 3.0 * lo && hi < 1_000.0;
        if calm || start.elapsed() >= max_wait {
            return Settled {
                waited_s: start.elapsed().as_secs_f64(),
                handoff_us: crate::stats::median(tail),
            };
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_does_the_same_work_whoever_runs_it() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        let (sa, sb) = (a.slice(), b.slice());
        assert!(sa.slowness > 0.0 && sb.slowness > 0.0);
        // The scheduler books CPU time at its ticks, a few ms late.
        assert!(sa.cpu > 0.0 && sa.cpu <= sa.slowness * 1.2, "{sa:?}");
        assert_eq!(a.x, b.x);
        assert_eq!(a.map, b.map, "two references diverged");
        assert!(a.map.len() as u64 > KEYS / 2, "the map stays populated");
    }

    #[test]
    fn a_reading_is_divided_by_the_slowness_around_its_round() {
        // Rounds read 10, 30 and 80 while the host ran the yardstick at
        // 1, 1, 3 and 5 times its calm time: 10 / 1, 30 / 2, 80 / 4.
        let restated = at_reference_speed(&[10.0, 30.0, 80.0], &[1.0, 1.0, 3.0, 5.0]);
        assert_eq!(restated, 15.0);
    }

    #[test]
    fn a_hand_off_is_timed_from_its_due_time() {
        let (late_us, cpu_s) = hand_offs(50, 200);
        assert_eq!(late_us.len(), 50);
        assert!(cpu_s > 0.0 && cpu_s < 1.0, "{cpu_s} CPU seconds");
        assert!(
            late_us.iter().all(|&us| us > 0.0 && us < 1e6),
            "{late_us:?}"
        );
        let settled = settle(Duration::from_millis(50));
        assert!(settled.handoff_us > 0.0);
    }
}
