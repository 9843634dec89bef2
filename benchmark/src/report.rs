//! What one run of one workload hands back, and the line the driver
//! reads.

use crate::metrics::{self, Pass};
use crate::span::Tracer;
use crate::speed::{self, Reference, Sample, Yardstick};
use crate::stats::median;
use std::collections::BTreeMap;

/// Arguments of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Seeds every generated input; the program under test sees only
    /// the inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Multiplier on per-round counts (`--smoke` and the tests shrink
    /// rounds; the committed figures use 1).
    pub scale: f64,
    /// `false`: the end-to-end pass, benchmark tracing off. `true`: the
    /// traced pass that yields the per-layer numbers.
    pub trace: bool,
}

impl RunArgs {
    /// `count × scale`, at least `floor`.
    pub fn scaled(&self, count: usize, floor: usize) -> usize {
        ((count as f64 * self.scale) as usize).max(floor)
    }
}

/// Accumulates one run's metrics, operation counts and oracle failures.
pub struct Run {
    pub args: RunArgs,
    pub tracer: Tracer,
    metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: one per transaction or row offered to the
    /// system in a timed round.
    pub attempted: u64,
    /// Operations not executed or rejected.
    pub failed: u64,
    /// Broken oracles. Any entry fails every operation of the run: a
    /// fast wrong answer is a failed answer.
    pub broken: Vec<String>,
    /// Parameters and counts worth printing beside the metrics.
    pub notes: Vec<(String, String)>,
    reference: Reference,
    /// Each yardstick as sampled before each round of the end-to-end pass
    /// and after the last. The hand-off is sampled only by workloads that
    /// ask for it.
    samples: [Vec<Sample>; 2],
}

impl Run {
    pub fn new(args: RunArgs) -> Self {
        Run {
            args,
            tracer: Tracer::new(args.trace),
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            broken: Vec::new(),
            notes: Vec::new(),
            reference: Reference::new(),
            samples: [Vec::new(), Vec::new()],
        }
    }

    /// Records metric `name`. Names are checked against the registry so
    /// a typo cannot silently report nothing.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::lookup(name).is_some(),
            "metric {name} is not in the registry"
        );
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Runs `body(run, round, traced)` until `share` of the timed budget is
    /// spent, at least twice, and returns the number of rounds. The
    /// end-to-end pass samples the host-speed reference before every round
    /// and after the last, for [`Run::at_reference_speed`]: the CPU slice
    /// always, the thread hand-off too if `hand_off` is set. The traced
    /// pass spends half its budget here (the rest goes to the isolation
    /// re-drives) and records spans in every second round only, so each
    /// traced round has an untraced twin to be priced against.
    pub fn rounds(
        &mut self,
        share: f64,
        hand_off: bool,
        mut body: impl FnMut(&mut Run, usize, bool) -> std::io::Result<()>,
    ) -> std::io::Result<usize> {
        let budget = self.args.seconds * if self.args.trace { 0.5 } else { share };
        let started = std::time::Instant::now();
        let mut round = 0usize;
        while round < 2 || started.elapsed().as_secs_f64() < budget {
            let traced = self.args.trace && round % 2 == 1;
            self.tracer.set_enabled(traced);
            self.tracer.next_run();
            self.sample_host(hand_off);
            body(self, round, traced)?;
            round += 1;
        }
        self.sample_host(hand_off);
        for (by, name) in [(Yardstick::Cpu, "host"), (Yardstick::HandOff, "hand_off")] {
            if !self.samples[by as usize].is_empty() {
                self.note(
                    &format!("{name}_slowness"),
                    format!("{:.3}", self.slowness(by)),
                );
                self.note(
                    &format!("{name}_cpu"),
                    format!("{:.3}", self.cpu_at_reference_speed(by, 1.0).recip()),
                );
            }
        }
        self.tracer.set_enabled(self.args.trace);
        self.note("rounds", round);
        Ok(round)
    }

    fn sample_host(&mut self, hand_off: bool) {
        if self.args.trace {
            return;
        }
        self.samples[Yardstick::Cpu as usize].push(self.reference.slice());
        if hand_off {
            self.samples[Yardstick::HandOff as usize].push(speed::hand_off_slice());
        }
    }

    /// [`speed::at_reference_speed`] of one clock reading per round of
    /// [`Run::rounds`], by the yardstick sampled around those rounds.
    pub fn at_reference_speed(&self, by: Yardstick, per_round: &[f64]) -> f64 {
        let slowness: Vec<f64> = self.samples[by as usize]
            .iter()
            .map(|s| s.slowness)
            .collect();
        speed::at_reference_speed(per_round, &slowness)
    }

    /// CPU time summed over all rounds (`/proc` counts it too coarsely to
    /// restate round by round), divided by how much more CPU time than on
    /// the calm reference host the run's median yardstick sample burned.
    pub fn cpu_at_reference_speed(&self, by: Yardstick, cpu: f64) -> f64 {
        let burned: Vec<f64> = self.samples[by as usize].iter().map(|s| s.cpu).collect();
        cpu / median(&burned)
    }

    /// The run's median slowness by one yardstick, for the notes.
    pub fn slowness(&self, by: Yardstick) -> f64 {
        let slowness: Vec<f64> = self.samples[by as usize]
            .iter()
            .map(|s| s.slowness)
            .collect();
        median(&slowness)
    }

    /// Records an oracle's verdict.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.broken.push(what());
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.broken.is_empty() && self.failed == 0
    }

    /// Failed operations as the driver counts them.
    pub fn failed_ops(&self) -> u64 {
        if self.broken.is_empty() {
            self.failed
        } else {
            self.attempted.max(1)
        }
    }

    /// The result object: every metric of the pass, by name. A per-layer
    /// metric the workload does not exercise reads 0; an end-to-end
    /// metric must have been measured.
    pub fn result_json(&self) -> String {
        let pass = if self.args.trace {
            Pass::PerLayer
        } else {
            Pass::EndToEnd
        };
        let mut body = shard_obs::ObjWriter::new();
        for def in metrics::of_pass(pass) {
            let value = match (self.metrics.get(def.name), pass) {
                (Some(v), _) => *v,
                (None, Pass::PerLayer) => 0.0,
                (None, Pass::EndToEnd) => panic!("end-to-end metric {} not measured", def.name),
            };
            let one = shard_obs::ObjWriter::new()
                .raw("value", &number(value))
                .str("unit", def.unit)
                .finish();
            body = body.raw(def.name, &one);
        }
        shard_obs::ObjWriter::new()
            .bool("correct", self.correct())
            .u64("attempted", self.attempted.max(1))
            .u64("failed", self.failed_ops())
            .raw("metrics", &body.finish())
            .finish()
    }
}

/// A number with all its digits (shortest form that round-trips); JSON
/// has no NaN or infinity, so those read as 0 and fail the run upstream.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
