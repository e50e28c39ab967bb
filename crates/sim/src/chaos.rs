//! Deterministic fault injection for chaos-hardening the sweep stack.
//!
//! Production sweeps fail in boring, predictable ways — a disk fills up, a
//! cache directory turns read-only, one job in ten thousand trips a panic —
//! and the hardening that survives them (per-job panic isolation in
//! [`crate::runner`], write retry/degrade in [`crate::store`]) only stays
//! honest if something exercises those paths continuously. This module is
//! that something: a [`Faults`] plan of **named fault points** that the
//! robustness-critical code consults. A plan is a value: the sweep runner
//! ([`crate::SweepRunner::with_faults`]) and the result store
//! ([`crate::ResultStore::with_faults`]) each carry one, `dkip-sim sweep`
//! builds it from `faults=SPEC`, and [`Faults::default`] — what every
//! runner and store start with — is disarmed.
//!
//! # Fault points
//!
//! | point            | consulted by                               | armed effect                         |
//! |------------------|--------------------------------------------|--------------------------------------|
//! | `store.read`     | [`crate::store::ResultStore::lookup`]      | lookup reports a miss (recompute)    |
//! | `store.write`    | [`crate::store::ResultStore::insert`]      | the write attempt fails with an I/O error (ENOSPC-like) |
//! | `metrics.write`  | [`crate::runner::Job::try_run`]            | the per-job metrics write fails      |
//! | `job.panic`      | [`crate::runner::Job::try_run`]            | the job panics before simulating     |
//!
//! # Spec grammar
//!
//! [`Faults::parse`] takes one or more comma-separated specs, each
//! `<point>:<rate>:<seed>`:
//!
//! * `<point>` — a fault-point name from the table above,
//! * `<rate>` — either a probability in `[0, 1]` (`0.25`, `1`) or
//!   `firstK` (`first2`): the first `K` consultations fire, the rest never
//!   do — the deterministic shape retry tests need,
//! * `<seed>` — the PRNG seed for probabilistic rates (ignored by
//!   `firstK`, but still required: the grammar is strict like every other
//!   knob in this repository).
//!
//! For example `faults=job.panic:0.5:7,store.write:1:11` panics every
//! other job (in consultation order) and fails every store write.
//!
//! # Determinism
//!
//! Each armed point carries an atomic consultation counter `n`, shared by
//! every clone of the plan; the decision for consultation `n` is a pure
//! function of `(seed, n)` (SplitMix64, like the trace generators and the
//! fuzzer). A single-threaded run therefore fires on exactly the same
//! consultations every time; a multi-threaded run fires on the same
//! *counter indices*, though which job draws which index depends on
//! scheduling. Either way the campaign is reproducible in aggregate: same
//! spec, same number of consultations, same number of faults.
//!
//! # Cost when disarmed
//!
//! Mirroring the telemetry zero-cost contract, consulting a disarmed plan
//! is one `Option` test — and every point sits on an I/O or per-job slow
//! path, never in the per-cycle simulation loop, so a disarmed run is
//! observationally and (to measurement noise) temporally identical to a
//! build without the hooks. Simulated statistics are *never* touched: an
//! armed fault can lose a cache entry, a metrics file or a whole job, but
//! any result that is produced at all is byte-identical to a fault-free
//! run.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The prefix every injected panic message and I/O error carries, so test
/// assertions (and humans reading a failure summary) can tell injected
/// faults from organic ones.
pub const CHAOS_TAG: &str = "dkip-chaos";

/// One named fault point (see the module docs for who consults what).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// A result-store lookup: firing turns it into a miss.
    StoreRead,
    /// A result-store write attempt: firing fails it with an I/O error.
    StoreWrite,
    /// A per-job interval-metrics file write: firing fails it.
    MetricsWrite,
    /// A sweep job: firing panics it before it simulates.
    JobPanic,
}

impl FaultPoint {
    /// Every fault point, in spec-table order.
    pub const ALL: [FaultPoint; 4] = [
        FaultPoint::StoreRead,
        FaultPoint::StoreWrite,
        FaultPoint::MetricsWrite,
        FaultPoint::JobPanic,
    ];

    /// The name used in fault specs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::StoreRead => "store.read",
            FaultPoint::StoreWrite => "store.write",
            FaultPoint::MetricsWrite => "metrics.write",
            FaultPoint::JobPanic => "job.panic",
        }
    }

    fn parse(name: &str) -> Option<FaultPoint> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&p| p == self)
            .expect("every point is in ALL")
    }
}

/// How often an armed point fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rate {
    /// Fire each consultation independently with this probability.
    Prob(f64),
    /// Fire the first `K` consultations, then never again.
    First(u64),
}

#[derive(Debug)]
struct ArmedPoint {
    rate: Rate,
    seed: u64,
    counter: AtomicU64,
}

impl ArmedPoint {
    /// Decides consultation `n = counter++` deterministically from
    /// `(seed, n)`.
    fn fire(&self) -> bool {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        match self.rate {
            Rate::First(k) => n < k,
            Rate::Prob(p) => {
                // 53 uniform bits against a 53-bit threshold: p = 1.0 always
                // fires, p = 0.0 never does.
                let threshold = (p * (1u64 << 53) as f64) as u64;
                (splitmix64(self.seed ^ splitmix64(n)) >> 11) < threshold
            }
        }
    }
}

/// The SplitMix64 mixing function (same generator family as the vendored
/// `rand` shim and the trace generators).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fault plan: which points fire, how often, from which seed.
///
/// The default plan is disarmed and never fires. Cloning is cheap and
/// shares the per-point consultation counters, so a runner and a store
/// handed clones of one plan draw from one decision sequence, exactly as
/// if they consulted a single plan.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    points: Option<Arc<[Option<ArmedPoint>; FaultPoint::ALL.len()]>>,
}

impl Faults {
    /// Parses a comma-separated `<point>:<rate>:<seed>[,…]` spec (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an empty spec, a stray comma, an
    /// unknown or repeated point, a rate outside `[0, 1]` or not `firstK`,
    /// or a seed that is not an unsigned integer.
    pub fn parse(spec: &str) -> Result<Faults, String> {
        let mut points: [Option<ArmedPoint>; FaultPoint::ALL.len()] = Default::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err("empty fault spec (stray comma?)".to_owned());
            }
            let fields: Vec<&str> = part.split(':').collect();
            let [name, rate, seed] = fields.as_slice() else {
                return Err(format!(
                    "malformed fault spec {part:?}: expected <point>:<rate>:<seed>"
                ));
            };
            let point = FaultPoint::parse(name.trim()).ok_or_else(|| {
                let known: Vec<&str> = FaultPoint::ALL.iter().map(|p| p.name()).collect();
                format!(
                    "unknown fault point {name:?}: expected one of {}",
                    known.join(", ")
                )
            })?;
            let rate = parse_rate(rate.trim())?;
            let seed = seed.trim().parse::<u64>().map_err(|_| {
                format!("invalid fault seed {seed:?}: expected an unsigned integer")
            })?;
            let slot = &mut points[point.index()];
            if slot.is_some() {
                return Err(format!("duplicate fault point {:?}", point.name()));
            }
            *slot = Some(ArmedPoint {
                rate,
                seed,
                counter: AtomicU64::new(0),
            });
        }
        Ok(Faults {
            points: Some(Arc::new(points)),
        })
    }

    /// Consults a fault point: `true` means "inject the fault now". A
    /// disarmed plan answers after one `Option` test.
    #[must_use]
    pub fn fire(&self, point: FaultPoint) -> bool {
        self.points
            .as_ref()
            .is_some_and(|points| points[point.index()].as_ref().is_some_and(ArmedPoint::fire))
    }

    /// Consults a fault point and renders a firing as an injected I/O error
    /// (an `ENOSPC`-like "device out of space"), for the store/metrics write
    /// paths. `None` means "proceed normally".
    #[must_use]
    pub fn fail_io(&self, point: FaultPoint) -> Option<io::Error> {
        self.fire(point).then(|| {
            io::Error::other(format!(
                "{CHAOS_TAG}: injected {} fault (device out of space)",
                point.name()
            ))
        })
    }
}

fn parse_rate(text: &str) -> Result<Rate, String> {
    if let Some(k) = text.strip_prefix("first") {
        let k = k
            .parse::<u64>()
            .map_err(|_| format!("invalid fault rate {text:?}: expected firstK with integer K"))?;
        return Ok(Rate::First(k));
    }
    let p = text
        .parse::<f64>()
        .map_err(|_| format!("invalid fault rate {text:?}: expected a probability or firstK"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("fault rate {p} out of range: expected [0, 1]"));
    }
    Ok(Rate::Prob(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> Faults {
        Faults::parse(spec).expect("valid spec")
    }

    fn draws(faults: &Faults, point: FaultPoint, n: usize) -> Vec<bool> {
        (0..n).map(|_| faults.fire(point)).collect()
    }

    #[test]
    fn disarmed_points_never_fire() {
        let disarmed = Faults::default();
        assert!(disarmed.points.is_none());
        for point in FaultPoint::ALL {
            assert!(!disarmed.fire(point));
            assert!(disarmed.fail_io(point).is_none());
        }
        // An armed plan leaves the points it does not name alone.
        let armed = plan("job.panic:1:0");
        assert!(!armed.fire(FaultPoint::StoreWrite));
        let injected = armed
            .fail_io(FaultPoint::JobPanic)
            .expect("armed point fires");
        assert!(injected.to_string().contains(CHAOS_TAG));
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never_does() {
        let faults = plan("job.panic:1:7,store.read:0:7");
        for _ in 0..64 {
            assert!(faults.fire(FaultPoint::JobPanic));
            assert!(!faults.fire(FaultPoint::StoreRead));
        }
    }

    #[test]
    fn first_k_rates_fire_exactly_k_times() {
        let faults = plan("store.write:first2:0");
        assert_eq!(
            draws(&faults, FaultPoint::StoreWrite, 5),
            vec![true, true, false, false, false]
        );
    }

    #[test]
    fn clones_share_one_decision_sequence() {
        let faults = plan("job.panic:first3:0");
        let clone = faults.clone();
        assert!(faults.fire(FaultPoint::JobPanic));
        assert!(clone.fire(FaultPoint::JobPanic));
        assert!(faults.fire(FaultPoint::JobPanic));
        assert!(!clone.fire(FaultPoint::JobPanic), "the clone drew the 4th");
        // A fresh parse of the same spec starts its own sequence.
        assert!(plan("job.panic:first3:0").fire(FaultPoint::JobPanic));
    }

    #[test]
    fn probabilistic_rates_are_seed_deterministic_and_roughly_calibrated() {
        let a = draws(&plan("job.panic:0.5:42"), FaultPoint::JobPanic, 256);
        let b = draws(&plan("job.panic:0.5:42"), FaultPoint::JobPanic, 256);
        assert_eq!(a, b, "same seed, same consultation order, same decisions");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((64..192).contains(&fired), "p=0.5 fired {fired}/256");
        let c = draws(&plan("job.panic:0.5:43"), FaultPoint::JobPanic, 256);
        assert_ne!(a, c, "a different seed draws a different pattern");
    }

    #[test]
    fn specs_parse_strictly() {
        assert!(Faults::parse("job.panic:1:0").is_ok());
        assert!(Faults::parse("job.panic:first3:0,store.read:0.25:9").is_ok());
        assert!(Faults::parse("").is_err());
        assert!(Faults::parse("job.panic:1").is_err(), "seed is mandatory");
        assert!(Faults::parse("job.panic:1:0:9").is_err());
        assert!(Faults::parse("job.reboot:1:0").is_err(), "unknown point");
        assert!(Faults::parse("job.panic:1.5:0").is_err(), "rate > 1");
        assert!(Faults::parse("job.panic:-0.1:0").is_err());
        assert!(Faults::parse("job.panic:firstx:0").is_err());
        assert!(Faults::parse("job.panic:1:zebra").is_err());
        assert!(
            Faults::parse("job.panic:1:0,job.panic:1:1").is_err(),
            "duplicate point"
        );
        assert!(Faults::parse("job.panic:1:0,").is_err(), "stray comma");
    }

    #[test]
    fn every_point_name_round_trips() {
        for point in FaultPoint::ALL {
            assert_eq!(FaultPoint::parse(point.name()), Some(point));
            assert!(plan(&format!("{}:1:0", point.name())).fire(point));
        }
        assert_eq!(FaultPoint::parse("store.reboot"), None);
    }
}
