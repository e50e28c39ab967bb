//! Deterministic fault injection for chaos-hardening the sweep stack.
//!
//! Production sweeps fail in boring, predictable ways — a disk fills up, a
//! cache directory turns read-only, one job in ten thousand trips a panic —
//! and the hardening that survives them (per-job panic isolation in
//! [`crate::runner`], write retry/degrade in [`crate::store`]) only stays
//! honest if something exercises those paths continuously. This module is that something: a
//! registry of **named fault points** that the robustness-critical code
//! consults, armed from the `DKIP_FAULTS` environment variable (or
//! in-process via [`arm`]) and *disarmed by default*.
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
//! # Arming grammar
//!
//! `DKIP_FAULTS` holds one or more comma-separated specs, each
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
//! For example `DKIP_FAULTS=job.panic:0.5:7,store.write:1:11` panics every
//! other job (in consultation order) and fails every store write.
//!
//! # Determinism
//!
//! Each armed point carries an atomic consultation counter `n`; the
//! decision for consultation `n` is a pure function of `(seed, n)`
//! (SplitMix64, like the trace generators and the fuzzer). A
//! single-threaded run therefore fires on exactly the same consultations
//! every time; a multi-threaded run fires on the same *counter indices*,
//! though which job draws which index depends on scheduling. Either way
//! the campaign is reproducible in aggregate: same spec, same number of
//! consultations, same number of faults.
//!
//! # Cost when disarmed
//!
//! Mirroring the telemetry zero-cost contract, a disarmed fault point is
//! one relaxed atomic load and a predictable branch — and every point
//! sits on an I/O or per-job slow path, never in the per-cycle simulation
//! loop, so `DKIP_FAULTS`-unset runs are observationally and (to
//! measurement noise) temporally identical to builds without the hooks.
//! Simulated statistics are *never* touched: an armed fault can lose a
//! cache entry, a metrics file or a whole job, but any result that is
//! produced at all is byte-identical to a fault-free run.

use std::any::Any;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

/// Environment variable arming fault injection (see the module docs for
/// the `<point>:<rate>:<seed>[,…]` grammar). Unset or empty means no
/// faults. A malformed value panics on first consultation — an explicitly
/// requested chaos campaign must not silently run fault-free.
pub const FAULTS_ENV: &str = "DKIP_FAULTS";

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
    /// Every fault point, in registry order.
    pub const ALL: [FaultPoint; 4] = [
        FaultPoint::StoreRead,
        FaultPoint::StoreWrite,
        FaultPoint::MetricsWrite,
        FaultPoint::JobPanic,
    ];

    /// The registry name used in `DKIP_FAULTS` specs.
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

#[derive(Debug)]
struct ChaosState {
    points: [Option<ArmedPoint>; FaultPoint::ALL.len()],
}

static INIT: Once = Once::new();
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Arc<ChaosState>>> = Mutex::new(None);

/// The SplitMix64 mixing function (same generator family as the vendored
/// `rand` shim and the trace generators).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Arms the registry from `DKIP_FAULTS` exactly once per process; explicit
/// [`arm`] / [`disarm`] calls also claim the `Once`, so an in-process
/// decision always wins over a late environment read.
fn ensure_init() {
    INIT.call_once(|| {
        if let Ok(value) = std::env::var(FAULTS_ENV) {
            if !value.trim().is_empty() {
                set_state(parse_spec(&value).unwrap_or_else(|e| {
                    panic!("invalid {FAULTS_ENV}={value:?}: {e}");
                }));
            }
        }
    });
}

fn set_state(state: ChaosState) {
    *STATE.lock().expect("chaos registry poisoned") = Some(Arc::new(state));
    ARMED.store(true, Ordering::Release);
}

/// Parses a full `DKIP_FAULTS` value (comma-separated specs).
fn parse_spec(value: &str) -> Result<ChaosState, String> {
    let mut points: [Option<ArmedPoint>; FaultPoint::ALL.len()] = Default::default();
    for part in value.split(',') {
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
        let seed = seed
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("invalid fault seed {seed:?}: expected an unsigned integer"))?;
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
    Ok(ChaosState { points })
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

/// Whether any fault point is armed. One relaxed load when disarmed.
#[must_use]
pub fn armed() -> bool {
    ensure_init();
    ARMED.load(Ordering::Acquire)
}

/// Consults a fault point: `true` means "inject the fault now".
///
/// Disarmed (the default), this is a `Once` fast-path check plus one
/// relaxed atomic load — cheap enough for any I/O or per-job path, and
/// deliberately kept off the per-cycle simulation loop.
#[must_use]
pub fn should_fire(point: FaultPoint) -> bool {
    if !armed() {
        return false;
    }
    let state = STATE.lock().expect("chaos registry poisoned").clone();
    state
        .and_then(|s| s.points[point.index()].as_ref().map(ArmedPoint::fire))
        .unwrap_or(false)
}

/// Consults a fault point and renders a firing as an injected I/O error
/// (an `ENOSPC`-like "device out of space"), for the store/metrics write
/// paths. `None` means "proceed normally".
#[must_use]
pub fn fail_io(point: FaultPoint) -> Option<io::Error> {
    should_fire(point).then(|| {
        io::Error::other(format!(
            "{CHAOS_TAG}: injected {} fault (device out of space)",
            point.name()
        ))
    })
}

/// Arms the registry in-process, replacing any previous arming (and
/// pre-empting any later `DKIP_FAULTS` read). `spec` uses the
/// `DKIP_FAULTS` grammar. Tests use this because the registry is read
/// lazily and process-wide; operators use `DKIP_FAULTS`.
///
/// # Errors
///
/// Returns a human-readable message for a malformed spec (and leaves the
/// previous arming in place).
pub fn arm(spec: &str) -> Result<(), String> {
    INIT.call_once(|| {});
    set_state(parse_spec(spec)?);
    Ok(())
}

/// Disarms every fault point (and pre-empts any later `DKIP_FAULTS` read).
pub fn disarm() {
    INIT.call_once(|| {});
    ARMED.store(false, Ordering::Release);
    *STATE.lock().expect("chaos registry poisoned") = None;
}

/// Renders a caught panic payload as a human-readable message — the
/// `&str`/`String` payloads `panic!` produces, or a placeholder for
/// anything else. Used by the runner's per-job isolation.
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These unit tests deliberately never call `arm`: the registry is
    // process-global and the test harness runs the other modules' unit
    // tests concurrently in this same process, so arming here would make
    // an unrelated runner/store test trip an injected fault. Decision
    // logic is tested on `ArmedPoint` directly; the armed end-to-end
    // behaviour lives in `tests/chaos.rs`, where every test serialises on
    // one lock.
    fn armed(spec: &str, point: FaultPoint) -> ArmedPoint {
        let mut state = parse_spec(spec).expect("valid spec");
        state.points[point.index()].take().expect("point armed")
    }

    #[test]
    fn disarmed_points_never_fire() {
        for point in FaultPoint::ALL {
            assert!(!should_fire(point));
            assert!(fail_io(point).is_none());
        }
        assert!(!super::armed());
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never_does() {
        let always = armed("job.panic:1:7", FaultPoint::JobPanic);
        let never = armed("store.read:0:7", FaultPoint::StoreRead);
        for _ in 0..64 {
            assert!(always.fire());
            assert!(!never.fire());
        }
    }

    #[test]
    fn first_k_rates_fire_exactly_k_times() {
        let point = armed("store.write:first2:0", FaultPoint::StoreWrite);
        let fired: Vec<bool> = (0..5).map(|_| point.fire()).collect();
        assert_eq!(fired, vec![true, true, false, false, false]);
    }

    #[test]
    fn probabilistic_rates_are_seed_deterministic_and_roughly_calibrated() {
        let a: Vec<bool> = {
            let p = armed("job.panic:0.5:42", FaultPoint::JobPanic);
            (0..256).map(|_| p.fire()).collect()
        };
        let b: Vec<bool> = {
            let p = armed("job.panic:0.5:42", FaultPoint::JobPanic);
            (0..256).map(|_| p.fire()).collect()
        };
        assert_eq!(a, b, "same seed, same consultation order, same decisions");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((64..192).contains(&fired), "p=0.5 fired {fired}/256");
        let c: Vec<bool> = {
            let p = armed("job.panic:0.5:43", FaultPoint::JobPanic);
            (0..256).map(|_| p.fire()).collect()
        };
        assert_ne!(a, c, "a different seed draws a different pattern");
    }

    #[test]
    fn specs_parse_strictly() {
        assert!(parse_spec("job.panic:1:0").is_ok());
        assert!(parse_spec("job.panic:first3:0,store.read:0.25:9").is_ok());
        assert!(parse_spec("").is_err());
        assert!(parse_spec("job.panic:1").is_err(), "seed is mandatory");
        assert!(parse_spec("job.panic:1:0:9").is_err());
        assert!(parse_spec("job.reboot:1:0").is_err(), "unknown point");
        assert!(parse_spec("job.panic:1.5:0").is_err(), "rate > 1");
        assert!(parse_spec("job.panic:-0.1:0").is_err());
        assert!(parse_spec("job.panic:firstx:0").is_err());
        assert!(parse_spec("job.panic:1:zebra").is_err());
        assert!(
            parse_spec("job.panic:1:0,job.panic:1:1").is_err(),
            "duplicate point"
        );
        assert!(parse_spec("job.panic:1:0,").is_err(), "stray comma");
    }

    #[test]
    fn every_point_name_round_trips() {
        for point in FaultPoint::ALL {
            assert_eq!(FaultPoint::parse(point.name()), Some(point));
            assert!(parse_spec(&format!("{}:1:0", point.name())).is_ok());
        }
        assert_eq!(FaultPoint::parse("store.reboot"), None);
    }

    #[test]
    fn panic_messages_render_str_string_and_other() {
        let a: Box<dyn Any + Send> = Box::new("static message");
        let b: Box<dyn Any + Send> = Box::new("owned".to_owned());
        let c: Box<dyn Any + Send> = Box::new(42_u32);
        assert_eq!(panic_message(a.as_ref()), "static message");
        assert_eq!(panic_message(b.as_ref()), "owned");
        assert_eq!(panic_message(c.as_ref()), "<non-string panic payload>");
    }
}
