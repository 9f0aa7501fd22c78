//! Seeded fault injection for chaos-testing the daemon.
//!
//! A [`FaultPlan`] describes *what can go wrong* — probabilistic
//! handler panics, injected processing delays, and torn (truncated)
//! response writes — and a [`FaultInjector`] rolls the dice. The plan
//! is fully seeded, so a chaos run is reproducible: the same seed and
//! request interleaving produce the same fault decisions.
//!
//! The daemon must convert every injected fault into the same typed
//! behavior a real fault would produce: a caught panic becomes an
//! `internal_error` response, a delay just slows the worker (possibly
//! into `deadline_exceeded`), and a torn write is a dropped connection
//! the *client* must survive.

use std::sync::Mutex;
use std::sync::PoisonError;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What faults to inject, with what probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; the same seed reproduces the same fault sequence.
    pub seed: u64,
    /// Probability in `[0, 1]` that a worker panics mid-request.
    pub panic_prob: f64,
    /// Probability in `[0, 1]` that a request is delayed.
    pub delay_prob: f64,
    /// Delay duration applied when the delay fault fires.
    pub delay: Duration,
    /// Probability in `[0, 1]` that a response write is torn: only a
    /// prefix of the bytes is written and the connection is closed.
    pub torn_write_prob: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (probabilities all zero).
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            panic_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
            torn_write_prob: 0.0,
        }
    }

    /// True when no fault can ever fire.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.panic_prob <= 0.0 && self.delay_prob <= 0.0 && self.torn_write_prob <= 0.0
    }

    /// Parses a compact spec like
    /// `seed=7,panic=0.02,delay=0.05:20,torn=0.02` where
    /// `delay`'s second field is the injected delay in milliseconds.
    ///
    /// # Errors
    ///
    /// Describes the malformed clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::none();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} is not key=value"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("seed {value:?} is not an integer"))?;
                }
                "panic" => plan.panic_prob = parse_prob("panic", value)?,
                "torn" => plan.torn_write_prob = parse_prob("torn", value)?,
                "delay" => {
                    let (prob, ms) = value
                        .split_once(':')
                        .ok_or_else(|| format!("delay {value:?} must be prob:millis"))?;
                    plan.delay_prob = parse_prob("delay", prob)?;
                    let ms: u64 = ms
                        .trim()
                        .parse()
                        .map_err(|_| format!("delay millis {ms:?} is not an integer"))?;
                    plan.delay = Duration::from_millis(ms);
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        Ok(plan)
    }
}

fn parse_prob(key: &str, value: &str) -> Result<f64, String> {
    let p: f64 = value
        .trim()
        .parse()
        .map_err(|_| format!("{key} probability {value:?} is not a number"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{key} probability {p} outside [0, 1]"));
    }
    Ok(p)
}

/// The worker-side fault decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerFault {
    /// Panic inside the worker for this request.
    pub panic: bool,
    /// Sleep this long before handling (`None` = no delay fault).
    pub delay: Option<Duration>,
}

impl HandlerFault {
    /// The no-fault decision.
    #[must_use]
    pub fn clean() -> Self {
        Self {
            panic: false,
            delay: None,
        }
    }
}

/// Rolls fault decisions from a [`FaultPlan`]'s seeded RNG.
///
/// Shared across worker and connection threads; the RNG sits behind a
/// mutex so decisions form one deterministic sequence per seed.
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Mutex<StdRng>,
}

impl FaultInjector {
    /// An injector rolling from `plan.seed`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            rng: Mutex::new(StdRng::seed_from_u64(plan.seed)),
            plan,
        }
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Rolls the worker-side faults (panic, delay) for one request.
    #[must_use]
    pub fn roll_handler(&self) -> HandlerFault {
        if self.plan.panic_prob <= 0.0 && self.plan.delay_prob <= 0.0 {
            return HandlerFault::clean();
        }
        let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
        let panic = self.plan.panic_prob > 0.0 && rng.random::<f64>() < self.plan.panic_prob;
        let delay = (self.plan.delay_prob > 0.0 && rng.random::<f64>() < self.plan.delay_prob)
            .then_some(self.plan.delay);
        HandlerFault { panic, delay }
    }

    /// Rolls the write-side fault for one response of `response_len`
    /// bytes: `Some(keep)` tears the write after `keep` bytes (strictly
    /// fewer than `response_len`), `None` writes normally.
    #[must_use]
    pub fn roll_torn_write(&self, response_len: usize) -> Option<usize> {
        if self.plan.torn_write_prob <= 0.0 {
            return None;
        }
        let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
        (rng.random::<f64>() < self.plan.torn_write_prob).then(|| {
            if response_len <= 1 {
                0
            } else {
                rng.random_range(0..response_len)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_every_clause() {
        let plan = FaultPlan::parse("seed=7,panic=0.25,delay=0.5:20,torn=0.1").unwrap();
        assert_eq!(plan.seed, 7);
        assert!((plan.panic_prob - 0.25).abs() < 1e-12);
        assert!((plan.delay_prob - 0.5).abs() < 1e-12);
        assert_eq!(plan.delay, Duration::from_millis(20));
        assert!((plan.torn_write_prob - 0.1).abs() < 1e-12);
        assert!(!plan.is_none());
        assert!(FaultPlan::parse("").unwrap().is_none());
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic=2.0").is_err());
        assert!(FaultPlan::parse("delay=0.5").is_err());
        assert!(FaultPlan::parse("delay=0.5:abc").is_err());
        assert!(FaultPlan::parse("volts=9").is_err());
        // No fault takes the whole process down: `kill` is not a key.
        let err = FaultPlan::parse("kill=0.1").unwrap_err();
        assert!(err.contains("\"kill\""), "{err}");
    }

    #[test]
    fn rolls_are_deterministic_per_seed_and_respect_probabilities() {
        let plan = FaultPlan::parse("seed=11,panic=0.5,delay=0.5:5,torn=0.5").unwrap();
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        let rolls_a: Vec<_> = (0..200)
            .map(|_| (a.roll_handler(), a.roll_torn_write(100)))
            .collect();
        let rolls_b: Vec<_> = (0..200)
            .map(|_| (b.roll_handler(), b.roll_torn_write(100)))
            .collect();
        assert_eq!(rolls_a, rolls_b);
        // With p=0.5 each, all three faults fire at least once in 200 rolls.
        assert!(rolls_a.iter().any(|(h, _)| h.panic));
        assert!(rolls_a.iter().any(|(h, _)| h.delay.is_some()));
        let torn: Vec<usize> = rolls_a.iter().filter_map(|(_, t)| *t).collect();
        assert!(!torn.is_empty());
        assert!(torn.iter().all(|&k| k < 100));
    }

    #[test]
    fn empty_plan_never_faults() {
        let inj = FaultInjector::new(FaultPlan::none());
        for _ in 0..100 {
            assert_eq!(inj.roll_handler(), HandlerFault::clean());
            assert_eq!(inj.roll_torn_write(64), None);
        }
    }
}
