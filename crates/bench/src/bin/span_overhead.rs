//! Trace-overhead budget check: the phase-observer hook on
//! [`NestBudget`] must be close to free when nobody is listening *and*
//! cheap when the serve layer is (the observer fires per phase, not per
//! enumeration step). Run by `scripts/ci.sh`; exits nonzero if the
//! instrumented analysis exceeds the budgeted ratio over the untraced
//! fast path, so an accidental per-step callback can never land.

use std::cell::Cell;
use std::process::ExitCode;
use std::time::Instant;

use vcache_check::{analyze_nest_with_budget, AffineRef, Geometry, LoopNest, NestBudget, Term};

/// Instrumented time may exceed untraced time by at most this factor.
/// The observer adds two indirect calls per *phase* (a handful per
/// analysis), so even modest budgets hold; 1.5x absorbs timer noise.
const MAX_RATIO: f64 = 1.5;

/// Analyses per timing pass: enough total work (~hundreds of ms) that
/// scheduler jitter does not dominate the ratio.
const ITERS: u32 = 40;

/// An enumeration-heavy nest: four odd strides on 8-word lines split
/// into more congruence classes than the relational domain takes, so
/// the analyzer walks all 331,776 iteration points in its exact
/// fallback — where per-step instrumentation would hurt most.
fn heavy_nest() -> LoopNest {
    let terms = [3, 5, 7, 9].map(|coeff| Term { coeff, trip: 24 });
    LoopNest::new("overhead", vec![AffineRef::new(0, terms.to_vec(), 0)])
}

fn timed(
    observer: Option<&(dyn Fn(&'static str, bool) + '_)>,
) -> Result<(std::time::Duration, String), String> {
    let nest = heavy_nest();
    let geometry = Geometry::prime(5, 8).map_err(|e| format!("prime geometry rejected: {e:?}"))?;
    let mut rendered = String::new();
    let start = Instant::now();
    for _ in 0..ITERS {
        let budget = match observer {
            Some(obs) => NestBudget::default().with_observer(obs),
            None => NestBudget::default(),
        };
        let analysis = analyze_nest_with_budget(&nest, &geometry, &budget)
            .map_err(|e| format!("analysis failed: {e:?}"))?;
        if analysis.enumerated_lines == 0 {
            return Err("the heavy nest no longer enumerates; the budget guards nothing".into());
        }
        rendered = format!("{analysis:?}");
    }
    Ok((start.elapsed(), rendered))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("span_overhead: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    // Warm-up pass so neither side pays first-touch costs.
    let _ = timed(None)?;

    let (untraced, plain) = timed(None)?;
    let events = Cell::new(0u64);
    let observer = |_phase: &'static str, _begin: bool| events.set(events.get() + 1);
    let (instrumented, observed) = timed(Some(&observer))?;

    // The observer must not change the analysis (the proven-identical
    // untraced fast path), and must fire per phase, not per step.
    assert_eq!(plain, observed, "observer changed the analysis result");
    assert!(events.get() > 0, "observer never fired");
    let per_analysis = events.get() / u64::from(ITERS);
    assert!(
        per_analysis <= 16,
        "observer fired {per_analysis} times per analysis — per-step instrumentation?"
    );

    let ratio = instrumented.as_secs_f64() / untraced.as_secs_f64().max(f64::EPSILON);
    println!(
        "span overhead: untraced {untraced:?}, instrumented {instrumented:?}, \
         ratio {ratio:.3} (budget {MAX_RATIO}), {per_analysis} events/analysis"
    );
    if ratio > MAX_RATIO {
        eprintln!("FAIL: instrumented analysis exceeds the {MAX_RATIO}x overhead budget");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
