//! Pins the Layer-3 abstract interpreter's complexity: `analyze_nest`
//! is O(refs²) in the number of references and — crucially —
//! independent of trip counts when the relational domain decides every
//! component symbolically. The same nest shape analyzed at trips 2^8,
//! 2^16, and 2^24 must (a) never fall back to enumeration
//! (`enumerated_lines == 0`) and (b) show flat analysis time across the
//! 65536× trip range.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use vcache_check::{analyze_nest, AffineRef, Geometry, LoopNest, Term};

const TRIPS: [u64; 3] = [1 << 8, 1 << 16, 1 << 24];

/// An 8-reference nest of line-aligned progressions with line stride 8
/// and bases staggered across the 8 cosets of ⟨8⟩ in Z_4096: each
/// reference is one exact progression and every cross pair lies in
/// disjoint residue cosets, so no component ever needs enumeration and
/// analysis cost depends only on the reference count.
fn nest_with_trip(trip: u64) -> LoopNest {
    let refs = (0..8u64)
        .map(|r| {
            AffineRef::new(
                r * 8, // line r: one base per coset residue mod 8
                vec![Term { coeff: 64, trip }],
                u32::try_from(r).unwrap_or(0),
            )
        })
        .collect();
    LoopNest::new(format!("progressions[trip={trip}]"), refs)
}

fn geometry() -> Geometry {
    Geometry::pow2(4096, 8).expect("valid geometry")
}

/// Median wall time of `runs` analyses.
fn median_analysis_time(nest: &LoopNest, geometry: &Geometry, runs: usize) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let analysis = analyze_nest(black_box(nest), black_box(geometry));
            let elapsed = start.elapsed().as_secs_f64();
            assert!(analysis.is_ok());
            elapsed
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[runs / 2]
}

fn bench_analyze_nest(c: &mut Criterion) {
    let geometry = geometry();

    // The load-bearing invariant first: at every scale the verdict is
    // reached purely abstractly. A regression that reintroduces
    // enumeration would turn the 2^24 case into minutes of work.
    for trip in TRIPS {
        let analysis = analyze_nest(&nest_with_trip(trip), &geometry).expect("analysis succeeds");
        assert_eq!(
            analysis.enumerated_lines, 0,
            "trip {trip}: fell back to enumerating {} lines",
            analysis.enumerated_lines
        );
    }

    // Flatness: median time across the 65536× trip range must stay
    // within a generous constant factor (noise, not scaling).
    let medians: Vec<f64> = TRIPS
        .iter()
        .map(|&trip| median_analysis_time(&nest_with_trip(trip), &geometry, 15))
        .collect();
    let (lo, hi) = (
        medians.iter().copied().fold(f64::INFINITY, f64::min),
        medians.iter().copied().fold(0.0f64, f64::max),
    );
    assert!(
        hi <= lo * 25.0 + 1e-4,
        "analysis time scales with trips: medians {medians:?}"
    );

    let mut group = c.benchmark_group("analyze_nest");
    for trip in TRIPS {
        let nest = nest_with_trip(trip);
        group.bench_function(&format!("trips_2e{}", trip.trailing_zeros()), |b| {
            b.iter(|| analyze_nest(black_box(&nest), black_box(&geometry)))
        });
    }
    group.finish();
}

/// The `Shape::Lattice` family: an unaligned leading dimension
/// (`8196 % 8 != 0`) whose per-iteration lines do not form a clean
/// window or orbit. Congruence-class splitting and the residue solvers
/// settle it symbolically.
fn lattice_nest(trip: u64) -> LoopNest {
    LoopNest::new(
        format!("lattice[trip={trip}]"),
        vec![AffineRef::new(
            0,
            vec![Term { coeff: 8196, trip }, Term { coeff: 1, trip: 32 }],
            0,
        )],
    )
}

fn lattice_geometry() -> Geometry {
    Geometry::pow2(8192, 8).expect("valid geometry")
}

fn bench_lattice_family(c: &mut Criterion) {
    let geometry = lattice_geometry();

    // The regression this bench pins: the family never materializes a
    // line.
    for trip in [1u64 << 8, 1 << 12] {
        let analysis = analyze_nest(&lattice_nest(trip), &geometry).expect("relational analysis");
        assert_eq!(
            analysis.enumerated_lines, 0,
            "trip {trip}: relational path enumerated lines"
        );
    }

    let mut group = c.benchmark_group("analyze_nest_lattice");
    for trip in [1u64 << 8, 1 << 12] {
        let nest = lattice_nest(trip);
        group.bench_function(
            &format!("relational_trips_2e{}", trip.trailing_zeros()),
            |b| b.iter(|| analyze_nest(black_box(&nest), black_box(&geometry))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_analyze_nest, bench_lattice_family);
criterion_main!(benches);
