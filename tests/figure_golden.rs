//! The paper-figure tables are part of the behaviour contract: each of
//! `fig4`..`fig12`, rendered through the CSV writer `run_all` uses, must
//! equal the committed `results/fig*.csv` byte for byte.

use std::path::Path;

#[test]
fn regenerated_figures_equal_the_committed_csvs() {
    let dir = std::env::temp_dir().join(format!("vcache-figure-golden-{}", std::process::id()));
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let figures = [
        vcache_bench::fig4(),
        vcache_bench::fig5(),
        vcache_bench::fig6(),
        vcache_bench::fig7(),
        vcache_bench::fig8(),
        vcache_bench::fig9(),
        vcache_bench::fig10(),
        vcache_bench::fig11(),
        vcache_bench::fig12(),
    ];
    for fig in &figures {
        let written = vcache_bench::write_csv(fig, &dir).unwrap();
        let fresh = std::fs::read(&written).unwrap();
        let golden = std::fs::read(committed.join(format!("{}.csv", fig.id))).unwrap();
        assert!(
            fresh == golden,
            "{} differs from results/{}.csv",
            fig.id,
            fig.id
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
