//! Regenerates every figure table and CSV in one run, printing each
//! figure's wall time and the total on stderr.

use std::time::Instant;

/// Runs `f` and prints its wall time on stderr as `[run_all] <label>: <ms> ms`.
fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    eprintln!("[run_all] {label}: {ms:.3} ms");
    out
}

fn main() {
    timed("total", || {
        let figures = [
            timed("fig4", vcache_bench::fig4),
            timed("fig5", vcache_bench::fig5),
            timed("fig6", vcache_bench::fig6),
            timed("fig7", vcache_bench::fig7),
            timed("fig8", vcache_bench::fig8),
            timed("fig9", vcache_bench::fig9),
            timed("fig10", vcache_bench::fig10),
            timed("fig11", vcache_bench::fig11),
            timed("fig12", vcache_bench::fig12),
        ];
        for fig in &figures {
            println!("{}", vcache_bench::render_table(fig));
            match vcache_bench::write_csv(fig, std::path::Path::new("results")) {
                Ok(p) => eprintln!("wrote {}", p.display()),
                Err(e) => eprintln!("could not write CSV for {}: {e}", fig.id),
            }
        }
    });
}
