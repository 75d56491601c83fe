//! Extension experiment (§4.3): the sparse-mode break-even analysis.
//!
//! The paper proposes postponing the register-array allocation by
//! collecting (v+6)-bit hash tokens and switching to the dense
//! representation at the break-even point. This experiment quantifies
//! that trade-off for the paper's configurations:
//!
//! * the break-even count n* where the token list outgrows the dense
//!   register array, per precision p;
//! * the memory trajectory of an [`AdaptiveExaLogLog`] across the
//!   transition (linear, then constant);
//! * estimation-error continuity: the relative error immediately
//!   before and after promotion, showing the upgrade is lossless
//!   in practice (tokens hold strictly more information than the dense
//!   registers they fold into).
//!
//! ```sh
//! cargo run --release -p ell-repro --bin ext_sparse_break_even
//! ```

use ell_hash::{mix64, SplitMix64};
use ell_repro::{fmt_f, RunParams, Table};
use ell_sim::ErrorAccumulator;
use exaloglog::{AdaptiveExaLogLog, EllConfig};

fn main() {
    let params = RunParams::parse(200, 10_000);
    println!(
        "Extension: sparse-mode break-even (token size 32 bits, v = 26), {} runs\n",
        params.runs
    );

    // --- Part 1: analytic break-even points. ---------------------------
    let mut table = Table::new(&[
        "config",
        "p",
        "dense bytes",
        "break-even tokens",
        "fraction of m",
    ]);
    for p in [8u8, 10, 12, 14] {
        for cfg in [
            EllConfig::optimal(p).expect("valid"),
            EllConfig::aligned32(p).expect("valid"),
        ] {
            let dense = cfg.register_array_bytes();
            let break_even = dense / 4; // 4-byte tokens
            table.row(vec![
                format!("ELL(t={},d={})", cfg.t(), cfg.d()),
                p.to_string(),
                dense.to_string(),
                break_even.to_string(),
                fmt_f(break_even as f64 / cfg.m() as f64, 2),
            ]);
        }
    }
    table.emit(&params, "ext_sparse_break_even_points");
    println!();

    // --- Part 2: memory trajectory and error continuity. ---------------
    let cfg = EllConfig::optimal(10).expect("valid");
    let dense_bytes = cfg.register_array_bytes();
    let checkpoints: Vec<u64> = vec![
        10, 20, 50, 100, 200, 400, 600, 800, 896, 1000, 1200, 2000, 5000, 10_000,
    ];
    let mut err_at: Vec<ErrorAccumulator> = vec![ErrorAccumulator::new(); checkpoints.len()];
    let mut mem_at = vec![0.0f64; checkpoints.len()];
    let mut sparse_runs_at = vec![0usize; checkpoints.len()];
    for run in 0..params.runs {
        let mut rng = SplitMix64::new(mix64(params.seed ^ mix64(run as u64)));
        let mut sketch = AdaptiveExaLogLog::new(cfg).expect("valid");
        let mut n = 0u64;
        for (ci, &checkpoint) in checkpoints.iter().enumerate() {
            while n < checkpoint {
                sketch.insert_hash(rng.next_u64());
                n += 1;
            }
            err_at[ci].record(sketch.estimate(), checkpoint as f64);
            mem_at[ci] += sketch.memory_bytes() as f64;
            sparse_runs_at[ci] += usize::from(sketch.is_sparse());
        }
    }

    let mut table = Table::new(&[
        "n",
        "memory bytes",
        "vs dense",
        "rmse %",
        "runs still sparse",
    ]);
    for (ci, &n) in checkpoints.iter().enumerate() {
        let mem = mem_at[ci] / params.runs as f64;
        table.row(vec![
            n.to_string(),
            fmt_f(mem, 0),
            fmt_f(mem / dense_bytes as f64, 2),
            fmt_f(err_at[ci].rmse() * 100.0, 2),
            format!("{}/{}", sparse_runs_at[ci], params.runs),
        ]);
    }
    println!(
        "ELL(2,20,p=10): dense register array = {dense_bytes} bytes; \
         error must stay smooth across the sparse→dense switch"
    );
    table.emit(&params, "ext_sparse_break_even_trajectory");

    // Machine-checkable summary: the error after the transition region
    // must not exceed the theoretical dense RMSE by more than the
    // simulation tolerance.
    let theory =
        exaloglog::theory::predicted_rmse(&cfg, exaloglog::theory::Estimator::MaximumLikelihood);
    let last = err_at.last().expect("nonempty").rmse();
    println!(
        "\nfinal rmse {:.2} % vs dense theory {:.2} % (ratio {:.2})",
        last * 100.0,
        theory * 100.0,
        last / theory
    );
    assert!(
        last / theory < 1.0 + 0.25 + 4.0 / (2.0 * params.runs as f64).sqrt(),
        "post-transition error inconsistent with dense theory"
    );
}
