//! Fig 2: the ideal capacity curve mirrors a sinusoidal demand with a small
//! buffer; the realisable allocation is an integral step function above it.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::{ascii_plot2, section, RunReporter};
use pstore_core::cost_model::{cap, machines_for_load};
use pstore_forecast::generators::sine_demand;

fn main() {
    let reporter = RunReporter::from_args();
    let q = 285.0;
    let buffer = 1.10;
    let demand = sine_demand(1440, 1_400.0, 0.8, 1440);

    // Ideal capacity: demand plus buffer. Actual: step function of whole
    // machines sized per interval.
    let ideal: Vec<f64> = demand.values().iter().map(|d| d * buffer).collect();
    let steps: Vec<f64> = ideal
        .iter()
        .map(|d| cap(machines_for_load(*d, q), q))
        .collect();

    section("Fig 2a: ideal capacity (buffered demand) vs demand");
    println!("{}", ascii_plot2(demand.values(), &ideal, 96, 12));

    section("Fig 2b: actual servers allocated (step function) vs demand");
    println!("{}", ascii_plot2(demand.values(), &steps, 96, 12));

    let avg_ideal = ideal.iter().sum::<f64>() / ideal.len() as f64 / q;
    let avg_steps = steps.iter().sum::<f64>() / steps.len() as f64 / q;
    println!("average machine-equivalents, ideal curve : {avg_ideal:.2}");
    println!("average machines, step allocation        : {avg_steps:.2}");
    println!(
        "peak machines                            : {:.0}",
        steps.iter().copied().fold(0.0, f64::max) / q
    );
    println!("(the step function always sits on or above the ideal curve)");
    assert!(steps.iter().zip(&ideal).all(|(s, i)| *s >= *i - 1e-9));

    reporter.finish();
}
