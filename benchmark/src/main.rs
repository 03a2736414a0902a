//! The P-Store benchmark. See `benchmark/README.md`.
//!
//! With `--workload` this process measures that workload and prints every
//! metric as `workload metric value unit`, then one JSON object on the last
//! line. Without it, it starts one such process per workload (`suite`).

mod alloc;
mod calib;
mod catalog;
mod cli;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Renders the result object the driver reads from the last line.
fn result_json(report: &run::Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(cli::Parsed::Args(args)) => args,
        Ok(cli::Parsed::Help) => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(problem) => {
            eprintln!("error: {problem}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    for var in ["PSTORE_SHARDS", "PSTORE_PROV_EVENTS"] {
        if let Ok(value) = std::env::var(var) {
            eprintln!(
                "note: {var}={value} changes what is measured; not comparable with the baseline"
            );
        }
    }
    let Some(workload) = args.workload else {
        return suite::run(&args);
    };
    // Builds the calibration probe's data before anything is timed.
    calib::run();
    if args.probe {
        println!("{}", run::probe(&args, workload));
        return ExitCode::SUCCESS;
    }
    let mut report = if args.trace {
        run::traced(&args, workload)
    } else {
        run::plain(&args, workload)
    };
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report.notes.push(format!("{name} is not a finite number"));
            report.correct = false;
        }
    }
    let (header, problems) = report
        .notes
        .split_first()
        .expect("a report starts with its header");
    println!("{header}");
    for problem in problems {
        println!("# {}", problem.replace('\n', "\n# "));
    }
    if let Some(outcome) = &report.outcome {
        println!("# outcome {outcome}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{} {name} {value} {unit}", workload.name());
    }
    if !report.correct {
        // A failed check prints no result: a wrong run has no metrics worth
        // comparing.
        eprintln!("error: {} failed its correctness checks", workload.name());
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
