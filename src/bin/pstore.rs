//! `pstore` — a command-line front end to the P-Store reproduction.
//!
//! ```text
//! pstore forecast [--days N] [--tau MIN] [--seed S]
//!     Fit SPAR on synthetic B2W load and report accuracy.
//!
//! pstore plan --load L1,L2,... [--start N] [--q Q] [--d-intervals D]
//!             [--partitions P] [--max M]
//!     Run the predictive-elasticity dynamic program on a load curve.
//!
//! pstore schedule B A
//!     Print the §4.4.1 migration round schedule for a move.
//!
//! pstore simulate [--days N] [--strategy pstore|oracle|reactive|static:N|simple]
//!                 [--seed S]
//!     Long-horizon slot simulation of an allocation strategy.
//! ```

use pstore::core::controller::baselines::StaticController;
use pstore::core::params::SystemParams;
use pstore::core::planner::{Planner, PlannerConfig};
use pstore::core::schedule::MigrationSchedule;
use pstore::forecast::eval::{rolling_accuracy, EvalConfig};
use pstore::forecast::generators::B2wLoadModel;
use pstore::forecast::spar::{SparConfig, SparModel};
use pstore::sim::fast::{run_fast, FastSimConfig};
use pstore::sim::scenarios::{
    pstore_oracle_fast, pstore_spar_fast, reactive_fast, simple_schedule, PEAK_TXN_RATE,
    TRAINING_DAYS,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "forecast" => cmd_forecast(rest),
        "plan" => cmd_plan(rest),
        "schedule" => cmd_schedule(rest),
        "simulate" => cmd_simulate(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: pstore <forecast|plan|schedule|simulate> [options]
  forecast  [--days N] [--tau MIN] [--seed S]
  plan      --load L1,L2,... [--start N] [--q Q] [--d-intervals D] [--partitions P] [--max M]
  schedule  <B> <A>
  simulate  [--days N] [--strategy pstore|oracle|reactive|static:N|simple] [--seed S]";

/// Parses `--key value` style flags; returns an error for unknown keys.
fn parse_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found `{}`", args[i]))?;
        if !allowed.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        out.push((key, value.as_str()));
        i += 2;
    }
    Ok(out)
}

fn get_flag<'a>(flags: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    flags.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad {what} `{s}`: {e}"))
}

fn cmd_forecast(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["days", "tau", "seed"])?;
    let eval_days: usize = parse_num(get_flag(&flags, "days").unwrap_or("7"), "--days")?;
    let tau: usize = parse_num(get_flag(&flags, "tau").unwrap_or("60"), "--tau")?;
    let seed: u64 = parse_num(get_flag(&flags, "seed").unwrap_or("42"), "--seed")?;
    if tau == 0 || tau > 1440 {
        return Err("--tau must be in 1..=1440 minutes".into());
    }

    let train_days = 28;
    let load = B2wLoadModel {
        seed,
        ..B2wLoadModel::default()
    }
    .generate(train_days + eval_days.max(1));
    let train_len = train_days * 1440;
    let model = SparModel::fit(&load.values()[..train_len], &SparConfig::b2w_default())
        .map_err(|e| e.to_string())?;
    let acc = rolling_accuracy(
        &model,
        load.values(),
        &[tau],
        &EvalConfig {
            eval_start: train_len,
            origin_stride: 17,
        },
    );
    println!(
        "SPAR on {eval_days} held-out day(s), tau = {tau} min: MRE {:.1}% \
         (MAE {:.0}, RMSE {:.0}, {} samples)",
        100.0 * acc[0].mre,
        acc[0].mae,
        acc[0].rmse,
        acc[0].samples
    );
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &["load", "start", "q", "d-intervals", "partitions", "max"],
    )?;
    let load_str = get_flag(&flags, "load").ok_or("--load is required (comma-separated)")?;
    let load: Vec<f64> = load_str
        .split(',')
        .map(|s| parse_num(s.trim(), "load value"))
        .collect::<Result<_, _>>()?;
    if load.is_empty() {
        return Err("--load needs at least one value".into());
    }
    let start: u32 = parse_num(get_flag(&flags, "start").unwrap_or("2"), "--start")?;
    let q: f64 = parse_num(get_flag(&flags, "q").unwrap_or("285"), "--q")?;
    let d_intervals: f64 = parse_num(
        get_flag(&flags, "d-intervals").unwrap_or("15.5"),
        "--d-intervals",
    )?;
    let partitions: u32 = parse_num(
        get_flag(&flags, "partitions").unwrap_or("6"),
        "--partitions",
    )?;
    let max: u32 = parse_num(get_flag(&flags, "max").unwrap_or("10"), "--max")?;

    let planner = Planner::new(PlannerConfig {
        q,
        d_intervals,
        partitions_per_node: partitions,
        max_machines: max,
    });
    match planner.best_moves(&load, start) {
        Some(plan) => {
            println!(
                "optimal plan from {start} machines over {} intervals:",
                load.len() - 1
            );
            for m in plan.moves() {
                println!("  {m}");
            }
            println!("final machines: {}", plan.final_machines().unwrap_or(start));
        }
        None => {
            let peak = load.iter().copied().fold(0.0, f64::max);
            println!(
                "no feasible plan: the cluster cannot scale fast enough \
                 (peak {peak:.0} needs {} machines at Q = {q:.0}; emergency \
                 scale-out would be required)",
                planner.machines_needed(peak)
            );
        }
    }
    Ok(())
}

fn cmd_schedule(args: &[String]) -> Result<(), String> {
    let [b, a] = args else {
        return Err("usage: pstore schedule <B> <A>".into());
    };
    let b: u32 = parse_num(b, "B")?;
    let a: u32 = parse_num(a, "A")?;
    if b == 0 || a == 0 {
        return Err("machine counts must be positive".into());
    }
    let schedule = MigrationSchedule::plan(b, a);
    println!(
        "move {b} -> {a}: {} rounds, {} pair transfers, avg {:.3} machines",
        schedule.total_rounds(),
        schedule.total_transfers(),
        schedule.avg_machines()
    );
    for (i, round) in schedule.rounds().iter().enumerate() {
        let pairs: Vec<String> = round
            .transfers
            .iter()
            .map(|t| format!("{}->{}", t.from, t.to))
            .collect();
        println!(
            "  round {i:>2} [{} machines]: {}",
            schedule.machines_in_round(i),
            pairs.join(" ")
        );
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["days", "strategy", "seed"])?;
    let days: usize = parse_num(get_flag(&flags, "days").unwrap_or("14"), "--days")?;
    let strategy = get_flag(&flags, "strategy").unwrap_or("pstore");
    let seed: u64 = parse_num(get_flag(&flags, "seed").unwrap_or("42"), "--seed")?;
    if days == 0 {
        return Err("--days must be positive".into());
    }

    let raw = B2wLoadModel {
        seed,
        ..B2wLoadModel::default()
    }
    .generate(TRAINING_DAYS + days);
    let eval_start = TRAINING_DAYS * 1440;
    let peak = raw.values()[eval_start..]
        .iter()
        .copied()
        .fold(0.0, f64::max);
    let scaled = raw.scaled(PEAK_TXN_RATE / peak);
    let train = &scaled.values()[..eval_start];
    let eval = &scaled.values()[eval_start..];

    let params = SystemParams::b2w_paper();
    let cfg = FastSimConfig {
        params: params.clone(),
        slot_duration_s: 60.0,
        tick_every_slots: 5,
        record_timeline: false,
    };

    let r = match strategy {
        "pstore" => run_fast(
            &cfg,
            eval,
            &mut pstore_spar_fast(train, eval[0], &params, params.q),
        ),
        "oracle" => run_fast(&cfg, eval, &mut pstore_oracle_fast(eval, &params, params.q)),
        "reactive" => run_fast(&cfg, eval, &mut reactive_fast(eval[0], &params, 0.10)),
        "simple" => run_fast(&cfg, eval, &mut simple_schedule(8, 3)),
        other => {
            if let Some(n) = other.strip_prefix("static:") {
                let n: u32 = parse_num(n, "static machine count")?;
                run_fast(&cfg, eval, &mut StaticController::new(n.clamp(1, 10)))
            } else {
                return Err(format!(
                    "unknown strategy `{other}` (pstore|oracle|reactive|static:N|simple)"
                ));
            }
        }
    };
    println!("strategy        : {}", r.strategy);
    println!("simulated       : {days} day(s), peak {PEAK_TXN_RATE:.0} txn/s");
    println!("avg machines    : {:.2}", r.avg_machines());
    println!("% time short    : {:.3}", r.pct_insufficient());
    println!("reconfigurations: {}", r.reconfigurations);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing_accepts_allowed_and_rejects_unknown() {
        let args = s(&["--days", "3", "--seed", "7"]);
        let flags = parse_flags(&args, &["days", "seed"]).unwrap();
        assert_eq!(get_flag(&flags, "days"), Some("3"));
        assert_eq!(get_flag(&flags, "seed"), Some("7"));
        assert!(parse_flags(&args, &["days"]).is_err());
        assert!(parse_flags(&s(&["--days"]), &["days"]).is_err());
        assert!(parse_flags(&s(&["days", "3"]), &["days"]).is_err());
    }

    #[test]
    fn plan_command_round_trips() {
        cmd_plan(&s(&[
            "--load",
            "150,150,400,400",
            "--start",
            "2",
            "--q",
            "100",
            "--max",
            "8",
        ]))
        .unwrap();
        assert!(cmd_plan(&s(&[])).is_err()); // --load required
        assert!(cmd_plan(&s(&["--load", "1,x"])).is_err());
    }

    #[test]
    fn schedule_command_validates() {
        cmd_schedule(&s(&["3", "14"])).unwrap();
        assert!(cmd_schedule(&s(&["3"])).is_err());
        assert!(cmd_schedule(&s(&["0", "4"])).is_err());
    }

    #[test]
    fn simulate_rejects_unknown_strategy() {
        assert!(cmd_simulate(&s(&["--strategy", "nonsense", "--days", "1"])).is_err());
    }
}
