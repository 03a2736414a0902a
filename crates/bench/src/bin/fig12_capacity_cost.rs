//! Fig 12: the capacity–cost trade-off of five allocation strategies
//! simulated over 4.5 months of B2W-style load (August–December including
//! Black Friday). Each point is one full simulation; sweeping the buffer
//! knob (Q for P-Store, headroom for reactive, cluster sizes for the
//! schedule/static baselines) traces each strategy's capacity-cost curve.
//! Cost is normalised to the default P-Store SPAR run, as in the paper.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: setup failure aborts with a message; the ban is for library code"
)]
use pstore_bench::sweep::{Cell, Sweep};
use pstore_bench::{section, RunReporter};
use pstore_core::params::SystemParams;
use pstore_forecast::generators::B2wLoadModel;
use pstore_sim::fast::{run_fast, FastSimConfig, FastSimResult};
use pstore_sim::scenarios::{
    pstore_oracle_fast, pstore_spar_fast, reactive_fast, simple_schedule, static_alloc,
    PEAK_TXN_RATE, TRAINING_DAYS,
};
use std::sync::Arc;

struct Point {
    strategy: &'static str,
    knob: String,
    cost: f64,
    pct_short: f64,
    avg_machines: f64,
    reconfigs: u64,
}

fn point(strategy: &'static str, knob: String, r: &FastSimResult) -> Point {
    Point {
        strategy,
        knob,
        cost: r.cost_machine_slots,
        pct_short: r.pct_insufficient(),
        avg_machines: r.avg_machines(),
        reconfigs: r.reconfigurations,
    }
}

fn main() {
    let reporter = RunReporter::from_args();
    let quick = reporter.quick();
    let eval_days = if quick { 21 } else { 107 }; // 4.5 months = 28 + 107
    let (model, _) = B2wLoadModel::four_and_a_half_months(0x0812);
    let raw = model.generate(TRAINING_DAYS + eval_days);
    let eval_start = TRAINING_DAYS * 1440;
    // Scale so a *normal* peak sits at PEAK_TXN_RATE; Black Friday goes
    // beyond it, which is the point of the experiment.
    let normal_peak = raw.values()[eval_start..eval_start + 14 * 1440]
        .iter()
        .copied()
        .fold(0.0, f64::max);
    let scaled = raw.scaled(PEAK_TXN_RATE / normal_peak);
    let train: Arc<Vec<f64>> = Arc::new(scaled.values()[..eval_start].to_vec());
    let eval: Arc<Vec<f64>> = Arc::new(scaled.values()[eval_start..].to_vec());

    let params = SystemParams::b2w_paper();
    let cfg = FastSimConfig {
        params: params.clone(),
        slot_duration_s: 60.0,
        tick_every_slots: 5,
        record_timeline: false,
    };

    // One sweep cell per strategy/knob combination; every cell re-derives
    // its controller from the shared (read-only) train/eval curves, so the
    // cells are independent and the grid order fixes the output order.
    let mut cells: Vec<Cell<Point>> = Vec::new();
    let q_sweep = [200.0, 230.0, 260.0, 285.0, 310.0, 335.0];
    for &q in &q_sweep {
        let (cfg, params, eval) = (cfg.clone(), params.clone(), Arc::clone(&eval));
        cells.push(Cell::new(format!("oracle Q={q:.0}"), move || {
            let mut s = pstore_oracle_fast(&eval, &params, q);
            let r = run_fast(&cfg, &eval, &mut s);
            point("P-Store Oracle", format!("Q={q:.0}"), &r)
        }));
    }
    for &q in &q_sweep {
        let (cfg, params) = (cfg.clone(), params.clone());
        let (train, eval) = (Arc::clone(&train), Arc::clone(&eval));
        cells.push(Cell::new(format!("spar Q={q:.0}"), move || {
            let mut s = pstore_spar_fast(&train, eval[0], &params, q);
            let r = run_fast(&cfg, &eval, &mut s);
            point("P-Store SPAR", format!("Q={q:.0}"), &r)
        }));
    }
    for headroom in [0.05, 0.15, 0.3, 0.5, 0.8] {
        let (cfg, params, eval) = (cfg.clone(), params.clone(), Arc::clone(&eval));
        cells.push(Cell::new(
            format!("reactive buf={headroom:.2}"),
            move || {
                let mut s = reactive_fast(eval[0], &params, headroom);
                let r = run_fast(&cfg, &eval, &mut s);
                point("Reactive", format!("buf={headroom:.2}"), &r)
            },
        ));
    }
    for (day, night) in [(6u32, 2u32), (8, 3), (10, 4), (10, 6)] {
        let (cfg, eval) = (cfg.clone(), Arc::clone(&eval));
        cells.push(Cell::new(format!("simple {day}/{night}"), move || {
            let mut s = simple_schedule(day, night);
            let r = run_fast(&cfg, &eval, &mut s);
            point("Simple", format!("{day}/{night}"), &r)
        }));
    }
    for n in [2u32, 4, 6, 8, 10] {
        let (cfg, eval) = (cfg.clone(), Arc::clone(&eval));
        cells.push(Cell::new(format!("static n={n}"), move || {
            let mut s = static_alloc(n);
            let r = run_fast(&cfg, &eval, &mut s);
            point("Static", format!("n={n}"), &r)
        }));
    }

    let sweep = Sweep::from_reporter(&reporter);
    reporter.progress(&format!(
        "simulating {} strategy/knob combinations over {eval_days} days on {} thread(s)...",
        cells.len(),
        sweep.threads().min(cells.len())
    ));
    let points = sweep.run(cells);

    // Normalise cost to the default P-Store SPAR point (Q = 285).
    let base = points
        .iter()
        .find(|p| p.strategy == "P-Store SPAR" && p.knob == "Q=285")
        .map(|p| p.cost)
        .expect("default point present");

    section("Fig 12: % of time with insufficient capacity vs normalised cost");
    println!(
        "{:<16} {:>8} {:>12} {:>14} {:>10} {:>9}",
        "strategy", "knob", "cost (norm)", "% time short", "avg mach", "moves"
    );
    for p in &points {
        println!(
            "{:<16} {:>8} {:>12.3} {:>14.3} {:>10.2} {:>9}",
            p.strategy,
            p.knob,
            p.cost / base,
            p.pct_short,
            p.avg_machines,
            p.reconfigs
        );
    }

    section("Shape checks against the paper");
    let best = |name: &str| -> (f64, f64) {
        points
            .iter()
            .filter(|p| p.strategy == name)
            .map(|p| (p.cost / base, p.pct_short))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.total_cmp(&b.0)))
            .unwrap_or((f64::MAX, f64::MAX))
    };
    let spar_default = points
        .iter()
        .find(|p| p.strategy == "P-Store SPAR" && p.knob == "Q=285")
        .unwrap();
    let oracle_default = points
        .iter()
        .find(|p| p.strategy == "P-Store Oracle" && p.knob == "Q=285")
        .unwrap();
    println!(
        "P-Store SPAR default: cost 1.000, {:.3}% short (oracle: {:.3}, {:.3}%)",
        spar_default.pct_short,
        oracle_default.cost / base,
        oracle_default.pct_short
    );
    println!(
        "best reactive point   : cost {:.3}, {:.3}% short",
        best("Reactive").0,
        best("Reactive").1
    );
    println!(
        "best static point     : cost {:.3}, {:.3}% short",
        best("Static").0,
        best("Static").1
    );
    println!();
    println!("expected (paper): the P-Store curves dominate — for any level");
    println!("of capacity shortfall they cost less than reactive, Simple or");
    println!("Static; the oracle is a slightly better frontier than SPAR;");
    println!("reactive can match P-Store's shortfall only at much higher");
    println!("cost; Static is the worst frontier.");

    reporter.finish();
}
