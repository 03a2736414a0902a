//! Seeded synthetic load generators.
//!
//! The paper evaluates on proprietary B2W Digital transaction logs and on
//! Wikipedia page-view dumps. Neither dataset ships with this repository, so
//! these generators synthesise statistically equivalent aggregate load
//! curves (see DESIGN.md §1 for the substitution argument):
//!
//! * [`B2wLoadModel`] — per-minute online-retail load: diurnal wave with a
//!   ~10x peak-to-trough ratio (Fig 1), weekly seasonality, day-to-day
//!   amplitude drift, persistent multiplicative noise, occasional promotion
//!   spikes, and an optional Black-Friday surge (§8.3).
//! * [`WikipediaLoadModel`] — hourly page-view load for an English-like
//!   (strongly periodic) and German-like (noisier) edition (Fig 6).
//! * [`sine_demand`] — the idealised sinusoidal demand of Fig 2.

use crate::series::TimeSeries;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::f64::consts::PI;
use std::time::Duration;

const MINUTES_PER_DAY: usize = 1440;

/// Draws a standard normal variate via Box–Muller.
fn randn(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

/// Configuration for the synthetic B2W-style retail load.
#[derive(Debug, Clone)]
pub struct B2wLoadModel {
    /// RNG seed; equal seeds give identical traces.
    pub seed: u64,
    /// Trough (overnight) load in requests per minute.
    pub trough: f64,
    /// Peak (afternoon) load in requests per minute.
    pub peak: f64,
    /// Relative weekly modulation amplitude (weekends vs weekdays).
    pub weekly_amplitude: f64,
    /// Standard deviation of the per-day amplitude factor.
    pub daily_jitter: f64,
    /// Standard deviation of the persistent multiplicative noise.
    pub noise_sigma: f64,
    /// AR(1) persistence of the multiplicative noise in (0, 1).
    pub noise_persistence: f64,
    /// Probability that a day has a promotion spike. A day has at most
    /// one, so values of 1 and above put one on every day.
    pub promos_per_day: f64,
    /// Day indices (0-based) that receive a Black-Friday style surge.
    pub black_friday_days: Vec<usize>,
    /// Peak multiplier of the Black-Friday surge.
    pub black_friday_boost: f64,
}

impl Default for B2wLoadModel {
    fn default() -> Self {
        B2wLoadModel {
            seed: 0xB2B2,
            trough: 2_500.0,
            peak: 25_000.0,
            weekly_amplitude: 0.08,
            daily_jitter: 0.09,
            noise_sigma: 0.07,
            noise_persistence: 0.985,
            promos_per_day: 0.3,
            black_friday_days: Vec::new(),
            black_friday_boost: 2.6,
        }
    }
}

impl B2wLoadModel {
    /// Generates `days` of per-minute load.
    pub fn generate(&self, days: usize) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = days * MINUTES_PER_DAY;

        // Per-day amplitude factors, interpolated at minute granularity so
        // midnight has no discontinuity.
        let day_factors: Vec<f64> = (0..=days)
            .map(|_| 1.0 + self.daily_jitter * randn(&mut rng))
            .collect();

        // Promotion bumps: at most one per day, drawn in shopping hours. It
        // starts between 09:00 and 21:00 and lasts 30–179 minutes, so it
        // ends before midnight and is the only promotion its day's minutes
        // can fall in. (start minute of the day, duration, boost)
        let promos: Vec<Option<(usize, usize, f64)>> = (0..days)
            .map(|_| {
                (rng.random_range(0.0..1.0) < self.promos_per_day).then(|| {
                    let start = rng.random_range(9 * 60..21 * 60);
                    let dur = rng.random_range(30..180);
                    let boost = rng.random_range(0.25..0.8);
                    debug_assert!(start + dur < MINUTES_PER_DAY);
                    (start, dur, boost)
                })
            })
            .collect();

        // Diurnal wave: trough near 04:00, peak near 16:00. It depends on
        // the minute of the day alone, so it is worked out once per minute.
        let diurnal: Vec<f64> = (0..MINUTES_PER_DAY)
            .map(|m| {
                let minute = m as f64;
                let phase = 2.0 * PI * (minute - 4.0 * 60.0) / MINUTES_PER_DAY as f64;
                let s = (1.0 - phase.cos()) / 2.0; // 0 at 04:00, 1 at 16:00
                self.trough + (self.peak - self.trough) * s.powf(1.15)
            })
            .collect();

        let mut noise = 0.0f64;
        let rho = self.noise_persistence;
        let innov = self.noise_sigma * (1.0 - rho * rho).sqrt();

        let mut values = Vec::with_capacity(n);
        for (day, &promo) in promos.iter().enumerate() {
            // Weekly modulation (days 5, 6 of each week slightly lower).
            let weekly = match day % 7 {
                5 => 1.0 - self.weekly_amplitude,
                6 => 1.0 - 0.6 * self.weekly_amplitude,
                _ => 1.0 + 0.2 * self.weekly_amplitude,
            };
            let black_friday = self.black_friday_days.contains(&day);

            for (m, &base) in diurnal.iter().enumerate() {
                let minute = m as f64;
                let mut load = base * weekly;

                // Smoothly interpolated per-day amplitude drift.
                let frac = minute / MINUTES_PER_DAY as f64;
                let amp = day_factors[day] * (1.0 - frac) + day_factors[day + 1] * frac;
                load *= amp;

                // Persistent multiplicative noise.
                noise = rho * noise + innov * randn(&mut rng);
                load *= (1.0 + noise).max(0.05);

                // Promotion bump (raised-cosine shape).
                if let Some((start, dur, boost)) = promo {
                    if m >= start && m < start + dur {
                        let x = (m - start) as f64 / dur as f64;
                        load *= 1.0 + boost * (PI * x).sin();
                    }
                }

                // Black Friday: sharp morning ramp, sustained surge all day.
                if black_friday {
                    let h = minute / 60.0;
                    let surge = if h < 6.0 {
                        1.0 + 0.3 * (h / 6.0)
                    } else {
                        // Ramp to the full boost by 10:00, hold through midnight.
                        let ramp = ((h - 6.0) / 4.0).min(1.0);
                        1.3 + (self.black_friday_boost - 1.3) * ramp
                    };
                    load *= surge;
                }

                values.push(load.max(0.0));
            }
        }
        TimeSeries::new(Duration::from_secs(60), values)
    }

    /// Convenience: the paper's §8.3 window — 4.5 months with Black Friday
    /// near the end (day 115 of 135) and periodic promotions.
    pub fn four_and_a_half_months(seed: u64) -> (Self, usize) {
        let model = B2wLoadModel {
            seed,
            promos_per_day: 0.2,
            black_friday_days: vec![115],
            ..B2wLoadModel::default()
        };
        (model, 135)
    }
}

/// Which Wikipedia-like edition to synthesise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WikipediaEdition {
    /// English-like: high volume, strongly periodic.
    English,
    /// German-like: lower volume, less periodic (larger stochastic part).
    German,
}

/// Configuration for the synthetic hourly Wikipedia page-view load.
#[derive(Debug, Clone)]
pub struct WikipediaLoadModel {
    /// RNG seed.
    pub seed: u64,
    /// Which edition profile to use.
    pub edition: WikipediaEdition,
}

impl WikipediaLoadModel {
    /// Creates a model for the given edition.
    pub fn new(edition: WikipediaEdition, seed: u64) -> Self {
        WikipediaLoadModel { seed, edition }
    }

    /// Generates `days` of hourly page-view counts.
    pub fn generate(&self, days: usize) -> TimeSeries {
        let (base, diurnal_amp, weekly_amp, noise_sigma, rho, burst_rate): (
            f64,
            f64,
            f64,
            f64,
            f64,
            f64,
        ) = match self.edition {
            // Fig 6a: EN peaks near 9-10M req/hour; DE near 2-2.5M.
            WikipediaEdition::English => (7.0e6, 0.30, 0.05, 0.02, 0.9, 0.02),
            WikipediaEdition::German => (1.5e6, 0.40, 0.12, 0.07, 0.8, 0.08),
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = days * 24;
        let mut noise = 0.0f64;
        let innov = noise_sigma * (1.0 - rho * rho).sqrt();

        // Occasional news bursts (more common / larger for the German-like
        // series to lower its predictability).
        let mut bursts: Vec<(usize, usize, f64)> = Vec::new();
        for day in 0..days {
            if rng.random_range(0.0..1.0) < burst_rate * 24.0 {
                let start = day * 24 + rng.random_range(0..24);
                let dur = rng.random_range(2..8);
                let boost = rng.random_range(0.1..0.5);
                bursts.push((start, dur, boost));
            }
        }

        let mut values = Vec::with_capacity(n);
        for t in 0..n {
            let hour = (t % 24) as f64;
            let day = t / 24;
            // Peak evening readership ~20:00, trough ~05:00.
            let phase = 2.0 * PI * (hour - 5.0) / 24.0;
            let s = (1.0 - phase.cos()) / 2.0;
            let mut load = base * (1.0 + diurnal_amp * (2.0 * s - 1.0));

            let dow = day % 7;
            let weekly = if dow >= 5 {
                1.0 - weekly_amp
            } else {
                1.0 + 0.3 * weekly_amp
            };
            load *= weekly;

            noise = rho * noise + innov * randn(&mut rng);
            load *= (1.0 + noise).max(0.1);

            for &(start, dur, boost) in &bursts {
                if t >= start && t < start + dur {
                    let x = (t - start) as f64 / dur as f64;
                    load *= 1.0 + boost * (PI * x).sin();
                }
            }
            values.push(load.max(0.0));
        }
        TimeSeries::new(Duration::from_secs(3600), values)
    }
}

/// The idealised sinusoidal demand curve of Fig 2: per-minute load with the
/// given mean, relative amplitude and period in minutes.
pub fn sine_demand(minutes: usize, mean: f64, amplitude: f64, period_min: usize) -> TimeSeries {
    assert!(period_min > 0, "period must be positive");
    let values = (0..minutes)
        .map(|t| mean * (1.0 + amplitude * (2.0 * PI * t as f64 / period_min as f64).sin()))
        .collect();
    TimeSeries::new(Duration::from_secs(60), values)
}

/// A day of B2W-style load with a large *unexpected* spike, used by the
/// Fig 11 experiment (reaction to mispredicted flash crowds).
///
/// Returns the series; the spike starts at `spike_start_min` and ramps to
/// `spike_factor` times the baseline within `ramp_min` minutes, holding for
/// `hold_min` minutes before decaying.
pub fn day_with_unexpected_spike(
    seed: u64,
    spike_start_min: usize,
    ramp_min: usize,
    hold_min: usize,
    spike_factor: f64,
) -> TimeSeries {
    let base = B2wLoadModel {
        seed,
        ..B2wLoadModel::default()
    }
    .generate(1);
    let mut values = base.values().to_vec();
    for (t, v) in values.iter_mut().enumerate() {
        if t < spike_start_min {
            continue;
        }
        let dt = t - spike_start_min;
        let mult = if dt < ramp_min {
            1.0 + (spike_factor - 1.0) * dt as f64 / ramp_min as f64
        } else if dt < ramp_min + hold_min {
            spike_factor
        } else {
            let decay = (dt - ramp_min - hold_min) as f64 / ramp_min.max(1) as f64;
            1.0 + (spike_factor - 1.0) * (-decay).exp()
        };
        *v *= mult;
    }
    TimeSeries::new(Duration::from_secs(60), values)
}

/// A repeating flash-sale load: a low base with one sharp daily surge —
/// the load shape whose rise is much faster than any migration, used by
/// the effective-capacity ablation and stress tests.
///
/// Per day: `base` txn/s except a surge of `peak` txn/s starting at
/// `surge_start_min`, ramping over `ramp_min` minutes and holding for
/// `hold_min`.
pub fn flash_sale_load(
    days: usize,
    base: f64,
    peak: f64,
    surge_start_min: usize,
    ramp_min: usize,
    hold_min: usize,
) -> TimeSeries {
    assert!(peak >= base, "peak must be at least base");
    assert!(
        surge_start_min + ramp_min + hold_min <= MINUTES_PER_DAY,
        "surge must fit in a day"
    );
    let values = (0..days * MINUTES_PER_DAY)
        .map(|m| {
            let of_day = m % MINUTES_PER_DAY;
            if of_day >= surge_start_min && of_day < surge_start_min + ramp_min {
                let f = (of_day - surge_start_min) as f64 / ramp_min.max(1) as f64;
                base + (peak - base) * f
            } else if of_day >= surge_start_min + ramp_min
                && of_day < surge_start_min + ramp_min + hold_min
            {
                peak
            } else {
                base
            }
        })
        .collect();
    TimeSeries::new(Duration::from_secs(60), values)
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests assert exact rational arithmetic on tiny values"
    )]
    use super::*;
    use crate::metrics::mre;
    use crate::model::LoadPredictor;
    use crate::spar::{SparConfig, SparModel};

    #[test]
    fn b2w_load_has_ten_x_peak_to_trough() {
        // Fig 1 shows each day peaking at roughly 10x its own trough.
        // Measure the same-day ratio on a smoothed curve (noise damped)
        // and check the median day sits in the ~10x band.
        let s = B2wLoadModel::default().generate(7);
        let sm = s.smoothed(61);
        let mut ratios: Vec<f64> = (0..7)
            .map(|d| {
                let day = sm.slice(d * MINUTES_PER_DAY, (d + 1) * MINUTES_PER_DAY);
                day.max() / day.min().max(1.0)
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[3];
        assert!(
            (6.0..18.0).contains(&median),
            "median same-day peak/trough ratio {median} outside the ~10x band ({ratios:?})"
        );
    }

    #[test]
    fn b2w_load_is_deterministic_per_seed() {
        let a = B2wLoadModel::default().generate(2);
        let b = B2wLoadModel::default().generate(2);
        assert_eq!(a, b);
        let c = B2wLoadModel {
            seed: 99,
            ..B2wLoadModel::default()
        }
        .generate(2);
        assert_ne!(a, c);
    }

    #[test]
    fn b2w_load_peaks_in_the_afternoon() {
        let s = B2wLoadModel::default().generate(3);
        let day = &s.values()[MINUTES_PER_DAY..2 * MINUTES_PER_DAY];
        let peak_minute = day
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let hour = peak_minute / 60;
        assert!(
            (11..22).contains(&hour),
            "peak at hour {hour}, expected daytime"
        );
        let trough_minute = day
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let trough_hour = trough_minute / 60;
        assert!(
            trough_hour <= 8 || trough_hour >= 23,
            "trough at hour {trough_hour}, expected night"
        );
    }

    #[test]
    fn black_friday_day_dwarfs_regular_days() {
        let model = B2wLoadModel {
            black_friday_days: vec![2],
            ..B2wLoadModel::default()
        };
        let s = model.generate(4);
        let day_max = |d: usize| {
            s.values()[d * MINUTES_PER_DAY..(d + 1) * MINUTES_PER_DAY]
                .iter()
                .copied()
                .fold(0.0, f64::max)
        };
        assert!(day_max(2) > 1.8 * day_max(1));
        assert!(day_max(2) > 1.8 * day_max(3));
    }

    #[test]
    fn b2w_load_is_spar_predictable() {
        // The headline requirement: SPAR achieves low double-digit MRE at
        // tau = 60 on this load, as in Fig 5 (10.4%).
        let s = B2wLoadModel::default().generate(35);
        let cfg = SparConfig::b2w_default();
        let train_len = 28 * MINUTES_PER_DAY;
        let model = SparModel::fit(&s.values()[..train_len], &cfg).unwrap();
        let mut preds = Vec::new();
        let mut actuals = Vec::new();
        let mut t = train_len;
        while t + 60 < s.len() {
            preds.push(model.predict(&s.values()[..t], 60));
            actuals.push(s.values()[t - 1 + 60]);
            t += 37; // subsample origins for test speed
        }
        let err = mre(&preds, &actuals).unwrap();
        assert!(err < 0.15, "SPAR tau=60 MRE on synthetic B2W: {err}");
    }

    #[test]
    fn wikipedia_english_more_predictable_than_german() {
        let days = 42;
        let train_days = 28;
        let mut errs = Vec::new();
        for edition in [WikipediaEdition::English, WikipediaEdition::German] {
            let s = WikipediaLoadModel::new(edition, 7).generate(days);
            let cfg = SparConfig {
                period: 24,
                n_periods: 7,
                m_recent: 12,
                taus: vec![1, 2, 3],
                ridge_lambda: 1e-4,
                max_rows: 10_000,
            };
            let train_len = train_days * 24;
            let model = SparModel::fit(&s.values()[..train_len], &cfg).unwrap();
            let mut preds = Vec::new();
            let mut actuals = Vec::new();
            for t in train_len..s.len() - 2 {
                preds.push(model.predict(&s.values()[..t], 2));
                actuals.push(s.values()[t + 1]);
            }
            errs.push(mre(&preds, &actuals).unwrap());
        }
        assert!(errs[0] < errs[1], "EN should be more predictable: {errs:?}");
        assert!(
            errs[1] < 0.15,
            "DE error should stay under ~13-15%: {errs:?}"
        );
    }

    #[test]
    fn wikipedia_volumes_match_paper_scale() {
        let en = WikipediaLoadModel::new(WikipediaEdition::English, 1).generate(7);
        let de = WikipediaLoadModel::new(WikipediaEdition::German, 1).generate(7);
        assert!(en.max() > 8.0e6 && en.max() < 1.3e7, "EN max {}", en.max());
        assert!(de.max() > 1.5e6 && de.max() < 3.5e6, "DE max {}", de.max());
    }

    #[test]
    fn sine_demand_shape() {
        let s = sine_demand(100, 10.0, 0.5, 100);
        assert!((s.values()[0] - 10.0).abs() < 1e-9);
        assert!((s.max() - 15.0).abs() < 0.1);
        assert!((s.min() - 5.0).abs() < 0.1);
    }

    #[test]
    fn flash_sale_shape() {
        let s = flash_sale_load(2, 800.0, 2_800.0, 600, 10, 180);
        assert_eq!(s.len(), 2 * 1440);
        assert_eq!(s.values()[0], 800.0);
        assert_eq!(s.values()[599], 800.0);
        assert_eq!(s.values()[605], 800.0 + 2_000.0 * 0.5);
        assert_eq!(s.values()[700], 2_800.0);
        assert_eq!(s.values()[800], 800.0);
        // Second day repeats.
        assert_eq!(s.values()[1440 + 700], 2_800.0);
    }

    #[test]
    fn unexpected_spike_reaches_factor() {
        let plain = B2wLoadModel {
            seed: 5,
            ..B2wLoadModel::default()
        }
        .generate(1);
        let spiked = day_with_unexpected_spike(5, 600, 30, 120, 2.5);
        // During the hold window the spiked series is ~2.5x the plain one.
        let t = 700;
        let ratio = spiked.values()[t] / plain.values()[t];
        assert!((ratio - 2.5).abs() < 1e-6, "ratio {ratio}");
        // Before the spike the two series agree.
        assert_eq!(spiked.values()[100], plain.values()[100]);
    }
}
