//! Bit-level pins of the SPAR regression and the least-squares solver.
//!
//! The literals below were recorded on the commit *before* the refit was
//! moved onto retained buffers and the Householder loop was reordered into
//! row-major passes; only the set-up of this file may change afterwards.
//! Coefficients feed forecasts, forecasts feed the planner, and one flipped
//! bit can move `avg_machines` — so "numerically close" is not the contract
//! here, "the same bits" is.

use pstore_forecast::generators::B2wLoadModel;
use pstore_forecast::linalg::{lstsq, ridge, Matrix};
use pstore_forecast::model::LoadPredictor;
use pstore_forecast::spar::{SparConfig, SparModel};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const TICKS_PER_DAY: usize = 288;

/// The shape of `pstore_sim::scenarios::tick_spar_config()` (this crate
/// cannot depend on the simulator): five-minute ticks, daily period.
fn tick_shape() -> SparConfig {
    SparConfig {
        period: TICKS_PER_DAY,
        n_periods: 7,
        m_recent: 6,
        taus: vec![1, 3, 6, 12],
        ridge_lambda: 1e-4,
        max_rows: 20_000,
    }
}

#[test]
fn spar_fit_and_forecast_bits_are_pinned() {
    let (model, _) = B2wLoadModel::four_and_a_half_months(7);
    let ticks = model.generate(70).downsample_mean(5);
    let ticks = ticks.values();
    let cfg = tick_shape();
    // `(start, length, coefficient digest, forecast digest)`. Forty days is
    // the live forecaster's `max_history` (row stride 2); the second window
    // starts off the day boundary, the third is short enough for stride 1.
    let pinned = [
        (
            0usize,
            40 * TICKS_PER_DAY,
            0x6c51_5a4c_04d8_efb7_u64,
            0xa1e6_0743_29d5_8a36_u64,
        ),
        (
            9 * TICKS_PER_DAY + 17,
            40 * TICKS_PER_DAY,
            0x2ba6_214c_c80d_8951,
            0x144c_c207_e521_b150,
        ),
        (
            30 * TICKS_PER_DAY - 101,
            20 * TICKS_PER_DAY + 5,
            0x4b09_f9e5_83cc_f96c,
            0x59c4_ee8d_c1ea_44b3,
        ),
    ];
    let got = pinned.map(|(start, len, _, _)| {
        let window = &ticks[start..start + len];
        let fitted = SparModel::fit(window, &cfg).unwrap();
        let coef = fnv(fitted
            .periodic_coefficients()
            .iter()
            .chain(fitted.recent_coefficients())
            .copied());
        (start, len, coef, fnv(fitted.predict_horizon(window, 48)))
    });
    assert_eq!(got, pinned, "got {got:#018x?}");
}

/// A fixed, full-rank 400 x 9 design with correlated columns and a target.
fn fixed_system() -> (Matrix, Vec<f64>) {
    let (rows, cols) = (400usize, 9usize);
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = || {
        // SplitMix64, mapped to [-1, 1).
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let mut a = Matrix::zeros(rows, cols);
    let mut b = Vec::with_capacity(rows);
    for r in 0..rows {
        let base = 100.0 + 40.0 * (r as f64 * 0.07).sin();
        for c in 0..cols {
            a[(r, c)] = base * (1.0 + 0.05 * next()) + c as f64;
        }
        b.push(base * 1.02 + 3.0 * next());
    }
    (a, b)
}

#[test]
fn lstsq_and_ridge_bits_are_pinned() {
    let (a, b) = fixed_system();
    let plain = fnv(lstsq(&a, &b).unwrap());
    let zero = fnv(ridge(&a, &b, 0.0).unwrap());
    let small = fnv(ridge(&a, &b, 1e-4).unwrap());
    let large = fnv(ridge(&a, &b, 2.5).unwrap());
    assert_eq!(
        (plain, zero, small, large),
        (
            0xd5ba_6983_ef22_2d36,
            0xd5ba_6983_ef22_2d36,
            0xefea_b553_a186_1965,
            0x303b_00cb_d21d_c919,
        ),
        "got ({plain:#018x}, {zero:#018x}, {small:#018x}, {large:#018x})"
    );
}
