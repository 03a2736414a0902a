//! Bit-level pins of the synthetic B2W load curve.
//!
//! Every experiment that replays months of B2W-style load starts from
//! `B2wLoadModel::generate`, and the SPAR fits, plans and figures downstream
//! read its values bit for bit. The literals below were recorded before the
//! generator tabulated its minute-of-day shape and looked promotions up by
//! day; a faster generator must give the same bits.

use pstore_forecast::generators::B2wLoadModel;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn generated_curves_are_pinned() {
    let (black_friday, days) = B2wLoadModel::four_and_a_half_months(7);
    assert_eq!(
        days, 135,
        "Black Friday (day 115) must lie inside the curve"
    );
    // A promotion on every day, so the lookup by day is exercised on each.
    let daily_promos = B2wLoadModel {
        seed: 3,
        promos_per_day: 1.0,
        ..B2wLoadModel::default()
    };
    let models = [
        ("four_and_a_half_months(7)", black_friday, days),
        ("default", B2wLoadModel::default(), 35),
        ("promos_per_day = 1", daily_promos, 21),
    ];
    let got = models.map(|(name, model, days)| {
        let curve = model.generate(days);
        assert_eq!(curve.len(), days * 1440, "{name}");
        (name, fnv(curve.values()))
    });
    let pinned = [
        ("four_and_a_half_months(7)", 0x5a0a_29ee_bee6_bcd7_u64),
        ("default", 0x44d8_5f97_589c_2eee),
        ("promos_per_day = 1", 0x184f_b123_e15b_055a),
    ];
    assert_eq!(got, pinned, "generated bits changed: {got:#x?}");
}
