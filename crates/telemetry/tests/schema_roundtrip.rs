//! The registry-driven round trip: for every kind in the schema table, an
//! arbitrary record survives `Record` → `Event` → JSONL line →
//! `json::parse` → `Event::from_json` → `Record` unchanged. The values
//! are built from the table, so a kind added to the schema is covered
//! without touching this file.

use proptest::prelude::*;
use pstore_telemetry::{json, Event, FieldSchema, Record, Value, SCHEMA};

/// Key text exercising the `\;@` escapes of the key-version grammar.
const KEYS: [&str; 5] = ["k", "", "('c', 2)", "we;rd@key\\with(':')", r"a\;b@@"];

/// An arbitrary wire value of a schema type, drawn from `entropy`.
fn arbitrary(ty: &str, entropy: &mut impl Iterator<Item = u64>) -> Value {
    let mut next = || entropy.next().unwrap_or(0);
    match ty {
        // Counts up to 2^53, the range a JSON number carries exactly.
        "u64" => Value::U64(next() >> 11),
        // Integral floats (written `300`, read back as U64), fractions,
        // negatives.
        "f64" => match next() % 3 {
            0 => Value::F64((next() % 100_000) as f64),
            1 => Value::F64((next() % 100_000) as f64 / 7.0),
            _ => Value::F64(-((next() % 1_000) as f64) / 3.0),
        },
        "bool" => Value::Bool(next().is_multiple_of(2)),
        "str" => Value::Str(KEYS[(next() % 5) as usize].to_string()),
        "keys" => {
            let n = next() % 4;
            let entries = (0..n).map(|_| {
                let key = KEYS[(next() % 5) as usize].to_string();
                (next() % 9, key, next() >> 11)
            });
            Value::Str(pstore_telemetry::encode_key_versions(
                entries.collect::<Vec<_>>(),
            ))
        }
        other => panic!("schema type {other:?} has no generator"),
    }
}

/// An arbitrary wire event of one kind: required fields always, optional
/// ones sometimes, in schema order.
fn arbitrary_event(
    kind: &str,
    fields: &[FieldSchema],
    entropy: &mut impl Iterator<Item = u64>,
) -> Event {
    let mut ev = Event::new(kind);
    for f in fields {
        if f.ty == "any" {
            // The dynamic payload of `metrics_snapshot` holds wire values
            // as they are, and a line normalises those (an integral float
            // returns as an integer — typed `f64` fields absorb that, raw
            // values cannot), so it is fed counts and proper fractions.
            for i in 0..entropy.next().unwrap_or(0) % 4 {
                let value = match arbitrary("u64", entropy) {
                    Value::U64(n) if i % 2 == 1 => Value::F64((n % 100_000) as f64 + 0.5),
                    count => count,
                };
                ev.fields.push((format!("metric.{i}"), value));
            }
        } else if f.required || entropy.next().unwrap_or(0).is_multiple_of(2) {
            ev.fields
                .push((f.name.to_string(), arbitrary(f.ty, entropy)));
        }
    }
    ev
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_kind_round_trips_through_a_jsonl_line(
        entropy in prop::collection::vec(any::<u64>(), 64..65),
    ) {
        for kind in SCHEMA {
            let mut entropy = entropy.iter().copied().cycle();
            let wire = arbitrary_event(kind.kind, kind.fields, &mut entropy);
            let record = Record::decode(&wire)
                .unwrap_or_else(|e| panic!("{e}\n  event: {wire:?}"));
            // Encoding is the inverse of decoding on schema-ordered events...
            prop_assert_eq!(&record.encode(), &wire);
            // ...and the record survives the file format, where fields
            // come back in alphabetical order (`Json::Obj` is a BTreeMap)
            // and an integral float comes back as an integer.
            let line = wire.to_json_line();
            let parsed = json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let back = Event::from_json(&parsed).unwrap_or_else(|e| panic!("{e}: {line}"));
            let decoded = Record::decode(&back).unwrap_or_else(|e| panic!("{e}: {line}"));
            prop_assert_eq!(&decoded, &record, "line: {}", line);
        }
    }
}
