//! Structured events: the wire-level [`Event`] every sink records, and
//! the one schema of what the instrumented crates put in it.
//!
//! An [`Event`] is a `kind` string plus a flat list of typed fields, with
//! a global sequence number (a total order even when the sim clock
//! stalls) and the simulated-time stamp current at emission. It is what
//! sinks, [`Event::to_json_line`] / [`Event::from_json`] and the replay
//! path ([`crate::forward`]) work on.
//!
//! What a kind *means* — its fields in wire order, their types, which are
//! optional — is declared once, in the [`schema!`] invocation below. To
//! add a kind, add one entry there and nothing else: the typed record,
//! its encoder and decoder, its [`Record`] variant, its [`kinds`]
//! constant and its row in docs/observability.md (`pstore-trace schema`)
//! all follow. Emission sites build the typed record
//! ([`crate::emit`]); analysers and checkers fold over decoded
//! [`Entry`]s and never look a field up by name.

use crate::json::{self, Json};
use std::fmt::Write as _;

/// A typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, ids, slots, bytes).
    U64(u64),
    /// Signed integer (deltas).
    I64(i64),
    /// Floating point (latencies, rates, costs).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (names, reasons).
    Str(String),
}

impl Value {
    /// The value as `u64` if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        #[allow(
            clippy::cast_precision_loss,
            reason = "telemetry readout, 2^53 is ample"
        )]
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global monotonic sequence number (total order across a run).
    pub seq: u64,
    /// Simulated time in seconds, if a clock was set when emitting.
    pub t: Option<f64>,
    /// Stable event kind; one of the [`kinds`] constants.
    pub kind: String,
    /// Flat key/value payload, in insertion order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Creates an event of `kind` with no fields (seq and t filled at
    /// emit).
    pub fn new(kind: &str) -> Self {
        Event {
            seq: 0,
            t: None,
            kind: kind.to_string(),
            fields: Vec::new(),
        }
    }

    /// Builder-style field append.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field as `u64`, if present and unsigned.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(Value::as_u64)
    }

    /// Field as `f64`, if present and numeric.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(Value::as_f64)
    }

    /// Field as `&str`, if present and a string.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(Value::as_str)
    }

    /// Serialises the event as a single-line JSON object.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + 24 * self.fields.len());
        out.push_str("{\"seq\":");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.seq));
        if let Some(t) = self.t {
            out.push_str(",\"t\":");
            json::write_f64(&mut out, t);
        }
        out.push_str(",\"kind\":");
        json::write_str(&mut out, &self.kind);
        for (k, v) in &self.fields {
            out.push(',');
            json::write_str(&mut out, k);
            out.push(':');
            match v {
                Value::U64(n) => {
                    let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{n}"));
                }
                Value::I64(n) => {
                    let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{n}"));
                }
                Value::F64(n) => json::write_f64(&mut out, *n),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Str(s) => json::write_str(&mut out, s),
            }
        }
        out.push('}');
        out
    }

    /// Parses an event back from a JSON object produced by
    /// [`Event::to_json_line`].
    ///
    /// Numbers that are non-negative integers parse as [`Value::U64`];
    /// negative integers as [`Value::I64`]; everything else as
    /// [`Value::F64`]. Unknown shapes (nested arrays/objects) are
    /// rejected — trace lines are flat by construction.
    ///
    /// # Errors
    /// Returns a description of the structural problem when the object
    /// is missing `seq`/`kind` or holds a non-scalar field.
    pub fn from_json(value: &Json) -> Result<Event, String> {
        let obj = value.as_obj().ok_or("trace line is not a JSON object")?;
        let seq = obj
            .get("seq")
            .and_then(Json::as_num)
            .ok_or("missing numeric \"seq\"")?;
        if seq < 0.0 || seq.fract() != 0.0 {
            return Err("\"seq\" is not a non-negative integer".to_string());
        }
        let kind = obj
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing string \"kind\"")?
            .to_string();
        let t = match obj.get("t") {
            Some(Json::Num(n)) => Some(*n),
            Some(Json::Null) | None => None,
            Some(_) => return Err("\"t\" is not a number".to_string()),
        };
        let mut fields = Vec::new();
        for (k, v) in obj {
            if k == "seq" || k == "t" || k == "kind" {
                continue;
            }
            let value = match v {
                Json::Num(n) => num_to_value(*n),
                Json::Bool(b) => Value::Bool(*b),
                Json::Str(s) => Value::Str(s.clone()),
                Json::Null => Value::F64(f64::NAN),
                Json::Arr(_) | Json::Obj(_) => {
                    return Err(format!("field \"{k}\" is not a scalar"));
                }
            };
            fields.push((k.clone(), value));
        }
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "checked non-negative integral above"
        )]
        let seq = seq as u64;
        Ok(Event {
            seq,
            t,
            kind,
            fields,
        })
    }
}

/// Encodes a key-level version history for a `txn_rwset` field (`rset` /
/// `wset`): each `(table, key, version)` entry renders as
/// `table:key@version` and entries are joined with `;`. Key text is
/// escaped (`\` → `\\`, `;` → `\;`, `@` → `\@`) so arbitrary key
/// displays round-trip; the table id and version are plain decimal.
/// Event fields are flat scalars by contract ([`Event::from_json`]
/// rejects arrays), so set-valued payloads ride in strings.
pub fn encode_key_versions(entries: impl IntoIterator<Item = (u64, String, u64)>) -> String {
    let mut out = String::new();
    for (table, key, version) in entries {
        if !out.is_empty() {
            out.push(';');
        }
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{table}:"));
        for c in key.chars() {
            if matches!(c, '\\' | ';' | '@') {
                out.push('\\');
            }
            out.push(c);
        }
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("@{version}"));
    }
    out
}

/// Decodes a string produced by [`encode_key_versions`] back into
/// `(table, key, version)` entries. The empty string decodes to an empty
/// list (an empty access set encodes to `""`).
///
/// # Errors
/// Returns a description of the malformed entry when the text does not
/// follow the `table:key@version` grammar.
pub fn parse_key_versions(text: &str) -> Result<Vec<(u64, String, u64)>, String> {
    let mut entries = Vec::new();
    if text.is_empty() {
        return Ok(entries);
    }
    let mut chars = text.chars().peekable();
    loop {
        // table id: decimal digits up to ':'
        let mut table_digits = String::new();
        for c in chars.by_ref() {
            if c == ':' {
                break;
            }
            table_digits.push(c);
        }
        let table: u64 = table_digits
            .parse()
            .map_err(|_| format!("bad table id {table_digits:?} in key-version entry"))?;
        // key: escaped text up to an unescaped '@'
        let mut key = String::new();
        let mut terminated = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some(esc) => key.push(esc),
                    None => return Err("dangling escape in key-version entry".to_string()),
                },
                '@' => {
                    terminated = true;
                    break;
                }
                other => key.push(other),
            }
        }
        if !terminated {
            return Err(format!("key-version entry for key {key:?} has no version"));
        }
        // version: decimal digits up to an (unescapable) ';' or the end
        let mut version_digits = String::new();
        let mut more = false;
        for c in chars.by_ref() {
            if c == ';' {
                more = true;
                break;
            }
            version_digits.push(c);
        }
        let version: u64 = version_digits
            .parse()
            .map_err(|_| format!("bad version {version_digits:?} in key-version entry"))?;
        entries.push((table, key, version));
        if !more {
            return Ok(entries);
        }
    }
}

/// A non-negative whole number below 2^53 as a count — exactly the numbers
/// a JSONL trace reads back as [`Value::U64`] (`300.0` is written `300`).
pub fn whole(n: f64) -> Option<u64> {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "guarded: integral, in-range, non-negative"
    )]
    (n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n)).then_some(n as u64)
}

fn num_to_value(n: f64) -> Value {
    if let Some(count) = whole(n) {
        Value::U64(count)
    } else if n.fract() == 0.0 && (-9_007_199_254_740_992.0..0.0).contains(&n) {
        #[allow(clippy::cast_possible_truncation, reason = "integral, in i64 range")]
        Value::I64(n as i64)
    } else {
        Value::F64(n)
    }
}

/// A `usize` count as the `u64` every count field carries (lossless on
/// every supported target).
pub fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A known kind whose payload does not match its schema entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// The event kind being decoded.
    pub kind: &'static str,
    /// The offending field.
    pub field: &'static str,
    /// The type the schema declares for it.
    pub expected: &'static str,
    /// What the event carried instead; `None` when the field is missing.
    pub found: Option<Value>,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let DecodeError {
            kind,
            field,
            expected,
            found,
        } = self;
        match found {
            None => write!(
                f,
                "{kind}: required field \"{field}\" ({expected}) is missing"
            ),
            Some(v) => write!(f, "{kind}: field \"{field}\" is not {expected}: {v:?}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One `(table, key, version)` entry of a `txn_rwset` key-version list.
pub type KeyVersion = (u64, String, u64);

/// A field type of the schema: how one value rides in a wire [`Value`].
trait Scalar: Sized {
    const TYPE: &'static str;
    fn to_value(&self) -> Value;
    fn from_value(v: &Value) -> Option<Self>;
}

/// `scalar!(type, name in the docs, into a wire value, out of one)`.
macro_rules! scalar {
    ($t:ty, $name:literal, $to:expr, $from:expr) => {
        impl Scalar for $t {
            const TYPE: &'static str = $name;
            fn to_value(&self) -> Value {
                $to(self)
            }
            fn from_value(v: &Value) -> Option<Self> {
                $from(v)
            }
        }
    };
}
scalar!(u64, "u64", |v: &u64| Value::U64(*v), Value::as_u64);
scalar!(f64, "f64", |v: &f64| Value::F64(*v), Value::as_f64);
scalar!(bool, "bool", |v: &bool| Value::Bool(*v), Value::as_bool);
scalar!(
    String,
    "str",
    |v: &String| Value::Str(v.clone()),
    |v: &Value| v.as_str().map(str::to_string)
);
scalar!(
    Vec<KeyVersion>,
    "keys",
    |v: &Vec<KeyVersion>| Value::Str(encode_key_versions(v.iter().cloned())),
    |v: &Value| parse_key_versions(v.as_str()?).ok()
);

/// A record field: a required scalar, an optional one, or (for
/// `metrics_snapshot`) the whole dynamic payload.
trait Slot: Sized {
    const TYPE: &'static str;
    const REQUIRED: bool;
    fn put(&self, ev: &mut Event, name: &str);
    fn get(ev: &Event, kind: &'static str, name: &'static str) -> Result<Self, DecodeError>;
}

impl<T: Scalar> Slot for T {
    const TYPE: &'static str = T::TYPE;
    const REQUIRED: bool = true;
    fn put(&self, ev: &mut Event, name: &str) {
        ev.fields.push((name.to_string(), self.to_value()));
    }
    fn get(ev: &Event, kind: &'static str, name: &'static str) -> Result<Self, DecodeError> {
        match Option::<T>::get(ev, kind, name)? {
            Some(v) => Ok(v),
            None => Err(DecodeError {
                kind,
                field: name,
                expected: T::TYPE,
                found: None,
            }),
        }
    }
}

impl<T: Scalar> Slot for Option<T> {
    const TYPE: &'static str = T::TYPE;
    const REQUIRED: bool = false;
    fn put(&self, ev: &mut Event, name: &str) {
        if let Some(v) = self {
            v.put(ev, name);
        }
    }
    fn get(ev: &Event, kind: &'static str, name: &'static str) -> Result<Self, DecodeError> {
        let Some(value) = ev.field(name) else {
            return Ok(None);
        };
        match T::from_value(value) {
            Some(v) => Ok(Some(v)),
            None => Err(DecodeError {
                kind,
                field: name,
                expected: T::TYPE,
                found: Some(value.clone()),
            }),
        }
    }
}

/// The dynamic payload of `metrics_snapshot` — every field of the event,
/// in wire order. Only meaningful as the sole field of a kind.
impl Slot for Vec<(String, Value)> {
    const TYPE: &'static str = "any";
    const REQUIRED: bool = false;
    fn put(&self, ev: &mut Event, _name: &str) {
        ev.fields.extend(self.iter().cloned());
    }
    fn get(ev: &Event, _kind: &'static str, _name: &'static str) -> Result<Self, DecodeError> {
        Ok(ev.fields.clone())
    }
}

/// One field of a kind, as the schema declares it.
#[derive(Debug, Clone, Copy)]
pub struct FieldSchema {
    /// Field name on the wire.
    pub name: &'static str,
    /// `u64`, `f64`, `bool`, `str`, `keys` (an encoded key-version list)
    /// or `any` (the dynamic payload of `metrics_snapshot`).
    pub ty: &'static str,
    /// Whether decoding fails without it.
    pub required: bool,
    /// The field's doc line.
    pub doc: &'static str,
}

/// One event kind, as the schema declares it.
#[derive(Debug, Clone, Copy)]
pub struct KindSchema {
    /// Stable kind string.
    pub kind: &'static str,
    /// The kind's doc lines.
    pub doc: &'static str,
    /// Fields in wire order.
    pub fields: &'static [FieldSchema],
}

/// Declares every event kind once. From each entry follow the
/// [`kinds`] constant, the typed record, its encoder into and decoder out
/// of the wire-level [`Event`], its [`Record`] variant and its row of
/// [`SCHEMA`] (which `pstore-trace schema` renders into
/// docs/observability.md).
macro_rules! schema {
    ($(
        $(#[doc = $kdoc:literal])+
        $konst:ident = $kind:literal => $rec:ident {
            $( $field:ident : $ty:ty = $fdoc:literal ),+ $(,)?
        }
    )+) => {
        /// Stable event-kind names: the contract between the instrumented
        /// crates, the JSONL traces on disk, `pstore-trace` and the
        /// checkers of `pstore-verify`. Add kinds freely (one [`schema!`]
        /// entry); never rename one.
        pub mod kinds {
            $( $(#[doc = $kdoc])+ pub const $konst: &str = $kind; )+
        }

        $(
            $(#[doc = $kdoc])+
            #[derive(Debug, Clone, PartialEq, Default)]
            pub struct $rec {
                $( #[doc = $fdoc] pub $field: $ty, )+
            }

            impl From<$rec> for Record {
                fn from(record: $rec) -> Record {
                    Record::$rec(record)
                }
            }
        )+

        /// One decoded event: the typed record of its kind. Kinds the
        /// schema does not declare are tolerated and kept whole.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Record {
            $( #[doc = concat!("A `", $kind, "` event.")] $rec($rec), )+
            /// An event of an undeclared kind.
            Unknown(Event),
        }

        impl Record {
            /// Decodes the payload of `ev` by its kind. Unknown kinds and
            /// unknown extra fields are tolerated.
            ///
            /// # Errors
            /// A required field of a known kind is missing, or a declared
            /// field holds a value of another type.
            pub fn decode(ev: &Event) -> Result<Record, DecodeError> {
                match ev.kind.as_str() {
                    $( $kind => Ok(Record::$rec($rec {
                        $( $field: Slot::get(ev, $kind, stringify!($field))?, )+
                    })), )+
                    _ => Ok(Record::Unknown(ev.clone())),
                }
            }

            /// The wire-level event (unstamped), fields in schema order.
            pub fn encode(&self) -> Event {
                match self {
                    $( Record::$rec(r) => {
                        let mut ev = Event::new($kind);
                        $( r.$field.put(&mut ev, stringify!($field)); )+
                        ev
                    } )+
                    Record::Unknown(ev) => ev.clone(),
                }
            }

            /// The record's kind string.
            pub fn kind(&self) -> &str {
                match self {
                    $( Record::$rec(_) => $kind, )+
                    Record::Unknown(ev) => &ev.kind,
                }
            }
        }

        /// Every declared kind with its fields in wire order.
        pub const SCHEMA: &[KindSchema] = &[ $( KindSchema {
            kind: $kind,
            doc: concat!($($kdoc),+),
            fields: &[ $( FieldSchema {
                name: stringify!($field),
                ty: <$ty as Slot>::TYPE,
                required: <$ty as Slot>::REQUIRED,
                doc: $fdoc,
            }, )+ ],
        }, )+ ];
    };
}

schema! {
    /// A span opened (the engine's and fast simulator's `reconfig`, the
    /// other spans of `SpanName`).
    SPAN_BEGIN = "span_begin" => SpanBegin {
        id: u64 = "Process-unique span id (> 0); pairs the begin with its end.",
        name: String = "Span name; the instrumented crates use `SpanName` only.",
        from: Option<u64> = "`reconfig` spans: machine count before the move.",
        to: Option<u64> = "`reconfig` spans: machine count after the move.",
        seed: Option<u64> = "`work` spans: the probe cell's seed.",
    }
    /// A span closed; ends must nest LIFO (`TEL-01`/`TEL-02`).
    SPAN_END = "span_end" => SpanEnd {
        id: u64 = "The id of the matching `span_begin`.",
        name: String = "The span's name, as on its begin.",
        truncated: Option<bool> = "`true` when the run ended with the span's work unfinished.",
    }
    /// One chunk migrated (`Cluster::migrate_chunk`).
    CHUNK_MOVE = "chunk_move" => ChunkMove {
        from: u64 = "Source node (0-based).",
        to: u64 = "Destination node (0-based).",
        slot: u64 = "The slot the chunk belongs to.",
        bytes: u64 = "Bytes moved.",
        rows: u64 = "Rows moved.",
        slot_completed: bool = "Whether this chunk emptied the slot on the source.",
    }
    /// One DP planner invocation (`Planner::best_moves`).
    PLANNER = "planner" => Planner {
        horizon: u64 = "Planning horizon in intervals.",
        n0: u64 = "Machines at the start of the horizon.",
        feasible: bool = "Whether a feasible plan exists.",
        cost: Option<f64> = "Cost of the chosen plan in machine-intervals (feasible plans only).",
        end_machines: Option<u64> = "Machines at the end of the chosen plan (feasible plans only).",
    }
    /// A forecaster refit attempt (`OnlinePredictor`).
    FORECAST_RETRAIN = "forecast_retrain" => ForecastRetrain {
        history: u64 = "Measurements in the training window.",
        ok: bool = "Whether the fit succeeded.",
    }
    /// A forecast emitted (`OnlinePredictor::forecast`).
    FORECAST_PREDICT = "forecast_predict" => ForecastPredict {
        horizon: u64 = "Intervals predicted.",
        peak: f64 = "Largest predicted load on the curve.",
    }
    /// A controller's scaling decision, suppressed ones included (P-Store
    /// and reactive controllers).
    SCALE_DECISION = "scale_decision" => ScaleDecision {
        interval: u64 = "Monitoring interval of the decision.",
        machines: u64 = "Machines at decision time.",
        target: u64 = "Machines asked for.",
        rate: f64 = "Migration-rate multiplier asked for.",
        reason: String = "`planned`, `emergency`, `scale-in-suppressed`, `reactive-out` or `reactive-in`.",
    }
    /// One second of the detailed simulator's latency record
    /// (`LatencyRecorder::flush_second`).
    SECOND = "second" => Second {
        second: u64 = "Second index since the start of the run.",
        throughput: u64 = "Transactions completed in the second.",
        p50: f64 = "Median latency of the second, seconds.",
        p95: f64 = "95th-percentile latency, seconds.",
        p99: f64 = "99th-percentile latency, seconds (the SLA is `p99 <= 0.5`).",
        mean: f64 = "Mean latency, seconds.",
        machines: f64 = "Machines allocated during the second (fractional mid-move).",
        reconfiguring: bool = "Whether a reconfiguration was in flight.",
        attr_total: f64 = "Txn-seconds completed: `attr_queue + attr_exec + attr_stall` exactly (`TEL-06`).",
        attr_queue: f64 = "Txn-seconds spent queueing.",
        attr_exec: f64 = "Txn-seconds spent executing.",
        attr_stall: f64 = "Txn-seconds spent waiting behind chunk-migration bursts.",
        win_p50: f64 = "Median latency over the trailing 30 s window.",
        win_p95: f64 = "95th percentile over the trailing 30 s window.",
        win_p99: f64 = "99th percentile over the trailing 30 s window.",
    }
    /// A second whose p99 exceeded the 500 ms SLA (`LatencyRecorder`).
    SLA_VIOLATION = "sla_violation" => SlaViolation {
        second: u64 = "Second index.",
        p99: f64 = "The violating p99, seconds.",
    }
    /// A skew observation over the cluster's partitions (detailed
    /// simulator, each monitor tick).
    SKEW_SAMPLE = "skew_sample" => SkewSample {
        metric: String = "`skew.access` or `skew.data`.",
        partitions: u64 = "Partitions summarised.",
        max_over_mean: f64 = "Largest partition over the mean.",
        stddev_over_mean: f64 = "Standard deviation over the mean.",
    }
    /// A migration schedule planned (`MigrationSchedule::plan`).
    SCHEDULE_PLANNED = "schedule_planned" => SchedulePlanned {
        from: u64 = "Machines before.",
        to: u64 = "Machines after.",
        rounds: u64 = "Rounds in the schedule.",
    }
    /// The end-of-run registry dump (`emit_metrics_snapshot`).
    METRICS_SNAPSHOT = "metrics_snapshot" => MetricsSnapshot {
        values: Vec<(String, Value)> = "One field per counter and gauge, `<name>.count/.p50/.p95/.p99/.max` per histogram.",
    }
    /// A sampled transaction entered the system (detailed simulator).
    TXN_ARRIVE = "txn_arrive" => TxnArrive {
        id: u64 = "Arrival sequence number; keys the transaction's other events.",
        slot: u64 = "The slot its routing key hashes to.",
    }
    /// A sampled transaction's wait before executing (detailed simulator).
    TXN_QUEUE = "txn_queue" => TxnQueue {
        id: u64 = "Transaction id.",
        wait: f64 = "Total wait, seconds.",
        stall: f64 = "The share of the wait spent behind chunk-migration bursts, seconds.",
    }
    /// Emitted beside `txn_queue` when its stall share is non-zero.
    TXN_STALL = "txn_stall" => TxnStall {
        id: u64 = "Transaction id.",
        stall: f64 = "Migration-interference wait, seconds.",
    }
    /// A sampled transaction began executing (detailed simulator).
    TXN_EXECUTE = "txn_execute" => TxnExecute {
        id: u64 = "Transaction id.",
        service: f64 = "Service time, seconds.",
    }
    /// Terminal: a sampled transaction committed (detailed simulator).
    TXN_COMMIT = "txn_commit" => TxnCommit {
        id: u64 = "Transaction id.",
        total: f64 = "End-to-end latency: `queue + exec + stall` exactly (`TEL-06`).",
        queue: f64 = "Pure queueing, seconds.",
        exec: f64 = "Execution, seconds.",
        stall: f64 = "Migration interference, seconds.",
        end: f64 = "Completion time (sim seconds).",
    }
    /// Terminal: a sampled transaction aborted or was shed at the client
    /// timeout (detailed simulator).
    TXN_ABORT = "txn_abort" => TxnAbort {
        id: u64 = "Transaction id.",
        total: f64 = "End-to-end latency: `queue + exec + stall` exactly (`TEL-06`).",
        queue: f64 = "Pure queueing, seconds.",
        exec: f64 = "Execution, seconds.",
        stall: f64 = "Migration interference, seconds.",
        end: f64 = "Completion time (sim seconds).",
        reason: Option<String> = "`timeout` (shed, never executed) or `business` (procedure abort).",
    }
    /// A sampled transaction touched migrating data and was rerouted to
    /// the destination partition, Squall-style (`Cluster`).
    TXN_RESTART = "txn_restart" => TxnRestart {
        id: u64 = "Transaction id.",
        slot: u64 = "The migrating slot.",
    }
    /// A sampled transaction's read/write set, recorded when it ends
    /// (`Cluster`).
    TXN_RWSET = "txn_rwset" => TxnRwset {
        id: u64 = "Transaction id.",
        slot: u64 = "The slot it executed on.",
        proc: String = "Stored-procedure name.",
        reads: u64 = "Rows read.",
        writes: u64 = "Rows written.",
        dest_reads: u64 = "Reads resolved against a migration destination.",
        dest_writes: u64 = "Writes resolved against a migration destination.",
        migrating: bool = "Whether the slot was migrating.",
        restarted: bool = "Whether any access was rerouted to the destination.",
        committed: bool = "Whether the procedure committed.",
        rset: Option<Vec<KeyVersion>> = "With version tracking on: `table:key@version-read` per read, `;`-joined.",
        wset: Option<Vec<KeyVersion>> = "With version tracking on: `table:key@version-installed` per write.",
    }
    /// Header of a run's provisioning record (both simulators, with
    /// `TraceSpec::prov`).
    PROV_RUN = "prov_run" => ProvRun {
        q: f64 = "Per-machine capacity Q, txn/s.",
        d_s: f64 = "Migration lead time D, seconds.",
        interval_s: f64 = "Monitoring interval, seconds.",
        initial: u64 = "Machines the run starts with.",
        policy: String = "Strategy name.",
    }
    /// One monitoring interval as the control loop saw it (`PRV-01`
    /// integrates these).
    PROV_INTERVAL = "prov_interval" => ProvInterval {
        interval: u64 = "Interval index.",
        observed: f64 = "Load measured over the interval, txn/s.",
        machines: u64 = "Machines active during it.",
        reconfiguring: bool = "Whether a move was in flight.",
    }
    /// A forecast joined with the observation it targeted, once per
    /// (model, horizon, interval) (`PRV-03`).
    PROV_FORECAST = "prov_forecast" => ProvForecast {
        interval: u64 = "The interval that was predicted.",
        horizon: u64 = "How many intervals ahead the prediction was made.",
        model: String = "Forecasting model name.",
        predicted: f64 = "Predicted load (raw, uninflated).",
        observed: f64 = "Load measured for the interval.",
    }
    /// Why a controller asked for a new machine count.
    PROV_DECISION = "prov_decision" => ProvDecision {
        id: u64 = "Decision id, 1-based per controller; joins `prov_reconfig` and `prov_chunk`.",
        interval: u64 = "Monitoring interval of the decision.",
        machines: u64 = "Machines at decision time.",
        target: u64 = "Machines asked for.",
        reason: String = "`planned`, `emergency`, `reactive-out` or `reactive-in`.",
        trigger: f64 = "The load that tripped the decision.",
        peak: f64 = "Predicted peak that sized it.",
        cost: f64 = "DP plan cost (0 when no plan was involved).",
        lead: u64 = "Intervals between the decision and the demand it provisions for (0 = reactive).",
        rate: f64 = "Migration-rate multiplier asked for.",
    }
    /// A completed reconfiguration, attributed to its decision (`PRV-02`).
    PROV_RECONFIG = "prov_reconfig" => ProvReconfig {
        id: u64 = "The `prov_decision` id (0 = unattributed).",
        from: u64 = "Machines before.",
        to: u64 = "Machines after.",
        start: f64 = "Sim time the move began.",
        duration_s: f64 = "Sim seconds it took.",
        chunks: u64 = "Chunks migrated.",
        rows: u64 = "Rows migrated.",
        bytes: u64 = "Bytes migrated.",
    }
    /// One chunk-move burst attributed to a decision (detailed simulator).
    PROV_CHUNK = "prov_chunk" => ProvChunk {
        id: u64 = "The `prov_decision` id.",
        from: u64 = "Source node.",
        to: u64 = "Destination node.",
        bytes: u64 = "Bytes moved.",
    }
}

/// Declares the span names the instrumented crates may open: the enum,
/// its wire strings and the table `pstore-trace schema` renders.
macro_rules! span_names {
    ($( $(#[doc = $doc:literal])+ $variant:ident = $name:literal ),+ $(,)?) => {
        /// The span names of the instrumented crates (`name` of
        /// `span_begin`/`span_end`). Trace readers tolerate any name; the
        /// emitting API takes only these, so the vocabulary is enumerable.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum SpanName {
            $( $(#[doc = $doc])+ $variant, )+
        }

        impl SpanName {
            /// The name as it appears on the wire.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( SpanName::$variant => $name, )+
                }
            }
        }

        /// Every span name with its doc lines.
        pub const SPAN_NAMES: &[(&str, &str)] = &[ $( ($name, concat!($($doc),+)), )+ ];
    };
}

span_names! {
    /// One reconfiguration, from the first chunk to commit (begin carries `from`, `to`).
    Reconfig = "reconfig",
    /// One DP planner invocation (`crates/core/src/planner.rs`).
    PlannerDp = "planner_dp",
    /// A whole fast-simulator run; a top-level one delimits a run for `slo` and `provisioning`.
    FastSim = "fast_sim",
    /// A whole detailed-simulator run; likewise a run boundary.
    DetailedSim = "detailed_sim",
    /// The detailed simulator's warm-up phase (excluded from reported latencies).
    Warmup = "warmup",
    /// One controller tick of the detailed simulator.
    Tick = "tick",
    /// One chunk-granularity migration step inside a `reconfig` span.
    ChunkStep = "chunk_step",
    /// Per-cell unit of work in the sweep's own tests.
    Work = "work",
}

impl SpanBegin {
    /// The begin of span `id` named `name`, without extras.
    pub fn new(id: u64, name: impl Into<String>) -> Self {
        SpanBegin {
            id,
            name: name.into(),
            ..SpanBegin::default()
        }
    }

    /// The begin of `reconfig` span `id`, moving `from` → `to` machines.
    pub fn reconfig(id: u64, from: u64, to: u64) -> Self {
        SpanBegin {
            from: Some(from),
            to: Some(to),
            ..SpanBegin::new(id, SpanName::Reconfig)
        }
    }
}

impl SpanEnd {
    /// The end of span `id` named `name`.
    pub fn new(id: u64, name: impl Into<String>) -> Self {
        SpanEnd {
            id,
            name: name.into(),
            truncated: None,
        }
    }
}

impl From<SpanName> for String {
    fn from(name: SpanName) -> String {
        name.as_str().to_string()
    }
}

impl PartialEq<SpanName> for String {
    fn eq(&self, name: &SpanName) -> bool {
        self == name.as_str()
    }
}

/// One entry of a decoded trace: an event's stamps plus its typed record.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Global sequence number.
    pub seq: u64,
    /// Simulated time in seconds, if a clock was set when emitting.
    pub t: Option<f64>,
    /// The decoded payload.
    pub record: Record,
}

impl Entry {
    /// An unstamped entry (tests and synthetic traces).
    pub fn new(record: impl Into<Record>) -> Entry {
        Entry {
            seq: 0,
            t: None,
            record: record.into(),
        }
    }

    /// An entry stamped with sim time `t`.
    pub fn at(t: f64, record: impl Into<Record>) -> Entry {
        Entry {
            t: Some(t),
            ..Entry::new(record)
        }
    }

    /// Decodes one wire-level event.
    ///
    /// # Errors
    /// See [`Record::decode`].
    pub fn decode(ev: &Event) -> Result<Entry, DecodeError> {
        Ok(Entry {
            seq: ev.seq,
            t: ev.t,
            record: Record::decode(ev)?,
        })
    }

    /// The wire-level event this entry encodes to, stamps included.
    pub fn to_event(&self) -> Event {
        Event {
            seq: self.seq,
            t: self.t,
            ..self.record.encode()
        }
    }
}

/// Decodes an in-memory trace: the entries that decode, and the `seq` and
/// error of each event that does not.
pub fn decode_trace(events: &[Event]) -> (Vec<Entry>, Vec<(u64, DecodeError)>) {
    let mut entries = Vec::with_capacity(events.len());
    let mut errors = Vec::new();
    for ev in events {
        match Entry::decode(ev) {
            Ok(entry) => entries.push(entry),
            Err(e) => errors.push((ev.seq, e)),
        }
    }
    (entries, errors)
}

/// Renders [`SCHEMA`] and [`SPAN_NAMES`] as the markdown tables of
/// docs/observability.md (`pstore-trace schema` prints this; `--check`
/// compares it with the text between the file's schema markers).
pub fn schema_markdown() -> String {
    fn one_line(doc: &str) -> String {
        doc.split_whitespace().collect::<Vec<_>>().join(" ")
    }
    let mut out =
        String::from("| kind | field | type | meaning |\n|------|-------|------|---------|\n");
    for kind in SCHEMA {
        let _ = writeln!(out, "| `{}` | | | {} |", kind.kind, one_line(kind.doc));
        for f in kind.fields {
            let optional = if f.required { "" } else { "?" };
            let _ = writeln!(
                out,
                "| | `{}` | {}{optional} | {} |",
                f.name,
                f.ty,
                one_line(f.doc)
            );
        }
    }
    out.push_str("\n| span name | meaning |\n|-----------|---------|\n");
    for (name, doc) in SPAN_NAMES {
        let _ = writeln!(out, "| `{name}` | {} |", one_line(doc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_round_trip() {
        let mut ev = Event::new(kinds::CHUNK_MOVE)
            .with("from", 3u64)
            .with("to", 7u64)
            .with("bytes", 1_048_576u64)
            .with("frac", 0.25)
            .with("done", true)
            .with("why", "scale-out");
        ev.seq = 42;
        ev.t = Some(12.5);
        let line = ev.to_json_line();
        let parsed = Event::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.seq, 42);
        assert_eq!(parsed.t, Some(12.5));
        assert_eq!(parsed.kind, kinds::CHUNK_MOVE);
        assert_eq!(parsed.field_u64("from"), Some(3));
        assert_eq!(parsed.field_u64("bytes"), Some(1_048_576));
        assert_eq!(parsed.field_f64("frac"), Some(0.25));
        assert_eq!(parsed.field("done").and_then(Value::as_bool), Some(true));
        assert_eq!(parsed.field_str("why"), Some("scale-out"));
    }

    #[test]
    fn from_json_rejects_structural_problems() {
        let bad = crate::json::parse(r#"{"kind":"x"}"#).unwrap();
        assert!(Event::from_json(&bad).is_err());
        let nested = crate::json::parse(r#"{"seq":1,"kind":"x","a":[1]}"#).unwrap();
        assert!(Event::from_json(&nested).is_err());
        let arr = crate::json::parse("[1,2]").unwrap();
        assert!(Event::from_json(&arr).is_err());
    }

    #[test]
    fn key_versions_round_trip_with_escaping() {
        let entries = vec![
            (0u64, "('c', 2)".to_string(), 3u64),
            (5, "we;rd@key\\with(':')".to_string(), 0),
            (1, String::new(), 17),
        ];
        let encoded = encode_key_versions(entries.clone());
        assert_eq!(parse_key_versions(&encoded).unwrap(), entries);
        // Empty set round-trips through the empty string.
        assert_eq!(encode_key_versions(Vec::new()), "");
        assert_eq!(parse_key_versions("").unwrap(), Vec::new());
        // The plain shape is human-readable.
        assert_eq!(encode_key_versions(vec![(2, "k".to_string(), 9)]), "2:k@9");
    }

    #[test]
    fn key_versions_reject_malformed_entries() {
        assert!(parse_key_versions("x:k@1").is_err()); // non-numeric table
        assert!(parse_key_versions("1:k@").is_err()); // missing version
        assert!(parse_key_versions("1:k").is_err()); // no version separator
        assert!(parse_key_versions("1:k\\").is_err()); // dangling escape
        assert!(parse_key_versions("1:k@2;").is_err()); // trailing empty entry
    }

    /// One test per error shape: a required field missing, a field of
    /// another type, a key-version list off its grammar — each names kind,
    /// field and expected type. Optional fields may be absent; unknown
    /// extras and unknown kinds are tolerated.
    #[test]
    fn decode_errors_name_kind_field_and_type() {
        let arrive = Event::new(kinds::TXN_ARRIVE).with("id", 7u64);
        assert_eq!(
            Record::decode(&arrive),
            Err(DecodeError {
                kind: "txn_arrive",
                field: "slot",
                expected: "u64",
                found: None,
            })
        );
        let err = Record::decode(&arrive.clone().with("slot", 1.5)).unwrap_err();
        assert_eq!(err.found, Some(Value::F64(1.5)));
        assert_eq!(
            err.to_string(),
            "txn_arrive: field \"slot\" is not u64: F64(1.5)"
        );
        assert_eq!(
            Record::decode(&arrive.clone().with("slot", 3u64).with("extra", true)),
            Ok(TxnArrive { id: 7, slot: 3 }.into())
        );

        let rwset = Record::from(TxnRwset::default()).encode();
        assert!(matches!(
            Record::decode(&rwset),
            Ok(Record::TxnRwset(TxnRwset { rset: None, .. }))
        ));
        let err = Record::decode(&rwset.with("rset", "no-grammar")).unwrap_err();
        assert_eq!((err.field, err.expected), ("rset", "keys"));

        let unknown = Event::new("experimental").with("x", 1u64);
        assert_eq!(Record::decode(&unknown), Ok(Record::Unknown(unknown)));
    }

    #[test]
    fn schema_tables_render_every_kind_and_span_name() {
        let text = schema_markdown();
        for kind in SCHEMA {
            assert!(
                text.contains(&format!("| `{}` |", kind.kind)),
                "{}",
                kind.kind
            );
        }
        assert!(text.contains("| | `rset` | keys? |"));
        assert!(text.contains("| `chunk_step` |"));
        assert!(text.lines().all(|l| l.is_empty() || l.starts_with('|')));
    }

    #[test]
    fn negative_integers_parse_as_i64() {
        let v = crate::json::parse(r#"{"seq":0,"kind":"x","d":-5}"#).unwrap();
        let ev = Event::from_json(&v).unwrap();
        assert_eq!(ev.field("d"), Some(&Value::I64(-5)));
    }
}
