//! Typed values, rows and keys for the in-memory storage engine.
//!
//! Strings and keys are stored inline: a [`Text`] of up to 22 bytes and a
//! [`Key`] of up to two components own no heap memory, so cloning one is a
//! copy. Every identifier of the B2W workload fits (ids run to 21 bytes),
//! which keeps the per-transaction path off the allocator; longer strings
//! and wider keys spill to the heap and behave identically.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Longest string a [`Text`] stores inline.
const INLINE_CAP: usize = 22;

/// An immutable UTF-8 string of 24 bytes that stores up to 22 bytes of text
/// inline and anything longer on the heap.
///
/// It compares, orders, hashes and prints exactly as the `str` it holds;
/// which representation holds it is decided by length alone, so equal
/// strings always have equal representations.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `buf` are the text.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// Text longer than [`INLINE_CAP`] bytes.
    Heap(Box<str>),
}

impl Text {
    /// Copies `s`.
    pub fn new(s: &str) -> Self {
        match Self::inline(s) {
            Some(text) => text,
            None => Text(Repr::Heap(s.into())),
        }
    }

    fn inline(s: &str) -> Option<Self> {
        // `len` fits `u8`: it is at most `INLINE_CAP`.
        let len = u8::try_from(s.len())
            .ok()
            .filter(|&n| usize::from(n) <= INLINE_CAP)?;
        let mut buf = [0u8; INLINE_CAP];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        Some(Text(Repr::Inline { len, buf }))
    }

    /// Builds the text `format!` would, without touching the heap when the
    /// result fits inline: `Text::format(format_args!("cart-{:012x}", id))`.
    pub fn format(args: fmt::Arguments<'_>) -> Self {
        /// Collects inline until a piece no longer fits, then in a `String`.
        struct Builder {
            len: usize,
            buf: [u8; INLINE_CAP],
            spilled: Option<String>,
        }
        impl fmt::Write for Builder {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                if let Some(heap) = &mut self.spilled {
                    heap.push_str(s);
                } else if let Some(tail) = self.buf.get_mut(self.len..self.len + s.len()) {
                    tail.copy_from_slice(s.as_bytes());
                    self.len += s.len();
                } else {
                    let mut heap = String::with_capacity(self.len + s.len());
                    heap.push_str(utf8(&self.buf[..self.len]));
                    heap.push_str(s);
                    self.spilled = Some(heap);
                }
                Ok(())
            }
        }
        let mut builder = Builder {
            len: 0,
            buf: [0u8; INLINE_CAP],
            spilled: None,
        };
        // The builder itself never fails; like `format!`, a `Display` impl
        // that reports an error it did not get from the writer is a bug in
        // that impl, and what it wrote before is kept.
        let _ = fmt::write(&mut builder, args);
        match builder.spilled {
            Some(heap) => Text::from(heap),
            None => Text::new(utf8(&builder.buf[..builder.len])),
        }
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => utf8(self.as_bytes()),
            Repr::Heap(s) => s,
        }
    }

    /// The text's bytes. Unlike [`as_str`](Self::as_str) this re-validates
    /// nothing, so comparisons and hashing go through it.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the text is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Views bytes that were copied out of `str`s, whole, as a `str` again.
fn utf8(bytes: &[u8]) -> &str {
    match std::str::from_utf8(bytes) {
        Ok(s) => s,
        Err(_) => unreachable!("inline text is only ever written from whole `str`s"),
    }
}

impl std::ops::Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text::new(s)
    }
}

impl From<&Text> for Text {
    fn from(s: &Text) -> Self {
        s.clone()
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        match Self::inline(&s) {
            Some(text) => text,
            None => Text(Repr::Heap(s.into_boxed_str())),
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            // Fixed-size comparisons, no length-dependent loop: unused
            // inline bytes are always zero.
            (Repr::Inline { len: la, buf: a }, Repr::Inline { len: lb, buf: b }) => {
                la == lb && a == b
            }
            _ => self.as_bytes() == other.as_bytes(),
        }
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    /// `str` order, which is byte order: a prefix sorts before its
    /// extensions.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (&self.0, &other.0) {
            // Zero is the smallest byte, so comparing the zero-padded
            // buffers and then the lengths orders exactly as comparing
            // the texts does, with fixed-size comparisons.
            (Repr::Inline { len: la, buf: a }, Repr::Inline { len: lb, buf: b }) => {
                a.cmp(b).then(la.cmp(lb))
            }
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

impl Hash for Text {
    /// Exactly what `str` feeds the hasher.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A typed column value.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (prices, weights). Not allowed in keys.
    Float(f64),
    /// UTF-8 string (identifiers, SKUs, status fields).
    Str(Text),
}

impl Value {
    /// Estimated in-memory size in bytes, used for migration-chunk
    /// accounting and data-distribution statistics.
    pub fn size_estimate(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 24 + s.len(),
        }
    }

    /// Serialises the value into a stable byte form for hashing.
    pub fn hash_bytes(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => out.extend_from_slice(&[1, *b as u8]),
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(4);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A primary or partitioning key: an ordered tuple of key-safe values.
///
/// Floats are rejected from keys (no total order / hash stability). Keys
/// compare, order and hash as the slice of their components, whichever
/// way they are stored.
#[derive(Clone)]
pub struct Key(Parts);

/// One- and two-component keys (every key of the B2W schema) live inline;
/// wider ones spill.
#[derive(Clone)]
enum Parts {
    One([KeyValue; 1]),
    Two([KeyValue; 2]),
    Many(Vec<KeyValue>),
}

/// A value usable inside a key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeyValue {
    /// Integer key component.
    Int(i64),
    /// String key component.
    Str(Text),
}

impl KeyValue {
    fn hash_bytes(&self, out: &mut Vec<u8>) {
        match self {
            KeyValue::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            KeyValue::Str(s) => {
                out.push(4);
                #[allow(
                    clippy::cast_possible_truncation,
                    reason = "keys are tiny; the serialised format caps strings at 4 GiB"
                )]
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Runs `f` over the stable hash bytes of this component without
    /// heap-allocating for the common case (integer keys and strings up to
    /// 59 bytes fit a stack buffer). Produces exactly the bytes
    /// [`Key::routing_bytes`] would for a single-component key — the
    /// allocation-free routing path of the per-transaction hot loop.
    pub fn with_hash_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        match self {
            KeyValue::Int(i) => {
                let mut buf = [0u8; 9];
                buf[0] = 2;
                buf[1..9].copy_from_slice(&i.to_le_bytes());
                f(&buf)
            }
            KeyValue::Str(s) if s.len() <= 59 => {
                let mut buf = [0u8; 64];
                buf[0] = 4;
                #[allow(
                    clippy::cast_possible_truncation,
                    reason = "keys are tiny; the serialised format caps strings at 4 GiB"
                )]
                buf[1..5].copy_from_slice(&(s.len() as u32).to_le_bytes());
                buf[5..5 + s.len()].copy_from_slice(s.as_bytes());
                f(&buf[..5 + s.len()])
            }
            KeyValue::Str(_) => {
                let mut out = Vec::new();
                self.hash_bytes(&mut out);
                f(&out)
            }
        }
    }

    /// Estimated in-memory size in bytes.
    pub fn size_estimate(&self) -> usize {
        match self {
            KeyValue::Int(_) => 8,
            KeyValue::Str(s) => 24 + s.len(),
        }
    }

    /// Converts back into a column [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            KeyValue::Int(i) => Value::Int(*i),
            KeyValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl Key {
    /// Builds a key from components.
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub fn new(parts: Vec<KeyValue>) -> Self {
        assert!(!parts.is_empty(), "keys must have at least one component");
        let parts = match <[KeyValue; 1]>::try_from(parts) {
            Ok(one) => return Key(Parts::One(one)),
            Err(parts) => parts,
        };
        match <[KeyValue; 2]>::try_from(parts) {
            Ok(two) => Key(Parts::Two(two)),
            Err(many) => Key(Parts::Many(many)),
        }
    }

    /// Single-component string key.
    pub fn str(s: impl Into<Text>) -> Self {
        Key(Parts::One([KeyValue::Str(s.into())]))
    }

    /// Single-component integer key.
    pub fn int(i: i64) -> Self {
        Key(Parts::One([KeyValue::Int(i)]))
    }

    /// Composite key of a string and an integer (e.g. `(cart_id, line)`).
    pub fn str_int(s: impl Into<Text>, i: i64) -> Self {
        Key(Parts::Two([KeyValue::Str(s.into()), KeyValue::Int(i)]))
    }

    /// The key components.
    pub fn parts(&self) -> &[KeyValue] {
        match &self.0 {
            Parts::One(parts) => parts,
            Parts::Two(parts) => parts,
            Parts::Many(parts) => parts,
        }
    }

    /// The first component — by convention the partitioning-key column for
    /// the B2W schema (cart id, checkout id, SKU).
    pub fn routing_part(&self) -> &KeyValue {
        &self.parts()[0]
    }

    /// Stable bytes of the *first* component, used for partition routing.
    pub fn routing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.routing_part().hash_bytes(&mut out);
        out
    }

    /// Whether `self` starts with the components of `prefix`.
    pub fn starts_with(&self, prefix: &Key) -> bool {
        self.parts().starts_with(prefix.parts())
    }

    /// Estimated in-memory size in bytes.
    pub fn size_estimate(&self) -> usize {
        self.parts().iter().map(KeyValue::size_estimate).sum()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// Lexicographic over the components, so a prefix sorts directly
    /// before the keys it is a prefix of.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.parts().cmp(other.parts())
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Key").field(&self.parts()).finish()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.parts().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match p {
                KeyValue::Int(v) => write!(f, "{v}")?,
                KeyValue::Str(v) => write!(f, "'{v}'")?,
            }
        }
        write!(f, ")")
    }
}

/// A row: a tuple of column values, shared rather than copied.
///
/// Cloning a row bumps a reference count, so a read can hand out the
/// stored row itself; [`set`](Row::set) copies the values only while
/// another holder still shares them. The row carries its modelled size,
/// which `set` keeps, so the engine's byte accounting never walks the
/// values. Reads go through `Deref<Target = [Value]>`. `Rc`, not `Arc`:
/// a cluster is single-threaded.
#[derive(Clone)]
pub struct Row {
    values: Rc<[Value]>,
    /// [`Row::modelled_size`] of `values`.
    size: usize,
}

impl Row {
    /// Builds a row in one allocation.
    pub fn new<const N: usize>(values: [Value; N]) -> Self {
        let size = Row::modelled_size(&values);
        Row {
            values: Rc::from(values),
            size,
        }
    }

    /// The modelled in-memory size of a row holding `values`: a row
    /// header and the values' estimates.
    pub fn modelled_size(values: &[Value]) -> usize {
        16 + values.iter().map(Value::size_estimate).sum::<usize>()
    }

    /// Estimated in-memory size in bytes, carried rather than measured.
    pub fn size_estimate(&self) -> usize {
        self.size
    }

    /// Writes column `col`, copying the values first if another holder
    /// shares them, and moves the modelled size by the difference.
    pub fn set(&mut self, col: usize, value: Value) {
        let held = &mut Rc::make_mut(&mut self.values)[col];
        self.size = self.size - held.size_estimate() + value.size_estimate();
        *held = value;
    }

    /// Seeded bug for the twin tests: a `set` that leaves the modelled
    /// size where it was.
    #[cfg(test)]
    pub(crate) fn set_skipping_size(&mut self, col: usize, value: Value) {
        Rc::make_mut(&mut self.values)[col] = value;
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row {
            size: Row::modelled_size(&values),
            values: values.into(),
        }
    }
}

impl std::ops::Deref for Row {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.values
    }
}

impl PartialEq for Row {
    /// The values; the size follows from them.
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Row").field(&&*self.values).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_ordering_supports_prefix_scans() {
        let a = Key::str_int("cart-1", 1);
        let b = Key::str_int("cart-1", 2);
        let c = Key::str_int("cart-2", 1);
        assert!(a < b && b < c);
        let prefix = Key::str("cart-1");
        assert!(a.starts_with(&prefix));
        assert!(b.starts_with(&prefix));
        assert!(!c.starts_with(&prefix));
    }

    #[test]
    fn text_is_three_words_and_so_is_everything_holding_one() {
        use std::mem::size_of;
        assert_eq!(size_of::<Text>(), 24);
        assert_eq!(size_of::<Value>(), 24);
        assert_eq!(size_of::<KeyValue>(), 24);
        assert!(size_of::<Key>() <= 48);
        assert_eq!(size_of::<Row>(), 24);
        fn shared_across_threads<T: Send + Sync>() {}
        shared_across_threads::<Text>();
        shared_across_threads::<Key>();
    }

    #[test]
    fn text_crosses_the_inline_boundary_without_a_trace() {
        for len in [0, 1, 21, 22, 23, 24, 59, 60, 200] {
            let s = "x".repeat(len);
            let t = Text::from(s.as_str());
            assert_eq!(t.as_str(), s);
            assert_eq!(t.len(), len);
            assert_eq!(t, Text::from(s.clone()));
            assert_eq!(format!("{t} {t:?}"), format!("{s} {s:?}"));
        }
        // A multi-byte character that would straddle the inline capacity
        // moves the whole string out, never half of it.
        let s = format!("{}€", "x".repeat(21));
        assert_eq!(Text::from(s.as_str()).as_str(), s);
        // A prefix sorts before its extensions, across the boundary and
        // through NUL bytes (inline padding is NUL) too.
        let (short, long) = ("x".repeat(22), "x".repeat(23));
        let ascending = ["", "ab", "ab\0", "ab\0\0", "w", &short, &long, "y"].map(Text::from);
        assert!(ascending.windows(2).all(|w| w[0] < w[1] && w[0] != w[1]));
    }

    #[test]
    fn text_format_writes_what_format_does() {
        // `{:012x}` is a minimum width: generator ids run to 21 bytes.
        for id in [0u64, 0xdead_beef, u64::MAX] {
            assert_eq!(
                Text::format(format_args!("cart-{id:012x}")).as_str(),
                format!("cart-{id:012x}")
            );
        }
        let long = Text::format(format_args!("{}-{:>30}-{}", "checkout", 7, "tail"));
        assert_eq!(
            long.as_str(),
            format!("{}-{:>30}-{}", "checkout", 7, "tail")
        );
        assert_eq!(long, Text::from(long.as_str()));
    }

    #[test]
    fn keys_of_any_width_order_as_their_parts() {
        let one = Key::new(vec![KeyValue::Str("a".into())]);
        let two = Key::new(vec![KeyValue::Str("a".into()), KeyValue::Int(1)]);
        let three = Key::new(vec![
            KeyValue::Str("a".into()),
            KeyValue::Int(1),
            KeyValue::Int(0),
        ]);
        assert!(one < two && two < three);
        assert!(three.starts_with(&two) && two.starts_with(&one) && !one.starts_with(&two));
        assert_eq!(one, Key::str("a"));
        assert_eq!(two, Key::str_int("a", 1));
        assert_eq!(three.parts().len(), 3);
        // Integers sort before strings.
        assert!(Key::int(i64::MAX) < Key::str(""));
        assert_eq!(format!("{two:?}"), r#"Key([Str("a"), Int(1)])"#);
    }

    #[test]
    fn routing_bytes_depend_only_on_first_component() {
        let a = Key::str_int("cart-1", 1);
        let b = Key::str_int("cart-1", 99);
        assert_eq!(a.routing_bytes(), b.routing_bytes());
        let c = Key::str_int("cart-2", 1);
        assert_ne!(a.routing_bytes(), c.routing_bytes());
    }

    #[test]
    fn value_size_estimates_are_sane() {
        assert_eq!(Value::Int(7).size_estimate(), 8);
        assert!(Value::Str("abcdef".into()).size_estimate() > 6);
        let row = Row::new([Value::Int(1), Value::Str("x".into())]);
        assert_eq!(row.size_estimate(), 16 + 8 + 25);
        assert_eq!(Row::from(row.to_vec()).size_estimate(), row.size_estimate());
    }

    #[test]
    fn a_row_is_shared_until_it_is_set_and_keeps_its_size() {
        let stored = Row::new([Value::Int(1), Value::Str("ab".into())]);
        let mut written = stored.clone();
        written.set(1, Value::Str("abcdef".into()));
        written.set(0, Value::Null);
        assert_eq!(&stored[..], &[Value::Int(1), Value::Str("ab".into())]);
        assert_eq!(&written[..], &[Value::Null, Value::Str("abcdef".into())]);
        for row in [&stored, &written] {
            assert_eq!(row.size_estimate(), Row::modelled_size(row));
        }
        assert_eq!(format!("{written:?}"), r#"Row([Null, Str("abcdef")])"#);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
        assert_eq!(Value::Int(5).as_str(), None);
    }

    #[test]
    fn hash_bytes_distinguish_types() {
        let mut a = Vec::new();
        Value::Int(1).hash_bytes(&mut a);
        let mut b = Vec::new();
        Value::Bool(true).hash_bytes(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Key::str_int("c", 2).to_string(), "('c', 2)");
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_key_rejected() {
        let _ = Key::new(vec![]);
    }
}
