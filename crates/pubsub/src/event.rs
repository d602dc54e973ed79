//! Events: the unit of dissemination.
//!
//! An [`Event`] is published once, carries a topic, a set of typed
//! attributes (for content-based filtering) and an abstract payload size
//! (for byte-level contribution accounting).
//!
//! Events are reference-counted, so keeping one — a node buffering an
//! event it sees for the first time — is an O(1) clone. Forwarding does
//! not clone per hop at all: a gossip round freezes the events it sends
//! into one [`EventBatch`], built once by the sender with its wire size
//! summed once, and every partner's message holds the same
//! `Arc<EventBatch>`. Nobody owns a batch beyond those messages; receivers
//! borrow its events, clone the few that are new to them, and the batch is
//! freed when the last message carrying it has been handled.

use crate::topic::TopicId;
use std::fmt;
use std::sync::Arc;

/// Globally unique event identifier: publishing node index + local sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    publisher: u32,
    seq: u32,
}

impl EventId {
    /// Creates an id from the publisher's node index and its local sequence
    /// number.
    pub const fn new(publisher: u32, seq: u32) -> Self {
        EventId { publisher, seq }
    }

    /// The publishing node's index.
    pub const fn publisher(self) -> u32 {
        self.publisher
    }

    /// The publisher-local sequence number.
    pub const fn seq(self) -> u32 {
        self.seq
    }

    /// Packs the id into a `u64` (publisher in the high word).
    pub const fn as_u64(self) -> u64 {
        ((self.publisher as u64) << 32) | self.seq as u64
    }

    /// Unpacks an id from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        EventId {
            publisher: (v >> 32) as u32,
            seq: v as u32,
        }
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}.{}", self.publisher, self.seq)
    }
}

/// A typed attribute value carried by an event and matched by filters.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl AttrValue {
    /// Human-readable type name, used in filter type errors.
    pub fn type_name(&self) -> &'static str {
        match self {
            AttrValue::Int(_) => "int",
            AttrValue::Float(_) => "float",
            AttrValue::Str(_) => "str",
            AttrValue::Bool(_) => "bool",
        }
    }

    /// Numeric view: ints and floats compare against each other.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Approximate encoded size in bytes, for message-size accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            AttrValue::Int(_) => 8,
            AttrValue::Float(_) => 8,
            AttrValue::Str(s) => s.len(),
            AttrValue::Bool(_) => 1,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Str(s) => write!(f, "{s:?}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

#[derive(Debug)]
struct EventInner {
    id: EventId,
    topic: TopicId,
    attrs: Vec<(String, AttrValue)>,
    payload_bytes: usize,
}

/// An immutable published event (cheap to clone).
///
/// # Examples
///
/// ```
/// use fed_pubsub::event::{Event, EventId};
/// use fed_pubsub::topic::TopicId;
///
/// let e = Event::builder(EventId::new(3, 1), TopicId::new(7))
///     .attr("symbol", "ABC")
///     .attr("price", 101.5)
///     .payload_bytes(256)
///     .build();
/// assert_eq!(e.topic(), TopicId::new(7));
/// assert!(e.size_bytes() >= 256);
/// ```
#[derive(Debug, Clone)]
pub struct Event {
    inner: Arc<EventInner>,
}

impl Event {
    /// Starts building an event.
    pub fn builder(id: EventId, topic: TopicId) -> EventBuilder {
        EventBuilder {
            id,
            topic,
            attrs: Vec::new(),
            payload_bytes: 0,
        }
    }

    /// A minimal event with no attributes and zero payload.
    pub fn bare(id: EventId, topic: TopicId) -> Self {
        Event::builder(id, topic).build()
    }

    /// The event's unique id.
    pub fn id(&self) -> EventId {
        self.inner.id
    }

    /// The topic the event was published under.
    pub fn topic(&self) -> TopicId {
        self.inner.topic
    }

    /// Attribute lookup by name.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.inner
            .attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// All attributes in insertion order.
    pub fn attrs(&self) -> &[(String, AttrValue)] {
        &self.inner.attrs
    }

    /// Abstract wire size: header + attributes + payload.
    pub fn size_bytes(&self) -> usize {
        let header = 16; // id + topic + framing
        let attrs: usize = self
            .inner
            .attrs
            .iter()
            .map(|(k, v)| k.len() + 1 + v.size_bytes())
            .sum();
        header + attrs + self.inner.payload_bytes
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.inner.id == other.inner.id
    }
}
impl Eq for Event {}
impl std::hash::Hash for Event {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.inner.id.hash(state);
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.inner.id, self.inner.topic)
    }
}

/// An immutable run of events sent together, with its wire size pre-summed.
///
/// Protocols that push the same events to several partners wrap one batch
/// in an `Arc` and share it across the messages of a round.
///
/// # Examples
///
/// ```
/// use fed_pubsub::event::{Event, EventBatch, EventId};
/// use fed_pubsub::topic::TopicId;
///
/// let batch: EventBatch = (0..3)
///     .map(|seq| Event::bare(EventId::new(1, seq), TopicId::new(0)))
///     .collect();
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.size_bytes(), 3 * 16);
/// ```
#[derive(Debug)]
pub struct EventBatch {
    events: Box<[Event]>,
    bytes: usize,
}

impl EventBatch {
    /// The batched events, in the order the sender selected them.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` for a batch without events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sum of the events' [`Event::size_bytes`], computed at construction.
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }
}

impl FromIterator<Event> for EventBatch {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        let events: Box<[Event]> = iter.into_iter().collect();
        let bytes = events.iter().map(Event::size_bytes).sum();
        EventBatch { events, bytes }
    }
}

/// Builder for [`Event`].
#[derive(Debug)]
pub struct EventBuilder {
    id: EventId,
    topic: TopicId,
    attrs: Vec<(String, AttrValue)>,
    payload_bytes: usize,
}

impl EventBuilder {
    /// Adds an attribute; later values override earlier ones with the same
    /// name at match time (first match wins on lookup, so we replace).
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
        self
    }

    /// Sets the abstract payload size in bytes.
    pub fn payload_bytes(mut self, bytes: usize) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Finishes the event.
    pub fn build(self) -> Event {
        Event {
            inner: Arc::new(EventInner {
                id: self.id,
                topic: self.topic,
                attrs: self.attrs,
                payload_bytes: self.payload_bytes,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_id_pack_roundtrip() {
        let id = EventId::new(0xDEAD, 0xBEEF);
        assert_eq!(EventId::from_u64(id.as_u64()), id);
        assert_eq!(id.publisher(), 0xDEAD);
        assert_eq!(id.seq(), 0xBEEF);
        assert_eq!(format!("{id}"), "e57005.48879");
    }

    #[test]
    fn event_id_ordering_by_publisher_then_seq() {
        assert!(EventId::new(1, 5) < EventId::new(2, 0));
        assert!(EventId::new(1, 5) < EventId::new(1, 6));
    }

    #[test]
    fn attr_value_conversions_and_types() {
        assert_eq!(AttrValue::from(3i64).type_name(), "int");
        assert_eq!(AttrValue::from(3.5f64).type_name(), "float");
        assert_eq!(AttrValue::from("x").type_name(), "str");
        assert_eq!(AttrValue::from(true).type_name(), "bool");
        assert_eq!(AttrValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(AttrValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(AttrValue::Bool(true).as_f64(), None);
        assert_eq!(AttrValue::Str("s".into()).as_f64(), None);
    }

    #[test]
    fn attr_sizes() {
        assert_eq!(AttrValue::Int(1).size_bytes(), 8);
        assert_eq!(AttrValue::Str("abcd".into()).size_bytes(), 4);
        assert_eq!(AttrValue::Bool(false).size_bytes(), 1);
    }

    #[test]
    fn builder_sets_and_overrides_attrs() {
        let e = Event::builder(EventId::new(1, 1), TopicId::new(0))
            .attr("a", 1i64)
            .attr("b", "hello")
            .attr("a", 2i64)
            .build();
        assert_eq!(e.attr("a"), Some(&AttrValue::Int(2)));
        assert_eq!(e.attr("b"), Some(&AttrValue::Str("hello".into())));
        assert_eq!(e.attr("missing"), None);
        assert_eq!(e.attrs().len(), 2);
    }

    #[test]
    fn size_includes_header_attrs_payload() {
        let bare = Event::bare(EventId::new(0, 0), TopicId::new(0));
        assert_eq!(bare.size_bytes(), 16);
        let e = Event::builder(EventId::new(0, 0), TopicId::new(0))
            .attr("k", 1i64) // 1 + 1 + 8 = 10
            .payload_bytes(100)
            .build();
        assert_eq!(e.size_bytes(), 16 + 10 + 100);
    }

    #[test]
    fn equality_is_by_id() {
        let a = Event::builder(EventId::new(1, 1), TopicId::new(0))
            .attr("x", 1i64)
            .build();
        let b = Event::bare(EventId::new(1, 1), TopicId::new(9));
        assert_eq!(a, b, "same id means same event");
        let c = Event::bare(EventId::new(1, 2), TopicId::new(0));
        assert_ne!(a, c);
    }

    #[test]
    fn clone_is_shallow() {
        let e = Event::builder(EventId::new(1, 1), TopicId::new(0))
            .payload_bytes(1_000_000)
            .build();
        let c = e.clone();
        assert!(Arc::ptr_eq(&e.inner, &c.inner));
    }

    #[test]
    fn batch_presums_size_and_keeps_order() {
        let events: Vec<Event> = (0..4u32)
            .map(|k| {
                Event::builder(EventId::new(2, k), TopicId::new(0))
                    .payload_bytes(10 * k as usize)
                    .build()
            })
            .collect();
        let batch: EventBatch = events.iter().cloned().collect();
        assert_eq!(batch.len(), 4);
        assert!(!batch.is_empty());
        assert_eq!(batch.events(), &events[..]);
        assert_eq!(
            batch.size_bytes(),
            events.iter().map(Event::size_bytes).sum::<usize>()
        );
        let empty: EventBatch = std::iter::empty().collect();
        assert!(empty.is_empty());
        assert_eq!(empty.size_bytes(), 0);
    }

    #[test]
    fn display_forms() {
        let e = Event::bare(EventId::new(2, 7), TopicId::new(4));
        assert_eq!(format!("{e}"), "e2.7@t4");
        assert_eq!(format!("{}", AttrValue::Str("hi".into())), "\"hi\"");
        assert_eq!(format!("{}", AttrValue::Int(-3)), "-3");
    }
}
