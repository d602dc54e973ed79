//! Events: the unit of dissemination.
//!
//! An [`Event`] is published once and carries an id, a topic and an
//! abstract payload size (for byte-level contribution accounting).
//!
//! Events are 16-byte `Copy` values, so keeping one — a node buffering an
//! event it sees for the first time — copies those bytes and touches no
//! shared count. A gossip round freezes the events it sends into one
//! [`EventBatch`], built once by the sender with its wire size summed
//! once, and every partner's message holds the same `Arc<EventBatch>`: the
//! batch is the one shared allocation per round. Nobody owns a batch
//! beyond those messages; receivers borrow its events, copy the few that
//! are new to them, and the batch is freed when the last message carrying
//! it has been handled.

use crate::topic::TopicId;
use std::fmt;

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

/// An immutable published event: a 16-byte value, copied wherever it goes.
///
/// Equality and hashing are by id alone.
///
/// # Examples
///
/// ```
/// use fed_pubsub::event::{Event, EventId};
/// use fed_pubsub::topic::TopicId;
///
/// let e = Event::new(EventId::new(3, 1), TopicId::new(7), 256);
/// assert_eq!(e.topic(), TopicId::new(7));
/// assert_eq!(e.size_bytes(), 16 + 256);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Event {
    id: EventId,
    topic: TopicId,
    payload_bytes: u32,
}

impl Event {
    /// An event carrying `payload_bytes` of abstract payload.
    ///
    /// # Panics
    ///
    /// If `payload_bytes` exceeds `u32::MAX` (the scenario grammar caps
    /// payloads at 2^20 bytes).
    pub fn new(id: EventId, topic: TopicId, payload_bytes: usize) -> Self {
        let payload_bytes =
            u32::try_from(payload_bytes).expect("event payload exceeds u32::MAX bytes");
        Event {
            id,
            topic,
            payload_bytes,
        }
    }

    /// A minimal event with zero payload.
    pub fn bare(id: EventId, topic: TopicId) -> Self {
        Event::new(id, topic, 0)
    }

    /// The event's unique id.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// The topic the event was published under.
    pub fn topic(&self) -> TopicId {
        self.topic
    }

    /// Abstract wire size: a 16-byte header (id, topic, framing) plus
    /// the payload.
    pub fn size_bytes(&self) -> usize {
        16 + self.payload_bytes as usize
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Event {}
impl std::hash::Hash for Event {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.id, self.topic)
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
    fn size_is_header_plus_payload() {
        let bare = Event::bare(EventId::new(0, 0), TopicId::new(0));
        assert_eq!(bare.size_bytes(), 16);
        let e = Event::new(EventId::new(0, 0), TopicId::new(0), 100);
        assert_eq!(e.size_bytes(), 16 + 100);
    }

    #[test]
    fn equality_is_by_id() {
        let a = Event::new(EventId::new(1, 1), TopicId::new(0), 8);
        let b = Event::bare(EventId::new(1, 1), TopicId::new(9));
        assert_eq!(a, b, "same id means same event");
        let c = Event::bare(EventId::new(1, 2), TopicId::new(0));
        assert_ne!(a, c);
    }

    #[test]
    fn event_is_a_16_byte_copy_value() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Event>();
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert_eq!(std::mem::align_of::<Event>(), 4);
    }

    #[test]
    fn batch_presums_size_and_keeps_order() {
        let events: Vec<Event> = (0..4u32)
            .map(|k| Event::new(EventId::new(2, k), TopicId::new(0), 10 * k as usize))
            .collect();
        let batch: EventBatch = events.iter().copied().collect();
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
    }
}
