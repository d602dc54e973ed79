//! The paper's pub/sub API (§2) as plain data.

use crate::event::Event;
use crate::topic::TopicId;

/// One call of the paper's §2 API: `publish(e)`, `subscribe(f)` or
/// `unsubscribe(f)`, with `f` a topic.
///
/// Every architecture's node takes this as its external command, so one
/// workload drives all of them.
///
/// # Examples
///
/// ```
/// use fed_pubsub::{Command, Event, EventId, TopicId};
///
/// let football = TopicId::new(2);
/// let calls = [
///     Command::Subscribe(football),
///     Command::Publish(Event::bare(EventId::new(0, 1), football)),
///     Command::Unsubscribe(football),
/// ];
/// assert!(matches!(calls[1], Command::Publish(ref e) if e.topic() == football));
/// ```
#[derive(Debug, Clone)]
pub enum Command {
    /// Publish an event at this node.
    Publish(Event),
    /// Subscribe this node to a topic.
    Subscribe(TopicId),
    /// Drop this node's subscriptions to a topic.
    Unsubscribe(TopicId),
}
