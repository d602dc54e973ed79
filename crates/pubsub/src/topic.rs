//! Topics.
//!
//! A topic is "a filter consisting of a single attribute without conditions"
//! (paper §2). Topics are flat: an event matches a subscription when their
//! topic ids are equal.

use std::fmt;

/// Dense topic identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(u32);

impl TopicId {
    /// Creates a topic id from a dense index.
    pub const fn new(index: u32) -> Self {
        TopicId(index)
    }

    /// Dense index of the topic.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw u32 value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}
