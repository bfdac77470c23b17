//! Session identity and per-session slab state.

use kwt_engine::StreamCore;
use std::fmt;

/// Generation-tagged handle to a slab slot.
///
/// The slab reuses slots: closing a session bumps the slot's generation,
/// so a handle held past `close` can never read or write the *next*
/// stream through the same slot — it fails with
/// [`ServeError::StaleSession`](crate::ServeError::StaleSession) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId {
    index: u32,
    generation: u32,
}

impl SessionId {
    pub(crate) fn new(index: u32, generation: u32) -> Self {
        SessionId { index, generation }
    }

    /// Slot index in the slab (stable for the life of the session).
    pub fn index(self) -> u32 {
        self.index
    }

    /// Slot reuse counter the handle was minted with.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}g{}", self.index, self.generation)
    }
}

/// One slab slot: a generation tag plus the stream's [`StreamCore`]
/// (ring, window, votes), allocated when the slab is built and reused
/// across sessions. The core is the one [`kwt_engine::StreamingKws`]
/// runs, which is what makes multiplexed decisions bit-identical to a
/// standalone streamer (the serve property tests assert it).
pub(crate) struct Slot {
    /// Bumped on close; part of every minted [`SessionId`].
    pub generation: u32,
    /// Occupied (open) vs free.
    pub active: bool,
    /// The session's samples → decision state.
    pub core: StreamCore,
}

impl Slot {
    pub fn new(core: StreamCore) -> Self {
        Slot {
            generation: 0,
            active: false,
            core,
        }
    }

    /// Returns the slot to the free pool: generation bumped (stale
    /// handles die), stream state forgotten, every allocation kept.
    pub fn release(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        self.active = false;
        self.core.reset();
    }
}
