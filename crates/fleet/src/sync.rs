//! The crate's single doorway to synchronization primitives.
//!
//! Every atomic, mutex, condvar, and thread-spawn the fleet uses is
//! imported from here, never from `std::sync`/`std::thread` directly — the
//! pnoc-verify `no-raw-std-sync-in-fleet` lint enforces it. In normal
//! builds the facade is a zero-cost re-export of `std`. Under the
//! `model-sync` feature it resolves to [`crate::model`]'s deterministic
//! model-checking replacements instead, so the *shipping* executor code —
//! not a transcription of it — runs under bounded exhaustive interleaving
//! exploration (see DESIGN.md §14).
//!
//! `Arc` is re-exported from `std` in both configurations: the model
//! checker serializes threads, so reference-count races cannot occur and
//! modeling `Arc` would only inflate the state space.

pub use std::sync::Arc;

#[cfg(not(feature = "model-sync"))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(feature = "model-sync")]
pub use crate::model::sync::{Condvar, Mutex, MutexGuard};

/// Atomics: `std::sync::atomic` or the modeled cells, same names.
#[cfg(not(feature = "model-sync"))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Atomics: `std::sync::atomic` or the modeled cells, same names.
#[cfg(feature = "model-sync")]
pub mod atomic {
    pub use crate::model::sync::{AtomicBool, AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering;
}

/// Thread spawn/join: `std::thread` or the model scheduler's threads.
#[cfg(not(feature = "model-sync"))]
pub mod thread {
    pub use std::thread::{spawn, yield_now, Builder, JoinHandle};
}

/// Thread spawn/join: `std::thread` or the model scheduler's threads.
#[cfg(feature = "model-sync")]
pub mod thread {
    pub use crate::model::thread::{spawn, yield_now, Builder, JoinHandle};
}
