//! Event-driven co-simulation runtime for HierAdMo.
//!
//! `hieradmo-core`'s driver executes the training loop in *logical* time:
//! every tier advances in lockstep and network cost is invisible.
//! `hieradmo-netsim` knows what computation and transfers *cost*, but only
//! replays a finished schedule. This crate closes the loop: it runs the
//! **actual** training step functions — the same gradient path, batch
//! streams, aggregation hooks and evaluation reduction as
//! [`hieradmo_core::run`] — inside a discrete-event simulation where every
//! worker, edge and cloud actor advances on its own virtual clock, with
//! compute and transfer delays drawn on demand from the netsim profiles.
//!
//! Because delays now *gate* aggregation instead of merely annotating it,
//! synchronization becomes a real policy choice ([`SyncPolicy`]):
//!
//! - [`SyncPolicy::FullSync`] — every edge waits for all of its workers;
//!   the model trajectory is **bitwise identical** to [`hieradmo_core::run`]
//!   (asserted by `tests/simrt_equivalence.rs` at the workspace root), only
//!   the time axis changes.
//! - [`SyncPolicy::Deadline`] — semi-synchronous: a round fires once a
//!   quorum has arrived and a timeout has passed; late updates carry over
//!   into the next round with their staleness recorded.
//! - [`SyncPolicy::AsyncAge`] — asynchronous with an age bound: rounds fire
//!   per arrival unless some participant's state is older than
//!   `max_staleness` rounds, in which case the round waits for it.
//!
//! One event engine ([`driver`]) runs both entry points — [`simulate`]
//! over registered workers, and [`simulate_virtual`] over a sampled
//! population ([`vpop`]). Under a non-empty
//! [`hieradmo_core::RunConfig::churn`] plan the registered loop crosses
//! every churn boundary as an epoch barrier, moving its mailbox into the
//! next topology epoch's tree ([`hieradmo_core::elastic`]).
//! [`simulate_elastic`] is a one-line call of [`simulate`], kept for the
//! repository benchmark. Who takes part in a round is core's participant
//! source ([`hieradmo_core::driver::Participants`]), the one the tick
//! loop holds, which lays out the federation, positions the registered
//! workers' streams and owns the churn epochs; the engine keeps the actors
//! beside it: persistent registered worker actors, or cohort slots sampled
//! per round, whose stragglers are waived at the end of their round
//! instead of carrying over.
//!
//! Events flow through a deterministic queue keyed by `(virtual time,
//! actor, sequence number)` ([`event::EventQueue`]), every actor draws its
//! delays from a private decorrelated RNG stream
//! ([`hieradmo_netsim::stream_seed`]), and evaluation reuses the core
//! engine's fixed-chunk ordered reduction — so a simulation is reproducible
//! bit-for-bit for any thread count.

#![deny(missing_docs)]

mod barrier;
pub mod driver;
pub mod event;
pub mod policy;
pub mod vpop;

pub use driver::{simulate, simulate_elastic, SimError, SimResult};
pub use event::{ActorId, EventQueue};
pub use policy::{SimConfig, SyncPolicy};
pub use vpop::simulate_virtual;
