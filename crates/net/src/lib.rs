//! Real wire transport for LPPA sessions.
//!
//! Everything below the simulated transport boundary, with zero
//! dependencies beyond `std::net`:
//!
//! * [`config`] — `LPPA_NET_*` knobs (port, deadlines, backoff caps)
//!   through the strict `lppa-par` parsing grammar.
//! * [`conn`] — [`FramedConn`]: length-prefixed frames over TCP with
//!   per-peer connect/read deadlines, exponential-backoff reconnect,
//!   and sequence-numbered idempotent resend.
//! * [`round`] — the lockstep socket round: auctioneer, bidder and
//!   TTP-node role loops that run a full
//!   Announce → Collect → Allocate → Charge → Settle session over real
//!   sockets and land on the same outcome fingerprint as the
//!   [`lppa_session::run_wire_round`] simulation under the same seeds,
//!   chaos included — plus the kill/resume harness proving an
//!   interrupted socket session recovers to that identical
//!   fingerprint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod conn;
pub mod fixture;
pub mod round;

pub use config::NetConfig;
pub use conn::{FramedConn, NetError, OwnedFrame, WireStats};
pub use fixture::round_fixture;
pub use round::{
    resume_socket_round, run_bidder, run_socket_round, run_socket_round_with_kill,
    serve_auctioneer, serve_ttp, AuctioneerCheckpoint, AuctioneerRun, KillPoint, RemoteTtp,
    RoundSpec,
};
