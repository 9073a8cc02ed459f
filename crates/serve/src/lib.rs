//! `ddb-serve` — a fault-tolerant multi-tenant query server for
//! disjunctive databases.
//!
//! The crate turns the engine into a daemon with nothing beyond the
//! standard library: [`server`] hosts a newline-framed JSON protocol
//! ([`protocol`]) over TCP, answering the paper's three decision
//! problems for every named database in a [`catalog::Catalog`]. Each
//! request runs under an effective [`ddb_obs::Budget`] — the server's
//! defaults intersected with the client's declared limits — so tenants
//! cannot starve each other, and every degradation is typed: overload
//! sheds with `overloaded` + a retry hint, budget trips answer `unknown`
//! with the tripped resource, malformed input gets `parse`/`usage`
//! errors, and a handler panic is fenced into an `internal` error
//! without taking the process down.
//!
//! [`answer`] is the executor behind the three problems, shared with the
//! local `ddb query`/`exists`/`models` commands, so served and local
//! answers are the same bytes by construction.
//!
//! [`chaos`] is the matching attack harness: it drives malformed
//! frames, oversized payloads, half-closes, disconnects, concurrent
//! cancellation, and a deterministic fault-injection sweep against a
//! live server and asserts answers stay byte-identical to the baseline
//! throughout. `ddb serve`, `ddb call`, and `ddb chaos` are the CLI
//! fronts for the three pieces.

pub mod answer;
pub mod catalog;
pub mod chaos;
pub mod protocol;
pub mod server;

pub use catalog::Catalog;
pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use protocol::{ErrorKind, WireError};
pub use server::{DrainReport, Server, ServerConfig, ServerHandle, ShutdownTrigger};
