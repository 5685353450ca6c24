//! Allowed twin: the entry point is a documented host-clock boundary, so
//! the cone below it (into the host crate) is not entered.

use sdoh_ghost::stamp;

// sdoh-lint: allow(transitive-determinism, "host harness boundary: wall-clock telemetry only, never simulation state")
pub fn tick() -> u64 {
    stamp()
}
