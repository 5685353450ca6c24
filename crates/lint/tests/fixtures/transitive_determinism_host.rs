//! The host-side crate of the `transitive_determinism*` fixtures: not
//! sim-facing, so its clock reads matter only where a sim-facing function
//! reaches them.

use std::time::Instant;

pub fn stamp() -> u64 {
    let now = Instant::now();
    now.elapsed().as_secs()
}

pub fn unreached() -> Instant {
    Instant::now()
}
