//! Fixture: ambient clocks in a sim-facing crate and an allowlisted boundary.

pub fn bad_wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn bad_system_time() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

// sdoh-lint: allow(transitive-determinism, "host-clock boundary: seeds the sim clock once at startup")
pub fn allowed_boundary() -> std::time::SystemTime {
    std::time::SystemTime::now()
}
