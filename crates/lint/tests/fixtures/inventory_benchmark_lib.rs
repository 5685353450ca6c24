//! Inventory fixture, library half: `probe` is named only by the
//! benchmark's sources, which are parsed as roots and never built.

pub fn probe() -> u64 {
    0
}
