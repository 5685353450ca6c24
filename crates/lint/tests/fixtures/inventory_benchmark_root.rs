//! Inventory fixture, benchmark half: a benchmark module (not its `main`)
//! that calls into the library through its crate path.

pub fn measure() -> u64 {
    sdoh_inv::probe()
}
