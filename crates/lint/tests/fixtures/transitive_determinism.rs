//! Bad twin: the ambient clock behind a call out of a sim-facing crate,
//! and in the crate itself in every spelling and every kind of function —
//! private, trait-impl and `pub` alike are entries.

use sdoh_ghost::stamp;
use std::time::{Instant, SystemTime};

pub fn tick() -> u64 {
    stamp()
}

fn private_helper() -> Instant {
    Instant::now()
}

struct Wall;

impl Clock for Wall {
    fn now(&self) -> std::time::Instant {
        std::time::Instant::now()
    }
}

fn epoch() -> (SystemTime, SystemTime) {
    (SystemTime::now(), std::time::SystemTime::now())
}

fn seed() -> u64 {
    rand::thread_rng().next_u64() ^ rand::rngs::OsRng.next_u64()
}
