//! Inventory fixture: a function named only as a fn pointer in a
//! `static` table is reached.

pub struct Experiment {
    pub id: &'static str,
    pub run: fn() -> u32,
}

const fn exp(id: &'static str, run: fn() -> u32) -> Experiment {
    Experiment { id, run }
}

pub static EXPERIMENTS: &[Experiment] = &[exp("E1", e1)];

fn e1() -> u32 {
    1
}

pub fn main() {
    for experiment in EXPERIMENTS {
        (experiment.run)();
    }
}
