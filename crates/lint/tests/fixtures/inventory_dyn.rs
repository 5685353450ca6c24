//! Inventory fixture: a call through `dyn Store` resolves to nothing, so
//! it reaches every method called `flush` by name — including the
//! inherent `Disk::flush` nothing else calls.

pub trait Store {
    fn flush(&self) -> usize;
}

pub struct Disk;

impl Disk {
    pub fn flush(&self) -> usize {
        1
    }
}

pub fn main() {
    run(&Disk);
}

pub fn run(store: &dyn Store) -> usize {
    store.flush()
}
