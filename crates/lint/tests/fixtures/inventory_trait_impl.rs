//! Inventory fixture: a trait-impl method nothing calls by name (`drop`
//! runs at scope end) is never listed, nor is what it calls.

pub struct Guard;

impl Drop for Guard {
    fn drop(&mut self) {
        release();
    }
}

fn release() {}

pub fn main() {
    let _guard = Guard;
}
