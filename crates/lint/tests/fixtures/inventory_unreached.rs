//! Inventory fixture: a `pub fn` nothing calls is unreached.

pub fn main() {
    serve();
}

fn serve() {}

pub fn orphan() {}
