//! Bad twin: an allocation two hops below the serving entry point is a
//! transitive-hot-path-purity diagnostic with the full call chain — in
//! whichever spelling the path is written.

// sdoh-lint: entry(transitive-hot-path-purity, "fixture: serves every query")
pub fn serve_loop() {
    step();
}

fn step() {
    helper();
    qualified();
}

fn helper() {
    let buffer = Vec::new();
    drop(buffer);
}

fn qualified() {
    let buffer: Vec<u8> = std::vec::Vec::new();
    let boxed = std::boxed::Box::new(buffer);
    drop(boxed);
}
