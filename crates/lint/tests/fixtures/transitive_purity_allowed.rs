//! Allowed twin: a standalone allow above the helper is a pruning
//! boundary — the traversal stops there and the directive counts as used.

// sdoh-lint: entry(transitive-hot-path-purity, "fixture: serves every query")
pub fn serve_loop() {
    step();
}

fn step() {
    helper();
}

// sdoh-lint: allow(transitive-hot-path-purity, "cold path: scratch buffer built once per reconfiguration, never per query")
fn helper() {
    let buffer = Vec::new();
    drop(buffer);
}
