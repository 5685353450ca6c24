//! Cross-crate fixture, caller half: the entry point reaches the callee
//! crate through a `use sdoh_xbeta` import.

use sdoh_xbeta::render;

// sdoh-lint: entry(transitive-hot-path-purity, "fixture: serves every query")
pub fn serve_loop() {
    render();
}
