//! Fixture: locks and allocations in serving entry points, and an
//! allowlisted cold path one of them calls.

// sdoh-lint: entry(transitive-hot-path-purity, "fixture: serves every query")
pub fn bad_lock(mutex: &std::sync::Mutex<u32>) -> u32 {
    *mutex.lock().unwrap_or_else(|e| e.into_inner())
}

// sdoh-lint: entry(transitive-hot-path-purity, "fixture: serves every query")
pub fn bad_alloc() -> Vec<u32> {
    Vec::new()
}

// sdoh-lint: entry(transitive-hot-path-purity, "fixture: serves every query")
pub fn bad_format(n: u32) -> String {
    allowed_cold_path();
    format!("query-{n}")
}

// sdoh-lint: allow(transitive-hot-path-purity, "cold path: snapshot aggregation runs on the stats thread")
pub fn allowed_cold_path() -> Vec<u32> {
    let mut all = Vec::new();
    all.push(0);
    all
}
