//! Fixture: locks and allocations in serving entry points, and an
//! allowlisted cold path. Every function here is a configured entry.

pub fn bad_lock(mutex: &std::sync::Mutex<u32>) -> u32 {
    *mutex.lock().unwrap_or_else(|e| e.into_inner())
}

pub fn bad_alloc() -> Vec<u32> {
    Vec::new()
}

pub fn bad_format(n: u32) -> String {
    format!("query-{n}")
}

// sdoh-lint: allow(transitive-hot-path-purity, "cold path: snapshot aggregation runs on the stats thread")
pub fn allowed_cold_path() -> Vec<u32> {
    Vec::new()
}
