//! Allowed twin: pruning `third` breaks the ring — the remaining two
//! orderings are acyclic, and the boundary directive counts as used.

pub struct State;

impl State {
    pub fn first(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        drop((a, b));
    }

    pub fn second(&self) {
        let b = self.beta.lock();
        let c = self.gamma.lock();
        drop((b, c));
    }

    // sdoh-lint: allow(lock-order, "startup-only path: runs before any serving thread exists, never concurrently with first/second")
    pub fn third(&self) {
        let c = self.gamma.lock();
        let a = self.alpha.lock();
        drop((c, a));
    }
}
