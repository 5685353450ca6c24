//! Inventory fixture: a function only a `#[test]` calls is test-only.

pub fn main() {}

pub fn checked_only_by_tests() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn it_holds() {
        assert_eq!(checked_only_by_tests(), 7);
    }
}
