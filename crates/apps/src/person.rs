//! Competing entities of the airline example: people requesting seats.

use std::fmt;

/// A person competing for a seat on Flight 1 (the paper writes `P1`,
/// `P2`, …, `P102`).
///
/// ```
/// use shard_apps::Person;
/// assert_eq!(Person(101).to_string(), "P101");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Person(pub u32);

impl Person {}

impl fmt::Display for Person {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for Person {
    fn from(id: u32) -> Self {
        Person(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let p: Person = 7u32.into();
        assert_eq!(p.to_string(), "P7");
        assert_eq!(p.0, 7);
    }

    #[test]
    fn ordering_follows_ids() {
        assert!(Person(1) < Person(2));
    }
}
