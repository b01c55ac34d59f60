//! Output checks: every timed answer is compared with the expected one
//! by count and an order-independent hash.

use cqa::relational::diff::delta;
use cqa::relational::{Instance, Tuple};
use std::collections::BTreeSet;

/// An answer as a route returns it, before it is fingerprinted (so
/// fingerprinting stays outside timed spans).
#[derive(Debug)]
pub enum Answer {
    Tuples(BTreeSet<Tuple>),
    Repairs(Vec<Instance>),
}

impl Answer {
    /// Fingerprint; repairs are hashed by their difference from `base`.
    pub fn fingerprint(&self, base: &Instance) -> Fingerprint {
        match self {
            Answer::Tuples(t) => of_answers(t),
            Answer::Repairs(r) => of_repairs(base, r),
        }
    }
}

/// Count plus order-independent hash of an answer set or a repair set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub count: usize,
    pub hash: u64,
}

/// FNV-1a, 64 bit: stable across runs and platforms.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Fingerprint of an answer set: the wrapping sum of per-tuple hashes.
pub fn of_answers(answers: &BTreeSet<Tuple>) -> Fingerprint {
    Fingerprint {
        count: answers.len(),
        hash: answers.iter().fold(0u64, |acc, t| {
            acc.wrapping_add(fnv(t.to_string().as_bytes()))
        }),
    }
}

/// Fingerprint of a repair set, each repair hashed by its difference
/// from `base` (the instance it repairs), so hashing costs O(Δ) per
/// repair rather than O(instance).
pub fn of_repairs(base: &Instance, repairs: &[Instance]) -> Fingerprint {
    let hash = repairs.iter().fold(0u64, |acc, r| {
        let d = delta(base, r).expect("a repair shares its base's schema");
        let mut text = String::new();
        for a in &d.removed {
            text.push_str(&format!("-{}{};", a.rel.index(), a.tuple));
        }
        for a in &d.inserted {
            text.push_str(&format!("+{}{};", a.rel.index(), a.tuple));
        }
        acc.wrapping_add(fnv(text.as_bytes()))
    });
    Fingerprint {
        count: repairs.len(),
        hash,
    }
}
