//! Seeded mutators of well-formed input, the ones a fuzzer starts with:
//! shared by `dns-wire`'s `view_oracle` and `sdoh-doh`'s `h2_oracle`
//! (which includes this file by path). Each changes `out` in place and
//! draws from `rng` in a fixed order, so a seed names the same input on
//! every run.

use proptest::test_runner::TestRng;

/// An index below `len`.
pub fn pick(rng: &mut TestRng, len: usize) -> usize {
    rng.below(len as u64) as usize
}

/// One bit flipped.
pub fn flip_bit(out: &mut [u8], rng: &mut TestRng) {
    let bit = pick(rng, out.len() * 8);
    out[bit / 8] ^= 1 << (bit % 8);
}

/// One octet replaced.
pub fn replace_octet(out: &mut [u8], rng: &mut TestRng) {
    let at = pick(rng, out.len());
    out[at] = rng.next_u64() as u8;
}

/// The big-endian field of `width` octets at `at` (a length, a count, an
/// identifier) moved by one either way, or anywhere.
pub fn move_field(out: &mut [u8], at: usize, width: usize, rng: &mut TestRng) {
    let field = &mut out[at..at + width];
    let value = field
        .iter()
        .fold(0u64, |v, &octet| v << 8 | u64::from(octet));
    let moved = match rng.below(3) {
        0 => value.wrapping_add(1),
        1 => value.wrapping_sub(1),
        _ => rng.next_u64(),
    };
    field.copy_from_slice(&moved.to_be_bytes()[8 - width..]);
}

/// Cut short.
pub fn cut(out: &mut Vec<u8>, rng: &mut TestRng) {
    out.truncate(pick(rng, out.len()));
}

/// One to three octets appended.
pub fn append(out: &mut Vec<u8>, rng: &mut TestRng) {
    for _ in 0..=rng.below(3) {
        out.push(rng.next_u64() as u8);
    }
}

/// A stretch of up to 16 octets repeated where it lies.
pub fn repeat(out: &mut Vec<u8>, rng: &mut TestRng) {
    let from = pick(rng, out.len());
    let to = from + pick(rng, (out.len() - from).min(16) + 1);
    let stretch = out[from..to].to_vec();
    out.splice(to..to, stretch);
}
