//! The combination step, the one place Algorithm 1 lives. The session
//! serves through [`combine`], `tests/small_scope.rs` checks the guarantee
//! on every case of a bounded scope through it, and `sdoh-analysis` sums the
//! Section III probabilities over the pools it builds.

use std::net::IpAddr;
use std::sync::Arc;

use crate::config::{CombinationMode, FailurePolicy, PoolConfig};
use crate::error::{PoolError, PoolResult};
use crate::majority::vote;
use crate::pool::{AddressPool, PoolEntry};

/// Combines the answers of one query pass into a pool, as `config` says —
/// pure: no I/O, no clock, no randomness.
///
/// `answers` has one row per resolver, in configuration order: its name,
/// which every slot it fills carries (an `Arc<str>` is shared by them, a
/// `&str` copied once into one), and its list, or `None` if it failed.
/// A failure is left out under [`FailurePolicy::Skip`] and is an empty list
/// under [`FailurePolicy::TreatAsEmpty`]; `config.min_responses` of the
/// lists that remain — the usable ones — are needed. Then
/// [`CombinationMode::TruncateAndCombine`] cuts every usable list to the
/// shortest one's length and concatenates them (Algorithm 1),
/// [`CombinationMode::CombineWithoutTruncation`] concatenates them whole,
/// and [`CombinationMode::MajorityVote`] keeps, in ascending order, each
/// address more than `config.majority_threshold` of them hold, labelled
/// `majority(support/usable)`.
///
/// Returns the pool and, unless the vote made it, the length every list was
/// cut to.
///
/// # Errors
///
/// [`PoolError::NotEnoughResponses`] when too few lists are usable. It
/// counts the resolvers that answered, so callers' metrics see the truth.
pub fn combine<N: Clone + Into<Arc<str>>, L: AsRef<[IpAddr]>>(
    config: &PoolConfig,
    answers: &[(N, Option<L>)],
) -> PoolResult<(AddressPool, Option<usize>)> {
    let answered = answers.iter().filter(|(_, list)| list.is_some()).count();
    let failed_is_empty = config.failure_policy == FailurePolicy::TreatAsEmpty;
    let usable = if failed_is_empty {
        answers.len()
    } else {
        answered
    };
    if usable < config.min_responses {
        return Err(PoolError::NotEnoughResponses {
            answered,
            required: config.min_responses,
        });
    }
    let lengths = answers.iter().filter_map(|(_, list)| match list {
        Some(list) => Some(list.as_ref().len()),
        None => failed_is_empty.then_some(0),
    });
    let lists = answers
        .iter()
        .filter_map(|(name, list)| Some((name, list.as_ref()?.as_ref())));
    let cut = match config.mode {
        CombinationMode::TruncateAndCombine => lengths.min(),
        CombinationMode::CombineWithoutTruncation => lengths.max(),
        CombinationMode::MajorityVote => {
            let lists = lists.map(|(_, list)| list);
            return Ok((elect(lists, usable, config.majority_threshold), None));
        }
    }
    .unwrap_or(0);
    // The first `cut` addresses of every list, in list order. Every slot a
    // list fills points at the one copy of its name.
    let mut entries = Vec::with_capacity(lists.clone().map(|(_, list)| list.len().min(cut)).sum());
    for (name, list) in lists.filter(|(_, list)| cut.min(list.len()) > 0) {
        let name: Arc<str> = name.clone().into();
        entries.extend(list.iter().take(cut).map(|&address| PoolEntry {
            address,
            source: Arc::clone(&name),
        }));
    }
    Ok((AddressPool::from_entries(entries), Some(cut)))
}

/// The vote's winners over `usable` lists, each slot labelled with its
/// support, written into the pool in one walk over them.
fn elect<'a>(
    lists: impl Iterator<Item = &'a [IpAddr]> + Clone,
    usable: usize,
    threshold: f64,
) -> AddressPool {
    let ballot = vote(lists, usable, threshold);
    let mut entries = Vec::with_capacity(ballot.most_winners());
    // One label per support count, shared by its winners. A vote has few
    // distinct counts, so the labels sit inline, one place per count
    // modulo their number; two counts that meet in one place only cost a
    // second copy of an equal label.
    let mut labels: [Option<(usize, Arc<str>)>; 8] = Default::default();
    for (address, support) in ballot.winners() {
        let place = labels.get_mut(support % 8);
        let source = match place {
            Some(Some((count, label))) if *count == support => Arc::clone(label),
            Some(place) => {
                let label = majority_label(support, usable);
                *place = Some((support, Arc::clone(&label)));
                label
            }
            None => majority_label(support, usable),
        };
        entries.push(PoolEntry { address, source });
    }
    AddressPool::from_entries(entries)
}

/// `majority(support/usable)`, written on the stack and copied once into
/// its `Arc`: one allocation per label, not a `String` and then the `Arc`.
fn majority_label(support: usize, usable: usize) -> Arc<str> {
    use std::io::Write;
    // Two counts of at most 20 digits each and 11 octets of text.
    let mut buf = [0u8; 64];
    let mut rest = buf.as_mut_slice();
    let written = write!(rest, "majority({support}/{usable})").map(|()| rest.len());
    let text = written
        .ok()
        .and_then(|left| buf.get(..buf.len() - left))
        .and_then(|octets| std::str::from_utf8(octets).ok());
    match text {
        Some(text) => text.into(),
        None => format!("majority({support}/{usable})").into(),
    }
}
