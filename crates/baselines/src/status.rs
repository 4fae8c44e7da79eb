//! A small trait unifying the observable state of all SMR replicas in this
//! repository, so harnesses and tests can assert safety/liveness and
//! build per-node reports generically.

use eesmr_core::{Block, ClientPath, Metrics};
use eesmr_crypto::Digest;

/// Observable replication state.
pub trait SmrStatus {
    /// The committed log (block ids in commit order).
    fn committed_log(&self) -> &[Digest];

    /// Height of the highest committed block.
    fn committed_block_height(&self) -> u64;

    /// The replica's current view.
    fn view(&self) -> u64;

    /// Looks up a stored block by id.
    fn block(&self, id: &Digest) -> Option<&Block>;

    /// Protocol counters.
    fn metrics(&self) -> &Metrics;

    /// The client path: its pool's peak backlog and the end-to-end
    /// latencies of the workload transactions injected at this replica.
    fn client(&self) -> &ClientPath;
}

impl SmrStatus for eesmr_core::Replica {
    fn committed_log(&self) -> &[Digest] {
        self.committed()
    }

    fn committed_block_height(&self) -> u64 {
        self.committed_height()
    }

    fn view(&self) -> u64 {
        self.current_view()
    }

    fn block(&self, id: &Digest) -> Option<&Block> {
        self.block(id)
    }

    fn metrics(&self) -> &Metrics {
        self.metrics()
    }

    fn client(&self) -> &ClientPath {
        self.client()
    }
}

/// Asserts that all logs agree on their common prefix (SMR safety,
/// Definition 2.1 (1)).
///
/// # Panics
///
/// Panics with a diagnostic if two logs diverge.
pub fn assert_prefix_consistency<'a, S: SmrStatus + 'a>(replicas: impl IntoIterator<Item = &'a S>) {
    let logs: Vec<&[Digest]> = replicas.into_iter().map(|r| r.committed_log()).collect();
    check_prefix_consistency(&logs).expect("SMR safety violated");
}

/// Non-panicking prefix check; returns the first divergence found.
pub fn check_prefix_consistency(logs: &[&[Digest]]) -> Result<(), String> {
    for (i, a) in logs.iter().enumerate() {
        for (j, b) in logs.iter().enumerate().skip(i + 1) {
            let common = a.len().min(b.len());
            for idx in 0..common {
                if a[idx] != b[idx] {
                    return Err(format!(
                        "logs {i} and {j} diverge at position {idx}: {:?} vs {:?}",
                        a[idx], b[idx]
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_prefixes_pass() {
        let a = vec![Digest::of(b"1"), Digest::of(b"2")];
        let b = vec![Digest::of(b"1")];
        assert!(check_prefix_consistency(&[&a, &b]).is_ok());
        assert!(check_prefix_consistency(&[]).is_ok());
    }

    #[test]
    fn divergence_is_reported() {
        let a = vec![Digest::of(b"1"), Digest::of(b"2")];
        let b = vec![Digest::of(b"1"), Digest::of(b"x")];
        let err = check_prefix_consistency(&[&a, &b]).unwrap_err();
        assert!(err.contains("position 1"));
    }
}
