//! Protocol configuration.

use eesmr_net::SimDuration;

/// How leaders are assigned to views (`Leader(v)` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaderPolicy {
    /// `Leader(v) = (v − 1) mod n` — "can be round-robin for simplicity".
    RoundRobin,
    /// Pseudo-random from a shared seed — "for expected constant-latency it
    /// is required that the leaders are chosen randomly".
    Seeded(u64),
}

/// How the proposer sizes each block's command batch.
///
/// `Fixed` reproduces the paper's evaluation (a constant `max_batch`
/// cap); `Adaptive` grows or shrinks the batch from the observed txpool
/// backlog, closing half the gap to `target_fill_pct` percent of the
/// backlog per proposal (clamped to `[min, max]`). All-integer state, so
/// runs stay bit-deterministic. See
/// [`AdaptiveBatcher`](crate::txpool::AdaptiveBatcher) for the
/// controller itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchPolicy {
    /// Every proposal takes up to this many commands.
    Fixed(usize),
    /// Batch size tracks the observed pool backlog.
    Adaptive {
        /// Smallest batch the controller will propose.
        min: usize,
        /// Largest batch the controller will propose.
        max: usize,
        /// Percent of the observed backlog to aim for per proposal.
        target_fill_pct: u32,
    },
}

impl BatchPolicy {
    /// The paper's default: a fixed 64-command cap.
    pub const DEFAULT: BatchPolicy = BatchPolicy::Fixed(64);

    /// The largest batch this policy can ever cut — the denominator of
    /// the batch-fill-percent gauge and report columns.
    pub fn max_size(&self) -> usize {
        match self {
            BatchPolicy::Fixed(max) => *max,
            BatchPolicy::Adaptive { max, .. } => *max,
        }
    }

    /// A short label for scenario names and report rows, e.g. `fixed64`
    /// or `adaptive4..256@80%`.
    pub fn label(&self) -> String {
        match self {
            BatchPolicy::Fixed(max) => format!("fixed{max}"),
            BatchPolicy::Adaptive { min, max, target_fill_pct } => {
                format!("adaptive{min}..{max}@{target_fill_pct}%")
            }
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::DEFAULT
    }
}

/// Proposal pacing for the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// The blocking variant (§5.6): one outstanding (uncommitted) block at
    /// a time. This is the variant the paper evaluates on the testbed.
    Blocking,
    /// The streaming variant: up to `max_outstanding` blocks in flight
    /// ("the leader continuously streams proposals", §3.3). The bound keeps
    /// memory finite, which the paper notes is required in practice.
    Streaming {
        /// Maximum uncommitted proposals in flight.
        max_outstanding: usize,
    },
}

/// Byzantine behaviour injected into a replica (fault injection for the
/// evaluation scenarios; honest replicas use [`FaultMode::Honest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Follows the protocol.
    Honest,
    /// Stops participating entirely once `from_view` starts (models both
    /// crash faults and the paper's "no progress" stalling leader).
    Silent {
        /// First view in which the node is silent.
        from_view: u64,
    },
    /// When leader of `in_view`, equivocates: proposes two conflicting
    /// blocks for the same round.
    Equivocate {
        /// The view in which to equivocate.
        in_view: u64,
    },
    /// Vote withholding: from `from_view` on, the node keeps processing
    /// and committing but never relays its acceptance (EESMR's relay-once
    /// multicast / Sync HotStuff's vote), starving quorum formation.
    Withhold {
        /// First view in which votes are withheld.
        from_view: u64,
    },
    /// Duplicate/storm flooding: from `from_view` on, every proposal the
    /// node relays is re-multicast `repeats` extra times. Flood
    /// deduplication absorbs the copies, but traffic and energy inflate.
    Storm {
        /// First view in which the node storms.
        from_view: u64,
        /// Extra relay copies per accepted proposal.
        repeats: u32,
    },
    /// Churn / crash-recovery: the node drops offline at `at_us` and, if
    /// `restart_at_us` is set, comes back then and runs the repair
    /// protocol to catch up before rejoining.
    Crash {
        /// Simulated time (µs) at which the node goes dark.
        at_us: u64,
        /// Simulated time (µs) at which it restarts (`None` = stays down).
        restart_at_us: Option<u64>,
    },
}

impl FaultMode {
    /// Whether this node behaves correctly in `view` (view-keyed faults
    /// only; time-keyed [`FaultMode::Crash`] is judged by [`Self::online`]).
    pub fn is_active_in(&self, view: u64) -> bool {
        match self {
            FaultMode::Honest
            | FaultMode::Equivocate { .. }
            | FaultMode::Withhold { .. }
            | FaultMode::Storm { .. }
            | FaultMode::Crash { .. } => true,
            FaultMode::Silent { from_view } => view < *from_view,
        }
    }

    /// Whether the node is powered on at simulated time `now_us`
    /// (always true except inside a [`FaultMode::Crash`] outage window).
    pub fn online(&self, now_us: u64) -> bool {
        match self {
            FaultMode::Crash { at_us, restart_at_us } => {
                now_us < *at_us || restart_at_us.is_some_and(|r| now_us >= r)
            }
            _ => true,
        }
    }

    /// Whether the node relays/votes for proposals it accepts in `view`
    /// (false only for an active [`FaultMode::Withhold`]).
    pub fn relays_in(&self, view: u64) -> bool {
        match self {
            FaultMode::Withhold { from_view } => view < *from_view,
            _ => true,
        }
    }

    /// Extra relay copies to emit per accepted proposal in `view`
    /// (non-zero only for an active [`FaultMode::Storm`]).
    pub fn storm_repeats_in(&self, view: u64) -> u32 {
        match self {
            FaultMode::Storm { from_view, repeats } if view >= *from_view => *repeats,
            _ => 0,
        }
    }

    /// The restart time of a recovering [`FaultMode::Crash`], if any.
    pub fn restart_at_us(&self) -> Option<u64> {
        match self {
            FaultMode::Crash { restart_at_us, .. } => *restart_at_us,
            _ => None,
        }
    }

    /// Whether a node with this fault is excused from a scenario's
    /// commit targets: silent and equivocating nodes contribute nothing
    /// by design, and a node that crashes without a restart never
    /// catches up. A withholder, a flooder, or a crash-with-restart node
    /// still runs the protocol and must reach the targets.
    pub fn is_excused(&self) -> bool {
        matches!(
            self,
            FaultMode::Silent { .. }
                | FaultMode::Equivocate { .. }
                | FaultMode::Crash { restart_at_us: None, .. }
        )
    }
}

/// Static protocol configuration shared by all replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Number of nodes `n`.
    pub n: usize,
    /// Fault bound `f < n/2`.
    pub f: usize,
    /// The synchrony bound Δ (all Algorithm 2 timers are multiples of it).
    pub delta: SimDuration,
    /// Target payload bytes per block (`|b_i|` in §5.6).
    pub payload_bytes: usize,
    /// How the proposer sizes each batch.
    pub batch_policy: BatchPolicy,
    /// Synthetic-workload offered load: how many commands the txpool
    /// fabricates per proposal when no client commands are queued (the
    /// paper's fixed `|b_i|` workloads use 1).
    pub offered_load: usize,
    /// Forward-batching threshold for non-leading nodes: the backlog is
    /// relayed to the leader as soon as it holds this many commands, or
    /// after a Δ flush timer, whichever comes first. `1` (the default)
    /// forwards on every arrival — the historical behaviour. Larger
    /// values aggregate several one-command forward floods into one
    /// signed message, cutting forwarding traffic (and the re-forward
    /// double counts around view changes) at the cost of up to Δ extra
    /// queueing latency.
    pub forward_batch: usize,
    /// Leader assignment.
    pub leader_policy: LeaderPolicy,
    /// Leader pacing (the paper's evaluation uses the blocking variant).
    pub pacing: Pacing,
    /// Crash-fault-only variant: removes the equivocation handlers
    /// (Algorithm 2 lines 220/224 — see §3.2).
    pub crash_only: bool,
    /// Equivocation-scenario speedup (§3.5): a verified equivocation proof
    /// lets nodes quit the view without building a blame certificate.
    pub opt_equivocation_speedup: bool,
    /// Optimized no-progress view change (§5.6): the status carries only
    /// signed locked blocks instead of freshly built commit certificates.
    pub opt_lock_only_status: bool,
    /// Batching / checkpoint optimization (§3.5): nodes optimistically
    /// pre-commit proposals *without* verifying the leader signature, and
    /// fully verify only every `c`-th round. Hash chaining makes the
    /// checkpoint verification retroactively authenticate the whole epoch;
    /// a failed checkpoint falls back to the standard blame path, so the
    /// worst case equals plain EESMR while the correct-leader case saves
    /// `(c−1)/c` of the verification energy.
    pub checkpoint_interval: Option<u64>,
}

impl Config {
    /// A configuration for `n` nodes tolerating `f = ⌈n/2⌉ − 1` faults with
    /// the given Δ, matching Algorithm 2 defaults (no optimizations).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, delta: SimDuration) -> Self {
        assert!(n >= 2, "SMR needs at least two nodes");
        Config {
            n,
            f: n.div_ceil(2) - 1,
            delta,
            payload_bytes: 16,
            batch_policy: BatchPolicy::DEFAULT,
            offered_load: 1,
            forward_batch: 1,
            leader_policy: LeaderPolicy::RoundRobin,
            pacing: Pacing::Blocking,
            crash_only: false,
            opt_equivocation_speedup: false,
            opt_lock_only_status: false,
            checkpoint_interval: None,
        }
    }

    /// Whether the proposal for `round` needs a full signature check under
    /// the checkpoint optimization (always true when disabled).
    pub fn round_needs_verification(&self, round: u64) -> bool {
        match self.checkpoint_interval {
            None => true,
            // Verify the first steady round of a view and every c-th round.
            // `is_multiple_of(0)` would silently skip verification forever;
            // a zero interval is a misconfiguration and must fail loudly.
            Some(c) => {
                assert!(c > 0, "checkpoint interval must be positive");
                round <= 3 || round.is_multiple_of(c)
            }
        }
    }

    /// The quorum size `f + 1`.
    pub fn quorum(&self) -> usize {
        self.f + 1
    }

    /// `Leader(v)` — the leader of view `v ≥ 1`.
    pub fn leader_of(&self, view: u64) -> eesmr_net::NodeId {
        match self.leader_policy {
            LeaderPolicy::RoundRobin => (((view - 1) as usize) % self.n) as eesmr_net::NodeId,
            LeaderPolicy::Seeded(seed) => {
                let d = eesmr_crypto::Digest::of_parts(&[
                    b"leader",
                    &seed.to_le_bytes(),
                    &view.to_le_bytes(),
                ]);
                (d.to_u64() % self.n as u64) as eesmr_net::NodeId
            }
        }
    }

    /// Validates the fault bound `f < n/2` required for safety.
    pub fn check_fault_bound(&self) -> bool {
        2 * self.f < self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> Config {
        Config::new(n, SimDuration::from_millis(10))
    }

    #[test]
    fn default_f_is_minority() {
        assert_eq!(cfg(2).f, 0);
        assert_eq!(cfg(3).f, 1);
        assert_eq!(cfg(4).f, 1);
        assert_eq!(cfg(5).f, 2);
        assert_eq!(cfg(10).f, 4);
        assert_eq!(cfg(13).f, 6);
        for n in 2..20 {
            assert!(cfg(n).check_fault_bound(), "n={n}");
        }
    }

    #[test]
    fn round_robin_cycles() {
        let c = cfg(4);
        assert_eq!(c.leader_of(1), 0);
        assert_eq!(c.leader_of(2), 1);
        assert_eq!(c.leader_of(5), 0);
    }

    #[test]
    fn seeded_leader_is_deterministic_and_in_range() {
        let mut c = cfg(7);
        c.leader_policy = LeaderPolicy::Seeded(11);
        for v in 1..50 {
            let l = c.leader_of(v);
            assert!((l as usize) < 7);
            assert_eq!(l, c.leader_of(v), "deterministic");
        }
        // Different views spread across nodes.
        let distinct: std::collections::BTreeSet<_> = (1..50).map(|v| c.leader_of(v)).collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn fault_mode_activity() {
        assert!(FaultMode::Honest.is_active_in(99));
        let silent = FaultMode::Silent { from_view: 2 };
        assert!(silent.is_active_in(1));
        assert!(!silent.is_active_in(2));
        assert!(FaultMode::Equivocate { in_view: 1 }.is_active_in(1));
    }

    #[test]
    fn withhold_processes_but_does_not_relay() {
        let w = FaultMode::Withhold { from_view: 2 };
        assert!(w.is_active_in(1) && w.relays_in(1));
        // Withholding nodes stay protocol-active — only the relay stops.
        assert!(w.is_active_in(2) && !w.relays_in(2));
        // Honest and Storm nodes always relay.
        assert!(FaultMode::Honest.relays_in(7));
        assert!(FaultMode::Storm { from_view: 1, repeats: 3 }.relays_in(7));
    }

    #[test]
    fn storm_repeats_only_once_active() {
        let s = FaultMode::Storm { from_view: 3, repeats: 4 };
        assert_eq!(s.storm_repeats_in(2), 0);
        assert_eq!(s.storm_repeats_in(3), 4);
        assert_eq!(FaultMode::Honest.storm_repeats_in(3), 0);
        assert!(s.is_active_in(99), "storming nodes stay protocol-active");
    }

    #[test]
    fn crash_window_and_restart() {
        let perm = FaultMode::Crash { at_us: 100, restart_at_us: None };
        assert!(perm.online(99));
        assert!(!perm.online(100));
        assert!(!perm.online(u64::MAX));
        assert_eq!(perm.restart_at_us(), None);

        let churn = FaultMode::Crash { at_us: 100, restart_at_us: Some(500) };
        assert!(churn.online(0));
        assert!(!churn.online(100));
        assert!(!churn.online(499));
        assert!(churn.online(500));
        assert_eq!(churn.restart_at_us(), Some(500));
        // Crash is time-keyed, never view-keyed.
        assert!(churn.is_active_in(42));
        // Non-crash modes are always online.
        assert!(FaultMode::Silent { from_view: 1 }.online(u64::MAX));
    }

    #[test]
    fn quorum_is_f_plus_one() {
        assert_eq!(cfg(10).quorum(), 5);
        assert_eq!(cfg(13).quorum(), 7);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_rejected() {
        let _ = cfg(1);
    }
}
