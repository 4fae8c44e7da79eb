//! The pending-command pool (`txpool` in the paper's description).
//!
//! "All nodes maintain pending commands in a local data structure txpool.
//! The leader proposes blocks using the commands from txpool and the other
//! nodes on committing a block, remove the commands in the block from the
//! txpool." (§3)

use std::collections::{HashSet, VecDeque};
use std::fmt::Debug;

use eesmr_net::{
    ActorGauges, Context, Message, NodeId, SimDuration, SimTime, TraceClass, TraceEventKind,
};
use eesmr_trace::hist::LogHistogram;

use crate::block::{Block, Command};
use crate::config::BatchPolicy;
use crate::metrics::Metrics;

/// A deterministic per-node stream of client transactions, driven by the
/// protocol's arrival timer events (see `eesmr-workload` for the
/// implementations: arrival processes × per-node skew × payload
/// distributions × open/closed-loop injection).
///
/// The replica's contract (kept by [`ClientPath`]): on start it asks for the first delay via
/// [`next_arrival_in`](WorkloadSource::next_arrival_in) and arms an
/// arrival timer; when the timer fires it calls
/// [`arrival`](WorkloadSource::arrival) with its current in-flight count
/// (the source may suppress the injection — the closed-loop bound), then
/// asks for the next delay and re-arms. `Send` is required so replicas
/// stay movable across the experiment driver's worker threads.
pub trait WorkloadSource: Send {
    /// Microseconds from `now_us` until the next arrival event, or
    /// `None` if the stream is silent (ends the timer chain).
    fn next_arrival_in(&mut self, now_us: u64) -> Option<u64>;

    /// The transaction for the arrival firing at `now_us`, given the
    /// node's current in-flight (injected-but-uncommitted) count; `None`
    /// when the source declines to inject (closed-loop bound reached).
    fn arrival(&mut self, now_us: u64, in_flight: usize) -> Option<Command>;
}

/// One live workload transaction born at this node.
#[derive(Debug, Clone)]
struct Birth {
    cmd: Command,
    /// Birth time, µs — the latency clock, never touched after submit.
    born_us: u64,
    /// Earliest time the forward-retry timer may requeue this command
    /// (again): starts at 0, so the first retry is governed purely by
    /// age, and is pushed one full window ahead on every requeue — a
    /// just-re-forwarded command gets a fresh window to resolve instead
    /// of being immediately stale again (its birth never advances).
    retry_after_us: u64,
}

/// Pool of pending client commands.
///
/// Two modes:
/// * **Client-fed** — commands arrive via [`TxPool::submit`].
/// * **Synthetic** — when the pool is empty and a synthetic payload size is
///   configured, batches are generated on demand (the paper's fixed-size
///   `|b_i|` workloads, §5.6). The synthetic *depth* models offered load:
///   how many commands are available per proposal (default 1).
#[derive(Debug, Clone)]
pub struct TxPool {
    pending: VecDeque<Command>,
    synthetic_len: Option<usize>,
    synthetic_depth: usize,
    next_seq: u64,
    /// Live workload transactions born at this node. Entries persist
    /// after batching (the leader drains `pending` into a proposal long
    /// before the commit) and are settled by
    /// [`remove_committed`](TxPool::remove_committed).
    births: Vec<Birth>,
    /// End-to-end (birth → local commit) latencies of settled workload
    /// transactions, in microseconds, as a streaming histogram.
    tx_latencies: LogHistogram,
    /// High-water mark of `pending.len()` over the pool's lifetime —
    /// the peak backlog reported per run. Updated at every enqueue
    /// (submission and requeue), which is where the queue can only grow.
    peak_pending: usize,
}

impl TxPool {
    /// An empty, client-fed pool.
    pub fn new() -> Self {
        TxPool {
            pending: VecDeque::new(),
            synthetic_len: None,
            synthetic_depth: 1,
            next_seq: 0,
            births: Vec::new(),
            tx_latencies: LogHistogram::new(),
            peak_pending: 0,
        }
    }

    /// A pool that synthesizes one `len`-byte command per batch whenever it
    /// has no real commands queued.
    pub fn synthetic(len: usize) -> Self {
        TxPool { synthetic_len: Some(len), ..TxPool::new() }
    }

    /// Disables the synthetic fallback: the pool only serves real
    /// (client- or workload-fed) commands, and an empty pool yields empty
    /// batches. Attaching a [`WorkloadSource`] implies this.
    pub fn client_only(&mut self) {
        self.synthetic_len = None;
    }

    /// Sets the synthetic offered load: up to `depth` commands fabricated
    /// per batch when the pool has no real commands (clamped to ≥ 1).
    pub fn with_offered_load(mut self, depth: usize) -> Self {
        self.synthetic_depth = depth.max(1);
        self
    }

    /// Queues a client command.
    pub fn submit(&mut self, cmd: Command) {
        self.pending.push_back(cmd);
        self.peak_pending = self.peak_pending.max(self.pending.len());
    }

    /// Queues a workload transaction born at `now_us`, tracking it until
    /// commit so its end-to-end latency can be measured.
    pub fn submit_at(&mut self, cmd: Command, now_us: u64) {
        self.births.push(Birth { cmd: cmd.clone(), born_us: now_us, retry_after_us: 0 });
        self.pending.push_back(cmd);
        self.peak_pending = self.peak_pending.max(self.pending.len());
    }

    /// Workload transactions born here and not yet committed (the
    /// closed-loop in-flight count).
    pub fn in_flight(&self) -> usize {
        self.births.len()
    }

    /// Histogram of end-to-end (birth → local commit) latencies of this
    /// node's committed workload transactions, in microseconds.
    pub fn tx_latencies(&self) -> &LogHistogram {
        &self.tx_latencies
    }

    /// Re-queues birth-tracked workload transactions that are tracked
    /// but no longer pending: commands the proposer drained into blocks
    /// of a view that was abandoned would otherwise be lost forever
    /// (their `births` entries can only settle through a commit).
    /// Protocols call this on new-view entry. A command whose old-view
    /// block *does* still commit (as an ancestor of the certified
    /// chain) may then ride a second block too; latency settles once,
    /// at its first commit.
    pub fn requeue_unresolved(&mut self) {
        let pending: HashSet<&Command> = self.pending.iter().collect();
        let lost: Vec<Command> = self
            .births
            .iter()
            .filter(|b| !pending.contains(&b.cmd))
            .map(|b| b.cmd.clone())
            .collect();
        self.pending.extend(lost);
        self.peak_pending = self.peak_pending.max(self.pending.len());
    }

    /// Whether any birth-tracked workload transaction is in flight but
    /// no longer queued locally (drained into a proposal or forwarded
    /// away) — i.e. whether there is anything a retry timer could ever
    /// need to rescue.
    pub fn has_unresolved(&self) -> bool {
        if self.births.is_empty() {
            return false;
        }
        let pending: HashSet<&Command> = self.pending.iter().collect();
        self.births.iter().any(|b| !pending.contains(&b.cmd))
    }

    /// The earliest time (µs) any unresolved transaction becomes
    /// eligible for a retry under a `window_us` staleness window —
    /// `max(birth + window, retry cooldown)` minimised over the
    /// in-flight set — or `None` when nothing is in flight. The
    /// forward-retry timer schedules its next fire for exactly this
    /// instant.
    pub(crate) fn next_retry_due_us(&self, window_us: u64) -> Option<u64> {
        if self.births.is_empty() {
            return None;
        }
        let pending: HashSet<&Command> = self.pending.iter().collect();
        self.births
            .iter()
            .filter(|b| !pending.contains(&b.cmd))
            .map(|b| (b.born_us + window_us).max(b.retry_after_us))
            .min()
    }

    /// Re-queues unresolved transactions (see
    /// [`requeue_unresolved`](TxPool::requeue_unresolved)) that were born
    /// at least `age_us` before `now_us`; younger in-flight commands are
    /// presumed to be riding a block toward commit and are left alone.
    /// Returns whether anything was restored. Used by the forward-retry
    /// timer: a fire-and-forget forward swallowed by a partition has no
    /// view change to rescue it, so age is the only stranding signal.
    pub(crate) fn requeue_stale(&mut self, now_us: u64, age_us: u64) -> bool {
        let mut lost: Vec<Command> = Vec::new();
        {
            let pending: HashSet<&Command> = self.pending.iter().collect();
            for b in &mut self.births {
                let due = (b.born_us + age_us).max(b.retry_after_us);
                if now_us >= due && !pending.contains(&b.cmd) {
                    b.retry_after_us = now_us + age_us;
                    lost.push(b.cmd.clone());
                }
            }
        }
        let restored = !lost.is_empty();
        self.pending.extend(lost);
        self.peak_pending = self.peak_pending.max(self.pending.len());
        restored
    }

    /// Drains every queued command for forwarding to the current
    /// proposer. Birth tracking is untouched: a forwarded transaction
    /// still settles (and measures its latency) here at its origin when
    /// the block carrying it commits — and if the proposer's view dies
    /// first, [`requeue_unresolved`](TxPool::requeue_unresolved) puts
    /// the command back for re-forwarding to the next leader.
    pub(crate) fn take_pending(&mut self) -> Vec<Command> {
        self.pending.drain(..).collect()
    }

    /// Number of queued commands (synthetic generation not counted).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no real commands are queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The backlog an adaptive proposer observes: real queued commands,
    /// or the synthetic offered load when the pool would fabricate a
    /// batch.
    pub fn backlog(&self) -> usize {
        if !self.pending.is_empty() {
            self.pending.len()
        } else if self.synthetic_len.is_some() {
            self.synthetic_depth
        } else {
            0
        }
    }

    /// High-water mark of the real queued-command backlog over the
    /// pool's lifetime (synthetic generation not counted).
    pub fn peak_backlog(&self) -> usize {
        self.peak_pending
    }

    /// Takes the next batch of at most `max` commands for a proposal.
    /// Falls back to synthetic commands (up to the configured offered
    /// load) when configured and empty.
    pub fn next_batch(&mut self, max: usize) -> Vec<Command> {
        if self.pending.is_empty() {
            return match self.synthetic_len {
                Some(len) => {
                    let count = self.synthetic_depth.min(max.max(1));
                    (0..count)
                        .map(|_| {
                            let seq = self.next_seq;
                            self.next_seq += 1;
                            Command::synthetic(seq, len)
                        })
                        .collect()
                }
                None => Vec::new(),
            };
        }
        let take = self.pending.len().min(max.max(1));
        self.pending.drain(..take).collect()
    }

    /// Removes commands that were committed in `block` (nodes clear their
    /// pools when a block commits) and settles any of this node's tracked
    /// workload transactions the block carried, recording their
    /// birth-to-commit latency against `now`.
    pub fn remove_committed(&mut self, block: &Block, now: SimTime) {
        if block.payload.is_empty() {
            return;
        }
        // One set per block keeps commit processing linear instead of
        // O(|payload| × pool) byte-vector comparisons.
        let committed: HashSet<&Command> = block.payload.iter().collect();
        self.pending.retain(|c| !committed.contains(c));
        let latencies = &mut self.tx_latencies;
        self.births.retain(|b| {
            if committed.contains(&b.cmd) {
                latencies.record(now.since(SimTime::from_micros(b.born_us)).as_micros());
                false
            } else {
                true
            }
        });
    }
}

impl Default for TxPool {
    fn default() -> Self {
        Self::new()
    }
}

/// The proposer-side batch-size controller behind
/// [`BatchPolicy::Adaptive`].
///
/// Pure integer state: each call moves the current batch size halfway
/// toward `target_fill_pct` percent of the observed backlog (clamped to
/// the policy's `[min, max]`), so under steady load it converges
/// geometrically to the target and under bursts it reacts within a few
/// proposals without oscillating. [`BatchPolicy::Fixed`] passes through
/// unchanged.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveBatcher {
    current: usize,
}

impl AdaptiveBatcher {
    /// A controller with no history (the first adaptive call starts from
    /// the policy's `min`).
    pub fn new() -> Self {
        AdaptiveBatcher { current: 0 }
    }

    /// The batch size to use for the next proposal, given the observed
    /// pool backlog.
    pub fn next_size(&mut self, backlog: usize, policy: BatchPolicy) -> usize {
        match policy {
            BatchPolicy::Fixed(max) => max.max(1),
            BatchPolicy::Adaptive { min, max, target_fill_pct } => {
                let min = min.max(1);
                let max = max.max(min);
                let desired =
                    (backlog.saturating_mul(target_fill_pct as usize) / 100).clamp(min, max);
                if self.current == 0 {
                    self.current = min;
                }
                // Close half the gap (at least one step) toward the
                // target, then clamp.
                if desired > self.current {
                    self.current += ((desired - self.current) / 2).max(1);
                } else if desired < self.current {
                    self.current -= ((self.current - desired) / 2).max(1);
                }
                self.current = self.current.clamp(min, max);
                self.current
            }
        }
    }

    /// The last size returned (0 before the first adaptive call).
    pub fn current(&self) -> usize {
        self.current
    }
}

/// The client side of a replica, shared by every protocol: the pending
/// pool, the batch controller and the workload stream, plus the
/// arrival, forward-flush and forward-retry timers that move client
/// commands toward the proposer.
///
/// The protocol keeps what differs: who leads, whether the node may
/// forward right now, and how a message is signed and sent. Methods that
/// arm a timer take the protocol's own token (`Context` is generic over
/// it), so the sequence of pool updates, counters, traces and timer arms
/// is written once and cannot drift between protocols.
pub struct ClientPath {
    pool: TxPool,
    batcher: AdaptiveBatcher,
    workload: Option<Box<dyn WorkloadSource>>,
    /// A forward-flush timer is pending (at most one at a time).
    flush_armed: bool,
    /// A forward-retry timer is pending (at most one at a time).
    retry_armed: bool,
}

impl ClientPath {
    /// How long a forwarded command may stay unresolved, in Δ, before
    /// the origin re-forwards it: well past the healthy commit path (a
    /// 4Δ commit timer plus flooding hops) *and* past a full view change
    /// (ages count from birth, and a command born just before a blame
    /// quorum rides the whole quit/status/new-view sequence), so live
    /// runs never retry; but bounded, so a partition that swallowed the
    /// forward heals into re-delivery instead of a stranded client.
    pub const FORWARD_RETRY_MULTIPLE: u64 = 32;

    /// A path whose pool synthesizes `offered_load` commands of
    /// `payload_bytes` bytes per batch until a workload is attached.
    pub fn new(payload_bytes: usize, offered_load: usize) -> Self {
        ClientPath {
            pool: TxPool::synthetic(payload_bytes).with_offered_load(offered_load),
            batcher: AdaptiveBatcher::new(),
            workload: None,
            flush_armed: false,
            retry_armed: false,
        }
    }

    /// Attaches a client-workload stream: arrivals become timer events,
    /// each transaction is injected with a birth timestamp, and the
    /// pool's synthetic fallback is off (the workload *replaces* the
    /// `offered_load` knob).
    pub fn attach_workload(&mut self, source: Box<dyn WorkloadSource>) {
        self.pool.client_only();
        self.workload = Some(source);
    }

    /// Whether a workload stream is attached.
    pub fn has_workload(&self) -> bool {
        self.workload.is_some()
    }

    /// End-to-end (birth → local commit) latencies of the workload
    /// transactions injected at this node, µs.
    pub fn tx_latencies(&self) -> &LogHistogram {
        self.pool.tx_latencies()
    }

    /// High-water mark of the pending-command backlog over the run.
    pub fn peak_backlog(&self) -> usize {
        self.pool.peak_backlog()
    }

    /// The telemetry gauges. Every value is node-local, so the sampled
    /// series is invariant across shard, worker and scheduler choices.
    pub fn gauges(&self, metrics: &Metrics, view: u64) -> ActorGauges {
        ActorGauges {
            tx_in_flight: self.pool.in_flight() as u64,
            pool_backlog: self.pool.backlog() as u64,
            forward_retries: metrics.forward_retries,
            batch_fill_pct: metrics.last_batch_fill_pct as f64,
            view,
        }
    }

    /// Queues client commands: submitted here, or forwarded by a peer.
    pub fn submit(&mut self, commands: impl IntoIterator<Item = Command>) {
        for cmd in commands {
            self.pool.submit(cmd);
        }
    }

    /// Settles the commands `block` carried ([`TxPool::remove_committed`]).
    pub fn settle(&mut self, block: &Block, now: SimTime) {
        self.pool.remove_committed(block, now);
    }

    /// Re-queues what a dead view dropped ([`TxPool::requeue_unresolved`]).
    pub fn requeue_unresolved(&mut self) {
        self.pool.requeue_unresolved();
    }

    /// Cuts the next proposal batch, sized by `policy` against the backlog.
    pub fn cut_batch(&mut self, policy: BatchPolicy) -> Vec<Command> {
        let want = self.batcher.next_size(self.pool.backlog(), policy);
        self.pool.next_batch(want)
    }

    /// Arms the first arrival timer, if a workload stream is attached.
    pub fn start<M: Message, T: Clone + Debug>(&mut self, ctx: &mut Context<'_, M, T>, arrival: T) {
        if let Some(source) = &mut self.workload {
            if let Some(delay) = source.next_arrival_in(ctx.now().as_micros()) {
                ctx.set_timer(SimDuration::from_micros(delay), arrival);
            }
        }
    }

    /// Restart after a crash: the forward timers died with the process;
    /// re-arm the arrival stream.
    pub fn restart<M: Message, T: Clone + Debug>(
        &mut self,
        ctx: &mut Context<'_, M, T>,
        arrival: T,
    ) {
        self.flush_armed = false;
        self.retry_armed = false;
        self.start(ctx, arrival);
    }

    /// One arrival event: injects the source's transaction (unless the
    /// closed-loop bound suppresses it), counts `tx_injected`, traces
    /// `TxInject`, and re-arms the arrival timer. The caller then
    /// proposes or forwards the fresh backlog.
    pub fn on_arrival<M: Message, T: Clone + Debug>(
        &mut self,
        metrics: &mut Metrics,
        ctx: &mut Context<'_, M, T>,
        arrival: T,
    ) {
        let Some(source) = &mut self.workload else { return };
        let now_us = ctx.now().as_micros();
        if let Some(cmd) = source.arrival(now_us, self.pool.in_flight()) {
            metrics.tx_injected += 1;
            if ctx.traces(TraceClass::Commit) {
                ctx.trace(TraceEventKind::TxInject { tx: cmd.fingerprint() });
            }
            self.pool.submit_at(cmd, now_us);
        }
        if let Some(delay) = source.next_arrival_in(now_us) {
            ctx.set_timer(SimDuration::from_micros(delay), arrival);
        }
    }

    /// Forward batching: whether to forward the backlog now, i.e. it
    /// holds `threshold` commands (any, if `threshold ≤ 1`). Below the
    /// threshold it arms one `flush` timer `flush_after` from now, so
    /// several arrivals share one signed forward and none strand.
    pub fn forward_due<M: Message, T: Clone + Debug>(
        &mut self,
        threshold: usize,
        flush_after: SimDuration,
        ctx: &mut Context<'_, M, T>,
        flush: T,
    ) -> bool {
        if self.pool.is_empty() {
            return false;
        }
        if threshold <= 1 || self.pool.backlog() >= threshold {
            return true;
        }
        if !self.flush_armed {
            self.flush_armed = true;
            ctx.set_timer(flush_after, flush);
        }
        false
    }

    /// The forward-flush timer fired.
    pub fn flush_fired(&mut self) {
        self.flush_armed = false;
    }

    /// Drains the backlog for the caller to sign and send to `leader`,
    /// counting `tx_forwarded` and tracing `TxForward`; `None` when
    /// nothing is queued. Births stay here: latency settles at the
    /// origin, and a view change re-queues what a dead leader dropped.
    pub fn take_forward<M: Message, T: Clone + Debug>(
        &mut self,
        leader: NodeId,
        metrics: &mut Metrics,
        ctx: &mut Context<'_, M, T>,
    ) -> Option<Vec<Command>> {
        if self.pool.is_empty() {
            return None;
        }
        let commands = self.pool.take_pending();
        metrics.tx_forwarded += commands.len() as u64;
        if ctx.traces(TraceClass::Commit) {
            for cmd in &commands {
                ctx.trace(TraceEventKind::TxForward { tx: cmd.fingerprint(), leader });
            }
        }
        Some(commands)
    }

    /// Arms the forward-retry timer, unless one is pending or nothing is
    /// unresolved, for the instant the earliest unresolved command turns
    /// retry-eligible: its age crosses `FORWARD_RETRY_MULTIPLE × delta`,
    /// or its cooldown from a previous retry ends. (A fixed period would
    /// let a command born just after a fire wait almost two windows.)
    pub fn arm_retry<M: Message, T: Clone + Debug>(
        &mut self,
        delta: SimDuration,
        ctx: &mut Context<'_, M, T>,
        retry: T,
    ) {
        if self.retry_armed {
            return;
        }
        let window_us = delta.as_micros() * Self::FORWARD_RETRY_MULTIPLE;
        let Some(due_us) = self.pool.next_retry_due_us(window_us) else {
            return;
        };
        let delay_us = due_us.saturating_sub(ctx.now().as_micros()).max(1);
        self.retry_armed = true;
        ctx.set_timer(SimDuration::from_micros(delay_us), retry);
    }

    /// The forward-retry timer fired.
    pub fn retry_fired(&mut self) {
        self.retry_armed = false;
    }

    /// Requeues the commands unresolved for a full retry window at `now`
    /// (younger ones are presumed to be riding a block) and counts
    /// `forward_retries`. Returns whether anything was restored; the
    /// caller then proposes or re-forwards it and calls
    /// [`arm_retry`](ClientPath::arm_retry) again.
    pub fn retry_stale(&mut self, delta: SimDuration, now: SimTime, metrics: &mut Metrics) -> bool {
        let age_us = delta.as_micros() * Self::FORWARD_RETRY_MULTIPLE;
        let restored = self.pool.requeue_stale(now.as_micros(), age_us);
        if restored {
            metrics.forward_retries += 1;
        }
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use eesmr_net::harness::{Harness, Output};
    use eesmr_net::Actor;

    #[test]
    fn submit_then_batch_fifo() {
        let mut pool = TxPool::new();
        pool.submit(Command::new(vec![1]));
        pool.submit(Command::new(vec![2]));
        pool.submit(Command::new(vec![3]));
        let batch = pool.next_batch(2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].bytes(), &[1]);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn empty_non_synthetic_pool_gives_empty_batches() {
        let mut pool = TxPool::new();
        assert!(pool.next_batch(10).is_empty());
    }

    #[test]
    fn synthetic_pool_always_has_a_batch() {
        let mut pool = TxPool::synthetic(16);
        let a = pool.next_batch(10);
        let b = pool.next_batch(10);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].len(), 16);
        assert_ne!(a, b, "sequence numbers differ");
    }

    #[test]
    fn real_commands_take_priority_over_synthetic() {
        let mut pool = TxPool::synthetic(16);
        pool.submit(Command::new(vec![9; 4]));
        let batch = pool.next_batch(10);
        assert_eq!(batch[0].bytes(), &[9; 4]);
    }

    #[test]
    fn synthetic_offered_load_fabricates_a_full_batch() {
        let mut pool = TxPool::synthetic(8).with_offered_load(5);
        assert_eq!(pool.backlog(), 5);
        let batch = pool.next_batch(10);
        assert_eq!(batch.len(), 5, "offered load bounds the synthetic batch");
        let batch = pool.next_batch(3);
        assert_eq!(batch.len(), 3, "the proposer's cap still applies");
        // Real commands still take priority and drive the backlog.
        pool.submit(Command::new(vec![1]));
        assert_eq!(pool.backlog(), 1);
        assert_eq!(pool.next_batch(10).len(), 1);
    }

    #[test]
    fn client_fed_pool_has_zero_backlog_when_empty() {
        assert_eq!(TxPool::new().backlog(), 0);
    }

    #[test]
    fn adaptive_batcher_converges_under_steady_load() {
        let policy = BatchPolicy::Adaptive { min: 1, max: 256, target_fill_pct: 50 };
        let mut batcher = AdaptiveBatcher::new();
        // Steady backlog of 120 commands → target 60 per proposal.
        let mut last = 0;
        for _ in 0..32 {
            last = batcher.next_size(120, policy);
        }
        assert_eq!(last, 60, "converged to target_fill_pct of the backlog");
        assert_eq!(batcher.next_size(120, policy), 60, "and stays there");
        // Load drops: the batch shrinks back toward the new target.
        for _ in 0..32 {
            last = batcher.next_size(10, policy);
        }
        assert_eq!(last, 5);
    }

    #[test]
    fn adaptive_batcher_respects_min_max_and_grows_gradually() {
        let policy = BatchPolicy::Adaptive { min: 4, max: 32, target_fill_pct: 100 };
        let mut batcher = AdaptiveBatcher::new();
        let first = batcher.next_size(1_000_000, policy);
        assert!(first < 32, "ramps up instead of jumping to max (got {first})");
        assert!(first >= 4);
        let mut prev = first;
        for _ in 0..16 {
            let next = batcher.next_size(1_000_000, policy);
            assert!(next >= prev, "monotone ramp under constant overload");
            prev = next;
        }
        assert_eq!(prev, 32, "saturates at the policy max");
        // An idle pool shrinks it back down to min.
        for _ in 0..16 {
            prev = batcher.next_size(0, policy);
        }
        assert_eq!(prev, 4);
    }

    #[test]
    fn fixed_policy_passes_through() {
        let mut batcher = AdaptiveBatcher::new();
        assert_eq!(batcher.next_size(7, BatchPolicy::Fixed(64)), 64);
        assert_eq!(batcher.next_size(0, BatchPolicy::Fixed(0)), 1, "zero cap clamps to one");
    }

    #[test]
    fn committed_commands_are_removed() {
        let mut pool = TxPool::new();
        let keep = Command::new(vec![1]);
        let gone = Command::new(vec![2]);
        pool.submit(keep.clone());
        pool.submit(gone.clone());
        let block = Block::extending(&Block::genesis(), 1, 3, vec![gone]);
        pool.remove_committed(&block, SimTime::ZERO);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.next_batch(1)[0], keep);
    }

    #[test]
    fn requeue_unresolved_recovers_commands_from_discarded_proposals() {
        let mut pool = TxPool::new();
        let a = Command::new(vec![1; 16]);
        let b = Command::new(vec![2; 16]);
        pool.submit_at(a.clone(), 100);
        pool.submit_at(b.clone(), 200);
        // The proposer drains both into a block the view change discards.
        assert_eq!(pool.next_batch(10).len(), 2);
        assert_eq!(pool.len(), 0);
        pool.requeue_unresolved();
        assert_eq!(pool.len(), 2, "discarded commands are proposable again");
        assert_eq!(pool.in_flight(), 2, "births are untouched by requeue");
        // Still-pending commands are not duplicated by a second call.
        pool.requeue_unresolved();
        assert_eq!(pool.len(), 2);
        // Committing the re-proposed block settles each latency once.
        let block = Block::extending(&Block::genesis(), 2, 3, vec![a, b]);
        pool.remove_committed(&block, SimTime::from_micros(1_000));
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.tx_latencies().count(), 2);
    }

    #[test]
    fn take_pending_drains_commands_but_keeps_births() {
        let mut pool = TxPool::new();
        let a = Command::new(vec![1; 8]);
        let b = Command::new(vec![2; 8]);
        pool.submit_at(a.clone(), 100);
        pool.submit_at(b.clone(), 200);
        let forwarded = pool.take_pending();
        assert_eq!(forwarded, vec![a.clone(), b.clone()]);
        assert!(pool.is_empty(), "forwarded commands leave the local queue");
        assert_eq!(pool.in_flight(), 2, "births stay until commit");
        // A view change restores them for re-forwarding to the new leader.
        pool.requeue_unresolved();
        assert_eq!(pool.len(), 2);
        // Committing the forwarded copy settles the origin's latency.
        let block = Block::extending(&Block::genesis(), 1, 3, vec![a, b]);
        pool.remove_committed(&block, SimTime::from_micros(1_000));
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.tx_latencies().count(), 2);
        assert!(pool.is_empty());
    }

    #[test]
    fn requeue_stale_respects_the_age_threshold() {
        let mut pool = TxPool::new();
        let old = Command::new(vec![1; 8]);
        let young = Command::new(vec![2; 8]);
        pool.submit_at(old.clone(), 1_000);
        pool.submit_at(young.clone(), 9_000);
        assert!(!pool.has_unresolved(), "everything still queued locally");
        let forwarded = pool.take_pending();
        assert_eq!(forwarded.len(), 2);
        assert!(pool.has_unresolved(), "both are in flight now");
        // At t=10_000 with a 5_000µs window only the older command
        // qualifies; the younger one is presumed to be committing.
        assert!(pool.requeue_stale(10_000, 5_000));
        assert_eq!(pool.len(), 1, "only the stale command is restored");
        // Settle the restored command (commit removes it from pending
        // and resolves its birth). The young one alone doesn't qualify:
        let block = Block::extending(&Block::genesis(), 1, 3, vec![old]);
        pool.remove_committed(&block, SimTime::from_micros(11_000));
        assert!(!pool.requeue_stale(11_000, 5_000));
        // But it still counts as unresolved, so a retry stays armed...
        assert!(pool.has_unresolved());
        // ...and it qualifies once enough time passes.
        assert!(pool.requeue_stale(20_000, 5_000));
        assert_eq!(pool.next_batch(10), vec![young]);
        assert!(pool.has_unresolved());
    }

    #[test]
    fn client_only_disables_the_synthetic_fallback() {
        let mut pool = TxPool::synthetic(16).with_offered_load(8);
        pool.client_only();
        assert!(pool.next_batch(10).is_empty(), "no fabricated batch");
        assert_eq!(pool.backlog(), 0);
    }

    #[test]
    fn workload_births_survive_batching_and_settle_at_commit() {
        let mut pool = TxPool::new();
        let a = Command::new(vec![1; 16]);
        let b = Command::new(vec![2; 16]);
        pool.submit_at(a.clone(), 1_000);
        pool.submit_at(b.clone(), 2_000);
        assert_eq!(pool.in_flight(), 2);
        // The proposer drains pending into a block; births persist.
        let batch = pool.next_batch(10);
        assert_eq!(batch.len(), 2);
        assert_eq!(pool.in_flight(), 2, "in-flight counts until commit, not until batching");
        let block = Block::extending(&Block::genesis(), 1, 3, vec![a]);
        pool.remove_committed(&block, SimTime::from_micros(5_000));
        assert_eq!(pool.in_flight(), 1, "only the committed command settles");
        assert_eq!(pool.tx_latencies().count(), 1);
        assert_eq!(pool.tx_latencies().min(), Some(4_000), "birth 1000 → commit 5000");
        let block2 = Block::extending(&block, 1, 4, vec![b]);
        pool.remove_committed(&block2, SimTime::from_micros(9_000));
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.tx_latencies().count(), 2);
        assert_eq!(pool.tx_latencies().max(), Some(7_000), "birth 2000 → commit 9000");
    }

    /// One `ClientPath` call per message, made the way a non-leading
    /// replica makes it.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Submit(u8),
        ForwardDue { threshold: usize },
        TakeForward,
        RetryStale,
    }

    impl Message for Call {
        fn wire_size(&self) -> usize {
            8
        }
        fn flood_key(&self) -> u64 {
            0
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Tick {
        Flush,
        Retry,
    }

    const DELTA: SimDuration = SimDuration::from_millis(1);

    struct Follower {
        path: ClientPath,
        metrics: Metrics,
        answers: Vec<bool>,
    }

    impl Actor for Follower {
        type Msg = Call;
        type Timer = Tick;

        fn on_message(&mut self, _: NodeId, call: Call, ctx: &mut Context<'_, Call, Tick>) {
            let answer = match call {
                Call::Submit(b) => {
                    self.path.pool.submit_at(Command::new(vec![b]), ctx.now().as_micros());
                    true
                }
                Call::ForwardDue { threshold } => {
                    self.path.forward_due(threshold, DELTA, ctx, Tick::Flush)
                }
                Call::TakeForward => {
                    let taken = self.path.take_forward(0, &mut self.metrics, ctx).is_some();
                    self.path.arm_retry(DELTA, ctx, Tick::Retry);
                    taken
                }
                Call::RetryStale => self.path.retry_stale(DELTA, ctx.now(), &mut self.metrics),
            };
            self.answers.push(answer);
        }

        fn on_timer(&mut self, tick: Tick, _: &mut Context<'_, Call, Tick>) {
            match tick {
                Tick::Flush => self.path.flush_fired(),
                Tick::Retry => self.path.retry_fired(),
            }
        }
    }

    fn ask(h: &mut Harness<Follower>, call: Call) -> (bool, Vec<Output<Call, Tick>>) {
        let out = h.deliver(0, call);
        (*h.actor().answers.last().unwrap(), out)
    }

    fn timers(out: &[Output<Call, Tick>]) -> Vec<(SimDuration, Tick)> {
        out.iter()
            .filter_map(|o| match o {
                Output::SetTimer { delay, token, .. } => Some((*delay, token.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn client_path_batches_forwards_behind_one_flush_timer() {
        let path = ClientPath::new(16, 1);
        let mut h =
            Harness::new(1, Follower { path, metrics: Metrics::default(), answers: vec![] });
        assert_eq!(ask(&mut h, Call::ForwardDue { threshold: 3 }), (false, vec![]), "empty pool");
        ask(&mut h, Call::Submit(1));
        let (due, out) = ask(&mut h, Call::ForwardDue { threshold: 3 });
        assert!(!due, "below the threshold the commands wait");
        assert_eq!(timers(&out), vec![(DELTA, Tick::Flush)]);
        ask(&mut h, Call::Submit(2));
        let (due, out) = ask(&mut h, Call::ForwardDue { threshold: 3 });
        assert!(!due && out.is_empty(), "one flush timer at a time");
        ask(&mut h, Call::Submit(3));
        assert!(ask(&mut h, Call::ForwardDue { threshold: 3 }).0, "threshold reached");
        assert!(ask(&mut h, Call::ForwardDue { threshold: 1 }).0, "threshold 1 forwards at once");
        let (taken, out) = ask(&mut h, Call::TakeForward);
        assert!(taken);
        assert_eq!(h.actor().metrics.tx_forwarded, 3);
        assert!(h.actor().path.pool.is_empty(), "the backlog left the pool");
        assert_eq!(timers(&out), vec![(DELTA * ClientPath::FORWARD_RETRY_MULTIPLE, Tick::Retry)]);
        assert_eq!(ask(&mut h, Call::TakeForward), (false, vec![]), "nothing left to take");
        // Once the flush timer fires, a new sub-threshold backlog arms it again.
        h.fire(Tick::Flush);
        ask(&mut h, Call::Submit(4));
        let (_, out) = ask(&mut h, Call::ForwardDue { threshold: 3 });
        assert_eq!(timers(&out), vec![(DELTA, Tick::Flush)]);
    }

    #[test]
    fn client_path_retries_only_commands_older_than_the_window() {
        let path = ClientPath::new(16, 1);
        let mut h =
            Harness::new(1, Follower { path, metrics: Metrics::default(), answers: vec![] });
        ask(&mut h, Call::Submit(1));
        ask(&mut h, Call::TakeForward);
        let window = DELTA * ClientPath::FORWARD_RETRY_MULTIPLE;
        h.advance(window - DELTA);
        assert!(!ask(&mut h, Call::RetryStale).0, "still young: presumed committing");
        h.advance(DELTA);
        assert!(ask(&mut h, Call::RetryStale).0, "stale: back in the pool");
        assert_eq!(h.actor().metrics.forward_retries, 1);
        assert_eq!(h.actor().path.pool.len(), 1);
        // The retry timer is still armed until it fires.
        assert!(timers(&ask(&mut h, Call::TakeForward).1).is_empty());
        h.fire(Tick::Retry);
        let (_, out) = ask(&mut h, Call::TakeForward);
        assert_eq!(timers(&out), vec![(window, Tick::Retry)], "the requeue restarted its cooldown");
    }
}
