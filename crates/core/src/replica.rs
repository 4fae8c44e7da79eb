//! The EESMR replica — the event-driven form of Algorithm 2.
//!
//! Steady state (rounds ≥ 3) lives here; the blame and view-change
//! machinery is in the private `view_change` module. The replica implements
//! [`eesmr_net::Actor`], so the same code runs under the discrete-event
//! simulator regardless of topology or channel pricing.
//!
//! ## Mapping to Algorithm 2
//!
//! | Paper | Here |
//! |---|---|
//! | lines 203–208 (leader proposes)      | `Replica::try_propose` |
//! | lines 209–215 (relay, lock, commit timer, next round) | `Replica::accept_proposal` |
//! | line 216 (blame on timeout)          | `TimerToken::Blame` handling |
//! | lines 220–226 (equivocation)         | `view_change::on_equivocation` |
//! | lines 227–234 (blame QC, quit view)  | `view_change::on_blame` / `on_blame_qc` |
//! | lines 235–250 (QuitView)             | `view_change::start_quit_view` … |
//! | lines 251–277 (NewView)              | `view_change::enter_new_view` … |
//! | lines 278–280 (commit rule)          | `TimerToken::Commit` handling |

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use eesmr_crypto::{Digest, KeyStore, Signature};
use eesmr_net::{
    Actor, ActorGauges, Context, NodeId, SimTime, TimerId, TraceClass, TraceEventKind,
};

use crate::block::{Block, ChainSync, Command};
use crate::config::{Config, FaultMode, Pacing};
use crate::message::{CertifiedBlock, Payload, QuorumCert, SignedMsg};
use crate::metrics::Metrics;
use crate::txpool::{ClientPath, WorkloadSource};

/// Timer tokens (all carry the view they were armed in; stale timers are
/// ignored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimerToken {
    /// `T_blame(v)` — no progress within 4Δ (8Δ/6Δ during a new view).
    Blame {
        /// View the timer guards.
        view: u64,
    },
    /// `T_commit(block)` — 4Δ equivocation-free wait before committing.
    Commit {
        /// View in which the block was relayed.
        view: u64,
        /// The block to commit.
        block: Digest,
    },
    /// Δ wait after a blame certificate before executing `QuitView`.
    QuitWait {
        /// The view being quit.
        view: u64,
    },
    /// 5Δ wait inside `QuitView` to collect a commit certificate.
    ShareQc {
        /// The view being quit.
        view: u64,
    },
    /// Δ wait after sharing commit certificates before the new view.
    EnterNew {
        /// The view being quit (the new view is `view + 1`).
        view: u64,
    },
    /// The new leader's 4Δ status-collection window.
    LeaderStatus {
        /// The new view.
        view: u64,
    },
    /// The next client-transaction arrival from the attached
    /// [`WorkloadSource`] (view-independent: client traffic doesn't stop
    /// for view changes).
    Arrival,
    /// Δ flush deadline for a sub-threshold forward batch (see
    /// [`Config::forward_batch`](crate::Config)).
    ForwardFlush,
    /// Periodic check for forwarded commands that never resolved: a
    /// forward flood is fire-and-forget, so a partition (or a silently
    /// absent leader) can swallow it without any view change to trigger
    /// the usual re-queue. The retry requeues and re-forwards anything
    /// still unresolved after the retry window.
    ForwardRetry,
    /// A crashed node's restart point ([`FaultMode::Crash`] with a
    /// `restart_at_us`): re-arm timers and run the repair protocol.
    Restart,
}

/// Convenience alias for the replica's network context.
pub type Ctx<'a> = Context<'a, SignedMsg, TimerToken>;

/// View-change progress for the view currently being quit.
#[derive(Debug, Clone, Default)]
pub(crate) struct VcState {
    /// Certify signatures collected for *my* announced `B_com`.
    pub certifies: BTreeMap<NodeId, Signature>,
    /// The best (highest) commit certificate known.
    pub best_qc: Option<CertifiedBlock>,
    /// Whether `QuitView` has been scheduled (idempotence guard).
    pub quit_scheduled: bool,
    /// Whether the commit QC was already shared.
    pub shared: bool,
}

/// New-view bookkeeping (round 1–2 of the current view).
#[derive(Debug, Clone, Default)]
pub(crate) struct NewViewState {
    /// Status entries collected by the new leader, keyed by sender.
    pub status_qcs: BTreeMap<NodeId, CertifiedBlock>,
    /// Lock-status entries (optimized path), keyed by sender.
    pub status_locks: BTreeMap<NodeId, crate::message::SignedBlock>,
    /// Votes on the leader's round-1 proposal.
    pub votes: BTreeMap<NodeId, Signature>,
    /// The round-1 proposal hash this node voted for / proposed.
    pub prop_hash: Option<Digest>,
    /// The round-1 block.
    pub round1_block: Option<Digest>,
    /// Whether the leader already issued the round-2 proposal.
    pub round2_sent: bool,
}

/// An EESMR replica.
pub struct Replica {
    pub(crate) id: NodeId,
    pub(crate) config: Config,
    pub(crate) pki: Arc<KeyStore>,
    pub(crate) fault: FaultMode,

    // Book-keeping variables (§3.1).
    pub(crate) v_cur: u64,
    pub(crate) r_cur: u64,
    pub(crate) chain: ChainSync<SignedMsg>,
    pub(crate) b_lock: Digest,
    pub(crate) b_lock_height: u64,
    pub(crate) b_com: Digest,
    pub(crate) b_com_height: u64,
    pub(crate) client: ClientPath,

    // Steady state.
    pub(crate) proposals_seen: HashMap<(u64, u64), (Digest, SignedMsg)>,
    pub(crate) relayed: HashSet<Digest>,
    pub(crate) commit_timers: Vec<(Digest, TimerId)>,
    pub(crate) blame_timer: Option<TimerId>,
    pub(crate) outstanding: usize,
    pub(crate) want_propose: bool,
    pub(crate) first_seen: HashMap<Digest, SimTime>,

    // Blame / view change.
    pub(crate) blames: BTreeMap<NodeId, Signature>,
    pub(crate) view_aborted: bool,
    pub(crate) vc: VcState,
    pub(crate) nv: NewViewState,

    // Buffers.
    pub(crate) future_views: Vec<(NodeId, SignedMsg)>,

    // Outputs.
    pub(crate) committed_log: Vec<Digest>,
    pub(crate) metrics: Metrics,
}

impl core::fmt::Debug for Replica {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("view", &self.v_cur)
            .field("round", &self.r_cur)
            .field("committed_height", &self.b_com_height)
            .field("fault", &self.fault)
            .finish()
    }
}

impl Replica {
    /// Creates a replica with the given identity and fault behaviour.
    ///
    /// # Panics
    ///
    /// Panics if the key store does not cover `config.n` nodes or the fault
    /// bound is violated.
    pub fn new(id: NodeId, config: Config, pki: Arc<KeyStore>, fault: FaultMode) -> Self {
        assert!(pki.n() >= config.n, "key store must cover all nodes");
        assert!(config.check_fault_bound(), "EESMR requires f < n/2");
        let chain = ChainSync::default();
        let genesis = chain.store.genesis_id();
        let client = ClientPath::new(config.payload_bytes, config.offered_load);
        Replica {
            id,
            config,
            pki,
            fault,
            v_cur: 1,
            r_cur: 3,
            chain,
            b_lock: genesis,
            b_lock_height: 0,
            b_com: genesis,
            b_com_height: 0,
            client,
            proposals_seen: HashMap::new(),
            relayed: HashSet::new(),
            commit_timers: Vec::new(),
            blame_timer: None,
            outstanding: 0,
            want_propose: false,
            first_seen: HashMap::new(),
            blames: BTreeMap::new(),
            view_aborted: false,
            vc: VcState::default(),
            nv: NewViewState::default(),
            future_views: Vec::new(),
            committed_log: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    // ------------------------------------------------------------------
    // Public inspection API.
    // ------------------------------------------------------------------

    /// This replica's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current view `v_cur`.
    pub fn current_view(&self) -> u64 {
        self.v_cur
    }

    /// Current round `r_cur`.
    pub fn current_round(&self) -> u64 {
        self.r_cur
    }

    /// The committed log (block ids in commit order, excluding genesis).
    pub fn committed(&self) -> &[Digest] {
        &self.committed_log
    }

    /// Height of the highest committed block.
    pub fn committed_height(&self) -> u64 {
        self.b_com_height
    }

    /// Protocol metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Looks up a block (committed or not).
    pub fn block(&self, id: &Digest) -> Option<&Block> {
        self.chain.store.get(id)
    }

    /// Queues a client command for inclusion in a future block.
    pub fn submit(&mut self, cmd: Command) {
        self.client.submit([cmd]);
    }

    /// Attaches a client-workload stream (see
    /// [`ClientPath::attach_workload`]).
    pub fn attach_workload(&mut self, source: Box<dyn WorkloadSource>) {
        self.client.attach_workload(source);
    }

    /// The client path: pool, workload and forwarding state.
    pub fn client(&self) -> &ClientPath {
        &self.client
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The injected fault behaviour.
    pub fn fault(&self) -> FaultMode {
        self.fault
    }

    /// Whether this replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.config.leader_of(self.v_cur) == self.id
    }

    // ------------------------------------------------------------------
    // Internal helpers shared with the view-change half.
    // ------------------------------------------------------------------

    pub(crate) fn active(&self) -> bool {
        self.fault.is_active_in(self.v_cur)
    }

    /// Signs a payload for the current view, charging signing + hashing
    /// energy.
    pub(crate) fn sign(&self, payload: Payload, ctx: &mut Ctx<'_>) -> SignedMsg {
        let msg = SignedMsg::new(payload, self.v_cur, self.pki.keypair(self.id));
        ctx.meter().charge_sign(self.pki.scheme());
        ctx.meter().charge_hash(msg.wire_size());
        msg
    }

    /// Verifies a message envelope, charging verification + hashing energy.
    pub(crate) fn verify_envelope(&self, msg: &SignedMsg, ctx: &mut Ctx<'_>) -> bool {
        ctx.meter().charge_verify(self.pki.scheme());
        ctx.meter().charge_hash(msg.wire_size());
        msg.verify_sig(&self.pki)
    }

    /// Verifies a quorum certificate at the `f+1` threshold, charging for
    /// the signature checks performed.
    pub(crate) fn verify_qc(&self, qc: &QuorumCert, ctx: &mut Ctx<'_>) -> bool {
        let (ok, checks) = qc.verify(&self.pki, self.config.quorum());
        for _ in 0..checks {
            ctx.meter().charge_verify(self.pki.scheme());
        }
        ok
    }

    /// The steady-state no-progress timeout in Δ units. Algorithm 2 uses
    /// 4Δ for the streaming variant (the leader proposes continuously). In
    /// the blocking variant (§5.6) the leader only proposes after its 4Δ
    /// commit wait, so the next proposal legitimately arrives up to
    /// 4Δ + Δ after the previous one; 6Δ keeps an honest margin.
    pub(crate) fn steady_blame_multiple(&self) -> u64 {
        match self.config.pacing {
            Pacing::Blocking => 6,
            Pacing::Streaming { .. } => 4,
        }
    }

    pub(crate) fn reset_blame_timer(&mut self, multiple: u64, ctx: &mut Ctx<'_>) {
        if let Some(t) = self.blame_timer.take() {
            ctx.cancel_timer(t);
        }
        let id =
            ctx.set_timer(self.config.delta * multiple, TimerToken::Blame { view: self.v_cur });
        self.blame_timer = Some(id);
    }

    pub(crate) fn cancel_commit_timers(&mut self, ctx: &mut Ctx<'_>) {
        for (_, t) in self.commit_timers.drain(..) {
            ctx.cancel_timer(t);
        }
        self.outstanding = 0;
    }

    /// Walks parent links from `from_block` towards genesis and returns the
    /// first missing block id, if any. Acceptance rules keep every
    /// replica's accepted chain gap-free (the induction the commit rule's
    /// `segment` walk relies on); this detects boundary gaps introduced by
    /// view-change status blocks so they can be repaired before voting.
    pub(crate) fn chain_gap(&self, from_block: &Digest) -> Option<Digest> {
        let mut cur = *from_block;
        loop {
            match self.chain.store.get(&cur) {
                Some(b) if b.height == 0 => return None,
                Some(b) => cur = b.parent,
                None => return Some(cur),
            }
        }
    }

    /// Requests a missing block from `from` (chain synchronization, §3.2).
    pub(crate) fn request_sync(&mut self, want: Digest, from: NodeId, ctx: &mut Ctx<'_>) {
        if !self.chain.should_request(want, from, self.id) {
            return;
        }
        self.metrics.sync_requests += 1;
        let msg = self.sign(Payload::SyncRequest { want }, ctx);
        ctx.send_to(from, msg);
    }

    // ------------------------------------------------------------------
    // Client workload arrivals.
    // ------------------------------------------------------------------

    /// One arrival event: inject the transaction, re-arm the next
    /// arrival, and either propose the fresh backlog (leader) or forward
    /// it to whoever can (everyone else).
    pub(crate) fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
        self.client.on_arrival(&mut self.metrics, ctx, TimerToken::Arrival);
        self.try_propose(ctx);
        self.maybe_forward_backlog(ctx);
    }

    /// Whether this node relays client commands to the leader right now:
    /// it is a live non-leader in a view that is not being quit.
    fn may_forward(&self) -> bool {
        !self.is_leader() && self.active() && !self.view_aborted
    }

    /// Forward batching (see [`ClientPath::forward_due`] and
    /// [`Config::forward_batch`]): forward now, or wait for the
    /// threshold or the Δ flush timer.
    pub(crate) fn maybe_forward_backlog(&mut self, ctx: &mut Ctx<'_>) {
        let (threshold, flush_after) = (self.config.forward_batch, self.config.delta);
        if self.may_forward()
            && self.client.forward_due(threshold, flush_after, ctx, TimerToken::ForwardFlush)
        {
            self.forward_backlog(ctx);
        }
    }

    /// Command forwarding: a node that is not the current proposer
    /// relays its queued client commands to the leader, so closed-loop
    /// workloads cannot strand a transaction at a node that never leads.
    /// No workload gate: a node may also hold commands *forwarded to it*
    /// while it led a view that has since ended — those must be
    /// re-routed to the current leader too. Synthetic pools never queue
    /// commands, so non-workload runs stay forward-free.
    pub(crate) fn forward_backlog(&mut self, ctx: &mut Ctx<'_>) {
        if !self.may_forward() {
            return;
        }
        let leader = self.config.leader_of(self.v_cur);
        let Some(commands) = self.client.take_forward(leader, &mut self.metrics, ctx) else {
            return;
        };
        let msg = self.sign(Payload::Forward { commands: commands.into() }, ctx);
        ctx.send_to(leader, msg);
        self.client.arm_retry(self.config.delta, ctx, TimerToken::ForwardRetry);
    }

    /// The retry timer: requeue commands that have been unresolved for a
    /// full retry window and forward them to the current leader again
    /// (a forward flood is fire-and-forget, so a partition can swallow
    /// it without any view change to re-queue it). Re-arms itself while
    /// anything is still in flight.
    pub(crate) fn on_forward_retry(&mut self, ctx: &mut Ctx<'_>) {
        self.client.retry_fired();
        if !self.active() || self.view_aborted {
            return;
        }
        if self.client.retry_stale(self.config.delta, ctx.now(), &mut self.metrics) {
            if self.is_leader() {
                self.try_propose(ctx);
            } else {
                self.forward_backlog(ctx);
            }
        }
        self.client.arm_retry(self.config.delta, ctx, TimerToken::ForwardRetry);
    }

    /// Receives forwarded client commands: queue them and, if this node
    /// is the proposer, get them into a block. A forward that raced a
    /// view change (addressed to a leader that no longer leads) is
    /// re-routed straight to the current leader instead of stranding —
    /// each hop targets the receiver's *current* leader, so the chain
    /// settles as soon as views converge.
    pub(crate) fn on_forward(&mut self, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        if !self.verify_envelope(&msg, ctx) {
            return;
        }
        let Payload::Forward { commands } = &msg.payload else { return };
        self.client.submit(commands.iter().cloned());
        if self.is_leader() {
            self.try_propose(ctx);
        } else {
            self.forward_backlog(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Steady state: proposing.
    // ------------------------------------------------------------------

    /// Leader: propose for the current round if pacing allows
    /// (Algorithm 2, lines 203–208).
    pub(crate) fn try_propose(&mut self, ctx: &mut Ctx<'_>) {
        if !self.is_leader() || !self.active() || self.view_aborted || self.r_cur < 3 {
            return;
        }
        let allowed = match self.config.pacing {
            Pacing::Blocking => self.outstanding == 0,
            Pacing::Streaming { max_outstanding } => self.outstanding < max_outstanding,
        };
        if !allowed {
            self.want_propose = true;
            return;
        }
        self.want_propose = false;
        let round = self.r_cur;
        let parent = self
            .chain
            .store
            .get(&self.b_lock)
            .expect("locked block is always present locally")
            .clone();
        let batch = self.client.cut_batch(self.config.batch_policy);
        self.metrics.record_batch_fill(batch.len(), self.config.batch_policy.max_size());
        let block = Block::extending(&parent, self.v_cur, round, batch);
        ctx.meter().charge_hash(block.wire_size());
        if ctx.traces(TraceClass::Commit) {
            let block_fp = block.fingerprint();
            for cmd in &block.payload {
                ctx.trace(TraceEventKind::TxBatched { tx: cmd.fingerprint(), block: block_fp });
            }
            ctx.trace(TraceEventKind::Propose { block: block_fp, view: self.v_cur, round });
        }
        self.chain.store.insert(block.clone());
        let msg = self.sign(Payload::Propose { block: block.clone(), round, justify: None }, ctx);
        self.relayed.insert(block.id());
        ctx.multicast(msg);

        if let FaultMode::Equivocate { in_view } = self.fault {
            if in_view == self.v_cur && !self.config.crash_only {
                // Conflicting sibling for the same round: equivocation.
                let twin = Block::extending(
                    &parent,
                    self.v_cur,
                    round,
                    vec![Command::synthetic(u64::MAX, self.config.payload_bytes)],
                );
                self.chain.store.insert(twin.clone());
                let twin_msg =
                    self.sign(Payload::Propose { block: twin, round, justify: None }, ctx);
                ctx.multicast(twin_msg);
            }
        }
    }

    // ------------------------------------------------------------------
    // Steady state: receiving proposals.
    // ------------------------------------------------------------------

    /// Handles a `Propose` (steady-state rounds ≥ 3 or new-view round 2).
    pub(crate) fn on_propose(&mut self, from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::Propose { block, round, justify } = &msg.payload else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
        let block_id = block.id();
        // Relay-once flooding delivers each proposal up to D_in times; an
        // exact duplicate of an already-seen proposal needs no fresh
        // signature check (dedup by content hash, as a real node would).
        let key = (msg.view, *round);
        if let Some((seen_id, _)) = self.proposals_seen.get(&key) {
            let processed =
                self.relayed.contains(&block_id) || msg.view < self.v_cur || *round < self.r_cur;
            if *seen_id == block_id && processed {
                return;
            }
        }
        // Proposals must be leader-signed for their view. Under the §3.5
        // checkpoint optimization, non-checkpoint rounds are accepted
        // optimistically without the signature check — the hash-chained
        // checkpoint round authenticates them retroactively.
        if msg.signer != self.config.leader_of(msg.view) {
            self.metrics.proposals_rejected += 1;
            return;
        }
        if self.config.round_needs_verification(*round) && !self.verify_envelope(&msg, ctx) {
            self.metrics.proposals_rejected += 1;
            return;
        }
        // Equivocation detection works for any round of the current view
        // (lines 220–226) — "not just the latest round".
        if let Some((seen_id, seen_msg)) = self.proposals_seen.get(&key) {
            if *seen_id != block_id {
                if msg.view == self.v_cur && !self.config.crash_only {
                    let first = seen_msg.clone();
                    self.on_equivocation(first, msg, ctx);
                }
                return;
            }
        } else {
            self.proposals_seen.insert(key, (block_id, msg.clone()));
        }
        if msg.view < self.v_cur {
            return;
        }

        if *round == 1 {
            // Round-1 content travels as NewViewProposal, never Propose.
            self.metrics.proposals_rejected += 1;
            return;
        }
        if *round == 2 {
            self.on_round2_propose(from, msg.clone(), ctx);
            return;
        }

        // Steady state (round ≥ 3). Proposals for rounds ahead of r_cur are
        // processed as soon as their parent chain is known: relaying a
        // block implicitly votes for all its ancestors (§3.3), so a node
        // that missed a round catches up via chain sync instead of
        // stalling.
        if *round < self.r_cur || self.view_aborted || self.r_cur < 3 {
            return;
        }
        if justify.is_some() {
            self.metrics.proposals_rejected += 1;
            return; // steady proposals carry no certificate
        }
        if !self.chain.store.contains(&block.parent) {
            let parent = block.parent;
            self.chain.park(parent, from, msg);
            self.request_sync(parent, from, ctx);
            return;
        }
        // LockCompare (line 121): only accept extensions of the lock.
        let block = block.clone();
        self.chain.store.insert(block.clone());
        if !self.chain.store.extends(&block_id, &self.b_lock) {
            self.metrics.proposals_rejected += 1;
            return;
        }
        self.accept_proposal(block, msg, ctx);
    }

    /// Lines 209–215: vote in the head — relay once, lock, arm the commit
    /// timer, advance the round.
    fn accept_proposal(&mut self, block: Block, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let block_id = block.id();
        ctx.meter().charge_hash(block.wire_size());
        self.first_seen.entry(block_id).or_insert(ctx.now());

        // Relay once (line 213) — the implicit vote. A withholding node
        // processes and commits but never relays (starving quorum-less
        // EESMR of nothing, but starving the vote-counting baselines); a
        // storming node re-multicasts extra copies that the receivers'
        // content dedup absorbs while traffic and energy inflate.
        if self.relayed.insert(block_id) && self.fault.relays_in(self.v_cur) {
            self.metrics.proposals_relayed += 1;
            if ctx.traces(TraceClass::Commit) {
                ctx.trace(TraceEventKind::Relay { block: crate::block::fingerprint(&block_id) });
            }
            for _ in 0..self.fault.storm_repeats_in(self.v_cur) {
                ctx.multicast(msg.clone());
            }
            ctx.multicast(msg);
        }

        // Update the lock (line 212).
        self.b_lock = block_id;
        self.b_lock_height = block.height;

        // Arm T_commit(B) = 4Δ (line 214).
        let t = ctx.set_timer(
            self.config.delta * 4,
            TimerToken::Commit { view: self.v_cur, block: block_id },
        );
        self.commit_timers.push((block_id, t));
        self.outstanding += 1;

        // NextRound (line 215) — jumps over any rounds this node missed.
        self.r_cur = self.r_cur.max(block.round + 1);
        let m = self.steady_blame_multiple();
        self.reset_blame_timer(m, ctx);
        self.try_propose(ctx);
    }

    /// The commit rule (lines 278–280): `T_commit` expired without
    /// equivocation — commit the block and its ancestors.
    fn on_commit_timer(&mut self, view: u64, block_id: Digest, ctx: &mut Ctx<'_>) {
        self.commit_timers.retain(|(b, _)| *b != block_id);
        if view != self.v_cur || self.view_aborted {
            return;
        }
        self.outstanding = self.outstanding.saturating_sub(1);
        self.commit_block(block_id, ctx);
        if self.want_propose {
            self.try_propose(ctx);
        }
    }

    /// Commits `block_id` and all uncommitted ancestors.
    pub(crate) fn commit_block(&mut self, block_id: Digest, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(block) = self.chain.store.get(&block_id) else { return };
        if block.height <= self.b_com_height {
            return; // already covered
        }
        let Some(segment) = self.chain.store.segment(&self.b_com, &block_id) else {
            // Gap or fork relative to B_com — cannot happen for correct
            // replicas (commit safety); refuse rather than fork.
            return;
        };
        for id in segment {
            self.committed_log.push(id);
            self.metrics.blocks_committed += 1;
            if let Some(seen) = self.first_seen.remove(&id) {
                self.metrics.record_commit_latency(now.since(seen));
            }
            let block = self.chain.store.get(&id).expect("segment blocks are stored").clone();
            if ctx.traces(TraceClass::Commit) {
                ctx.trace(TraceEventKind::Commit {
                    block: crate::block::fingerprint(&id),
                    height: block.height,
                });
            }
            self.client.settle(&block, now);
        }
        self.b_com = block_id;
        self.b_com_height = self.chain.store.get(&block_id).expect("committed block stored").height;
        self.metrics.committed_height = self.b_com_height;
    }

    // ------------------------------------------------------------------
    // Chain synchronization.
    // ------------------------------------------------------------------

    pub(crate) fn on_sync_request(&mut self, _from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::SyncRequest { want } = &msg.payload else { return };
        if !self.verify_envelope(&msg, ctx) {
            return;
        }
        let blocks: Vec<Block> =
            self.chain.store.ancestors(want, 256).into_iter().cloned().collect();
        if blocks.is_empty() {
            return;
        }
        let reply = self.sign(Payload::SyncResponse { blocks }, ctx);
        ctx.send_to(msg.signer, reply);
    }

    pub(crate) fn on_sync_response(&mut self, _from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::SyncResponse { blocks } = msg.payload else { return };
        // Blocks are self-certifying (hash-linked); no signature needed.
        for (from, orphan_msg) in self.chain.ingest(blocks, ctx) {
            self.on_message(from, orphan_msg, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Crash-recovery repair protocol.
    // ------------------------------------------------------------------

    /// Whether the node is powered on (false inside a
    /// [`FaultMode::Crash`] outage window).
    pub(crate) fn online(&self, ctx: &Ctx<'_>) -> bool {
        self.fault.online(ctx.now().as_micros())
    }

    /// The restart point of a recovering crash fault: the outage wiped
    /// volatile per-view state (in-flight timers died with the process),
    /// but the committed prefix is durable. Re-arm the protocol timers
    /// and ask the network for everything above the durable height.
    pub(crate) fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.cancel_commit_timers(ctx);
        self.want_propose = false;
        let m = self.steady_blame_multiple();
        self.reset_blame_timer(m, ctx);
        self.client.restart(ctx, TimerToken::Arrival);
        self.metrics.repair_requests += 1;
        let msg = self.sign(Payload::Repair { from_height: self.b_com_height }, ctx);
        ctx.flood(msg);
    }

    /// Serves a recovering peer: reply with the committed-chain suffix
    /// above its durable height, plus our current view so it can rejoin.
    pub(crate) fn on_repair(&mut self, _from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::Repair { from_height } = msg.payload else { return };
        if !self.verify_envelope(&msg, ctx) || self.b_com_height <= from_height {
            return;
        }
        let blocks = self.chain.store.committed_suffix(&self.b_com, from_height, 256);
        if blocks.is_empty() {
            return;
        }
        self.metrics.repairs_served += 1;
        let reply = self.sign(Payload::RepairReply { blocks, view: self.v_cur }, ctx);
        ctx.send_to(msg.signer, reply);
    }

    /// A committed-chain suffix from a peer: verify the hash links, commit
    /// it, and adopt the network's view so steady state can resume here.
    pub(crate) fn on_repair_reply(&mut self, _from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::RepairReply { blocks, view } = msg.payload else { return };
        // The suffix is self-certifying: hash-linked, oldest first, and
        // rooted in a block we already hold. Reject anything else.
        if !self.chain.is_linked_suffix(&blocks) {
            return;
        }
        let tip = blocks.last().expect("non-empty").clone();
        let unblocked = self.chain.ingest(blocks, ctx);
        let tip_id = tip.id();
        self.commit_block(tip_id, ctx);
        if tip.height > self.b_lock_height {
            self.b_lock = tip_id;
            self.b_lock_height = tip.height;
        }
        self.adopt_view(view, ctx);
        for (from, orphan_msg) in unblocked {
            self.on_message(from, orphan_msg, ctx);
        }
    }

    /// Jump straight to `view` after a repair (no view-change ceremony —
    /// the network already ran it while this node was down). Per-view
    /// volatile state is reset; buffered future-view traffic replays.
    pub(crate) fn adopt_view(&mut self, view: u64, ctx: &mut Ctx<'_>) {
        if view <= self.v_cur {
            return;
        }
        self.v_cur = view;
        self.r_cur = 3;
        self.view_aborted = false;
        self.blames.clear();
        self.vc = Default::default();
        self.nv = Default::default();
        self.want_propose = false;
        self.cancel_commit_timers(ctx);
        self.client.requeue_unresolved();
        let m = self.steady_blame_multiple();
        self.reset_blame_timer(m, ctx);
        self.forward_backlog(ctx);
        self.drain_future_views(ctx);
    }
}

impl Actor for Replica {
    type Msg = SignedMsg;
    type Timer = TimerToken;

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Arm the restart point before any liveness gate: a node that is
        // crashed (or crashes later) must still wake up at its restart
        // time even though every other handler ignores it while offline.
        if let Some(restart) = self.fault.restart_at_us() {
            ctx.set_timer(eesmr_net::SimDuration::from_micros(restart), TimerToken::Restart);
        }
        if !self.active() || !self.online(ctx) {
            return;
        }
        let m = self.steady_blame_multiple();
        self.reset_blame_timer(m, ctx);
        self.client.start(ctx, TimerToken::Arrival);
        self.try_propose(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        if !self.active() || !self.online(ctx) {
            return;
        }
        match msg.payload {
            Payload::Propose { .. } => self.on_propose(from, msg, ctx),
            Payload::Blame { .. } => self.on_blame(from, msg, ctx),
            Payload::BlameQc(_) => self.on_blame_qc(from, msg, ctx),
            Payload::CommitUpdate { .. } => self.on_commit_update(from, msg, ctx),
            Payload::Certify { .. } => self.on_certify(from, msg, ctx),
            Payload::CommitQc(_) => self.on_commit_qc(from, msg, ctx),
            Payload::NewViewProposal { .. } => self.on_new_view_proposal(from, msg, ctx),
            Payload::NewViewVote { .. } => self.on_new_view_vote(from, msg, ctx),
            Payload::LockStatus { .. } => self.on_lock_status(from, msg, ctx),
            Payload::SyncRequest { .. } => self.on_sync_request(from, msg, ctx),
            Payload::SyncResponse { .. } => self.on_sync_response(from, msg, ctx),
            Payload::Forward { .. } => self.on_forward(msg, ctx),
            Payload::Repair { .. } => self.on_repair(from, msg, ctx),
            Payload::RepairReply { .. } => self.on_repair_reply(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_>) {
        // The restart timer fires exactly when the outage ends, so the
        // online gate below admits it; every timer armed before the crash
        // that fires *during* the outage dies here, like a real process.
        if !self.active() || !self.online(ctx) {
            return;
        }
        match token {
            TimerToken::Blame { view } => self.on_blame_timeout(view, ctx),
            TimerToken::Commit { view, block } => self.on_commit_timer(view, block, ctx),
            TimerToken::QuitWait { view } => self.on_quit_wait(view, ctx),
            TimerToken::ShareQc { view } => self.on_share_qc(view, ctx),
            TimerToken::EnterNew { view } => self.on_enter_new(view, ctx),
            TimerToken::LeaderStatus { view } => self.on_leader_status(view, ctx),
            TimerToken::Arrival => self.on_arrival(ctx),
            TimerToken::ForwardFlush => {
                self.client.flush_fired();
                self.forward_backlog(ctx);
            }
            TimerToken::ForwardRetry => self.on_forward_retry(ctx),
            TimerToken::Restart => self.on_restart(ctx),
        }
    }

    fn gauges(&self) -> ActorGauges {
        self.client.gauges(&self.metrics, self.v_cur)
    }
}
