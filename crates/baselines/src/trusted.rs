//! The trusted-baseline protocol (paper §5.1).
//!
//! "In this baseline protocol, we assume the existence of a trusted node.
//! … The baseline protocol assumes that all the CPS nodes are directly
//! connected to the trusted node using the expensive medium and not use
//! the links between the CPS nodes."
//!
//! Every consensus unit, each CPS node uploads its pending commands to the
//! trusted node, which orders them into a block, signs it once, and
//! multicasts it back; nodes verify the single trusted signature and
//! commit. The trusted node itself (node 0 by convention, the hub of a
//! star topology) is externally powered — harnesses exclude its meter when
//! reporting CPS energy, exactly as the paper's baseline accounting does.

use std::sync::Arc;

use eesmr_core::message::signing_bytes;
use eesmr_core::{
    AdaptiveBatcher, BatchPolicy, Block, BlockStore, Command, Commands, FaultMode, Metrics,
    MsgKind, TxPool, WorkloadSource,
};
use eesmr_crypto::{Digest, KeyPair, KeyStore, Signature};
use eesmr_net::{Actor, Context, Message, NodeId, SimDuration, TraceClass, TraceEventKind};

/// Messages between CPS nodes and the trusted hub.
#[derive(Debug, Clone, PartialEq)]
pub enum TbPayload {
    /// A node's upload of pending commands.
    Request {
        /// The commands (Arc-backed so per-hop clones are refcount
        /// bumps).
        batch: Commands,
        /// Upload sequence number (one per consensus unit).
        seq: u64,
    },
    /// The trusted node's ordered block.
    Ordered {
        /// The block.
        block: Block,
    },
    /// A lagging spoke's catch-up request: "send the hub-signed chain
    /// above `from_height`" (issued after an outage or an out-of-order
    /// `Ordered`, which previously stalled the spoke forever).
    Repair {
        /// The spoke's committed height.
        from_height: u64,
    },
    /// The hub's answer: the ordered-chain suffix, oldest first.
    RepairReply {
        /// Blocks above the requested height, oldest first.
        blocks: Vec<Block>,
    },
}

/// A signed trusted-baseline message.
#[derive(Debug, Clone, PartialEq)]
pub struct TbMsg {
    /// Payload.
    pub payload: TbPayload,
    /// Sender.
    pub signer: NodeId,
    /// Signature.
    pub sig: Signature,
}

impl TbPayload {
    fn signing_digest(&self) -> Digest {
        match self {
            TbPayload::Request { batch, seq } => {
                let mut bytes = Vec::new();
                bytes.extend_from_slice(&seq.to_le_bytes());
                for c in batch {
                    bytes.extend_from_slice(c.bytes());
                }
                Digest::of_parts(&[b"tb-req", &bytes])
            }
            TbPayload::Ordered { block } => block.id(),
            TbPayload::Repair { from_height } => {
                Digest::of_parts(&[b"tb-repair", &from_height.to_le_bytes()])
            }
            TbPayload::RepairReply { blocks } => {
                let mut bytes = Vec::with_capacity(32 * blocks.len());
                for b in blocks {
                    bytes.extend_from_slice(b.id().as_bytes());
                }
                Digest::of_parts(&[b"tb-repair-reply", &bytes])
            }
        }
    }
}

impl TbMsg {
    fn new(payload: TbPayload, keypair: &KeyPair) -> Self {
        let digest = payload.signing_digest();
        let bytes = signing_bytes(MsgKind::Propose, 0, &digest);
        TbMsg { sig: keypair.sign(&bytes), signer: keypair.signer(), payload }
    }

    fn verify_sig(&self, pki: &KeyStore) -> bool {
        if self.sig.signer() != self.signer {
            return false;
        }
        let digest = self.payload.signing_digest();
        let bytes = signing_bytes(MsgKind::Propose, 0, &digest);
        pki.verify(&bytes, &self.sig)
    }
}

impl Message for TbMsg {
    fn wire_size(&self) -> usize {
        eesmr_net::WireCodec::encoded_len(self)
    }

    fn flood_key(&self) -> u64 {
        Digest::of_parts(&[&self.signer.to_le_bytes(), self.payload.signing_digest().as_bytes()])
            .to_u64()
    }

    fn phase(&self) -> eesmr_energy::EnergyPhase {
        use eesmr_energy::EnergyPhase;
        match &self.payload {
            // Spoke uploads feed the hub's next proposal; the hub's
            // ordered block is the commit announcement.
            TbPayload::Request { .. } => EnergyPhase::Propose,
            TbPayload::Ordered { .. } => EnergyPhase::Commit,
            TbPayload::Repair { .. } | TbPayload::RepairReply { .. } => EnergyPhase::Sync,
        }
    }
}

/// Timer tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TbTimer {
    /// The hub's ordering tick.
    Order,
    /// A node's periodic upload.
    Upload,
    /// The next client-transaction arrival from the attached
    /// `WorkloadSource` (spokes only).
    Arrival,
    /// A crashed spoke coming back online (armed at start from the
    /// fault schedule; fires exactly when the spoke is live again).
    Restart,
}

/// Configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TbConfig {
    /// Total nodes including the hub (node 0).
    pub n: usize,
    /// Synthetic payload bytes per upload.
    pub payload_bytes: usize,
    /// Hub ordering period.
    pub order_period: SimDuration,
    /// How a spoke sizes each upload batch.
    pub batch_policy: BatchPolicy,
    /// Synthetic offered load: commands fabricated per upload when the
    /// pool is empty.
    pub offered_load: usize,
}

impl TbConfig {
    /// A configuration with the historical defaults: 16-command upload
    /// batches fed by a unit synthetic load.
    pub fn new(n: usize, payload_bytes: usize, order_period: SimDuration) -> Self {
        TbConfig {
            n,
            payload_bytes,
            order_period,
            batch_policy: BatchPolicy::Fixed(16),
            offered_load: 1,
        }
    }
}

/// The hub's id in the star topology.
pub const HUB: NodeId = 0;

/// One participant: the hub (node 0) or a CPS node.
pub struct TbNode {
    id: NodeId,
    config: TbConfig,
    pki: Arc<KeyStore>,
    store: BlockStore,
    tip: Digest,
    txpool: TxPool,
    batcher: AdaptiveBatcher,
    workload: Option<Box<dyn WorkloadSource>>,
    upload_seq: u64,
    pending: Vec<Command>,
    committed_log: Vec<Digest>,
    committed_height: u64,
    metrics: Metrics,
    fault: FaultMode,
    repair_inflight: bool,
}

impl core::fmt::Debug for TbNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TbNode")
            .field("id", &self.id)
            .field("committed_height", &self.committed_height)
            .finish()
    }
}

type Ctx<'a> = Context<'a, TbMsg, TbTimer>;

impl TbNode {
    /// Creates the hub or a CPS node.
    pub fn new(id: NodeId, config: TbConfig, pki: Arc<KeyStore>) -> Self {
        let store = BlockStore::new();
        let tip = store.genesis_id();
        let payload = config.payload_bytes;
        let offered = config.offered_load;
        TbNode {
            id,
            config,
            pki,
            store,
            tip,
            txpool: TxPool::synthetic(payload).with_offered_load(offered),
            batcher: AdaptiveBatcher::new(),
            workload: None,
            upload_seq: 0,
            pending: Vec::new(),
            committed_log: Vec::new(),
            committed_height: 0,
            metrics: Metrics::default(),
            fault: FaultMode::Honest,
            repair_inflight: false,
        }
    }

    /// Committed log (hub and nodes agree by construction).
    pub fn committed(&self) -> &[Digest] {
        &self.committed_log
    }

    /// Committed height.
    pub fn committed_height(&self) -> u64 {
        self.committed_height
    }

    /// Looks up a stored block by id.
    pub fn block(&self, id: &Digest) -> Option<&Block> {
        self.store.get(id)
    }

    /// Metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn is_hub(&self) -> bool {
        self.id == HUB
    }

    /// Whether the process is up at `now_us`. The baseline has no views,
    /// so view-keyed faults are judged at its one constant view, 1.
    fn live(&self, now_us: u64) -> bool {
        self.fault.is_active_in(1) && self.fault.online(now_us)
    }

    /// Appends `block`, which extends the tip, to the committed chain.
    fn commit(&mut self, block: &Block, ctx: &mut Ctx<'_>) {
        let id = self.store.insert(block.clone());
        self.tip = id;
        self.committed_log.push(id);
        self.committed_height = block.height;
        self.metrics.blocks_committed += 1;
        self.metrics.committed_height = block.height;
        if ctx.traces(TraceClass::Commit) {
            ctx.trace(TraceEventKind::Commit {
                block: eesmr_core::block::fingerprint(&id),
                height: block.height,
            });
        }
    }

    /// Attaches a client-workload stream to this spoke (the externally
    /// powered hub orders, it does not originate): arrivals inject
    /// timestamped transactions and trigger uploads, replacing the
    /// synthetic `offered_load` feed.
    ///
    /// # Panics
    ///
    /// Panics if called on the hub.
    pub fn attach_workload(&mut self, source: Box<dyn WorkloadSource>) {
        assert!(!self.is_hub(), "the trusted hub does not originate transactions");
        self.txpool.client_only();
        self.workload = Some(source);
    }

    /// Histogram of end-to-end (birth → local commit) latencies of
    /// workload transactions injected at this spoke, in microseconds.
    pub fn tx_latencies(&self) -> &eesmr_trace::hist::LogHistogram {
        self.txpool.tx_latencies()
    }

    /// High-water mark of the pending-command backlog over the run.
    pub fn peak_backlog(&self) -> usize {
        self.txpool.peak_backlog()
    }

    /// One arrival event: inject, re-arm, and upload the fresh backlog
    /// to the hub.
    fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
        let Some(source) = &mut self.workload else { return };
        let now_us = ctx.now().as_micros();
        let traced = ctx.traces(TraceClass::Commit);
        let delay = self.txpool.drive_arrival(source.as_mut(), &mut self.metrics, now_us, |cmd| {
            if traced {
                ctx.trace(TraceEventKind::TxInject { tx: cmd.fingerprint() });
            }
        });
        if let Some(delay) = delay {
            ctx.set_timer(SimDuration::from_micros(delay), TbTimer::Arrival);
        }
        self.upload(ctx);
    }

    fn upload(&mut self, ctx: &mut Ctx<'_>) {
        let want = self.batcher.next_size(self.txpool.backlog(), self.config.batch_policy);
        let batch = self.txpool.next_batch(want);
        // A workload-fed spoke only uploads real transactions; the
        // synthetic feed keeps its historical empty-batch heartbeat.
        if batch.is_empty() && self.workload.is_some() {
            return;
        }
        self.metrics.record_batch_fill(batch.len(), self.config.batch_policy.max_size());
        let seq = self.upload_seq;
        self.upload_seq += 1;
        if ctx.traces(TraceClass::Commit) {
            for cmd in &batch {
                ctx.trace(TraceEventKind::TxForward { tx: cmd.fingerprint(), leader: HUB });
            }
        }
        let msg =
            TbMsg::new(TbPayload::Request { batch: batch.into(), seq }, self.pki.keypair(self.id));
        ctx.meter().charge_sign(self.pki.scheme());
        ctx.meter().charge_hash(msg.wire_size());
        for _ in 0..self.fault.storm_repeats_in(1) {
            ctx.multicast(msg.clone());
        }
        ctx.multicast(msg); // the spoke's only edge points at the hub
    }

    /// Asks the hub for the signed chain suffix above our committed
    /// height. Deduped: at most one request outstanding per spoke.
    fn request_repair(&mut self, ctx: &mut Ctx<'_>) {
        if self.repair_inflight {
            return;
        }
        self.repair_inflight = true;
        self.metrics.repair_requests += 1;
        let msg = TbMsg::new(
            TbPayload::Repair { from_height: self.committed_height },
            self.pki.keypair(self.id),
        );
        ctx.meter().charge_sign(self.pki.scheme());
        ctx.meter().charge_hash(msg.wire_size());
        ctx.multicast(msg); // the spoke's only edge points at the hub
    }
}

impl Actor for TbNode {
    type Msg = TbMsg;
    type Timer = TbTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Armed before the fault gate: the sim starts at t = 0, so the
        // delay equals the absolute restart time and the timer fires
        // exactly when `live` flips back on.
        if let Some(restart_us) = self.fault.restart_at_us() {
            ctx.set_timer(SimDuration::from_micros(restart_us), TbTimer::Restart);
        }
        if !self.live(ctx.now().as_micros()) {
            return;
        }
        if self.is_hub() {
            ctx.set_timer(self.config.order_period, TbTimer::Order);
        } else {
            if let Some(source) = &mut self.workload {
                if let Some(delay) = source.next_arrival_in(ctx.now().as_micros()) {
                    ctx.set_timer(SimDuration::from_micros(delay), TbTimer::Arrival);
                }
            }
            self.upload(ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: TbMsg, ctx: &mut Ctx<'_>) {
        if !self.live(ctx.now().as_micros()) {
            return; // crashed or silent: the process is not there
        }
        match &msg.payload {
            TbPayload::Request { batch, .. } => {
                if !self.is_hub() || msg.signer == HUB {
                    return;
                }
                ctx.meter().charge_verify(self.pki.scheme());
                ctx.meter().charge_hash(msg.wire_size());
                if !msg.verify_sig(&self.pki) {
                    return;
                }
                self.pending.extend(batch.iter().cloned());
            }
            TbPayload::Ordered { block } => {
                if self.is_hub() || msg.signer != HUB {
                    return;
                }
                ctx.meter().charge_verify(self.pki.scheme());
                ctx.meter().charge_hash(msg.wire_size());
                if !msg.verify_sig(&self.pki) {
                    return;
                }
                if block.parent != self.tip {
                    // A gap in the hub's linear chain (we missed blocks
                    // during an outage or a lossy stretch): catch up
                    // from the hub instead of stalling forever.
                    if block.height > self.committed_height + 1 {
                        self.request_repair(ctx);
                    }
                    return;
                }
                self.commit(block, ctx);
                self.txpool.remove_committed(block, ctx.now());
                // Upload the next unit after each ordered block.
                self.upload(ctx);
            }
            TbPayload::Repair { from_height } => {
                if !self.is_hub() || msg.signer == HUB {
                    return;
                }
                ctx.meter().charge_verify(self.pki.scheme());
                ctx.meter().charge_hash(msg.wire_size());
                if !msg.verify_sig(&self.pki) {
                    return;
                }
                if self.committed_height <= *from_height {
                    return; // nothing newer to serve
                }
                // Walk the committed chain from the tip down to the
                // requested height (capped to bound the reply; the
                // spoke re-requests if still behind).
                let mut blocks = Vec::new();
                let mut cursor = self.tip;
                while let Some(b) = self.store.get(&cursor) {
                    if b.height <= *from_height || blocks.len() >= 256 {
                        break;
                    }
                    cursor = b.parent;
                    blocks.push(b.clone());
                }
                blocks.reverse();
                self.metrics.repairs_served += 1;
                let reply =
                    TbMsg::new(TbPayload::RepairReply { blocks }, self.pki.keypair(self.id));
                ctx.meter().charge_sign(self.pki.scheme());
                ctx.meter().charge_hash(reply.wire_size());
                ctx.send_to(msg.signer, reply);
            }
            TbPayload::RepairReply { blocks } => {
                if self.is_hub() || msg.signer != HUB {
                    return;
                }
                ctx.meter().charge_verify(self.pki.scheme());
                ctx.meter().charge_hash(msg.wire_size());
                if !msg.verify_sig(&self.pki) {
                    return;
                }
                self.repair_inflight = false;
                for block in blocks {
                    if block.parent != self.tip {
                        continue; // must extend our committed tip in order
                    }
                    self.commit(block, ctx);
                    self.txpool.remove_committed(block, ctx.now());
                }
                // Caught up (or as far as one capped reply gets us):
                // resume the upload loop.
                self.upload(ctx);
            }
        }
    }

    fn on_timer(&mut self, token: TbTimer, ctx: &mut Ctx<'_>) {
        if !self.live(ctx.now().as_micros()) {
            return; // timers armed before the outage die with the process
        }
        match token {
            TbTimer::Order => {
                if !self.is_hub() {
                    return;
                }
                if !self.pending.is_empty() {
                    let parent = self.store.get(&self.tip).expect("tip stored").clone();
                    let batch: Vec<Command> = self.pending.drain(..).collect();
                    let block = Block::extending(&parent, 0, parent.height + 1, batch);
                    ctx.meter().charge_hash(block.wire_size());
                    if ctx.traces(TraceClass::Commit) {
                        let block_fp = block.fingerprint();
                        for cmd in &block.payload {
                            ctx.trace(TraceEventKind::TxBatched {
                                tx: cmd.fingerprint(),
                                block: block_fp,
                            });
                        }
                        ctx.trace(TraceEventKind::Propose {
                            block: block_fp,
                            view: 0,
                            round: block.height,
                        });
                    }
                    self.commit(&block, ctx);
                    let msg = TbMsg::new(TbPayload::Ordered { block }, self.pki.keypair(self.id));
                    ctx.meter().charge_sign(self.pki.scheme());
                    ctx.meter().charge_hash(msg.wire_size());
                    ctx.multicast(msg); // the hub's edge reaches every spoke
                }
                ctx.set_timer(self.config.order_period, TbTimer::Order);
            }
            TbTimer::Upload => self.upload(ctx),
            TbTimer::Arrival => self.on_arrival(ctx),
            TbTimer::Restart => {
                // Back online: re-arm the workload feed and catch up on
                // everything the hub ordered during the outage.
                if let Some(source) = &mut self.workload {
                    if let Some(delay) = source.next_arrival_in(ctx.now().as_micros()) {
                        ctx.set_timer(SimDuration::from_micros(delay), TbTimer::Arrival);
                    }
                }
                self.repair_inflight = false;
                self.request_repair(ctx);
            }
        }
    }

    fn gauges(&self) -> eesmr_net::ActorGauges {
        // Node-local state only — the telemetry determinism contract.
        // The hub's ordering queue counts as its backlog; spokes report
        // their txpool. No forward-retry machinery in this baseline.
        eesmr_net::ActorGauges {
            tx_in_flight: self.txpool.in_flight() as u64,
            pool_backlog: if self.is_hub() {
                self.pending.len() as u64
            } else {
                self.txpool.backlog() as u64
            },
            forward_retries: self.metrics.forward_retries,
            batch_fill_pct: self.metrics.last_batch_fill_pct as f64,
            view: 1,
        }
    }
}

impl crate::status::SmrStatus for TbNode {
    fn committed_log(&self) -> &[Digest] {
        &self.committed_log
    }

    fn committed_block_height(&self) -> u64 {
        self.committed_height
    }

    fn view(&self) -> u64 {
        1 // the trusted baseline has no views
    }

    fn block(&self, id: &Digest) -> Option<&Block> {
        self.block(id)
    }

    fn metrics(&self) -> &Metrics {
        self.metrics()
    }

    fn peak_backlog(&self) -> usize {
        self.peak_backlog()
    }

    fn tx_latencies(&self) -> &eesmr_trace::hist::LogHistogram {
        self.tx_latencies()
    }
}

/// Builds the hub (node 0) plus `n − 1` CPS nodes. `faults` assigns a
/// behaviour to each spoke, judged at the baseline's constant view 1
/// (it has no views); the externally powered hub is always honest
/// regardless of what the closure returns for node 0.
pub fn build_tb_nodes(
    config: &TbConfig,
    pki: &Arc<KeyStore>,
    faults: impl Fn(NodeId) -> FaultMode,
) -> Vec<TbNode> {
    (0..config.n as NodeId)
        .map(|id| {
            let mut node = TbNode::new(id, config.clone(), pki.clone());
            if id != HUB {
                node.fault = faults(id);
            }
            node
        })
        .collect()
}
