//! Blocks and the hash-linked chain store.
//!
//! A block is the unit of the linearizable log (§2, "Blocks"):
//! `block.parent` is the hash of the parent block and `block.contents` the
//! batch of client commands. Genesis has height 0; heights increase by one
//! along parent links. The paper's concrete instantiation (§5.6) is
//! `B = ⟨m, H(b_m), H(h_{m−1}), ⟨i, H(b_i)⟩_L⟩` — height, payload hash,
//! parent hash, leader signature; our wire sizes follow that layout.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use eesmr_crypto::{Digest, Hashable};
use eesmr_net::{Context, Message, NodeId};

/// A client command (opaque request bytes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Command(Vec<u8>);

impl Command {
    /// Wraps raw request bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        Command(bytes)
    }

    /// A synthetic command of exactly `len` bytes with an embedded sequence
    /// number, for workload generation (the paper's fixed-size `b_i`).
    pub fn synthetic(seq: u64, len: usize) -> Self {
        let mut bytes = vec![0u8; len.max(8)];
        bytes[..8].copy_from_slice(&seq.to_le_bytes());
        Command(bytes)
    }

    /// The request bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the command is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// 64-bit trace fingerprint: the first 8 bytes of the command's
    /// SHA-256 digest, little-endian. Stable across runs and cheap to
    /// carry in trace events; call sites gate on the trace level first
    /// so the untraced path never pays for the hash.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.digest())
    }
}

/// The 64-bit trace fingerprint of a digest (first 8 bytes,
/// little-endian).
pub fn fingerprint(d: &Digest) -> u64 {
    let bytes: [u8; 8] = d.as_bytes()[..8].try_into().expect("digest has 32 bytes");
    u64::from_le_bytes(bytes)
}

impl Hashable for Command {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.0.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.0);
    }
}

/// When set, [`Block::clone`] and [`Commands::clone`] deep-copy the block
/// and every command instead of bumping the shared refcount — restoring
/// the pre-Arc-spine clone semantics. The two modes are observationally
/// identical (both types are immutable, so sharing is invisible); only
/// the cost differs. Benches use this to measure the zero-copy win
/// against the old behaviour, and the determinism proptest uses it to
/// assert reports are bit-identical under either mode.
static DEEP_CLONE_SPINE: AtomicBool = AtomicBool::new(false);

/// Switches [`Block::clone`] and [`Commands::clone`] between refcount
/// bumps (`false`, the default) and deep copies (`true`). Global and
/// racy-by design: both modes produce identical simulation results, so a
/// flip mid-run only perturbs allocation cost, never outcomes.
pub fn set_deep_clone_spine(on: bool) {
    DEEP_CLONE_SPINE.store(on, Ordering::SeqCst);
}

/// Whether deep-clone mode is currently on.
pub fn deep_clone_spine() -> bool {
    DEEP_CLONE_SPINE.load(Ordering::Relaxed)
}

/// An immutable, shared batch of [`Command`]s — the payload body carried
/// by blocks and forward messages.
///
/// Fan-out is the simulator's hot path: one broadcast clones its message
/// once per receiver, and under the old `Vec<Command>` representation
/// each clone copied every command. `Commands` wraps the batch in an
/// `Arc<[Command]>` so a clone is a refcount bump — O(1) in payload size.
/// The batch is immutable after construction (no `&mut` access exists),
/// which is what makes the sharing sound: every holder observes the same
/// bytes forever, so digests, wire sizes, and flood keys are unaffected.
#[derive(Debug, PartialEq, Eq)]
pub struct Commands(Arc<[Command]>);

impl Commands {
    /// Number of commands in the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the commands.
    pub fn iter(&self) -> std::slice::Iter<'_, Command> {
        self.0.iter()
    }
}

impl Clone for Commands {
    fn clone(&self) -> Self {
        if DEEP_CLONE_SPINE.load(Ordering::Relaxed) {
            Commands(self.0.iter().cloned().collect())
        } else {
            Commands(Arc::clone(&self.0))
        }
    }
}

impl Default for Commands {
    fn default() -> Self {
        Commands(Arc::from(Vec::new()))
    }
}

impl From<Vec<Command>> for Commands {
    fn from(v: Vec<Command>) -> Self {
        Commands(v.into())
    }
}

impl std::ops::Deref for Commands {
    type Target = [Command];
    fn deref(&self) -> &[Command] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Commands {
    type Item = &'a Command;
    type IntoIter = std::slice::Iter<'a, Command>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The fields of a [`Block`], read through [`Block`]'s `Deref`.
///
/// There is no way to build a `BlockData` outside this module, and no
/// `&mut` access to one inside a [`Block`], so the cached id always
/// matches the fields.
#[derive(Debug, PartialEq, Eq)]
pub struct BlockData {
    /// Hash of the parent block ([`Digest::ZERO`] for genesis).
    pub parent: Digest,
    /// Distance from genesis.
    pub height: u64,
    /// View in which the block was proposed (0 for genesis).
    pub view: u64,
    /// Round in which the block was proposed (0 for genesis).
    pub round: u64,
    /// The commands `Cmds`.
    pub payload: Commands,
    /// SHA-256 of the canonical encoding, computed once by [`Block::new`].
    id: Digest,
}

impl BlockData {
    /// Appends the canonical encoding the id hashes: `"block" | parent |
    /// height | view | round | count u64 | (len u64 | bytes)*`, integers
    /// little-endian. Crate-private: outside this crate the only block
    /// hash is the one [`Block::new`] caches. A status digest embeds it.
    pub(crate) fn encode_canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"block");
        out.extend_from_slice(self.parent.as_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.view.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        for cmd in &self.payload {
            cmd.encode_into(out);
        }
    }
}

/// One block of the replicated log: an immutable, shared handle.
///
/// The id is hashed once, in [`Block::new`], so [`Block::id`] is a field
/// read. A clone is a refcount bump, so every store, message and queued
/// delivery holding the same block shares one allocation; under
/// [`set_deep_clone_spine`] a clone deep-copies the fields instead.
#[derive(PartialEq, Eq)]
pub struct Block(Arc<BlockData>);

impl Block {
    /// A block with the given fields. Every block is built here
    /// ([`Block::genesis`], [`Block::extending`] and the codec's decode
    /// call it), and this is where its id is hashed, once.
    pub fn new(
        parent: Digest,
        height: u64,
        view: u64,
        round: u64,
        payload: impl Into<Commands>,
    ) -> Self {
        let payload = payload.into();
        let mut data = BlockData { parent, height, view, round, payload, id: Digest::ZERO };
        let mut bytes = Vec::with_capacity(
            5 + 32 + 24 + 8 + data.payload.iter().map(|c| 8 + c.len()).sum::<usize>(),
        );
        data.encode_canonical(&mut bytes);
        data.id = Digest::of(&bytes);
        Block(Arc::new(data))
    }

    /// The genesis block `G`.
    pub fn genesis() -> Self {
        Block::new(Digest::ZERO, 0, 0, 0, Commands::default())
    }

    /// Creates the proposal block extending `parent` (the `CreateProposal`
    /// helper of Algorithm 1).
    pub fn extending(parent: &Block, view: u64, round: u64, payload: impl Into<Commands>) -> Self {
        Block::new(parent.id(), parent.height + 1, view, round, payload)
    }

    /// This block's identifier: the SHA-256 of its canonical encoding.
    /// O(1): the digest was computed by [`Block::new`], and the fields it
    /// covers cannot change afterwards.
    pub fn id(&self) -> Digest {
        self.0.id
    }

    /// 64-bit trace fingerprint of this block's id (see
    /// [`fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.id())
    }

    /// Total payload bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.iter().map(Command::len).sum()
    }

    /// Bytes this block occupies on the wire: exactly its encoded length —
    /// parent hash (32) + height/view/round (24) + length-prefixed
    /// commands (see [`crate::codec`]).
    pub fn wire_size(&self) -> usize {
        eesmr_net::WireCodec::encoded_len(self)
    }
}

impl Clone for Block {
    fn clone(&self) -> Self {
        if DEEP_CLONE_SPINE.load(Ordering::Relaxed) {
            let d = &*self.0;
            Block(Arc::new(BlockData { payload: d.payload.clone(), ..*d }))
        } else {
            Block(Arc::clone(&self.0))
        }
    }
}

impl std::ops::Deref for Block {
    type Target = BlockData;
    fn deref(&self) -> &BlockData {
        &self.0
    }
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Relationship between two blocks in the chain partial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainRelation {
    /// Same block.
    Equal,
    /// The first block is an ancestor of the second.
    Ancestor,
    /// The first block is a descendant of the second.
    Descendant,
    /// The blocks are on different forks (or relationship is unknowable
    /// because of a gap in the local store).
    Conflicting,
}

/// Lineage of one block relative to another, with an explicit "unknown"
/// for gaps (see [`BlockStore::lineage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lineage {
    /// Same block.
    Equal,
    /// The first block is a descendant of (extends) the second.
    Extends,
    /// The first block is an ancestor of the second.
    ExtendedBy,
    /// Provably on different branches.
    Fork,
    /// Cannot be determined from locally known blocks.
    Unknown,
}

impl Lineage {
    /// Whether the two blocks are *provably* on conflicting branches.
    pub fn is_fork(self) -> bool {
        matches!(self, Lineage::Fork)
    }
}

/// A store of blocks indexed by hash, tolerant of orphans (blocks whose
/// parents have not arrived yet — chain synchronization fills the gaps).
#[derive(Debug, Clone)]
pub struct BlockStore {
    blocks: HashMap<Digest, Block>,
    genesis: Digest,
}

impl Default for BlockStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockStore {
    /// A store holding only genesis.
    pub fn new() -> Self {
        let g = Block::genesis();
        let id = g.id();
        let mut blocks = HashMap::new();
        blocks.insert(id, g);
        BlockStore { blocks, genesis: id }
    }

    /// The genesis block id.
    pub fn genesis_id(&self) -> Digest {
        self.genesis
    }

    /// Inserts a block (idempotent). Returns its id.
    pub fn insert(&mut self, block: Block) -> Digest {
        let id = block.id();
        self.blocks.entry(id).or_insert(block);
        id
    }

    /// Looks a block up by id.
    pub fn get(&self, id: &Digest) -> Option<&Block> {
        self.blocks.get(id)
    }

    /// Whether the block is present.
    pub fn contains(&self, id: &Digest) -> bool {
        self.blocks.contains_key(id)
    }

    /// Number of stored blocks (including genesis).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether only genesis is stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() <= 1
    }

    /// Walks parent links from `id` up to (at most) `limit` blocks,
    /// returning the visited blocks (nearest first). Stops at genesis or at
    /// a gap.
    pub fn ancestors(&self, id: &Digest, limit: usize) -> Vec<&Block> {
        let mut out = Vec::new();
        let mut cur = *id;
        while out.len() < limit {
            match self.blocks.get(&cur) {
                Some(b) => {
                    out.push(b);
                    if b.height == 0 {
                        break;
                    }
                    cur = b.parent;
                }
                None => break,
            }
        }
        out
    }

    /// Whether `descendant` extends (is equal to or a descendant of)
    /// `ancestor`. Returns `false` when the walk hits a gap, so callers
    /// treat unknown lineage as non-extending and trigger chain sync.
    pub fn extends(&self, descendant: &Digest, ancestor: &Digest) -> bool {
        let Some(anc) = self.blocks.get(ancestor) else { return false };
        let mut cur = *descendant;
        loop {
            if cur == *ancestor {
                return true;
            }
            match self.blocks.get(&cur) {
                Some(b) if b.height > anc.height => cur = b.parent,
                _ => return false,
            }
        }
    }

    /// Classifies the relation of `a` to `b`.
    pub fn relation(&self, a: &Digest, b: &Digest) -> ChainRelation {
        if a == b {
            return ChainRelation::Equal;
        }
        if self.extends(b, a) {
            return ChainRelation::Ancestor;
        }
        if self.extends(a, b) {
            return ChainRelation::Descendant;
        }
        ChainRelation::Conflicting
    }

    /// Lineage of `a` relative to `b`, distinguishing *provable* forks from
    /// gaps in the local store (callers must not treat "unknown because I
    /// am missing blocks" as a conflict — that is what chain sync is for).
    pub fn lineage(&self, a: &Digest, b: &Digest) -> Lineage {
        if a == b {
            return Lineage::Equal;
        }
        let (Some(ba), Some(bb)) = (self.blocks.get(a), self.blocks.get(b)) else {
            return Lineage::Unknown;
        };
        if ba.height == bb.height {
            return Lineage::Fork; // same height, different ids
        }
        let (low, high, high_is_a) =
            if ba.height < bb.height { (ba, *b, false) } else { (bb, *a, true) };
        let mut cur = high;
        loop {
            match self.blocks.get(&cur) {
                Some(blk) if blk.height > low.height => cur = blk.parent,
                Some(blk) => {
                    return if blk.id() == low.id() {
                        if high_is_a {
                            Lineage::Extends
                        } else {
                            Lineage::ExtendedBy
                        }
                    } else {
                        Lineage::Fork
                    };
                }
                None => return Lineage::Unknown,
            }
        }
    }

    /// The chain segment `(ancestor, descendant]` in parent→child order, or
    /// `None` if `descendant` does not extend `ancestor` (or a gap
    /// intervenes). Used by the commit rule: committing a block commits all
    /// uncommitted ancestors.
    pub fn segment(&self, ancestor: &Digest, descendant: &Digest) -> Option<Vec<Digest>> {
        if !self.extends(descendant, ancestor) {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = *descendant;
        while cur != *ancestor {
            out.push(cur);
            cur = self.blocks.get(&cur)?.parent;
        }
        out.reverse();
        Some(out)
    }

    /// The chain above `above_height` ending at `tip`, oldest first,
    /// holding at most the `cap` blocks nearest the tip — what a Repair
    /// server sends a lagging peer (a still-lagging requester asks
    /// again). Stops early at a gap.
    pub fn committed_suffix(&self, tip: &Digest, above_height: u64, cap: usize) -> Vec<Block> {
        let ancestors = self.ancestors(tip, cap).into_iter();
        let mut blocks: Vec<Block> =
            ancestors.take_while(|b| b.height > above_height).cloned().collect();
        blocks.reverse();
        blocks
    }
}

/// Chain catch-up state a view-based replica shares across protocols:
/// the block store, the messages parked until a missing ancestor
/// arrives (orphans), and the blocks already requested from a peer.
///
/// Blocks are self-certifying (hash-linked), so nothing here checks a
/// signature. Each protocol still sends its own signed request and
/// replays the unblocked orphans through its own handler.
#[derive(Debug)]
pub struct ChainSync<M> {
    /// Every block this replica holds.
    pub store: BlockStore,
    orphans: HashMap<Digest, Vec<(NodeId, M)>>,
    requested: HashSet<Digest>,
}

impl<M> Default for ChainSync<M> {
    fn default() -> Self {
        ChainSync { store: BlockStore::new(), orphans: HashMap::new(), requested: HashSet::new() }
    }
}

impl<M: Message> ChainSync<M> {
    /// Parks `msg` (received from `from`) until block `missing` arrives.
    pub fn park(&mut self, missing: Digest, from: NodeId, msg: M) {
        self.orphans.entry(missing).or_default().push((from, msg));
    }

    /// Whether node `me` should ask `from` for block `want`: never
    /// itself, and each block once.
    pub fn should_request(&mut self, want: Digest, from: NodeId, me: NodeId) -> bool {
        from != me && self.requested.insert(want)
    }

    /// Whether `blocks` is a chain suffix this store can adopt:
    /// non-empty, hash-linked oldest first, and rooted in a block
    /// already held.
    pub fn is_linked_suffix(&self, blocks: &[Block]) -> bool {
        blocks.first().is_some_and(|first| self.store.contains(&first.parent))
            && blocks.windows(2).all(|w| w[1].parent == w[0].id())
    }

    /// Stores `blocks`, charging one hash per block, and returns the
    /// parked messages they unblock, in arrival order.
    pub fn ingest<T: Clone + std::fmt::Debug>(
        &mut self,
        blocks: Vec<Block>,
        ctx: &mut Context<'_, M, T>,
    ) -> Vec<(NodeId, M)> {
        let mut unblocked = Vec::new();
        for block in blocks {
            ctx.meter().charge_hash(block.wire_size());
            let id = self.store.insert(block);
            self.requested.remove(&id);
            if let Some(waiting) = self.orphans.remove(&id) {
                unblocked.extend(waiting);
            }
        }
        unblocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clones `x` in the given spine mode. The mode is process-global, so
    /// the tests that assert on it take turns.
    fn clone_in_mode<T: Clone>(x: &T, deep: bool) -> T {
        static MODE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _turn = MODE.lock().unwrap_or_else(|e| e.into_inner());
        set_deep_clone_spine(deep);
        let c = x.clone();
        set_deep_clone_spine(false);
        c
    }

    fn chain(store: &mut BlockStore, len: usize) -> Vec<Digest> {
        let mut ids = vec![store.genesis_id()];
        for i in 0..len {
            let parent = store.get(ids.last().unwrap()).unwrap().clone();
            let b =
                Block::extending(&parent, 1, 3 + i as u64, vec![Command::synthetic(i as u64, 16)]);
            ids.push(store.insert(b));
        }
        ids
    }

    #[test]
    fn genesis_is_present_and_height_zero() {
        let store = BlockStore::new();
        let g = store.get(&store.genesis_id()).unwrap();
        assert_eq!(g.height, 0);
        assert_eq!(g.parent, Digest::ZERO);
        assert!(store.is_empty());
    }

    #[test]
    fn extending_increments_height_and_links_parent() {
        let g = Block::genesis();
        let b = Block::extending(&g, 1, 3, vec![]);
        assert_eq!(b.height, 1);
        assert_eq!(b.parent, g.id());
        assert_ne!(b.id(), g.id());
    }

    #[test]
    fn id_changes_with_any_field() {
        let g = Block::genesis();
        let b1 = Block::extending(&g, 1, 3, vec![Command::synthetic(0, 16)]);
        let b2 = Block::extending(&g, 1, 4, vec![Command::synthetic(0, 16)]);
        let b3 = Block::extending(&g, 2, 3, vec![Command::synthetic(0, 16)]);
        let b4 = Block::extending(&g, 1, 3, vec![Command::synthetic(1, 16)]);
        let ids = [b1.id(), b2.id(), b3.id(), b4.id()];
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j], "blocks {i} and {j}");
            }
        }
    }

    #[test]
    fn extends_walks_the_chain() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 5);
        assert!(store.extends(&ids[5], &ids[0]));
        assert!(store.extends(&ids[5], &ids[3]));
        assert!(store.extends(&ids[2], &ids[2]), "reflexive");
        assert!(!store.extends(&ids[2], &ids[4]), "not backwards");
    }

    #[test]
    fn forks_conflict() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 3);
        let base = store.get(&ids[2]).unwrap().clone();
        let fork = Block::extending(&base, 2, 7, vec![Command::synthetic(99, 8)]);
        let fork_id = store.insert(fork);
        assert_eq!(store.relation(&fork_id, &ids[3]), ChainRelation::Conflicting);
        assert_eq!(store.relation(&ids[2], &fork_id), ChainRelation::Ancestor);
        assert_eq!(store.relation(&fork_id, &ids[2]), ChainRelation::Descendant);
        assert_eq!(store.relation(&fork_id, &fork_id), ChainRelation::Equal);
    }

    #[test]
    fn gaps_read_as_non_extending() {
        let mut store = BlockStore::new();
        let g = store.get(&store.genesis_id()).unwrap().clone();
        let a = Block::extending(&g, 1, 3, vec![]);
        let b = Block::extending(&a, 1, 4, vec![]);
        // Insert only the grandchild: the walk hits a gap.
        let b_id = store.insert(b);
        assert!(!store.extends(&b_id, &store.genesis_id()));
        // After sync fills the gap, lineage resolves.
        store.insert(a);
        assert!(store.extends(&b_id, &store.genesis_id()));
    }

    #[test]
    fn segment_returns_path_oldest_first() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 4);
        let seg = store.segment(&ids[1], &ids[4]).unwrap();
        assert_eq!(seg, vec![ids[2], ids[3], ids[4]]);
        assert_eq!(store.segment(&ids[4], &ids[1]), None, "wrong direction");
        assert_eq!(store.segment(&ids[2], &ids[2]).unwrap(), Vec::<Digest>::new());
    }

    #[test]
    fn ancestors_respects_limit_and_gaps() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 5);
        let anc = store.ancestors(&ids[5], 3);
        assert_eq!(anc.len(), 3);
        assert_eq!(anc[0].id(), ids[5]);
        let all = store.ancestors(&ids[5], 100);
        assert_eq!(all.len(), 6, "stops at genesis");
    }

    #[test]
    fn lineage_distinguishes_forks_from_gaps() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 3);
        assert_eq!(store.lineage(&ids[3], &ids[1]), Lineage::Extends);
        assert_eq!(store.lineage(&ids[1], &ids[3]), Lineage::ExtendedBy);
        assert_eq!(store.lineage(&ids[2], &ids[2]), Lineage::Equal);

        // A fork at the same base is provable.
        let base = store.get(&ids[2]).unwrap().clone();
        let fork = Block::extending(&base, 9, 9, vec![]);
        let fork_id = store.insert(fork);
        assert_eq!(store.lineage(&fork_id, &ids[3]), Lineage::Fork);
        assert!(store.lineage(&fork_id, &ids[3]).is_fork());

        // A gap reads as Unknown, not Fork.
        let far = Block::extending(
            &Block::new(Digest::of(b"?"), 10, 9, 9, Commands::default()),
            9,
            10,
            vec![],
        );
        let far_id = store.insert(far);
        assert_eq!(store.lineage(&far_id, &ids[3]), Lineage::Unknown);
        assert_eq!(store.lineage(&Digest::of(b"missing"), &ids[1]), Lineage::Unknown);
    }

    #[test]
    fn command_synthetic_has_exact_size() {
        let c = Command::synthetic(7, 16);
        assert_eq!(c.len(), 16);
        assert!(!c.is_empty());
        let tiny = Command::synthetic(7, 2);
        assert_eq!(tiny.len(), 8, "minimum carries the sequence number");
    }

    #[test]
    fn commands_clone_is_shared_unless_deep_mode_is_on() {
        let batch: Commands = vec![Command::synthetic(0, 16), Command::synthetic(1, 16)].into();
        let shared = clone_in_mode(&batch, false);
        assert_eq!(batch, shared);
        assert!(std::ptr::eq(batch.as_ptr(), shared.as_ptr()), "arc clone shares the buffer");

        let deep = clone_in_mode(&batch, true);
        assert_eq!(batch, deep, "deep clones are observationally identical");
        assert!(!std::ptr::eq(batch.as_ptr(), deep.as_ptr()), "deep clone copies the buffer");
    }

    /// SHA-256 of the canonical encoding, rebuilt by hand from the
    /// public fields.
    fn id_by_hand(b: &Block) -> Digest {
        let mut bytes = b"block".to_vec();
        bytes.extend_from_slice(b.parent.as_bytes());
        for x in [b.height, b.view, b.round, b.payload.len() as u64] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        for c in &b.payload {
            bytes.extend_from_slice(&(c.len() as u64).to_le_bytes());
            bytes.extend_from_slice(c.bytes());
        }
        eesmr_crypto::sha256::Sha256::digest(&bytes)
    }

    #[test]
    fn cached_id_is_the_hash_of_the_fields() {
        use eesmr_net::WireCodec;
        let g = Block::genesis();
        let b = Block::extending(&g, 1, 3, vec![Command::synthetic(0, 16)]);
        let n = Block::new(Digest::of(b"?"), 10, 9, 9, vec![Command::new(b"abc".to_vec())]);
        let decoded = Block::decode(&b.encode()).expect("decodes");
        let deep = clone_in_mode(&b, true);
        for blk in [&g, &b, &n, &decoded, &deep] {
            assert_eq!(blk.id(), id_by_hand(blk), "{blk:?}");
        }
        // Pinned so that traces and commit-log prefixes cannot drift.
        assert_eq!(g.id().to_hex(), GENESIS_ID_HEX);
        assert_eq!(b.id().to_hex(), BLOCK_1_ID_HEX);
    }

    /// Id of [`Block::genesis`].
    const GENESIS_ID_HEX: &str = "b2eee42041fdf5603f95f34cbaa6a954a315aea044407fb2b9eb9fbc16a54829";
    /// Id of `Block::extending(&genesis, 1, 3, [Command::synthetic(0, 16)])`.
    const BLOCK_1_ID_HEX: &str = "68f99e56754b8d2dd3b3f72df96a23e2cf9cc9eed444dcf0769dfda3fc82e62c";

    #[test]
    fn block_clone_is_shared_unless_deep_mode_is_on() {
        let b = Block::extending(&Block::genesis(), 1, 3, vec![Command::synthetic(0, 16)]);
        let shared = clone_in_mode(&b, false);
        assert!(std::ptr::eq(&*b, &*shared), "arc clone shares the block");

        let deep = clone_in_mode(&b, true);
        assert_eq!(b, deep, "deep clones are observationally identical");
        assert_eq!(b.id(), deep.id());
        assert!(!std::ptr::eq(&*b, &*deep), "deep clone copies the block");
        assert!(!std::ptr::eq(b.payload.as_ptr(), deep.payload.as_ptr()), "and its payload");
    }

    #[test]
    fn wire_size_matches_layout() {
        let g = Block::genesis();
        let b = Block::extending(&g, 1, 3, vec![Command::synthetic(0, 100)]);
        // parent 32 + height/view/round 24 + command count 4
        // + one command (4-byte length prefix + 100 bytes).
        assert_eq!(b.wire_size(), 32 + 24 + 4 + (4 + 100));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut store = BlockStore::new();
        let g = store.get(&store.genesis_id()).unwrap().clone();
        let b = Block::extending(&g, 1, 3, vec![]);
        let id1 = store.insert(b.clone());
        let id2 = store.insert(b);
        assert_eq!(id1, id2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn committed_suffix_is_oldest_first_above_the_height_and_capped() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 6);
        let suffix = |above, cap| -> Vec<Digest> {
            store.committed_suffix(&ids[6], above, cap).iter().map(Block::id).collect()
        };
        assert_eq!(suffix(2, 256), ids[3..].to_vec());
        assert_eq!(suffix(2, 2), ids[5..].to_vec(), "the cap keeps the blocks nearest the tip");
        assert!(suffix(6, 256).is_empty(), "nothing above the tip");
    }

    #[derive(Debug, Clone)]
    enum Note {
        Waiting(u8),
        Blocks(Vec<Block>),
    }

    impl Message for Note {
        fn wire_size(&self) -> usize {
            8
        }
        fn flood_key(&self) -> u64 {
            0
        }
    }

    struct Syncer {
        sync: ChainSync<Note>,
        released: Vec<(NodeId, u8)>,
    }

    impl eesmr_net::Actor for Syncer {
        type Msg = Note;
        type Timer = ();

        fn on_message(&mut self, _: NodeId, note: Note, ctx: &mut Context<'_, Note, ()>) {
            if let Note::Blocks(blocks) = note {
                for (from, parked) in self.sync.ingest(blocks, ctx) {
                    if let Note::Waiting(x) = parked {
                        self.released.push((from, x));
                    }
                }
            }
        }

        fn on_timer(&mut self, _: (), _: &mut Context<'_, Note, ()>) {}
    }

    #[test]
    fn chain_sync_dedups_requests_checks_links_and_releases_orphans() {
        let mut peer = BlockStore::new();
        let ids = chain(&mut peer, 3);
        let blocks: Vec<Block> = ids[1..].iter().map(|id| peer.get(id).unwrap().clone()).collect();
        let mut h = eesmr_net::harness::Harness::new(
            0,
            Syncer { sync: ChainSync::default(), released: Vec::new() },
        );
        let sync = &mut h.actor_mut().sync;
        assert!(sync.should_request(ids[2], 1, 0));
        assert!(!sync.should_request(ids[2], 1, 0), "each block is requested once");
        assert!(!sync.should_request(ids[3], 0, 0), "never from itself");
        sync.park(ids[2], 4, Note::Waiting(7));
        assert!(sync.is_linked_suffix(&blocks));
        assert!(!sync.is_linked_suffix(&blocks[1..]), "not rooted in a held block");
        assert!(!sync.is_linked_suffix(&[blocks[0].clone(), blocks[2].clone()]), "a gap");
        assert!(!sync.is_linked_suffix(&[]));
        h.deliver(1, Note::Blocks(blocks));
        assert_eq!(h.actor().released, vec![(4, 7)], "the orphan is released once");
        assert!(h.actor().sync.store.contains(&ids[3]));
        assert!(h.actor_mut().sync.should_request(ids[2], 1, 0), "held blocks leave the dedup set");
    }
}
