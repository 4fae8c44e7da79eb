//! Baseline SMR protocols the paper compares EESMR against.
//!
//! * [`sync_hotstuff`] — Sync HotStuff and OptSync (one replica, two commit
//!   rules), the state-of-the-art synchronous BFT-SMR baselines of §5.7.
//! * [`trusted`] — the §5.1 trusted-control-node baseline over an
//!   expensive medium (star topology).
//! * [`status`] — a small trait for protocol-agnostic safety assertions.
//!
//! All replicas implement [`eesmr_net::Actor`] and [`SmrStatus`] and take
//! their injected faults as one `eesmr_core::FaultMode`, so the same
//! simulator, topologies, fault plans, and energy meters drive every
//! protocol —
//! which is exactly what makes the head-to-head energy comparisons
//! (Fig. 2f, Fig. 3) meaningful.
//!
//! # Example: Sync HotStuff on the ring testbed
//!
//! ```
//! use std::sync::Arc;
//! use eesmr_baselines::sync_hotstuff::{build_hs_replicas, HsConfig, HsVariant};
//! use eesmr_core::FaultMode;
//! use eesmr_crypto::{KeyStore, SigScheme};
//! use eesmr_hypergraph::topology::ring_kcast;
//! use eesmr_net::{NetConfig, SimNet, SimDuration};
//!
//! let net_cfg = NetConfig::ble(ring_kcast(5, 2), 3);
//! let config = HsConfig::new(5, net_cfg.delta(), HsVariant::SyncHotStuff);
//! let pki = Arc::new(KeyStore::generate(5, SigScheme::Rsa1024, 3));
//! let replicas = build_hs_replicas(&config, &pki, |_| FaultMode::Honest);
//! let mut net = SimNet::new(net_cfg, replicas);
//! net.run_for(SimDuration::from_millis(300));
//! assert!(net.actor(0).committed_height() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod status;
pub mod sync_hotstuff;
pub mod trusted;

pub use status::{check_prefix_consistency, SmrStatus};
pub use sync_hotstuff::{build_hs_replicas, HsConfig, HsPacing, HsReplica, HsVariant};
pub use trusted::{build_tb_nodes, TbConfig, TbNode, HUB};
