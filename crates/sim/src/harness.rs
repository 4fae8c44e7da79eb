//! The protocol harness: the one place a [`Scenario`] turns into
//! running replicas.
//!
//! Each protocol contributes a topology and channel
//! ([`Scenario::net_config`]), a configuration built against Δ
//! (`Scenario::protocol_config`), and a [`Cluster`]: its replicas with
//! the workload attached, plus its excuse and `ViewReached` predicates
//! ([`Scenario::with_cluster`]). Everything downstream — the simulator's
//! run loop in [`Scenario::run_traced`] and the `proc_replica` child of a
//! ProcNet run — is generic over the replica type, so every protocol
//! runs through the same stop logic and fills in the same
//! [`NodeReport`](crate::NodeReport).

use std::sync::Arc;

use eesmr_baselines::sync_hotstuff::{build_hs_replicas, HsConfig, HsPacing, HsVariant};
use eesmr_baselines::trusted::{build_tb_nodes, TbConfig, HUB};
use eesmr_baselines::SmrStatus;
use eesmr_core::{build_replicas, Config, Pacing, WorkloadSource};
use eesmr_crypto::KeyStore;
use eesmr_energy::Medium;
use eesmr_hypergraph::topology::{ring_kcast, star};
use eesmr_net::{Actor, ChannelCost, NetConfig, NodeId, SimDuration, WireCodec};

use crate::faults::FaultPlan;
use crate::scenario::{Protocol, Scenario};

/// A protocol's configuration, built against a given Δ.
#[derive(Debug, Clone)]
pub(crate) enum ProtocolConfig {
    /// EESMR.
    Eesmr(Config),
    /// Sync HotStuff or OptSync.
    HotStuff(HsConfig),
    /// The trusted baseline.
    Trusted(TbConfig),
}

impl ProtocolConfig {
    /// The fault bound `f` the protocol runs with (0 for the trusted
    /// baseline, which tolerates no faulty orderer).
    pub(crate) fn f(&self) -> usize {
        match self {
            ProtocolConfig::Eesmr(c) => c.f,
            ProtocolConfig::HotStuff(c) => c.f,
            ProtocolConfig::Trusted(_) => 0,
        }
    }
}

/// One protocol's replicas, ready for a run loop.
pub struct Cluster<A> {
    /// The replicas (index = node id), workload attached.
    pub replicas: Vec<A>,
    /// Whether a node is excused from the scenario's commit targets.
    pub excused: fn(&FaultPlan, NodeId) -> bool,
    /// Whether a replica has entered view `v` and resumed steady state.
    pub view_reached: fn(&A, u64) -> bool,
    /// The externally powered hub, for protocols that have one.
    pub hub: Option<NodeId>,
}

/// A computation over a [`Cluster`] of whichever replica type the
/// scenario's protocol uses (see [`Scenario::with_cluster`]).
pub trait ClusterRun {
    /// What the computation produces.
    type Output;

    /// Runs the computation.
    fn run<A>(self, cluster: Cluster<A>) -> Self::Output
    where
        A: Actor + SmrStatus + Send,
        A::Msg: WireCodec + Send + 'static,
        A::Timer: Send;
}

impl Scenario {
    /// The simulated network: BLE k-casts on a ring, or the trusted
    /// baseline's star over the expensive medium (Δ is one hop to and
    /// from the hub).
    pub fn net_config(&self) -> NetConfig {
        let mut cfg = match self.protocol {
            Protocol::TrustedBaseline => {
                let mut cfg = NetConfig::ble(star(self.n, HUB), self.seed);
                cfg.channel = ChannelCost::PerByte { medium: Medium::FourG };
                cfg
            }
            _ => NetConfig::ble(ring_kcast(self.n, self.k), self.seed),
        };
        cfg.scheduler = self.scheduler;
        cfg.trace = self.trace;
        cfg.metrics = self.metrics;
        cfg
    }

    /// The protocol configuration this scenario runs with at synchrony
    /// bound `delta`.
    pub(crate) fn protocol_config(&self, delta: SimDuration) -> ProtocolConfig {
        let batch_policy = self.effective_batch_policy();
        match self.protocol {
            Protocol::Eesmr => {
                let mut c = Config::new(self.n, delta);
                c.batch_policy = batch_policy;
                c.offered_load = self.offered_load;
                c.forward_batch = self.forward_batch;
                c.f = self.fault_bound.unwrap_or(c.f);
                c.payload_bytes = self.payload_bytes;
                c.crash_only = self.crash_only;
                c.opt_equivocation_speedup = self.opt_equivocation_speedup;
                c.opt_lock_only_status = self.opt_lock_only_status;
                c.checkpoint_interval = self.checkpoint_interval;
                if self.streaming {
                    c.pacing = Pacing::Streaming { max_outstanding: 8 };
                }
                ProtocolConfig::Eesmr(c)
            }
            Protocol::SyncHotStuff | Protocol::OptSync => {
                let variant = match self.protocol {
                    Protocol::OptSync => HsVariant::OptSync,
                    _ => HsVariant::SyncHotStuff,
                };
                let mut c = HsConfig::new(self.n, delta, variant);
                c.batch_policy = batch_policy;
                c.offered_load = self.offered_load;
                c.forward_batch = self.forward_batch;
                c.f = self.fault_bound.unwrap_or(c.f);
                c.payload_bytes = self.payload_bytes;
                if self.streaming {
                    c.pacing = HsPacing::Streaming;
                }
                ProtocolConfig::HotStuff(c)
            }
            Protocol::TrustedBaseline => {
                let mut c = TbConfig::new(self.n, self.payload_bytes, delta * 2);
                c.batch_policy = batch_policy;
                c.offered_load = self.offered_load;
                ProtocolConfig::Trusted(c)
            }
        }
    }

    /// The client-workload stream for the node in skew slot `slot` of
    /// `slots` originating nodes, if the scenario has a workload.
    fn workload_source(
        &self,
        id: usize,
        slot: usize,
        slots: usize,
    ) -> Option<Box<dyn WorkloadSource>> {
        let workload = self.workload.as_ref()?;
        Some(Box::new(workload.node_source(id as u32, slot, slots, self.seed)))
    }

    /// Builds this scenario's replicas at synchrony bound `delta` under
    /// `plan` and hands them to `run` — the one place any backend builds
    /// replicas, so the simulator and a ProcNet child run the same ones.
    pub fn with_cluster<R: ClusterRun>(
        &self,
        delta: SimDuration,
        plan: &FaultPlan,
        run: R,
    ) -> R::Output {
        let pki = Arc::new(KeyStore::generate(self.n, self.scheme, self.seed));
        match self.protocol_config(delta) {
            ProtocolConfig::Eesmr(config) => {
                let mut replicas = build_replicas(&config, &pki, |id| plan.mode(id));
                for (i, replica) in replicas.iter_mut().enumerate() {
                    if let Some(source) = self.workload_source(i, i, self.n) {
                        replica.attach_workload(source);
                    }
                }
                run.run(Cluster {
                    replicas,
                    excused: FaultPlan::is_excused,
                    view_reached: |r, v| r.current_view() >= v && r.current_round() >= 3,
                    hub: None,
                })
            }
            ProtocolConfig::HotStuff(config) => {
                let mut replicas = build_hs_replicas(&config, &pki, |id| plan.mode(id));
                for (i, replica) in replicas.iter_mut().enumerate() {
                    if let Some(source) = self.workload_source(i, i, self.n) {
                        replica.attach_workload(source);
                    }
                }
                run.run(Cluster {
                    replicas,
                    excused: FaultPlan::is_excused,
                    view_reached: |r, v| r.current_view() >= v,
                    hub: None,
                })
            }
            ProtocolConfig::Trusted(config) => {
                let mut nodes = build_tb_nodes(&config, &pki, |id| plan.tb_fault(id));
                // The externally powered hub (node 0) orders but never
                // originates: spokes 1..n map onto skew slots 0..n-1.
                for (i, node) in nodes.iter_mut().enumerate().skip(1) {
                    if let Some(source) = self.workload_source(i, i - 1, self.n - 1) {
                        node.attach_workload(source);
                    }
                }
                run.run(Cluster {
                    replicas: nodes,
                    // View-keyed behaviours translate to permanent
                    // silence in the view-less baseline, so the excuse
                    // set comes from the translated fault.
                    excused: FaultPlan::tb_is_excused,
                    // No views: the target holds before any event runs.
                    view_reached: |_, _| true,
                    hub: Some(HUB),
                })
            }
        }
    }
}
