//! One replica process of a ProcNet run (see `eesmr_sim::proc`).
//!
//! `Scenario::run_proc` spawns `n` copies of this binary, each rebuilding
//! the scenario from the command line and its replicas exactly as
//! `Scenario::run` would (same harness, same deterministic keys, padded
//! Δ), then handing its own replica to `eesmr_net::proc::run_node` to
//! mesh with its peers over TCP or Unix domain sockets. The final report
//! blob is the same per-node `NodeReport` the simulator emits.

use std::io;

use eesmr_baselines::SmrStatus;
use eesmr_net::proc::{run_node, ChildOpts};
use eesmr_net::{Actor, ChannelCost, WireCodec};
use eesmr_sim::harness::{Cluster, ClusterRun};
use eesmr_sim::proc::{encode_node_report, parse_child_args};
use eesmr_sim::{FaultPlan, NodeReport};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((scenario, delta, opts)) = parse_child_args(&args) else {
        eprintln!("proc_replica: bad arguments: {args:?}");
        std::process::exit(2);
    };
    let channel = scenario.net_config().channel;
    if let Err(err) = scenario.with_cluster(delta, &FaultPlan::none(), Child { opts, channel }) {
        eprintln!("proc_replica: {err}");
        std::process::exit(1);
    }
}

/// Runs this process's own replica of the cluster as a ProcNet node.
struct Child {
    opts: ChildOpts,
    channel: ChannelCost,
}

impl ClusterRun for Child {
    type Output = io::Result<()>;

    fn run<A>(self, mut cluster: Cluster<A>) -> io::Result<()>
    where
        A: Actor + SmrStatus + Send,
        A::Msg: WireCodec + Send + 'static,
        A::Timer: Send,
    {
        let id = self.opts.node_id;
        let is_hub = cluster.hub == Some(id);
        let actor = cluster.replicas.swap_remove(id as usize);
        run_node(
            self.opts,
            actor,
            self.channel,
            |r| r.committed_block_height(),
            |r, meter, stats| {
                encode_node_report(&NodeReport::from_node(id, r, meter, false, is_hub), stats)
            },
        )?;
        Ok(())
    }
}
