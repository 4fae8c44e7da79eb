//! ProcNet execution: run a [`Scenario`] as real OS processes.
//!
//! [`Scenario::run_proc`] spawns one `proc_replica` child per node (the
//! `eesmr-sim` binary of that name), meshes them over TCP or Unix domain
//! sockets via `eesmr_net::proc`, drives them with the coordinator
//! control protocol, and reassembles the children's report blobs into
//! the same [`RunReport`] the simulator emits. Wall clock replaces
//! virtual time — `elapsed_us` and the latency figures are real — while
//! the energy figures come from the same channel model, priced on the
//! same encoded bytes.
//!
//! # Δ padding
//!
//! Child protocol configs run their timers on
//! `max(simulated Δ, DELTA_PAD_US)`: with the simulator's
//! millisecond-scale Δ, a leader preempted by the OS scheduler for a few
//! milliseconds would look silent and draw spurious blame. Padding Δ
//! changes timer spacing only, never block contents, which is what lets
//! the conformance suite assert bit-identical commit sequences between
//! the two backends (`tests/proc_conformance.rs`).

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use eesmr_crypto::SigScheme;
use eesmr_net::proc::{alloc_addrs, ChildOpts, ChildProc, Coordinator, ProcTransport};
use eesmr_net::{CodecError, NetStats, Reader, SimDuration};
use eesmr_trace::hist::LogHistogram;

use crate::report::{NodeEnergy, NodeReport, RunReport};
use crate::scenario::{Protocol, Scenario, StopWhen};

/// Floor on the Δ child processes run their timers with, µs (see the
/// module docs on Δ padding).
pub const DELTA_PAD_US: u64 = 25_000;

/// How long the coordinator waits for every child to reach its block
/// target before declaring the run wedged.
const RUN_TIMEOUT: Duration = Duration::from_secs(120);

/// How long the coordinator retries control connections while children
/// bind their listeners.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// `--protocol` flag values, paired with [`parse_protocol`].
pub fn protocol_flag(p: Protocol) -> &'static str {
    match p {
        Protocol::Eesmr => "eesmr",
        Protocol::SyncHotStuff => "sync-hotstuff",
        Protocol::OptSync => "optsync",
        Protocol::TrustedBaseline => "trusted",
    }
}

/// Parses a [`protocol_flag`] value.
pub fn parse_protocol(s: &str) -> Option<Protocol> {
    match s {
        "eesmr" => Some(Protocol::Eesmr),
        "sync-hotstuff" => Some(Protocol::SyncHotStuff),
        "optsync" => Some(Protocol::OptSync),
        "trusted" => Some(Protocol::TrustedBaseline),
        _ => None,
    }
}

/// Parses a `proc_replica` command line (the `Scenario::child_args`
/// flags plus the per-child identity flags) back into the scenario, the
/// Δ to run timers with, and the transport options. Returns `None` on
/// any unknown flag, missing required flag, or malformed value.
pub fn parse_child_args(args: &[String]) -> Option<(Scenario, SimDuration, ChildOpts)> {
    let mut protocol = None;
    let mut n = None;
    let mut k = None;
    let mut payload = None;
    let mut seed = None;
    let mut scheme = None;
    let mut offered_load = 1usize;
    let mut forward_batch = 1usize;
    let mut delta_us = None;
    let mut streaming = false;
    let mut crash_only = false;
    let mut opt_equivocation_speedup = false;
    let mut opt_lock_only_status = false;
    let mut checkpoint_interval = None;
    let mut fault_bound = None;
    let mut node_id = None;
    let mut transport = None;
    let mut listen = None;
    let mut peers = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--streaming" => streaming = true,
            "--crash-only" => crash_only = true,
            "--opt-equivocation-speedup" => opt_equivocation_speedup = true,
            "--opt-lock-only-status" => opt_lock_only_status = true,
            _ => {
                let value = it.next()?;
                match flag.as_str() {
                    "--protocol" => protocol = Some(parse_protocol(value)?),
                    "--n" => n = Some(value.parse().ok()?),
                    "--k" => k = Some(value.parse().ok()?),
                    "--payload" => payload = Some(value.parse().ok()?),
                    "--seed" => seed = Some(value.parse().ok()?),
                    "--scheme" => {
                        scheme = Some(SigScheme::from_wire_tag(value.parse().ok()?)?);
                    }
                    "--offered-load" => offered_load = value.parse().ok()?,
                    "--forward-batch" => forward_batch = value.parse().ok()?,
                    "--delta-us" => delta_us = Some(value.parse().ok()?),
                    "--checkpoint" => checkpoint_interval = Some(value.parse().ok()?),
                    "--fault-bound" => fault_bound = Some(value.parse().ok()?),
                    "--node-id" => node_id = Some(value.parse().ok()?),
                    "--transport" => transport = Some(ProcTransport::parse(value)?),
                    "--listen" => listen = Some(value.clone()),
                    "--peers" => peers = Some(ChildOpts::parse_peers(value)?),
                    _ => return None,
                }
            }
        }
    }
    let (n, k) = (n?, k?);
    if !(1..n).contains(&k) {
        return None; // not a ring degree `Scenario::new` accepts
    }
    let mut scenario = Scenario::new(protocol?, n, k).payload(payload?).seed(seed?).scheme(scheme?);
    scenario.offered_load = offered_load;
    scenario.forward_batch = forward_batch;
    scenario.streaming = streaming;
    scenario.crash_only = crash_only;
    scenario.opt_equivocation_speedup = opt_equivocation_speedup;
    scenario.opt_lock_only_status = opt_lock_only_status;
    scenario.checkpoint_interval = checkpoint_interval;
    scenario.fault_bound = fault_bound;
    let opts =
        ChildOpts { node_id: node_id?, transport: transport?, listen: listen?, peers: peers? };
    Some((scenario, SimDuration::from_micros(delta_us?), opts))
}

/// Report-blob schema magic + version ("EESMR Proc Report, v1").
const REPORT_MAGIC: &[u8; 4] = b"EPR1";

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Encodes one child's [`NodeReport`] plus its transport counters as the
/// opaque control-channel blob `run_proc` collects. The layout is an
/// internal coordinator↔child contract versioned by `REPORT_MAGIC` —
/// both ends always come from the same build, so it can evolve freely
/// (unlike the frozen v1 message wire format).
pub fn encode_node_report(node: &NodeReport, stats: &NetStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(REPORT_MAGIC);
    put_u32(&mut out, node.id);
    out.push(u8::from(node.faulty) | (u8::from(node.is_hub) << 1));
    put_f64(&mut out, node.energy.send_mj);
    put_f64(&mut out, node.energy.recv_mj);
    put_f64(&mut out, node.energy.sign_mj);
    put_f64(&mut out, node.energy.verify_mj);
    put_f64(&mut out, node.energy.hash_mj);
    put_u64(&mut out, node.committed_height);
    put_u64(&mut out, node.blocks_committed);
    put_u64(&mut out, node.view_changes);
    put_u64(&mut out, node.signs);
    put_u64(&mut out, node.verifies);
    match node.mean_commit_latency {
        Some(d) => {
            out.push(1);
            put_u64(&mut out, d.as_micros());
        }
        None => out.push(0),
    }
    put_u64(&mut out, node.tx_injected);
    put_u64(&mut out, node.tx_forwarded);
    put_u64(&mut out, node.forward_retries);
    put_u64(&mut out, node.peak_backlog);
    match node.mean_batch_fill_pct {
        Some(pct) => {
            out.push(1);
            put_f64(&mut out, pct);
        }
        None => out.push(0),
    }
    let (buckets, count, sum, min, max) = node.tx_latency_hist.raw_parts();
    put_u64(&mut out, count);
    put_u64(&mut out, sum as u64);
    put_u64(&mut out, (sum >> 64) as u64);
    put_u64(&mut out, min);
    put_u64(&mut out, max);
    put_u32(&mut out, buckets.len() as u32);
    for &b in buckets {
        put_u64(&mut out, b);
    }
    put_u32(&mut out, node.commit_fps.len() as u32);
    for &fp in &node.commit_fps {
        put_u64(&mut out, fp);
    }
    put_u32(&mut out, node.commit_txs.len() as u32);
    for &txs in &node.commit_txs {
        put_u32(&mut out, txs);
    }
    put_u64(&mut out, stats.kcasts);
    put_u64(&mut out, stats.deliveries);
    put_u64(&mut out, stats.loopbacks);
    put_u64(&mut out, stats.flood_relays);
    put_u64(&mut out, stats.bytes_on_air);
    put_u64(&mut out, stats.dropped);
    out
}

fn bad(err: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("report blob: {err}"))
}

fn read_f64(r: &mut Reader<'_>) -> io::Result<f64> {
    Ok(f64::from_bits(r.u64().map_err(bad)?))
}

/// Decodes a blob produced by [`encode_node_report`].
pub fn decode_node_report(blob: &[u8]) -> io::Result<(NodeReport, NetStats)> {
    let mut r = Reader::new(blob);
    if r.bytes(4).map_err(bad)? != REPORT_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "report blob: bad magic"));
    }
    let id = r.u32().map_err(bad)?;
    let flags = r.u8().map_err(bad)?;
    let energy = NodeEnergy {
        send_mj: read_f64(&mut r)?,
        recv_mj: read_f64(&mut r)?,
        sign_mj: read_f64(&mut r)?,
        verify_mj: read_f64(&mut r)?,
        hash_mj: read_f64(&mut r)?,
    };
    let committed_height = r.u64().map_err(bad)?;
    let blocks_committed = r.u64().map_err(bad)?;
    let view_changes = r.u64().map_err(bad)?;
    let signs = r.u64().map_err(bad)?;
    let verifies = r.u64().map_err(bad)?;
    let mean_commit_latency = match r.u8().map_err(bad)? {
        0 => None,
        _ => Some(SimDuration::from_micros(r.u64().map_err(bad)?)),
    };
    let tx_injected = r.u64().map_err(bad)?;
    let tx_forwarded = r.u64().map_err(bad)?;
    let forward_retries = r.u64().map_err(bad)?;
    let peak_backlog = r.u64().map_err(bad)?;
    let mean_batch_fill_pct = match r.u8().map_err(bad)? {
        0 => None,
        _ => Some(read_f64(&mut r)?),
    };
    let count = r.u64().map_err(bad)?;
    let sum_lo = r.u64().map_err(bad)?;
    let sum_hi = r.u64().map_err(bad)?;
    let min = r.u64().map_err(bad)?;
    let max = r.u64().map_err(bad)?;
    let n_buckets = r.u32().map_err(bad)? as usize;
    if n_buckets.saturating_mul(8) > r.remaining() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "report blob: bucket overrun"));
    }
    let mut buckets = Vec::with_capacity(n_buckets);
    for _ in 0..n_buckets {
        buckets.push(r.u64().map_err(bad)?);
    }
    let sum = (sum_lo as u128) | ((sum_hi as u128) << 64);
    let tx_latency_hist = LogHistogram::from_raw_parts(buckets, count, sum, min, max);
    let n_fps = r.u32().map_err(bad)? as usize;
    if n_fps.saturating_mul(8) > r.remaining() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "report blob: fps overrun"));
    }
    let mut commit_fps = Vec::with_capacity(n_fps);
    for _ in 0..n_fps {
        commit_fps.push(r.u64().map_err(bad)?);
    }
    let n_txs = r.u32().map_err(bad)? as usize;
    if n_txs.saturating_mul(4) > r.remaining() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "report blob: txs overrun"));
    }
    let mut commit_txs = Vec::with_capacity(n_txs);
    for _ in 0..n_txs {
        commit_txs.push(r.u32().map_err(bad)?);
    }
    let stats = NetStats {
        kcasts: r.u64().map_err(bad)?,
        deliveries: r.u64().map_err(bad)?,
        loopbacks: r.u64().map_err(bad)?,
        flood_relays: r.u64().map_err(bad)?,
        bytes_on_air: r.u64().map_err(bad)?,
        dropped: r.u64().map_err(bad)?,
    };
    r.finish().map_err(bad)?;
    let node = NodeReport {
        id,
        faulty: flags & 1 != 0,
        is_hub: flags & 2 != 0,
        energy,
        committed_height,
        blocks_committed,
        view_changes,
        signs,
        verifies,
        mean_commit_latency,
        tx_injected,
        tx_forwarded,
        forward_retries,
        peak_backlog,
        mean_batch_fill_pct,
        tx_latency_hist,
        commit_fps,
        commit_txs,
    };
    Ok((node, stats))
}

fn unsupported(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("run_proc covers the happy-path cell only: {what} is not supported"),
    )
}

impl Scenario {
    /// Renders every knob that shapes replica construction, plus the
    /// (padded) Δ the whole mesh runs timers with, as `proc_replica`
    /// command-line arguments (everything except the per-child
    /// `--node-id`/`--transport`/`--listen`/`--peers` identity flags).
    fn child_args(&self, delta: SimDuration) -> Vec<String> {
        let mut args = vec![
            "--protocol".into(),
            protocol_flag(self.protocol).into(),
            "--n".into(),
            self.n.to_string(),
            "--k".into(),
            self.k.to_string(),
            "--payload".into(),
            self.payload_bytes.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--scheme".into(),
            self.scheme.wire_tag().to_string(),
            "--offered-load".into(),
            self.offered_load.to_string(),
            "--forward-batch".into(),
            self.forward_batch.to_string(),
            "--delta-us".into(),
            delta.as_micros().to_string(),
        ];
        if self.streaming {
            args.push("--streaming".into());
        }
        if self.crash_only {
            args.push("--crash-only".into());
        }
        if self.opt_equivocation_speedup {
            args.push("--opt-equivocation-speedup".into());
        }
        if self.opt_lock_only_status {
            args.push("--opt-lock-only-status".into());
        }
        if let Some(interval) = self.checkpoint_interval {
            args.push("--checkpoint".into());
            args.push(interval.to_string());
        }
        if let Some(f) = self.fault_bound {
            args.push("--fault-bound".into());
            args.push(f.to_string());
        }
        args
    }

    /// Runs this scenario's happy-path cell as real OS processes: one
    /// `proc_replica` child per node (spawned from `binary`), meshed
    /// over `transport`, stopped once every node reports the scenario's
    /// block target. Returns the same [`RunReport`] shape `run` does,
    /// with wall-clock `elapsed_us` and latencies.
    ///
    /// Supported cells: no fault plan, no client workload, no explicit
    /// batch policy, and a [`StopWhen::Blocks`] stop — the subset where
    /// commit sequences are timing-independent, so the conformance
    /// suite can compare backends bit for bit. Anything else returns
    /// `InvalidInput`.
    pub fn run_proc(&self, transport: ProcTransport, binary: &Path) -> io::Result<RunReport> {
        let blocks = match self.stop {
            StopWhen::Blocks(b) => b,
            _ => return Err(unsupported("a non-Blocks stop condition")),
        };
        if self.workload.is_some() {
            return Err(unsupported("a client workload"));
        }
        if self.fault_spec.is_some() || self.faults.count() > 0 {
            return Err(unsupported("a fault plan"));
        }
        if self.batch_policy.is_some() {
            return Err(unsupported("an explicit batch policy"));
        }
        if !binary.exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} not built — run `cargo build -p eesmr-sim --bins`", binary.display()),
            ));
        }

        // Children run timers on the simulated topology's Δ padded to
        // DELTA_PAD_US, under the protocol fault bound `run` would use.
        let delta = self.net_config().delta().max(SimDuration::from_micros(DELTA_PAD_US));
        let f = self.protocol_config(delta).f();
        let child_args = self.child_args(delta);
        let addrs = alloc_addrs(transport, self.n)?;
        let mut children = Vec::with_capacity(self.n);
        for id in 0..self.n {
            let peers: Vec<(u32, String)> =
                (0..self.n).filter(|p| *p != id).map(|p| (p as u32, addrs[p].clone())).collect();
            let mut cmd = std::process::Command::new(binary);
            cmd.args(&child_args)
                .arg("--node-id")
                .arg(id.to_string())
                .arg("--transport")
                .arg(transport.flag())
                .arg("--listen")
                .arg(&addrs[id])
                .arg("--peers")
                .arg(ChildOpts::peers_flag(&peers))
                .stdin(std::process::Stdio::null())
                .stdout(std::process::Stdio::null());
            children.push(ChildProc(cmd.spawn()?));
        }

        let started = Instant::now();
        let mut coord = Coordinator::connect(transport, &addrs, CONNECT_TIMEOUT)?;
        coord.start()?;
        coord.run_until(|statuses| statuses.iter().all(|h| *h >= blocks), RUN_TIMEOUT)?;
        let blobs = coord.stop_and_collect()?;
        let elapsed_us = started.elapsed().as_micros() as u64;
        drop(children); // all exited after CMD_STOP; kill-on-drop is a no-op

        let mut net = NetStats::default();
        let mut nodes = Vec::with_capacity(self.n);
        for (i, blob) in blobs.iter().enumerate() {
            let (node, stats) = decode_node_report(blob)?;
            if node.id as usize != i {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("child {i} reported as node {}", node.id),
                ));
            }
            net.absorb(&stats);
            nodes.push(node);
        }
        Ok(RunReport {
            protocol: self.protocol.name(),
            n: self.n,
            k: self.k,
            f,
            payload_bytes: self.payload_bytes,
            delta_us: delta.as_micros(),
            elapsed_us,
            nodes,
            net,
            commit_path: None,
            energy_attr: Vec::new(),
            metrics: eesmr_net::MetricsSet::default(),
            trace_dropped: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_args_roundtrip_through_the_child_parser() {
        let mut scenario = Scenario::new(Protocol::OptSync, 7, 3)
            .payload(64)
            .seed(9)
            .scheme(SigScheme::Hmac)
            .offered_load(2)
            .forward_batch(4)
            .streaming()
            .checkpoint_every(8)
            .fault_bound(2);
        scenario.opt_equivocation_speedup = true;
        let delta = SimDuration::from_micros(30_000);
        let mut args = scenario.child_args(delta);
        args.extend(
            ["--node-id", "3", "--transport", "uds", "--listen", "/tmp/x.sock", "--peers", "0@a"]
                .map(String::from),
        );
        let (back, back_delta, opts) = parse_child_args(&args).expect("parses");
        assert_eq!(back.child_args(back_delta), scenario.child_args(delta));
        assert_eq!(back_delta, delta);
        assert_eq!(
            (back.protocol, back.n, back.k, back.payload_bytes, back.seed, back.scheme),
            (Protocol::OptSync, 7, 3, 64, 9, SigScheme::Hmac)
        );
        assert!(back.streaming && back.opt_equivocation_speedup && !back.opt_lock_only_status);
        assert_eq!((back.checkpoint_interval, back.fault_bound), (Some(8), Some(2)));
        assert_eq!(opts.node_id, 3);
        assert_eq!(opts.transport, ProcTransport::Uds);
        assert_eq!(opts.listen, "/tmp/x.sock");
        assert_eq!(opts.peers, vec![(0, "a".to_string())]);
        // Unknown flags, missing values, and impossible rings are
        // rejected, not ignored.
        assert!(parse_child_args(&["--bogus".into(), "1".into()]).is_none());
        assert!(parse_child_args(&["--n".into()]).is_none());
        let mut bad_ring = args.clone();
        bad_ring[5] = "7".into(); // --k 7 at n = 7
        assert!(parse_child_args(&bad_ring).is_none());
    }

    #[test]
    fn report_blob_roundtrip() {
        let mut hist = LogHistogram::new();
        for v in [5u64, 900, 77_000] {
            hist.record(v);
        }
        let node = NodeReport {
            id: 4,
            faulty: false,
            is_hub: true,
            energy: NodeEnergy {
                send_mj: 1.5,
                recv_mj: 2.25,
                sign_mj: 0.125,
                verify_mj: 3.0,
                hash_mj: 0.5,
            },
            committed_height: 20,
            blocks_committed: 21,
            view_changes: 1,
            signs: 40,
            verifies: 160,
            mean_commit_latency: Some(SimDuration::from_micros(123_456)),
            tx_injected: 7,
            tx_forwarded: 3,
            forward_retries: 1,
            peak_backlog: 9,
            mean_batch_fill_pct: Some(87.5),
            tx_latency_hist: hist,
            commit_fps: vec![1, u64::MAX, 42],
            commit_txs: vec![1, 1, 2],
        };
        let stats = NetStats {
            kcasts: 10,
            deliveries: 20,
            loopbacks: 5,
            flood_relays: 0,
            bytes_on_air: 12_345,
            dropped: 1,
        };
        let blob = encode_node_report(&node, &stats);
        let (node2, stats2) = decode_node_report(&blob).expect("decodes");
        assert_eq!(node2, node);
        assert_eq!(stats2, stats);
        // Corruption surfaces as an error, not a panic.
        assert!(decode_node_report(&blob[..blob.len() - 1]).is_err());
        assert!(decode_node_report(b"nope").is_err());
        let mut hostile = blob.clone();
        let fps_at = blob.len() - 6 * 8 - (3 * 4 + 4) - (3 * 8 + 4);
        hostile[fps_at..fps_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_node_report(&hostile).is_err(), "hostile count prefix rejected");
    }

    #[test]
    fn run_proc_rejects_cells_outside_the_happy_path() {
        let bin = Path::new("/nonexistent/proc_replica");
        let base = Scenario::new(Protocol::Eesmr, 4, 2).stop(StopWhen::Blocks(2));
        let err = |s: Scenario| s.run_proc(ProcTransport::Uds, bin).unwrap_err().kind();
        assert_eq!(
            err(base.clone().stop(StopWhen::Elapsed(SimDuration::from_millis(1)))),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            err(base.clone().faults(crate::faults::FaultPlan::silent_leader())),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            err(base
                .clone()
                .workload(crate::Workload::new(crate::ArrivalProcess::Poisson { rate: 10 }))),
            io::ErrorKind::InvalidInput
        );
        // A valid cell with a missing binary fails with NotFound (and a
        // build hint), not a spawn error.
        assert_eq!(err(base), io::ErrorKind::NotFound);
    }
}
