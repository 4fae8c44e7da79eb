//! The benchmark's workloads: each is a list of [`Scenario`] cells built
//! from the workload seed alone.
//!
//! Every cell shares one client load: n = 16 on a k = 3 ring (Δ = 5 ms),
//! open-loop Poisson arrivals at 3000 tx/s spread uniformly over the
//! nodes, 16-byte transactions, an adaptive batch of 1..64 that aims at
//! the whole backlog, and RSA-1024 energy costs. The rate sits below
//! capacity: at n = 16 both BFT protocols hold their median latency flat
//! from 2 s to 30 s simulated, while at n = 32 Sync HotStuff's median
//! grows without bound, so n = 32 would measure a backlog, not a protocol.

use eesmr_crypto::SigScheme;
use eesmr_metrics::MetricsConfig;
use eesmr_net::{SimDuration, TraceLevel};
use eesmr_sim::{
    ArrivalProcess, BatchPolicy, FaultSpec, PayloadDist, Protocol, Scenario, SchedulerKind, Skew,
    StopWhen, Workload,
};

/// Node count of every cell (the trusted baseline's hub included).
pub const N: usize = 16;
/// Ring k-cast degree.
pub const K: usize = 3;
/// System-wide arrival rate, tx/s.
pub const RATE: u32 = 3_000;
/// Simulated length of a steady-state cell. Sized so that a traced run
/// at `TraceLevel::Proto` fits every node's 65 536-event ring: the EESMR
/// leader records one `TxBatched` per transaction and overflows after
/// about 20 s at this rate.
pub const STEADY_SIM_MS: u64 = 10_000;
/// Simulated length of one fault cell. Every `FaultSpec` heals by 40 Δ
/// (200 ms), so a cell covers the fault, the heal and the recovery.
pub const FAULT_SIM_MS: u64 = 1_000;
/// Runs of each (protocol, fault) pair in `faults-mixed`, each under its
/// own seed derived from the workload seed. How long a view change or a
/// heal takes varies widely between seeds (EESMR's equivocation cell has
/// a p99 of 98 ms on most seeds and 450 ms on some), so one run per pair
/// would make the workload's tail latency a coin toss; `commit_p99_ms`
/// takes the median over a pair's trials.
pub const FAULT_TRIALS: u64 = 4;
/// Simulated length of a timed sample. Short samples, each paired with
/// a reference loop right after it, track the host's speed swings; a
/// steady cell's exact metrics still come from its full length.
pub const TIMED_SIM_MS: u64 = 2_000;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["eesmr-steady", "synchs-steady", "faults-mixed", "trusted-steady"];

/// One scenario of a workload plus the fault it injects.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Short label for log lines.
    pub label: String,
    /// The (protocol, fault) pair the cell is a trial of; a steady
    /// workload's one cell is its own pair.
    pub pair: String,
    /// The fault axis value (`FaultSpec::None` on steady cells).
    pub fault: FaultSpec,
    /// The scenario, untraced and unprofiled.
    pub scenario: Scenario,
}

fn cell(protocol: Protocol, fault: FaultSpec, sim_ms: u64, seed: u64, trial: Option<u64>) -> Cell {
    let workload = Workload::new(ArrivalProcess::Poisson { rate: RATE })
        .skew(Skew::Uniform)
        .payload(PayloadDist::Fixed(16));
    let mut scenario = Scenario::new(protocol, N, K)
        .seed(seed)
        .scheme(SigScheme::Rsa1024)
        .batch_policy(BatchPolicy::Adaptive { min: 1, max: 64, target_fill_pct: 100 })
        .workload(workload)
        .scheduler(SchedulerKind::Calendar)
        .shards(1)
        .trace(TraceLevel::Off)
        .metrics(MetricsConfig::off())
        .stop(StopWhen::Elapsed(SimDuration::from_millis(sim_ms)));
    if fault != FaultSpec::None {
        scenario = scenario.fault_spec(fault);
    }
    let pair = format!("{} {}", protocol.name(), fault.label());
    let label = match trial {
        Some(t) => format!("{pair} #{t}"),
        None => pair.clone(),
    };
    Cell { label, pair, fault, scenario }
}

/// The cells of workload `name` at `seed`, or `None` for an unknown name.
pub fn cells(name: &str, seed: u64) -> Option<Vec<Cell>> {
    let steady = |protocol| vec![cell(protocol, FaultSpec::None, STEADY_SIM_MS, seed, None)];
    Some(match name {
        "eesmr-steady" => steady(Protocol::Eesmr),
        "synchs-steady" => steady(Protocol::SyncHotStuff),
        "trusted-steady" => steady(Protocol::TrustedBaseline),
        "faults-mixed" => fault_cells(seed),
        _ => return None,
    })
}

fn fault_cells(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for protocol in [Protocol::Eesmr, Protocol::SyncHotStuff] {
        for fault in FaultSpec::ADVERSARIAL {
            for trial in 0..FAULT_TRIALS {
                let trial_seed = seed.wrapping_mul(FAULT_TRIALS).wrapping_add(trial);
                cells.push(cell(protocol, fault, FAULT_SIM_MS, trial_seed, Some(trial)));
            }
        }
    }
    cells
}

/// The same cells stopped after at most `sim_ms` (set-up uses 0, the
/// memory probe half their length, timed samples [`TIMED_SIM_MS`]).
pub fn with_length(cells: &[Cell], sim_ms: u64) -> Vec<Cell> {
    cells
        .iter()
        .map(|c| {
            let mut c = c.clone();
            let ms = sim_ms.min(self::sim_ms(&c));
            c.scenario.stop = StopWhen::Elapsed(SimDuration::from_millis(ms));
            c
        })
        .collect()
}

/// Simulated milliseconds a cell runs for.
pub fn sim_ms(cell: &Cell) -> u64 {
    match cell.scenario.stop {
        StopWhen::Elapsed(d) => d.as_millis(),
        other => panic!("benchmark cells stop on elapsed time, got {other:?}"),
    }
}
