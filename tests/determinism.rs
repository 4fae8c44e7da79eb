//! The simulator's determinism contract (`eesmr-net/src/runtime.rs`): a
//! scenario is a pure function of its configuration and seed. Two runs
//! with the same seed must produce *identical* `RunReport`s — every
//! energy figure, commit, view change, and network counter — across all
//! protocols, with and without faults.

use eesmr_driver::{Driver, DriverConfig, ScenarioGrid};
use eesmr_net::SimDuration;
use eesmr_sim::{
    ArrivalProcess, FaultPlan, FaultSpec, Protocol, RunReport, Scenario, SchedulerKind, Skew,
    StopWhen, Workload,
};

/// The bursty, skewed, closed-loop workload the determinism grids use —
/// deliberately the hardest sampling path (MMPP state walks + per-node
/// RNG streams + in-flight feedback).
fn bursty_workload() -> Workload {
    Workload::new(ArrivalProcess::Bursty { rate: 5_000, on_ms: 30, off_ms: 60 })
        .skew(Skew::Hotspot { pct: 80 })
        .closed_loop(16)
}

fn run(protocol: Protocol, seed: u64, faults: FaultPlan) -> RunReport {
    Scenario::new(protocol, 6, 3).seed(seed).faults(faults).stop(StopWhen::Blocks(4)).run()
}

#[test]
fn same_seed_same_report_for_every_protocol() {
    for protocol in
        [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline]
    {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = run(protocol, seed, FaultPlan::none());
            let b = run(protocol, seed, FaultPlan::none());
            assert_eq!(a, b, "{protocol:?} diverged with seed {seed}");
        }
    }
}

#[test]
fn same_seed_same_report_under_faults() {
    for faults in [FaultPlan::silent_leader(), FaultPlan::none().with_equivocator(1, 1)] {
        let a = run(Protocol::Eesmr, 7, faults.clone());
        let b = run(Protocol::Eesmr, 7, faults);
        assert_eq!(a, b, "faulty runs must still be deterministic");
    }
}

/// A mixed grid: three protocols × two system sizes × two seeds, plus
/// explicit faulty scenarios (a stalled leader forcing a view change and
/// an equivocator).
fn mixed_grid() -> ScenarioGrid {
    ScenarioGrid::named("determinism")
        .protocols([Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync])
        .nodes([5, 6])
        .degrees([2])
        .seeds([7, 42])
        .stop(StopWhen::Blocks(3))
        .scenario(
            "vc-under-silent-leader",
            Scenario::new(Protocol::Eesmr, 5, 2)
                .faults(FaultPlan::silent_leader())
                .stop(StopWhen::ViewReached(2)),
        )
        .scenario(
            "equivocating-replica",
            Scenario::new(Protocol::Eesmr, 6, 2)
                .faults(FaultPlan::none().with_equivocator(1, 1))
                .stop(StopWhen::Blocks(3)),
        )
}

#[test]
fn parallel_driver_is_bit_identical_to_sequential() {
    // The driver extends the determinism contract across threads: a grid
    // fanned out over 8 workers must produce the same ordered suite —
    // every RunReport, energy figure, and summary statistic — as the
    // same grid run inline on 1 worker, twice (repeats included).
    let sequential =
        Driver::new(DriverConfig::default().workers(1).repeats(2)).run_grid(&mixed_grid());
    let parallel =
        Driver::new(DriverConfig::default().workers(8).repeats(2)).run_grid(&mixed_grid());
    assert_eq!(sequential.cells.len(), 14, "12 cartesian cells + 2 explicit scenarios");
    assert_eq!(sequential, parallel, "worker count leaked into the results");
    // And the parallel run is itself reproducible.
    let parallel_again =
        Driver::new(DriverConfig::default().workers(8).repeats(2)).run_grid(&mixed_grid());
    assert_eq!(parallel, parallel_again);
}

#[test]
fn driver_repeats_vary_the_seed_but_quick_mode_only_shrinks_targets() {
    let suite = Driver::new(DriverConfig::default().workers(4).repeats(3)).run_grid(
        &ScenarioGrid::named("repeats").nodes([6]).degrees([3]).stop(StopWhen::Blocks(3)),
    );
    let runs = &suite.cells[0].runs;
    assert_eq!(runs.len(), 3);
    assert!(
        runs.windows(2).any(|w| w[0] != w[1]),
        "repeats reseed the scenario, so some pair should differ"
    );
    // Repeat seeds stride into a disjoint range: with adjacent values on
    // the seed axis, cell(seed=1) repeat 1 must NOT replay cell(seed=2)
    // repeat 0 bit-for-bit.
    let adjacent = Driver::new(DriverConfig::default().workers(2).repeats(2)).run_grid(
        &ScenarioGrid::named("adjacent")
            .nodes([6])
            .degrees([3])
            .seeds([1, 2])
            .stop(StopWhen::Blocks(3)),
    );
    assert_ne!(
        adjacent.cells[0].runs[1], adjacent.cells[1].runs[0],
        "repeat reseeding collided with the next seed-axis value"
    );
    // Quick mode only clamps stop targets; with an already-small target
    // the run is unchanged.
    let full = Driver::new(DriverConfig::default().workers(2))
        .run_grid(&ScenarioGrid::named("quick").nodes([6]).degrees([3]).stop(StopWhen::Blocks(3)));
    let quick = Driver::new(DriverConfig::default().workers(2).quick(true))
        .run_grid(&ScenarioGrid::named("quick").nodes([6]).degrees([3]).stop(StopWhen::Blocks(3)));
    assert_eq!(full, quick);
}

/// A grid with a workload axis: every protocol under Poisson and bursty
/// client traffic, plus an explicit closed-loop diurnal scenario.
fn workload_grid() -> ScenarioGrid {
    ScenarioGrid::named("workload-determinism")
        .protocols([Protocol::Eesmr, Protocol::OptSync, Protocol::TrustedBaseline])
        .nodes([5])
        .degrees([2])
        .workloads([
            Workload::new(ArrivalProcess::Poisson { rate: 2_000 }).skew(Skew::Zipf),
            bursty_workload(),
        ])
        .stop(StopWhen::Blocks(3))
        .scenario(
            "diurnal-closed-loop",
            Scenario::new(Protocol::Eesmr, 6, 3)
                .workload(
                    Workload::new(ArrivalProcess::Diurnal {
                        base: 2_000,
                        amplitude: 1_500,
                        period_ms: 100,
                    })
                    .closed_loop(8),
                )
                .stop(StopWhen::Blocks(3)),
        )
}

#[test]
fn workload_grid_is_bit_identical_across_workers() {
    // The acceptance bar for the workload subsystem: a sweep over
    // (arrival × skew × protocol) — per-transaction latencies included —
    // is a pure function of the grid, not of the worker count.
    let sequential = Driver::new(DriverConfig::default().workers(1)).run_grid(&workload_grid());
    let parallel = Driver::new(DriverConfig::default().workers(8)).run_grid(&workload_grid());
    assert_eq!(sequential.cells.len(), 7, "3 protocols × 2 workloads + 1 explicit");
    assert_eq!(sequential, parallel, "worker count leaked into workload results");
    // The sweep actually measured per-transaction latency everywhere.
    for cell in &sequential.cells {
        let stats = cell.report().tx_latency_stats();
        assert!(stats.is_some(), "{} measured no transactions", cell.label);
        assert!(cell.stats.tx_latency_p50_us.is_some());
        assert!(cell.stats.tx_latency_p99_us.is_some());
    }
    // And the JSON/CSV payloads — what the figures consume — match too.
    assert_eq!(sequential.to_json(), parallel.to_json());
}

#[test]
fn workload_scenarios_are_bit_identical_across_schedulers() {
    // EESMR_SCHED must stay a pure performance choice with arrival
    // timers in the event stream: heap and calendar runs of a bursty,
    // skewed, closed-loop workload produce identical reports.
    let scenarios = [
        Scenario::new(Protocol::Eesmr, 6, 3).workload(bursty_workload()).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::SyncHotStuff, 6, 3)
            .workload(bursty_workload())
            .stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::TrustedBaseline, 5, 2)
            .workload(Workload::new(ArrivalProcess::Poisson { rate: 3_000 }))
            .stop(StopWhen::Blocks(4)),
    ];
    for scenario in scenarios {
        let heap = scenario.clone().scheduler(SchedulerKind::Heap).run();
        let calendar = scenario.clone().scheduler(SchedulerKind::Calendar).run();
        assert_eq!(heap, calendar, "scheduler leaked into results: {}", scenario.label());
        assert!(heap.tx_committed() > 0, "{} committed no transactions", scenario.label());
    }
}

#[test]
fn calendar_and_heap_schedulers_are_bit_identical() {
    // The event scheduler is a pure performance choice: swapping the
    // calendar queue for the reference binary heap must never change a
    // single byte of any report — across protocols, faults, and the
    // view-change path whose long timers exercise the spill heap.
    let scenarios = [
        Scenario::new(Protocol::Eesmr, 6, 3).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::SyncHotStuff, 6, 3).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::OptSync, 5, 2).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::TrustedBaseline, 6, 2).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::Eesmr, 5, 2)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::ViewReached(2)),
        Scenario::new(Protocol::Eesmr, 6, 2)
            .faults(FaultPlan::none().with_equivocator(1, 1))
            .stop(StopWhen::Blocks(3)),
    ];
    for scenario in scenarios {
        let heap = scenario.clone().scheduler(SchedulerKind::Heap).run();
        let calendar = scenario.clone().scheduler(SchedulerKind::Calendar).run();
        assert_eq!(heap, calendar, "scheduler leaked into results: {}", scenario.label());
    }
}

/// The mixed grid the sharded-equivalence test sweeps: every protocol,
/// a stalled-leader view change, an equivocator, and the bursty
/// closed-loop workload — all the event-stream shapes (floods, targeted
/// floods, timers, arrivals, forwarding) that could conceivably leak a
/// shard layout.
fn sharding_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(Protocol::Eesmr, 6, 3).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::SyncHotStuff, 6, 3).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::OptSync, 5, 2).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::TrustedBaseline, 6, 2).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::Eesmr, 5, 2)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::ViewReached(2)),
        Scenario::new(Protocol::Eesmr, 6, 2)
            .faults(FaultPlan::none().with_equivocator(1, 1))
            .stop(StopWhen::Blocks(3)),
        Scenario::new(Protocol::Eesmr, 6, 3).workload(bursty_workload()).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::SyncHotStuff, 6, 3)
            .workload(bursty_workload())
            .stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::Eesmr, 7, 3).stop(StopWhen::Elapsed(SimDuration::from_millis(40))),
    ]
}

#[test]
fn sharded_runs_are_bit_identical_for_any_shard_count() {
    // The parallel-simulation acceptance bar: splitting one scenario's
    // node set across 2 or 4 shard threads (EESMR_SHARDS) must not
    // change a single byte of the RunReport — energy floats included —
    // relative to the single-threaded run, across protocols, faults,
    // view changes, and workloads.
    for scenario in sharding_scenarios() {
        let reference = scenario.clone().shards(1).run();
        for shards in [2, 4] {
            let sharded = scenario.clone().shards(shards).run();
            assert_eq!(
                reference,
                sharded,
                "shard count {shards} leaked into results: {}",
                scenario.label()
            );
        }
    }
}

#[test]
fn sharded_runs_are_bit_identical_under_both_schedulers() {
    // Sharding × scheduler: all four combinations of (heap|calendar) ×
    // (1|3 shards) must coincide — each shard's local queue goes through
    // the selected backend, so this pins the full cross product.
    let scenarios = [
        Scenario::new(Protocol::Eesmr, 6, 3).workload(bursty_workload()).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::Eesmr, 5, 2)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::ViewReached(2)),
        Scenario::new(Protocol::OptSync, 6, 2).stop(StopWhen::Blocks(4)),
    ];
    for scenario in scenarios {
        let reference = scenario.clone().scheduler(SchedulerKind::Heap).shards(1).run();
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            for shards in [1, 3] {
                let run = scenario.clone().scheduler(kind).shards(shards).run();
                assert_eq!(
                    reference,
                    run,
                    "({}, {shards} shards) diverged: {}",
                    kind.name(),
                    scenario.label()
                );
            }
        }
    }
}

#[test]
fn shard_axis_suites_agree_cell_for_cell() {
    // A grid sweeping the shard axis produces one cell per shard count;
    // all of them must carry identical RunReports (the shard count is a
    // performance axis, not a results axis), and the suite JSON must
    // record the axis so sweeps are auditable.
    let grid = ScenarioGrid::named("shard-axis")
        .nodes([6])
        .degrees([3])
        .shards([1, 2, 4])
        .stop(StopWhen::Blocks(3));
    let suite = Driver::new(DriverConfig::default().workers(2)).run_grid(&grid);
    assert_eq!(suite.cells.len(), 3);
    for cell in &suite.cells[1..] {
        assert_eq!(suite.cells[0].runs, cell.runs, "cell {} diverged", cell.label);
    }
    assert_eq!(suite.cells[0].key.shards, 1);
    assert_eq!(suite.cells[2].key.shards, 4);
    assert!(suite.to_json().contains("\"shards\": 4"), "suite JSON records the shard axis");
}

#[test]
fn seed_actually_matters_somewhere() {
    // Guard against the seed being ignored entirely: across a spread of
    // seeds, at least one pair of EESMR runs must differ in some respect
    // (delivery jitter makes timing-derived metrics seed-dependent).
    let reports: Vec<RunReport> =
        (0..8).map(|s| run(Protocol::Eesmr, s, FaultPlan::none())).collect();
    assert!(
        reports.windows(2).any(|w| w[0] != w[1]),
        "eight different seeds produced eight identical reports; is the seed wired through?"
    );
}

#[test]
fn traces_are_bit_identical_across_shards() {
    // The trace extends the determinism contract: events are stamped
    // (time, node, node-local seq) from node-local state only, so the
    // shard count — which reorders *execution* but not virtual time —
    // cannot move, drop, or reorder a single event.
    use eesmr_net::TraceLevel;
    let base = Scenario::new(Protocol::Eesmr, 6, 3)
        .workload(bursty_workload())
        .stop(StopWhen::Blocks(4))
        .trace(TraceLevel::All);
    let (reference_report, reference_trace) = base.clone().shards(1).run_traced();
    assert!(reference_trace.total_events() > 0, "tracing recorded something");
    for shards in [2usize, 4] {
        let (report, trace) = base.clone().shards(shards).run_traced();
        assert_eq!(reference_trace, trace, "trace diverged with {shards} shards");
        assert_eq!(reference_report, report, "report diverged with {shards} shards");
    }
    // Same contract for the scheduler knob.
    let (_, calendar) = base.clone().scheduler(SchedulerKind::Calendar).run_traced();
    let (_, heap) = base.clone().scheduler(SchedulerKind::Heap).run_traced();
    assert_eq!(calendar, heap, "trace diverged across schedulers");
}

#[test]
fn traces_are_bit_identical_across_workers() {
    // Fanning traced scenarios over the driver's worker pool must yield
    // the same traces as running them inline.
    use eesmr_net::TraceLevel;
    use eesmr_trace::TraceSet;
    let scenarios: Vec<Scenario> = [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync]
        .into_iter()
        .map(|p| {
            Scenario::new(p, 5, 2)
                .workload(bursty_workload())
                .stop(StopWhen::Blocks(3))
                .trace(TraceLevel::All)
        })
        .collect();
    let traced = |workers: usize| -> Vec<TraceSet> {
        Driver::new(DriverConfig::default().workers(workers)).map(&scenarios, |s| s.run_traced().1)
    };
    let inline = traced(1);
    assert!(inline.iter().all(|t| t.total_events() > 0));
    assert_eq!(inline, traced(8), "worker count leaked into the traces");
}

/// Adversarial scenarios for the sharded-equivalence sweep: every fault
/// behaviour with a wall-clock schedule (healing partition, node churn,
/// crash-recovery) plus vote withholding — the paths where restart
/// timers, link-fault checks at transmit time, and repair floods could
/// conceivably leak a shard layout, worker count, or scheduler choice.
fn adversarial_scenarios() -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> =
        [FaultSpec::PartitionHeal, FaultSpec::Churn, FaultSpec::Withhold]
            .into_iter()
            .flat_map(|spec| {
                [Protocol::Eesmr, Protocol::SyncHotStuff].into_iter().map(move |protocol| {
                    Scenario::new(protocol, 6, 3).fault_spec(spec).stop(StopWhen::Blocks(4))
                })
            })
            .collect();
    scenarios.push(
        Scenario::new(Protocol::TrustedBaseline, 6, 2)
            .fault_spec(FaultSpec::CrashRecovery)
            .stop(StopWhen::Blocks(4)),
    );
    // The compound plan: partition-heal + churn + withholding at once.
    scenarios.push(
        Scenario::new(Protocol::Eesmr, 6, 3)
            .faults(
                FaultPlan::none()
                    .with_withholder(5, 1)
                    .with_partition(5_000, 40_000, [4])
                    .with_crash(3, 10_000, Some(60_000)),
            )
            .stop(StopWhen::Blocks(4)),
    );
    scenarios
}

#[test]
fn adversarial_runs_are_bit_identical_across_shards_and_schedulers() {
    // The fault model extends the determinism contract: restart timers,
    // partition/drop checks, and repair replies are all keyed to
    // node-local state and virtual time, so the shard count and the
    // scheduler backend must not move a single byte of the report — or a
    // single event of the commit trace. Every traced run must also
    // replay safety-clean through the auditor.
    use eesmr_net::TraceLevel;
    use eesmr_trace::audit::{audit, AuditConfig};
    for scenario in adversarial_scenarios() {
        let base = scenario.trace(TraceLevel::Commit).scheduler(SchedulerKind::Heap);
        let (reference_report, reference_trace) = base.clone().shards(1).run_traced();
        assert!(reference_trace.total_events() > 0, "tracing recorded something");
        let verdict = audit(&reference_trace, &AuditConfig::safety_only());
        assert!(verdict.is_clean(), "{}: {:?}", base.label(), verdict.violations);
        for shards in [2usize, 4] {
            let (report, trace) = base.clone().shards(shards).run_traced();
            assert_eq!(reference_report, report, "{shards} shards leaked: {}", base.label());
            assert_eq!(reference_trace, trace, "trace diverged at {shards} shards");
        }
        let (report, trace) = base.clone().scheduler(SchedulerKind::Calendar).run_traced();
        assert_eq!(reference_report, report, "calendar scheduler leaked: {}", base.label());
        assert_eq!(reference_trace, trace, "trace diverged under the calendar scheduler");
    }
}

#[test]
fn adversarial_runs_are_bit_identical_across_workers() {
    // Same scenarios through the driver pool: 1 worker ≡ 8 workers,
    // reports and traces both.
    use eesmr_net::TraceLevel;
    let scenarios: Vec<Scenario> =
        adversarial_scenarios().into_iter().map(|s| s.trace(TraceLevel::Commit)).collect();
    let run_all = |workers: usize| {
        Driver::new(DriverConfig::default().workers(workers)).map(&scenarios, |s| s.run_traced())
    };
    let inline = run_all(1);
    let parallel = run_all(8);
    for (scenario, ((report_a, trace_a), (report_b, trace_b))) in
        scenarios.iter().zip(inline.iter().zip(&parallel))
    {
        assert_eq!(report_a, report_b, "worker count leaked: {}", scenario.label());
        assert_eq!(trace_a, trace_b, "trace diverged across workers: {}", scenario.label());
    }
}

#[test]
fn tracing_cannot_perturb_results() {
    // Every level from off to all must produce the same RunReport for
    // every protocol: tracing is pure observation.
    use eesmr_net::TraceLevel;
    for protocol in
        [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline]
    {
        let base =
            Scenario::new(protocol, 5, 2).workload(bursty_workload()).stop(StopWhen::Blocks(3));
        let off = base.clone().trace(TraceLevel::Off).run();
        for level in [TraceLevel::Commit, TraceLevel::Proto, TraceLevel::All] {
            let traced = base.clone().trace(level).run();
            assert_eq!(off, traced, "{protocol:?} diverged at {}", level.name());
        }
    }
}

/// SHA-256 (hex) over the `Debug` rendering of exactly the fields
/// `RunReport`'s `PartialEq` compares.
fn report_digest(r: &RunReport) -> String {
    let covered = format!(
        "{:?}",
        (r.protocol, r.n, r.k, r.f, r.payload_bytes, r.delta_us, r.elapsed_us, &r.nodes, &r.net)
    );
    eesmr_crypto::Digest::of(covered.as_bytes()).to_hex()
}

/// The pinned grid: every protocol × the fault axes that touch the
/// per-protocol fault translation (silence, equivocation, withholding,
/// crash-recovery, a healing partition), at n = 7, k = 3, under a small
/// Poisson workload for a fixed 400 ms — plus `Blocks` cells (the
/// excuse predicates) and a trusted `ViewReached` cell (a stop the
/// view-less baseline meets without running).
fn pinned_scenarios() -> Vec<(String, Scenario)> {
    let w = Workload::new(ArrivalProcess::Poisson { rate: 400 });
    let base = |protocol| {
        Scenario::new(protocol, 7, 3)
            .workload(w)
            .stop(StopWhen::Elapsed(SimDuration::from_millis(400)))
    };
    let mut cells = Vec::new();
    for protocol in
        [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline]
    {
        for spec in [
            FaultSpec::None,
            FaultSpec::SilentLeader,
            FaultSpec::Equivocate,
            FaultSpec::Withhold,
            FaultSpec::CrashRecovery,
            FaultSpec::PartitionHeal,
        ] {
            cells.push((format!("{protocol:?}/{}", spec.label()), base(protocol).fault_spec(spec)));
        }
    }
    cells.push((
        "SyncHotStuff/silent-leader/blocks".into(),
        base(Protocol::SyncHotStuff).fault_spec(FaultSpec::SilentLeader).stop(StopWhen::Blocks(6)),
    ));
    cells.push((
        "TrustedBaseline/withhold/blocks".into(),
        base(Protocol::TrustedBaseline).fault_spec(FaultSpec::Withhold).stop(StopWhen::Blocks(6)),
    ));
    cells.push((
        "TrustedBaseline/silent-leader/view".into(),
        base(Protocol::TrustedBaseline)
            .fault_spec(FaultSpec::SilentLeader)
            .stop(StopWhen::ViewReached(2)),
    ));
    cells
}

#[test]
fn reports_match_pinned_digests() {
    // Same-build comparisons cannot catch a refactor that changes what a
    // run computes; these digests pin the reports across commits. A
    // mismatch means behaviour changed: if that is intended, record why
    // and re-pin from the printed values.
    const PINNED: &[&str] = &[
        "9f1c087bdcaec653bd4320530cbad20c2d3b877f0b7803e98a7d95da69d00e04", // Eesmr/none
        "ac3e9d65eb7e625ba5ed778ac9a6aee4bf0e3ba950614d38435a764fe41a3fb5", // Eesmr/silent-leader
        "66cb9eb9a4063763591f0025d0ce090ddc0b9cb5a107c721de6956cdadddb274", // Eesmr/equivocate
        "5ae7f89f0ea55c4c8069c77ec382262fa00acb58dcb62ef2d2501c118d011e05", // Eesmr/withhold
        "da057bb379672042cc356bd2c28b74c9242bc3d5c7dedb3468bc3a0c52ab3a2e", // Eesmr/crash-recovery
        "4e3a1bab12007b386a161861fc06d7150a982663961a8d0a83ac5ad573e67756", // Eesmr/partition-heal
        "8613dfd1b8ab36ab632b789cb69140135815893d010089942585ee1dff221597", // SyncHotStuff/none
        "a2fa9a4b8350f4a5ab17f1be89f6c605d6ace0e25bfaba4d4ac205fb508f5661", // SyncHotStuff/silent-leader
        "d81e01a8be814db9cf4db6a3aa2c69676265c9f54f7df8042db34bdc8d1c2867", // SyncHotStuff/equivocate
        "54bef477723c78c6c895ca3985ec18a4ffacdaba58882387a21c74e836249228", // SyncHotStuff/withhold
        "c26b9f2865a7c2c00c329d7f973438215c0372c07ef03832832798d17ec90ed3", // SyncHotStuff/crash-recovery
        "64a30044bcefefbdcdc89b84b73411e9c670d34bc353e0d8363f4dc6da83273a", // SyncHotStuff/partition-heal
        "336abb80379f248eba4c3eb8aeb5ebdae7fbb858a8f7fdb55ea4a0e5aa23c589", // OptSync/none
        "5e401530054960f56d5b1aef5283b9c3ee031b81233ad0b2df02b748611cbade", // OptSync/silent-leader
        "b69a7fd8345c7871c443547e00541c776a00f06e5d0be2510efc43e91394d4c8", // OptSync/equivocate
        "a0e9472e5d6a61a196a6a9ba67e5979b06370da778545b577d7335a7ee34497f", // OptSync/withhold
        "187fb225b92f9b80f51a2b8525a5af39b3a788a5ed43edd6cc903a465acf4c86", // OptSync/crash-recovery
        "f1f344d720946d58d091ae15ea0500bf226a3d01c18fbb91c02fb24fa9994337", // OptSync/partition-heal
        "41c713670c788fab40252399d0788671bc35b5ba7770882dbf6babf822e463b2", // TrustedBaseline/none
        "41c713670c788fab40252399d0788671bc35b5ba7770882dbf6babf822e463b2", // TrustedBaseline/silent-leader
        "41c713670c788fab40252399d0788671bc35b5ba7770882dbf6babf822e463b2", // TrustedBaseline/equivocate
        "bf7ba8ae0acb9cc2cd5174dbb559bfabf94fe9ef035ca70c8225aebba644131f", // TrustedBaseline/withhold
        "e0fda04da781f4bfb91878397634405963c1df8d6c2bdccaa7473fb818cf22e3", // TrustedBaseline/crash-recovery
        "42f240a1cc91e4faa4aa6e1fd393d248058fce85c9333e41dcc2ca76eb225630", // TrustedBaseline/partition-heal
        "5b26226c6603532789ad3e82fa488e5f4e5962d5085a844eeac8043cb2f22841", // SyncHotStuff/silent-leader/blocks
        "1ca339f4989bd89c617f59a94ab960f3b76cbb123eca06ed17ba46b4a4350018", // TrustedBaseline/withhold/blocks
        "6942937aa45a5459d85c8dc736f3e714ddd051d5da8a6fdc4941832fb92e9293", // TrustedBaseline/silent-leader/view
    ];
    let actual: Vec<(String, String)> = pinned_scenarios()
        .into_iter()
        .map(|(name, scenario)| (name, report_digest(&scenario.run())))
        .collect();
    let rendered: String =
        actual.iter().map(|(name, digest)| format!("        \"{digest}\", // {name}\n")).collect();
    assert_eq!(actual.len(), PINNED.len(), "pinned grid size changed; actual:\n{rendered}");
    for ((name, digest), pinned) in actual.iter().zip(PINNED) {
        assert_eq!(digest, pinned, "{name} report changed; actual:\n{rendered}");
    }
}
