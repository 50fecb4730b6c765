//! Regenerates every experiment table in EXPERIMENTS.md.
//!
//! Every simulation below goes through the unified scenario API
//! (`specfaith::scenario`): one builder call per instance, with the
//! mechanism as a knob.
//!
//! ```sh
//! cargo run --release -p specfaith-bench --bin run_experiments          # all
//! cargo run --release -p specfaith-bench --bin run_experiments e6 e8   # some
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use specfaith::scenario::{Catalog, CostModel, Mechanism, Scenario, TopologySource, TrafficModel};
use specfaith_bench::instance;
use specfaith_core::equilibrium::EquilibriumSuite;
use specfaith_core::faithfulness::FaithfulnessCertificate;
use specfaith_core::id::NodeId;
use specfaith_core::mechanism::{check_strategyproof, DirectMechanism, MisreportGrid};
use specfaith_core::money::{Cost, Money};
use specfaith_core::vcg::{SecondPriceSelection, VcgMechanism};
use specfaith_crypto::auth::ChannelKey;
use specfaith_faithful::metrics::measure_overhead;
use specfaith_faithful::penalty::PenaltyPolicy;
use specfaith_fpss::deviation::standard_catalog;
use specfaith_fpss::pricing::RoutingProblem;
use specfaith_fpss::traffic::Flow;
use specfaith_graph::cache::RouteCache;
use specfaith_graph::costs::CostVector;
use specfaith_graph::generators::{figure1, Figure1};
use specfaith_graph::lcp::lcp_tree;

const NODE_NAMES: [&str; 6] = ["A", "B", "C", "D", "Z", "X"];

fn name(id: NodeId) -> &'static str {
    NODE_NAMES[id.index()]
}

fn figure1_traffic(net: &Figure1) -> Vec<Flow> {
    vec![
        Flow {
            src: net.x,
            dst: net.z,
            packets: 5,
        },
        Flow {
            src: net.d,
            dst: net.z,
            packets: 5,
        },
        Flow {
            src: net.z,
            dst: net.x,
            packets: 3,
        },
    ]
}

/// The standard Figure 1 scenario under either mechanism.
fn figure1_scenario(mechanism: Mechanism) -> Scenario {
    let net = figure1();
    Scenario::builder()
        .topology(TopologySource::Figure1)
        .traffic(TrafficModel::Flows(figure1_traffic(&net)))
        .mechanism(mechanism)
        .build()
}

/// A benchmark `instance(n, seed)` lifted into a scenario.
fn instance_scenario(n: usize, seed: u64, mechanism: Mechanism) -> Scenario {
    let inst = instance(n, seed);
    Scenario::builder()
        .topology(TopologySource::Explicit(inst.topo))
        .costs(CostModel::Explicit(inst.costs))
        .traffic(TrafficModel::Flows(inst.traffic.flows().to_vec()))
        .mechanism(mechanism)
        .build()
}

fn e1_figure1_lcps() {
    println!("== E1: Figure 1 — LCPs from Z and the paper's stated costs ==");
    let net = figure1();
    for entry in lcp_tree(&net.topology, &net.costs, net.z).iter().flatten() {
        if entry.destination() == net.z {
            continue;
        }
        let path: Vec<&str> = entry.nodes().iter().map(|&v| name(v)).collect();
        println!(
            "  Z -> {:<2} via {:<10} cost {}",
            name(entry.destination()),
            path.join("-"),
            entry.cost()
        );
    }
    let routes = RouteCache::new(net.topology.clone(), net.costs.clone());
    let xz = routes.path(net.x, net.z).expect("connected");
    let zd = routes.path(net.z, net.d).expect("connected");
    let bd = routes.path(net.b, net.d).expect("connected");
    println!(
        "  paper checks: cost(X→Z)={} (paper: 2), cost(Z→D)={} (paper: 1), cost(B→D)={} (paper: 0)",
        xz.cost(),
        zd.cost(),
        bd.cost()
    );
}

fn e2_example1_manipulation() {
    println!("\n== E2: Example 1 — C's lie under naive vs VCG pricing ==");
    let net = figure1();
    let true_c = net.costs.cost(net.c).value();
    let flows = [(net.x, net.z, 10u64), (net.d, net.z, 10u64)];
    println!(
        "  {:>8} {:>9} {:>12} {:>10}",
        "declared", "X-Z LCP", "naive util", "VCG util"
    );
    for (declared, naive, vcg) in
        specfaith_fpss::naive::example1_sweep(&net.topology, &net.costs, &flows, net.c, 8)
    {
        let lied = net.costs.with_cost(net.c, Cost::new(declared));
        let lied_routes = RouteCache::new(net.topology.clone(), lied);
        let path = lied_routes.path(net.x, net.z).expect("biconnected");
        let via = if path.transit_nodes().contains(&net.c) {
            "X-D-C-Z"
        } else {
            "X-A-Z"
        };
        let marker = if declared == true_c { "  <- truth" } else { "" };
        println!(
            "  {declared:>8} {via:>9} {:>12} {:>10}{marker}",
            naive.value(),
            vcg.value()
        );
    }
    println!("  (naive pricing rewards the lie; VCG utility is maximized at the truth)");
}

fn e3_strategyproofness() {
    println!("\n== E3: FPSS centralized mechanism strategyproofness sweep ==");
    println!(
        "  {:>4} {:>9} {:>7} {:>11}",
        "n", "profiles", "checks", "violations"
    );
    for n in [6usize, 10, 14, 18] {
        let inst = instance(n, n as u64);
        let flows = inst
            .traffic
            .flows()
            .iter()
            .map(|f| (f.src, f.dst, f.packets))
            .collect();
        let mech = VcgMechanism::new(RoutingProblem::new(inst.topo.clone(), flows));
        let mut rng = StdRng::seed_from_u64(n as u64);
        let profiles: Vec<Vec<Cost>> = (0..4)
            .map(|_| CostVector::random(n, 0, 25, &mut rng).as_slice().to_vec())
            .collect();
        let report = check_strategyproof(&mech, &profiles, &MisreportGrid::standard());
        println!(
            "  {:>4} {:>9} {:>7} {:>11}",
            n,
            profiles.len(),
            report.checks,
            report.violations.len()
        );
        assert!(report.is_strategyproof());
    }
}

fn e4_convergence() {
    println!("\n== E4: distributed FPSS == centralized VCG reference ==");
    println!(
        "  {:>4} {:>6} {:>9} {:>10} {:>7}",
        "n", "seeds", "converged", "msgs(avg)", "match"
    );
    for n in [6usize, 8, 12, 16, 24] {
        let mut all_match = true;
        let mut msgs = 0u64;
        let seeds = 3u64;
        for seed in 0..seeds {
            let scenario = instance_scenario(n, seed * 100 + n as u64, Mechanism::Plain);
            let run = scenario.run(seed);
            all_match &= run.tables_match_centralized() == Some(true) && !run.truncated;
            msgs += run.stats.total_msgs();
        }
        println!(
            "  {:>4} {:>6} {:>9} {:>10} {:>7}",
            n,
            seeds,
            "yes",
            msgs / seeds,
            all_match
        );
        assert!(all_match);
    }
}

fn catalog_sweep_table(scenario: &Scenario) {
    // Shared table printer for E5/E6: rows = deviations, sweeping
    // deviants; per deviation, show the most profitable deviant.
    let net = figure1();
    let faithful = scenario.run(3);
    let specs: Vec<String> = standard_catalog(NodeId::new(0))
        .iter()
        .map(|s| s.spec().name().to_string())
        .collect();
    println!(
        "  {:<36} {:>9} {:>12} {:>9}",
        "deviation (best deviant)", "faithful", "deviant", "detected"
    );
    for spec_name in &specs {
        let mut best: Option<(NodeId, Money, Money, bool)> = None;
        for deviant in net.topology.nodes() {
            let strategy = standard_catalog(deviant)
                .into_iter()
                .find(|s| s.spec().name() == *spec_name)
                .expect("stable names");
            let run = scenario.run_with_deviant(deviant, strategy, 3);
            let faithful_u = faithful.utilities[deviant.index()];
            let deviant_u = run.utilities[deviant.index()];
            let gain = deviant_u - faithful_u;
            if best.as_ref().is_none_or(|(_, f, d, _)| gain > *d - *f) {
                best = Some((deviant, faithful_u, deviant_u, run.detected));
            }
        }
        let (who, f, d, det) = best.expect("six nodes");
        let verdict = if d > f { "PROFITABLE" } else { "no gain" };
        println!(
            "  {:<36} {:>9} {:>12} {:>9}   {}",
            format!("{spec_name} ({})", name(who)),
            f.value(),
            d.value(),
            det,
            verdict
        );
    }
}

fn e5_plain_unfaithful() {
    println!("\n== E5: plain FPSS — §4.3 manipulations are profitable ==");
    let scenario = figure1_scenario(Mechanism::Plain);
    catalog_sweep_table(&scenario);
    println!("  (detection column for plain FPSS = tables visibly corrupted; nobody acts on it)");
}

fn e6_faithful_equilibrium() {
    println!("\n== E6: faithful extension — the same catalog is unprofitable (Theorem 1) ==");
    let scenario = figure1_scenario(Mechanism::faithful());
    catalog_sweep_table(&scenario);
    let report = scenario.equilibrium_report(3, &Catalog::standard());
    println!(
        "  sweep: {} deviations, ex post Nash: {}, strong-CC: {}, strong-AC: {}, IC: {}",
        report.outcomes.len(),
        report.is_ex_post_nash(),
        report.strong_cc_holds(),
        report.strong_ac_holds(),
        report.ic_holds()
    );
    assert!(report.is_ex_post_nash());
}

fn e7_detection_coverage() {
    println!("\n== E7: detection coverage ==");
    let scenario = figure1_scenario(Mechanism::faithful());
    let report = scenario.equilibrium_report(3, &Catalog::standard());
    let total = report.outcomes.len();
    let detected = report.outcomes.iter().filter(|o| o.detected).count();
    let undetected_profitable = report
        .outcomes
        .iter()
        .filter(|o| !o.detected && o.strictly_profitable())
        .count();
    println!("  deviations tested: {total}");
    println!(
        "  detected:          {detected} ({:.1}%)",
        100.0 * detected as f64 / total as f64
    );
    println!(
        "  undetected:        {} (all no-ops or legitimate misreports)",
        total - detected
    );
    println!("  undetected AND profitable: {undetected_profitable} (must be 0)");
    assert_eq!(undetected_profitable, 0);
}

fn e8_overhead() {
    println!("\n== E8: the price of faithfulness (checker redundancy + checkpoints) ==");
    for n in [6usize, 8, 12, 16, 24, 32] {
        let inst = instance(n, 11 + n as u64);
        let report = measure_overhead(&inst.topo, &inst.costs, &inst.traffic, 11);
        println!("  {report}");
    }
}

fn e9_restart_liveness() {
    println!("\n== E9: restart policy liveness ==");
    let net = figure1();
    let scenario = figure1_scenario(Mechanism::faithful());
    let honest = scenario.run(1);
    println!(
        "  honest network:      restarts={} green-lighted={} halted={}",
        honest.restarts(),
        honest.green_lighted(),
        honest.halted()
    );
    let persistent = scenario.run_with_deviant(
        net.c,
        Box::new(specfaith_fpss::deviation::SpoofShortRoutes),
        1,
    );
    println!(
        "  persistent deviant:  restarts={} green-lighted={} halted={}  (utilities zeroed)",
        persistent.restarts(),
        persistent.green_lighted(),
        persistent.halted()
    );
}

fn e10_penalty_calibration() {
    println!("\n== E10: ε-above penalty calibration ==");
    let policy = PenaltyPolicy::new(Money::new(1));
    println!(
        "  {:>8} {:>9} {:>22}",
        "gain g", "p* = g/(g+ε)", "E[Δu] at p=1.0"
    );
    for gain in [1i64, 10, 100, 1000, 100_000] {
        let g = Money::new(gain);
        println!(
            "  {:>8} {:>12.5} {:>19.1}",
            gain,
            policy.deterrence_threshold(g),
            policy.expected_deviation_gain(g, 1.0)
        );
    }
    println!("  (full checker coverage gives p = 1, so any ε > 0 strictly deters)");
}

fn e11_signed_channel() {
    println!("\n== E11: signed bank channel — tampering and replay are rejected ==");
    let key = ChannelKey::derive(b"bank-secret", 4);
    let env = key.seal(1, b"owes n2: 500".to_vec());
    println!("  genuine envelope:   {:?}", key.open(&env, 0).is_ok());
    let mut tampered = env.clone();
    tampered.payload = b"owes n2: 005".to_vec();
    println!(
        "  tampered payload:   rejected = {:?}",
        key.open(&tampered, 0).is_err()
    );
    let mut forged = env.clone();
    forged.sender = 9;
    println!(
        "  forged sender:      rejected = {:?}",
        key.open(&forged, 0).is_err()
    );
    println!(
        "  replayed envelope:  rejected = {:?}",
        key.open(&env, 1).is_err()
    );
}

fn e12_leader_election() {
    println!("\n== E12: framework generality — §3's leader election, faithful ==");
    println!(
        "  {:>4} {:>9} {:>7} {:>11}",
        "n", "profiles", "checks", "violations"
    );
    let mut rng = StdRng::seed_from_u64(12);
    for n in [4usize, 8, 16] {
        let mech = SecondPriceSelection::new(n);
        let profiles: Vec<Vec<Money>> = (0..30)
            .map(|_| {
                (0..n)
                    .map(|_| Money::new(rand::Rng::gen_range(&mut rng, 0..100)))
                    .collect()
            })
            .collect();
        let report = check_strategyproof(&mech, &profiles, &MisreportGrid::standard());
        println!(
            "  {:>4} {:>9} {:>7} {:>11}",
            n,
            profiles.len(),
            report.checks,
            report.violations.len()
        );
        assert!(report.is_strategyproof());
    }
    let mech = SecondPriceSelection::new(4);
    let reports = vec![Money::new(9), Money::new(4), Money::new(7), Money::new(30)];
    let outcome = mech.outcome(&reports);
    println!(
        "  sample election: costs {:?} -> leader {} paid {}",
        reports.iter().map(|m| m.value()).collect::<Vec<_>>(),
        outcome.allocation,
        outcome.payments[outcome.allocation]
    );

    // The distributed version: flooded declarations, redundant tallies,
    // signed reports, bank certification.
    use specfaith_faithful::election::{ElectionSim, HonestVoter};
    let costs = vec![
        Money::new(20),
        Money::new(40),
        Money::new(10),
        Money::new(35),
        Money::new(60),
    ];
    let dist = ElectionSim::new(specfaith_graph::generators::ring(5), costs);
    let honest = dist.run_honest(1);
    println!(
        "  distributed (5-ring): certified outcome {:?}, all reports agreed",
        honest.outcome
    );
    let _ = HonestVoter;
}

fn e13_other_failure_models() {
    println!("\n== E13: §5 — non-rational failures vs the faithfulness machinery ==");
    let net = figure1();
    let scenario = figure1_scenario(Mechanism::faithful());
    let faithful = scenario.run(1);
    let surplus: Money = faithful.utilities.iter().copied().sum();

    let failstop =
        scenario.run_with_deviant(net.c, Box::new(specfaith_fpss::deviation::FailStop), 1);
    println!(
        "  fail-stop node C:    detected={} halted={}  collective surplus forfeited: {}",
        failstop.detected,
        failstop.halted(),
        surplus
    );

    let drop_flood =
        scenario.run_with_deviant(net.c, Box::new(specfaith_fpss::deviation::DropCostFlood), 1);
    println!(
        "  silent flood relay:  detected={} green-lighted={}  (biconnectivity routes around it)",
        drop_flood.detected,
        drop_flood.green_lighted()
    );
    println!("  (the paper's open problem: fail-stop is punished like manipulation, and");
    println!("   the punishment is collective — every honest node loses its surplus too)");
}

fn e14_parallel_sweep() {
    println!("\n== E14: the scenario sweep — seed grid, parallel, deterministic ==");
    let scenario = figure1_scenario(Mechanism::faithful());
    let catalog = Catalog::standard();
    let seeds: Vec<u64> = (0..4).collect();

    let start = std::time::Instant::now();
    let parallel = scenario.sweep(&seeds, &catalog);
    let parallel_time = start.elapsed();

    let start = std::time::Instant::now();
    let serial = scenario.sweep_serial(&seeds, &catalog);
    let serial_time = start.elapsed();

    println!(
        "  {} seeds x {} cells: serial {:?}, parallel {:?} ({} threads)",
        seeds.len(),
        scenario.num_nodes() * catalog.len(),
        serial_time,
        parallel_time,
        rayon::current_num_threads()
    );
    println!("  byte-identical: {}", parallel == serial);
    println!("  {parallel}");
    assert!(parallel == serial && parallel.is_ex_post_nash());
}

fn certificate_summary() {
    println!("\n== Faithfulness certificate (Proposition 2 assembled) ==");
    let net = figure1();
    let traffic = figure1_traffic(&net);
    let flows = traffic.iter().map(|f| (f.src, f.dst, f.packets)).collect();
    let mech = VcgMechanism::new(RoutingProblem::new(net.topology.clone(), flows));
    let mut rng = StdRng::seed_from_u64(20);
    let mut profiles = vec![net.costs.as_slice().to_vec()];
    for _ in 0..3 {
        profiles.push(CostVector::random(6, 0, 25, &mut rng).as_slice().to_vec());
    }
    let sp = check_strategyproof(&mech, &profiles, &MisreportGrid::standard());
    let catalog = Catalog::standard();
    let mut suite = EquilibriumSuite::new();
    for (i, profile) in profiles.iter().enumerate() {
        let costs: CostVector = profile.iter().copied().collect();
        let scenario = Scenario::builder()
            .topology(TopologySource::Figure1)
            .costs(CostModel::Explicit(costs))
            .traffic(TrafficModel::Flows(traffic.clone()))
            .mechanism(Mechanism::faithful())
            .build();
        suite.push(
            format!("profile-{i}"),
            scenario.equilibrium_report(1, &catalog),
        );
    }
    let certificate = FaithfulnessCertificate::assemble(sp.is_strategyproof(), &suite);
    print!("{certificate}");
    assert!(certificate.is_faithful());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |key: &str| args.is_empty() || args.iter().any(|a| a == key);

    if want("e1") {
        e1_figure1_lcps();
    }
    if want("e2") {
        e2_example1_manipulation();
    }
    if want("e3") {
        e3_strategyproofness();
    }
    if want("e4") {
        e4_convergence();
    }
    if want("e5") {
        e5_plain_unfaithful();
    }
    if want("e6") {
        e6_faithful_equilibrium();
    }
    if want("e7") {
        e7_detection_coverage();
    }
    if want("e8") {
        e8_overhead();
    }
    if want("e9") {
        e9_restart_liveness();
    }
    if want("e10") {
        e10_penalty_calibration();
    }
    if want("e11") {
        e11_signed_channel();
    }
    if want("e12") {
        e12_leader_election();
    }
    if want("e13") {
        e13_other_failure_models();
    }
    if want("e14") {
        e14_parallel_sweep();
    }
    if want("cert") {
        certificate_summary();
    }
}
