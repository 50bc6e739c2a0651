//! The paper's §4.3 scenario end-to-end: a four-computer heterogeneous
//! module managed by the L1+L0 hierarchy under a diurnal synthetic
//! workload, printing how the machine count and energy track the load.
//!
//! Run with `cargo run --release -p llc-examples --bin module_power`.

use llc_cluster::{Family, Preset, RunSpec};

fn main() {
    // Full-fidelity offline learning (a few seconds); the benchmarks use
    // the same spec.
    let spec = RunSpec {
        buckets: 400,
        ..RunSpec::new(Family::Module, 42)
    };
    println!(
        "building hierarchy: {} computers, learning abstraction maps ...",
        spec.members
    );
    let mut policy = spec.policy(Preset::Paper);

    // One slice of the §4.3 synthetic workload (2-minute buckets).
    println!("running {} buckets of workload ...", spec.buckets);
    let log = spec.run(&mut policy);

    println!("\nhour | req/s | computers on | mean response (s)");
    println!("{}", "-".repeat(56));
    for chunk in log.ticks.chunks(120) {
        let time_h = chunk[0].time / 3600.0;
        let rate: f64 =
            chunk.iter().map(|t| t.arrivals as f64).sum::<f64>() / (chunk.len() as f64 * 30.0);
        let active: f64 = chunk.iter().map(|t| t.active as f64).sum::<f64>() / chunk.len() as f64;
        let resp: Vec<f64> = chunk.iter().filter_map(|t| t.mean_response).collect();
        let mean_resp = resp.iter().sum::<f64>() / resp.len().max(1) as f64;
        println!("{time_h:4.1} | {rate:5.0} | {active:12.1} | {mean_resp:.2}");
    }

    let s = log.summary();
    println!("\nsummary:");
    println!("  policy:          {}", s.policy);
    println!("  mean response:   {:.2} s (target 4 s)", s.mean_response);
    println!(
        "  violations:      {:.1}% of windows",
        s.violation_fraction * 100.0
    );
    println!("  energy:          {:.0} power·s", s.total_energy);
    println!("  switch-ons:      {}", s.total_switch_ons);
    println!("  dropped:         {}", s.total_dropped);
}
