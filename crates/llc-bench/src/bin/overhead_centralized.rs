//! The paper's §3 dimensionality argument, measured: a centralized
//! controller jointly deciding `{α, γ, u}` for every computer vs the
//! hierarchical decomposition, on the same module scenario.
//!
//! "Where a centralized controller must decide the variables {γ, α, u}
//! for each of the n computers in the cluster, in our method, the L2
//! controller only decides a single-dimensional variable {γ} for k
//! modules … Similarly, the L1 controller decides control variables only
//! for those computers within its module."
//!
//! Asserted: the run exits non-zero unless, from m = 4 to m = 6, the
//! centralized states per decision grow at least 10× while the
//! hierarchy's grow less than 4×, and the hierarchy decides faster at
//! both sizes (620 → 14 790 vs 59 → 139 states at default scale). The
//! `--quick` truncation to 200 buckets barely leaves the m = 4 start-up
//! (4 → 46 hierarchical states) and fails the growth leg.

use llc_bench::centralized::{joint_candidate_count, CentralizedConfig, CentralizedPolicy};
use llc_bench::claims::{self, ComplexityRow};
use llc_bench::figures::FIGURE_SEED;
use llc_bench::report::{ms, quick_mode, write_csv};
use llc_cluster::{single_module, Experiment, HierarchicalPolicy};
use llc_workload::{synthetic_paper_workload, VirtualStore};
use std::time::Instant;

fn main() {
    println!("§3 — centralized vs hierarchical decision complexity\n");

    // Analytic joint-candidate counts (γ quantum 0.1): the curse of
    // dimensionality in one column.
    println!(
        "{:>3} | {:>26} | {:>16}",
        "m", "centralized candidates", "hierarchy (≈)"
    );
    println!("{}", "-".repeat(56));
    for m in [2usize, 4, 6, 8, 10, 16] {
        // The hierarchy's L1 evaluates candidate-α (≈ m + pairs) × γ
        // neighborhood rounds — hundreds, independent of 2^m.
        println!(
            "{m:>3} | {:>26} | {:>16}",
            joint_candidate_count(m, 10),
            "~10^2 - 10^3"
        );
    }

    // Measured head-to-head on m = 4 and m = 6.
    println!("\nmeasured (same workload, same plant):\n");
    println!(
        "{:<18} | {:>3} | {:>14} | {:>13} | {:>12} | {:>12}",
        "policy", "m", "states/dec", "decision", "mean resp", "energy"
    );
    println!("{}", "-".repeat(90));

    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for m in [4usize, 6] {
        let scenario = if quick_mode() {
            single_module(m).with_coarse_learning()
        } else {
            single_module(m)
        };
        let mut trace = synthetic_paper_workload(FIGURE_SEED).scaled(m as f64 / 4.0);
        if quick_mode() {
            trace = trace.slice(0, 200);
        } else {
            trace = trace.slice(0, 600);
        }
        let store = VirtualStore::paper_default(FIGURE_SEED);

        // Hierarchical.
        let mut h = HierarchicalPolicy::build(&scenario);
        let log_h = Experiment::paper_default(FIGURE_SEED)
            .run(scenario.to_sim_config(), &mut h, &trace, &store)
            .expect("well-formed scenario");
        let sh = log_h.summary();
        let h_states = h.l1(0).mean_states_evaluated();
        let h_decide = h.overhead()[1].mean();
        println!(
            "{:<18} | {m:>3} | {:>14.0} | {:>13} | {:>12.2} | {:>12.0}",
            "hierarchical",
            h_states,
            ms(h_decide),
            sh.mean_response,
            sh.total_energy
        );
        rows.push(format!(
            "hierarchical,{m},{h_states:.0},{:.6},{:.3},{:.0}",
            h_decide.as_secs_f64(),
            sh.mean_response,
            sh.total_energy
        ));

        // Centralized.
        let members = scenario.member_specs().remove(0);
        let mut c = CentralizedPolicy::new(CentralizedConfig::paper_default(), members);
        let started = Instant::now();
        let log_c = Experiment::paper_default(FIGURE_SEED)
            .run(scenario.to_sim_config(), &mut c, &trace, &store)
            .expect("well-formed scenario");
        let elapsed = started.elapsed();
        let sc = log_c.summary();
        let decisions = (trace.rebucket(30.0).unwrap().len() as u64 / 4).max(1);
        let c_decide = elapsed / decisions as u32;
        let c_states = c.mean_states_evaluated();
        println!(
            "{:<18} | {m:>3} | {:>14.0} | {:>13} | {:>12.2} | {:>12.0}",
            "centralized",
            c_states,
            ms(c_decide),
            sc.mean_response,
            sc.total_energy
        );
        rows.push(format!(
            "centralized,{m},{c_states:.0},{:.6},{:.3},{:.0}",
            c_decide.as_secs_f64(),
            sc.mean_response,
            sc.total_energy
        ));
        measured.push(ComplexityRow {
            m,
            hier_states: h_states,
            hier_decide_s: h_decide.as_secs_f64(),
            cent_states: c_states,
            cent_decide_s: c_decide.as_secs_f64(),
        });
    }

    println!();
    println!("shape to observe: centralized candidates grow exponentially in m while");
    println!("the hierarchy stays near-constant; both meet QoS at small m, only the");
    println!("hierarchy remains viable at cluster scale.");
    let path = write_csv(
        "overhead_centralized.csv",
        "policy,m,states_per_decision,decision_s,mean_response_s,energy",
        &rows,
    );
    println!("wrote {}", path.display());
    claims::enforce(
        "centralized states/decision grow >= 10x from m = 4 to 6, the hierarchy's < 4x, \
         and the hierarchy decides faster at both",
        claims::hierarchy_scales_better(&measured),
    );
}
