//! Allocation budget of the control tick, counted by a `#[global_allocator]`
//! that is this binary's alone: an L0-only tick of the hierarchy allocates
//! nothing, and behind a control plane nothing but the tick's ingest slot;
//! a steady-state L2 decision allocates a constant — not a function of the
//! ring it searches — and a plant window allocates nothing once its
//! buffers have held the run's largest.

use llc_cluster::{
    cluster_of, paper_cluster_16, ClusterPolicy, ControlPlane, DirectiveEmit, DirectiveKind,
    Experiment, HierarchicalPolicy, ModuleState, ObservationIngest, Observations, Plant,
    ScenarioConfig,
};
use llc_workload::{Trace, VirtualStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread: the tests of one binary run on
    /// threads of their own, and each counts only what it did itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // A thread being torn down allocates after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is bumping a
// const-initialised thread-local `Cell`, which neither allocates nor
// touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout` (all
        // allocation goes through the forwards here).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations this thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `scale128_*`'s cluster (32 modules, a split quantum of 1/128) when
/// `modules` is 32, the paper's own at 4.
fn scenario(modules: usize) -> ScenarioConfig {
    let mut scenario = paper_cluster_16().with_coarse_learning();
    scenario.modules = cluster_of(modules);
    scenario.l2.gamma_quantum = 1.0 / (4 * modules) as f64;
    scenario
}

/// Allocations of one L2 decision on a standing split, and the splits it
/// weighed.
fn steady_l2_decide(modules: usize) -> (u64, usize) {
    let policy = HierarchicalPolicy::build(&scenario(modules));
    let mut l2 = policy.l2().expect("several modules have an L2").clone();
    let states = vec![
        ModuleState {
            c_factor: 1.0,
            queue_mean: 3.0,
            active: 2,
        };
        modules
    ];
    for _ in 0..3 {
        l2.observe(40 * 120 * modules as u64);
        l2.decide(&states);
    }
    l2.observe(40 * 120 * modules as u64);
    let (decision, allocations) = counted(|| l2.decide(&states));
    (allocations, decision.states_evaluated)
}

#[test]
fn a_steady_l2_decide_allocates_a_constant() {
    let (at_4, ring_4) = steady_l2_decide(4);
    let (at_32, ring_32) = steady_l2_decide(32);
    assert_eq!((ring_4, ring_32), (1 + 4 * 3, 1 + 32 * 31));
    assert_eq!(at_4, at_32, "allocations must not grow with the ring");
    // The winning split and the copy of it that stands until the next
    // decision.
    assert_eq!(at_32, 2);
}

/// Counts what each `decide` of the policy it wraps allocates.
struct Counted {
    inner: HierarchicalPolicy,
    /// `(tick, allocations, directive kinds returned)`.
    ticks: Vec<(u64, u64, usize)>,
}

impl ClusterPolicy for Counted {
    fn decide(&mut self, obs: &Observations) -> Vec<DirectiveKind> {
        let (kinds, allocations) = counted(|| self.inner.decide(obs));
        self.ticks.push((obs.tick, allocations, kinds.len()));
        kinds
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cadence(&self) -> llc_cluster::Cadence {
        self.inner.cadence()
    }
}

/// Upper bound on the allocations of an L1/L2 tick of the 32-module
/// hierarchy under the load below: the most such a tick makes, 32 L1
/// decisions and the directive kinds returned. It was 1318 while the L2
/// ring search materialised its candidates, and 314 while the L2 read
/// each module's processing time through a fresh `Vec`; whatever lowers
/// it should lower this.
const SLOW_TICK_ALLOCATIONS: u64 = 281;

#[test]
fn an_l0_only_tick_of_the_32_module_hierarchy_allocates_nothing() {
    let scenario = scenario(32);
    let mut policy = Counted {
        inner: HierarchicalPolicy::build(&scenario),
        ticks: Vec::new(),
    };
    // Forty 30 s windows of steady light load: most L0-only ticks find
    // every frequency where it should be and return no action.
    let trace = Trace::new(30.0, vec![300.0 * 30.0; 40]).unwrap();
    let store = VirtualStore::paper_default(3);
    Experiment::paper_default(17)
        .run(scenario.to_sim_config(), &mut policy, &trace, &store)
        .unwrap();

    let cadence = policy.cadence();
    let (mut quiet, mut slow_most) = (0, 0);
    // Past the first L1 periods, which size the controllers' scratch.
    for &(tick, allocations, kinds) in &policy.ticks[8..] {
        if tick % cadence.l1_every == 0 || tick % cadence.l2_every == 0 {
            slow_most = slow_most.max(allocations);
        } else if kinds == 0 {
            assert_eq!(allocations, 0, "L0-only tick {tick}");
            quiet += 1;
        } else {
            // Nothing but the returned `Vec`, doubling its way to at most
            // one frequency per machine.
            assert!(allocations <= 8, "L0-only tick {tick}: {allocations}");
        }
    }
    assert!(quiet >= 8, "only {quiet} L0-only ticks returned no action");
    assert!(
        slow_most <= SLOW_TICK_ALLOCATIONS,
        "an L1/L2 tick allocated {slow_most} times"
    );
}

/// What ingesting the first observation of a tick allocates: the tick's
/// slot of one entry per module.
const INGEST_SLOT_ALLOCATIONS: u64 = 1;

#[test]
fn an_l0_only_round_of_the_32_module_plane_allocates_only_its_ingest_slot() {
    let scenario = scenario(32);
    let exp = Experiment::paper_default(17);
    let trace = Trace::new(30.0, vec![300.0 * 30.0; 40]).unwrap();
    let store = VirtualStore::paper_default(3);
    let mut agent = Plant::new(scenario.to_sim_config(), &exp, &trace, &store).unwrap();
    let policy = HierarchicalPolicy::build(&scenario);
    let cadence = policy.cadence();
    let mut plane = ControlPlane::new(policy, agent.members().to_vec(), exp.t_l0);
    let mut quiet = 0;
    while !agent.finished() {
        let tick = plane.next_tick();
        let observations = agent.observations();
        let (directives, allocations) = counted(|| {
            for observation in observations {
                plane.ingest(observation).unwrap();
            }
            plane.step();
            plane.drain_directives()
        });
        // Past the first L1 periods, which size the controllers' scratch.
        let l0_only = !(cadence.is_l1_tick(tick) || cadence.is_l2_tick(tick));
        if tick >= 8 && l0_only && directives.is_empty() {
            assert_eq!(allocations, INGEST_SLOT_ALLOCATIONS, "tick {tick}");
            quiet += 1;
        }
        for d in directives {
            agent.stage(d);
        }
        agent.commit_window().unwrap();
    }
    assert!(quiet >= 8, "only {quiet} L0-only rounds emitted nothing");
}

#[test]
fn a_plant_window_allocates_nothing_once_the_crest_has_passed() {
    // 300 req/s on sixteen prewarmed machines at full speed: every queue
    // stays short, so the windows differ in their arrivals only.
    let crest = 300.0 * 30.0;
    let counts = vec![crest, crest / 2.0, 0.0, 1.0, crest, crest - 1.0, 2.0];
    let trace = Trace::new(30.0, counts.clone()).unwrap();
    let store = VirtualStore::paper_default(3);
    let mut plant = Plant::new(
        paper_cluster_16().to_sim_config(),
        &Experiment::paper_default(17),
        &trace,
        &store,
    )
    .unwrap();
    for (tick, &count) in counts.iter().enumerate() {
        let (injected, allocations) = counted(|| plant.commit_window().unwrap());
        assert_eq!(injected, count as usize);
        if tick > 0 {
            assert_eq!(allocations, 0, "window {tick} of {count} arrivals");
        }
    }
    assert_eq!(plant.adapter().sim().dropped(), 0);
}
