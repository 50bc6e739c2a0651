use llc_core::{
    Error as LlcError, LookaheadController, Penalty, Plant, SearchScratch, SearchStats,
    ServiceScaleEstimator, SetPoint,
};
use llc_forecast::{Ewma, Forecaster, LocalLinearTrend};

/// The analytic single-computer queue model of eqns. (5)–(6), extended
/// with the delivered-capacity scale `ŝ` of the drift-aware L0:
///
/// ```text
/// q̂(k+1) = max(0, q(k) + (λ̂(k) − ŝ·φ(k)/ĉ(k)) · T)
/// r̂(k+1) = (1 + q̂(k+1)) · ĉ(k) / (ŝ·φ(k))
/// ```
///
/// At `ŝ = 1` (the default) this is the paper's model verbatim. A plant
/// whose capacity silently degrades keeps reporting nominal demands ĉ,
/// so `φ/ĉ` overstates the service rate; `ŝ` (estimated online from
/// realized completions, see [`llc_core::ServiceScaleEstimator`])
/// restores the model to the capacity actually being delivered. Scaling
/// the service rate by `ŝ` is algebraically identical to stretching the
/// processing time to `ĉ/ŝ` — the identity the retrain path exploits
/// when it rebuilds abstraction maps over drift-corrected ĉ ranges.
///
/// Shared between the L0 controller's lookahead and the offline learning
/// of the L1 abstraction map (which replays exactly this model).
///
/// [`QueueModel::step`] is written in terms of its parts — `ŝ·φ`, the
/// service rate `ŝ·φ/ĉ`, eq. (5)'s queue, the work `(1 + q̂)·ĉ` ahead of
/// an arrival and eq. (6)'s quotient — so that the L0 lookahead works the
/// parts that are constant over a decision out once per frequency and
/// steps only what depends on the node, bit for bit as `step` would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueModel {
    /// Sampling period `T` in seconds.
    pub period: f64,
    /// Delivered-capacity scale `ŝ` (1.0 = nominal).
    pub service_scale: f64,
}

impl QueueModel {
    /// A nominal-capacity model stepped every `period` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    pub fn new(period: f64) -> Self {
        Self::with_scale(period, 1.0)
    }

    /// A model whose delivered service rate is scaled by `service_scale`.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `service_scale` is not positive.
    pub fn with_scale(period: f64, service_scale: f64) -> Self {
        assert!(period > 0.0, "sampling period must be positive");
        assert!(service_scale > 0.0, "service scale must be positive");
        QueueModel {
            period,
            service_scale,
        }
    }

    /// One model step: returns `(q̂(k+1), r̂(k+1))`.
    ///
    /// `lambda` is the arrival rate in requests/second, `c` the estimated
    /// full-speed processing time in seconds, `phi ∈ (0, 1]` the frequency
    /// scaling factor.
    pub fn step(&self, q: f64, lambda: f64, c: f64, phi: f64) -> (f64, f64) {
        debug_assert!(phi > 0.0 && phi <= 1.0, "φ out of range: {phi}");
        debug_assert!(c > 0.0, "processing time must be positive");
        let delivered = self.delivered(phi);
        let q_next = self.next_queue(q, lambda, Self::service_rate(delivered, c));
        (
            q_next,
            Self::response(Self::backlog_work(q_next, c), delivered),
        )
    }

    /// `ŝ·φ`: the share of full speed delivered at scaling factor `phi`.
    pub(crate) fn delivered(&self, phi: f64) -> f64 {
        self.service_scale * phi
    }

    /// `ŝ·φ/ĉ`: the service rate in requests/second, from
    /// [`delivered`](QueueModel::delivered) and the processing time `c`.
    pub(crate) fn service_rate(delivered: f64, c: f64) -> f64 {
        delivered / c
    }

    /// Eq. (5): `q̂(k+1) = max(0, q(k) + (λ̂(k) − rate)·T)`.
    pub(crate) fn next_queue(&self, q: f64, lambda: f64, rate: f64) -> f64 {
        (q + (lambda - rate) * self.period).max(0.0)
    }

    /// `(1 + q̂(k+1))·ĉ(k)`: the work ahead of an arrival, in
    /// full-speed seconds — eq. (6)'s numerator.
    pub(crate) fn backlog_work(q_next: f64, c: f64) -> f64 {
        (1.0 + q_next) * c
    }

    /// Eq. (6): `r̂(k+1) = work / (ŝ·φ)`.
    pub(crate) fn response(work: f64, delivered: f64) -> f64 {
        work / delivered
    }

    /// A bound on [`backlog_work`](QueueModel::backlog_work) under which
    /// the [`response`](QueueModel::response) at `delivered` is certainly
    /// at most `target`, without dividing: for positive normal operands,
    /// `fl(fl(target·delivered)·(1 − 2⁻⁵⁰))` lies strictly below the exact
    /// `target·delivered` (two roundings move it by at most
    /// `(1 + 2⁻⁵³)²`), so a work at or under it has an exact quotient
    /// strictly below `target`, and the rounded quotient cannot exceed it.
    /// A non-positive `target` gives a bound no positive work meets.
    pub(crate) fn work_within(target: f64, delivered: f64) -> f64 {
        const MARGIN: f64 = 1.0 - 4.0 * f64::EPSILON;
        target * delivered * MARGIN
    }
}

/// Configuration of an L0 (per-computer frequency) controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L0Config {
    /// Prediction horizon `N_L0` (paper: 3).
    pub horizon: usize,
    /// Sampling period `T_L0` in seconds (paper: 30).
    pub period: f64,
    /// Response-time violation weight `Q` (paper: 100).
    pub q_weight: f64,
    /// Power weight `R` (paper: 1).
    pub r_weight: f64,
    /// Desired average response time `r*` in seconds (paper: 4).
    pub response_target: f64,
    /// Base operating cost `a` (paper: 0.75).
    pub base_cost: f64,
    /// Drift-aware L0: knobs of the online service-rate scale estimator
    /// threaded through [`QueueModel::step`]. Disabled in the paper
    /// defaults (the paper's model is capacity-blind); enable via
    /// [`crate::PolicyBuilder::drift_aware_l0`] or by setting
    /// `scale.enabled` directly.
    pub scale: llc_core::ScaleEstimatorConfig,
}

impl L0Config {
    /// The paper's §4.3 parameters (drift-blind: scale estimation off).
    pub fn paper_default() -> Self {
        L0Config {
            horizon: 3,
            period: 30.0,
            q_weight: 100.0,
            r_weight: 1.0,
            response_target: 4.0,
            base_cost: 0.75,
            scale: llc_core::ScaleEstimatorConfig::default(),
        }
    }

    /// Base ticks per a slower level's period of `period` seconds,
    /// rounded to the nearest whole tick and floored at one — the
    /// cadence arithmetic the control-plane driver schedules L1/L2
    /// decision rounds by (see [`crate::Cadence::from_configs`]).
    pub fn ticks_per(&self, period: f64) -> u64 {
        ((period / self.period).round() as u64).max(1)
    }
}

/// Model state carried through the L0 lookahead tree: the queue, and the
/// work ahead of an arrival [`QueueModel::backlog_work`] — the response
/// time before its division by `ŝ·φ`, which the cost makes only when the
/// target could be missed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct L0State {
    q: f64,
    work: f64,
}

/// What one frequency contributes to every node of a decision's tree,
/// worked out once per decision from the [`QueueModel`] parts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Setting {
    /// `ŝ·φ`.
    delivered: f64,
    /// `ŝ·φ/ĉ`.
    rate: f64,
    /// [`QueueModel::work_within`] the response target: at or under it
    /// the slack is zero.
    work_within: f64,
    /// The power term `R·|a + φ²|`.
    power: f64,
}

/// The [`Plant`] adapter exposing the queue model to the generic
/// lookahead controller. Inputs are frequency-table indices; the
/// environment of a step is its forecast arrival rate `λ̂` (the
/// processing time `ĉ` is one estimate for the whole horizon).
///
/// It floors each step's cost at the cheapest frequency's cost out of the
/// lowest queue the step can start from (see [`Plant::cost_floors`]
/// below): at least that frequency's power, and the response penalty too
/// once even the fastest frequency cannot drain the backlog. At low load
/// the floors are the cheapest power, which lets the search cut a path as
/// soon as it pays for a faster frequency than the incumbent did. It
/// guides the search down those cheapest frequencies, so that past
/// capacity the search starts from the full-speed path, whose total the
/// floors meet, and cuts nearly every other child one step in instead of
/// walking the slow frequencies first.
struct L0Plant<'a> {
    settings: &'a [Setting],
    model: QueueModel,
    c: f64,
    response: SetPoint,
    q_penalty: Penalty,
}

impl<'a> L0Plant<'a> {
    /// The plant `config` describes over the frequency table `phis`,
    /// stepped by `model` at processing time `c`; its per-frequency
    /// constants are written into `settings`.
    fn new(
        config: &L0Config,
        phis: &[f64],
        model: QueueModel,
        c: f64,
        settings: &'a mut Vec<Setting>,
    ) -> Self {
        debug_assert!(c > 0.0, "processing time must be positive");
        debug_assert!(
            phis.iter().all(|&phi| phi > 0.0 && phi <= 1.0),
            "φ out of range: {phis:?}"
        );
        let r_penalty = Penalty::abs(config.r_weight);
        settings.clear();
        settings.extend(phis.iter().map(|&phi| {
            let delivered = model.delivered(phi);
            Setting {
                delivered,
                rate: QueueModel::service_rate(delivered, c),
                work_within: QueueModel::work_within(config.response_target, delivered),
                power: r_penalty.eval(config.base_cost + phi * phi),
            }
        }));
        L0Plant {
            settings,
            model,
            c,
            response: SetPoint::new(config.response_target),
            q_penalty: Penalty::abs(config.q_weight),
        }
    }
}

impl Plant for L0Plant<'_> {
    type State = L0State;
    type Input = usize;
    type Env = f64;

    fn admissible(&self, _x: &L0State) -> Vec<usize> {
        (0..self.settings.len()).collect()
    }

    fn admissible_into(&self, _x: &L0State, out: &mut Vec<usize>) {
        // State-independent input set: skip the per-node allocation the
        // lookahead search would otherwise pay (it expands thousands of
        // nodes per offline-learning grid point).
        out.extend(0..self.settings.len());
    }

    fn step(&self, x: &L0State, u: &usize, lambda: &f64) -> L0State {
        let q = self.model.next_queue(x.q, *lambda, self.settings[*u].rate);
        L0State {
            q,
            work: QueueModel::backlog_work(q, self.c),
        }
    }

    fn cost(&self, x_next: &L0State, u: &usize, _prev: Option<&usize>) -> f64 {
        // Soft response-time constraint ε = max(0, r − r*), heavily
        // weighted; power ψ = a + φ². Frequency switches are free (§4.1:
        // "switching between different operating frequencies incurs
        // negligible power-consumption overhead").
        let setting = &self.settings[*u];
        if x_next.work <= setting.work_within {
            // ε = +0.0, so its penalty adds nothing.
            return setting.power;
        }
        let r = QueueModel::response(x_next.work, setting.delivered);
        self.q_penalty.eval(self.response.slack_above(r)) + setting.power
    }

    /// Step `d`'s floor is the cheapest step out of the lowest queue any
    /// path can stand on at depth `d`: `q_lo[0] = q0`, and `q_lo[d + 1]`
    /// the queue after step `d` at the fastest service rate. Every rounded
    /// operation of [`QueueModel::next_queue`] is monotone — up in the
    /// queue, down in the rate — so no path's queue at depth `d` is below
    /// `q_lo[d]`. The cost is monotone in the queue it lands on: the work
    /// `(1 + q̂)ĉ`, the response, the slack and its penalty all are, and
    /// the undivided branch returns the power alone, at most the penalised
    /// sum. So a node at step `d` costs at least its own input's cost out
    /// of `q_lo[d]`, hence at least the cheapest input's.
    ///
    /// The guide is each step's cheapest input, the first of equals. In
    /// overload that is the fastest frequency throughout, whose path is
    /// the one that stands on `q_lo`: its leaf totals the floors exactly.
    /// A guide of index 0 throughout is the walk's own first descent,
    /// which seeds nothing the first leaf would not, so it is left empty.
    fn cost_floors(
        &self,
        x0: &L0State,
        forecast: &[f64],
        floors: &mut [f64],
        guide: &mut Vec<usize>,
    ) {
        let fastest = self
            .settings
            .iter()
            .fold(f64::NEG_INFINITY, |rate, s| rate.max(s.rate));
        let mut lowest = *x0;
        for (floor, lambda) in floors.iter_mut().zip(forecast) {
            let mut cheapest = 0;
            *floor = f64::INFINITY;
            for u in 0..self.settings.len() {
                let cost = self.cost(&self.step(&lowest, &u, lambda), &u, None);
                if cost < *floor {
                    (*floor, cheapest) = (cost, u);
                }
            }
            guide.push(cheapest);
            lowest.q = self.model.next_queue(lowest.q, *lambda, fastest);
        }
        if guide.iter().all(|&u| u == 0) {
            guide.clear();
        }
    }
}

/// One L0 decision.
#[derive(Debug, Clone, PartialEq)]
pub struct L0Decision {
    /// Chosen frequency index into the computer's table.
    pub frequency_index: usize,
    /// Predicted cumulative cost over the horizon.
    pub predicted_cost: f64,
    /// Search statistics (states explored — the overhead metric).
    pub stats: SearchStats,
}

/// The per-computer frequency controller (§4.1).
///
/// Owns its own forecasters, as the paper prescribes "an ARIMA model,
/// implemented by a Kalman filter, to predict load arrivals at both
/// levels of the control hierarchy" and an EWMA (`π = 0.1`) for the
/// processing time. Each sampling period it observes the last window
/// (arrivals routed to this computer, demands of completed requests) and
/// picks the frequency minimizing the lookahead cost.
#[derive(Debug, Clone)]
pub struct L0Controller {
    config: L0Config,
    phis: Vec<f64>,
    controller: LookaheadController,
    lambda_forecast: LocalLinearTrend,
    c_filter: Ewma,
    /// The lookahead's arrival forecast, per-frequency constants and
    /// search buffers, kept and rewritten in place: a machine decides
    /// every `T_L0`, and a cluster is many machines.
    forecast: Vec<f64>,
    settings: Vec<Setting>,
    scratch: SearchScratch<usize, L0State>,
    /// Online delivered-capacity estimator (the drift-aware L0; inert
    /// unless `config.scale.enabled`).
    scale: ServiceScaleEstimator,
    /// Cumulative states explored (overhead accounting).
    total_stats: SearchStats,
    decisions: u64,
}

impl L0Controller {
    /// Build a controller for a computer with scaling factors `phis`
    /// (ascending, last = 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `phis` is empty, non-ascending, out of (0, 1], or if the
    /// config horizon is 0.
    pub fn new(config: L0Config, phis: Vec<f64>) -> Self {
        assert!(!phis.is_empty(), "need at least one frequency");
        assert!(
            phis.windows(2).all(|w| w[0] < w[1]),
            "φ values must be ascending"
        );
        assert!(
            phis[0] > 0.0 && *phis.last().expect("non-empty") <= 1.0 + 1e-12,
            "φ values must lie in (0, 1]"
        );
        let controller =
            LookaheadController::new(config.horizon).expect("config.horizon must be >= 1");
        L0Controller {
            controller,
            lambda_forecast: LocalLinearTrend::with_default_noise().with_floor(0.0),
            c_filter: Ewma::paper_default(),
            forecast: vec![0.0; config.horizon],
            settings: Vec::with_capacity(phis.len()),
            scratch: SearchScratch::default(),
            scale: ServiceScaleEstimator::new(config.scale),
            phis,
            config,
            total_stats: SearchStats::default(),
            decisions: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &L0Config {
        &self.config
    }

    /// Feed the last window's observations: arrivals routed to this
    /// computer and the mean full-speed demand of completed requests
    /// (`None` when nothing completed — the filter simply keeps its
    /// previous estimate).
    pub fn observe(&mut self, arrivals: u64, mean_demand: Option<f64>) {
        self.lambda_forecast
            .observe(arrivals as f64 / self.config.period);
        if let Some(c) = mean_demand {
            self.c_filter.observe(c);
        }
    }

    /// Current processing-time estimate `ĉ` (with a conservative floor
    /// before any completion has been observed).
    pub fn c_estimate(&self) -> f64 {
        let c = self.c_filter.estimate();
        if c > 0.0 {
            c
        } else {
            0.0175 // mean of U(10, 25) ms — the store's prior
        }
    }

    /// Current one-step arrival-rate forecast `λ̂` (requests/second).
    pub fn lambda_estimate(&self) -> f64 {
        self.lambda_forecast.predict_one().max(0.0)
    }

    /// Feed the delivery-side half of the last window to the drift-aware
    /// scale estimator: requests completed, whether the computer still
    /// held a backlog at the sampling instant (the busy-window evidence
    /// guard), and the frequency index in force over the window. A no-op
    /// while `config.scale.enabled` is false.
    pub fn observe_service(&mut self, completions: u64, busy: bool, frequency_index: usize) {
        let phi = self.phis[frequency_index.min(self.phis.len() - 1)];
        let c = self.c_estimate();
        self.scale
            .observe_window(completions, self.config.period, phi, c, busy);
    }

    /// The delivered-capacity scale `ŝ` the lookahead model currently
    /// runs at (1.0 while the estimator is disabled or unfed).
    pub fn scale_estimate(&self) -> f64 {
        self.scale.estimate()
    }

    /// Forget the learned capacity scale and re-converge from the
    /// nominal prior — for callers that *know* the plant was restored
    /// (a machine replaced, a throttle lifted). The retrain hot-swap
    /// deliberately does **not** call this: the rebuilt maps are
    /// centered on `ĉ/ŝ`, so ŝ must keep tracking the still-degraded
    /// plant or the L0 would believe in nominal capacity again and
    /// reintroduce the limit cycle the estimator exists to kill.
    pub fn reset_scale(&mut self) {
        self.scale.reset();
    }

    /// Decide the frequency index for the next period given the observed
    /// queue length.
    ///
    /// # Errors
    ///
    /// Propagates [`llc_core::Error`] (cannot occur with a non-empty φ
    /// table and the internally built forecast).
    pub fn decide(&mut self, queue_len: usize) -> Result<L0Decision, LlcError> {
        for (env, lambda) in self
            .forecast
            .iter_mut()
            .zip(self.lambda_forecast.predictions())
        {
            *env = lambda.max(0.0);
        }
        let plant = L0Plant::new(
            &self.config,
            &self.phis,
            QueueModel::with_scale(self.config.period, self.scale.estimate()),
            self.c_estimate(),
            &mut self.settings,
        );
        let x0 = L0State {
            q: queue_len as f64,
            work: 0.0,
        };
        let (cost, stats) =
            self.controller
                .decide_with(&plant, &x0, None, &self.forecast, &mut self.scratch)?;
        self.total_stats.absorb(stats);
        self.decisions += 1;
        Ok(L0Decision {
            frequency_index: self.scratch.sequence()[0],
            predicted_cost: cost,
            stats,
        })
    }

    /// Average states explored per decision so far (overhead metric).
    pub fn mean_states_explored(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.total_stats.states_explored as f64 / self.decisions as f64
        }
    }

    /// Decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Evaluate the model cost the L0 controller would accrue over
    /// `steps` periods starting from queue `q0` under constant arrival
    /// rate `lambda` and processing time `c` — replaying its own decide
    /// loop on the analytic model. This is the inner simulation behind
    /// the offline learning of the L1 abstraction map `g`.
    ///
    /// Returns `(average cost per period, average power draw, final
    /// queue length)`.
    pub fn simulate_model(
        config: &L0Config,
        phis: &[f64],
        q0: f64,
        lambda: f64,
        c: f64,
        steps: usize,
    ) -> (f64, f64, f64) {
        assert!(steps > 0, "need at least one step");
        let mut settings = Vec::new();
        let plant = L0Plant::new(
            config,
            phis,
            QueueModel::new(config.period),
            c,
            &mut settings,
        );
        let controller =
            LookaheadController::new(config.horizon).expect("horizon >= 1 by construction");
        let forecast = vec![lambda; config.horizon];
        let mut scratch = SearchScratch::default();
        let mut q = q0;
        let mut total = 0.0;
        let mut power = 0.0;
        for _ in 0..steps {
            let x = L0State { q, work: 0.0 };
            controller
                .decide_with(&plant, &x, None, &forecast, &mut scratch)
                .expect("non-empty input set");
            let u = scratch.sequence()[0];
            let next = plant.step(&x, &u, &lambda);
            total += plant.cost(&next, &u, None);
            let phi = phis[u];
            power += config.base_cost + phi * phi;
            q = next.q;
        }
        (total / steps as f64, power / steps as f64, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phis() -> Vec<f64> {
        vec![0.25, 0.5, 0.75, 1.0]
    }

    fn controller() -> L0Controller {
        L0Controller::new(L0Config::paper_default(), phis())
    }

    /// The plant as it was before it carried per-decision constants:
    /// [`QueueModel::step`] per node, and the slack divided out every time.
    struct Reference<'a> {
        phis: &'a [f64],
        model: QueueModel,
        config: L0Config,
    }

    impl Plant for Reference<'_> {
        type State = (f64, f64);
        type Input = usize;
        type Env = (f64, f64);

        fn admissible(&self, _x: &(f64, f64)) -> Vec<usize> {
            (0..self.phis.len()).collect()
        }

        fn step(&self, x: &(f64, f64), u: &usize, &(lambda, c): &(f64, f64)) -> (f64, f64) {
            self.model.step(x.0, lambda, c, self.phis[*u])
        }

        fn cost(&self, x_next: &(f64, f64), u: &usize, _prev: Option<&usize>) -> f64 {
            let slack = SetPoint::new(self.config.response_target).slack_above(x_next.1);
            let phi = self.phis[*u];
            Penalty::abs(self.config.q_weight).eval(slack)
                + Penalty::abs(self.config.r_weight).eval(self.config.base_cost + phi * phi)
        }
    }

    /// The reference cost of landing on `work` at `delivered` under `u`.
    fn reference_cost(reference: &Reference, work: f64, delivered: f64, u: usize) -> f64 {
        reference.cost(&(0.0, QueueModel::response(work, delivered)), &u, None)
    }

    #[test]
    fn plant_steps_and_costs_as_the_queue_model_does() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x10_0C05);
        let config = L0Config::paper_default();
        let mut settings = Vec::new();
        for _ in 0..20_000 {
            let (q, lambda) = (rng.gen_range(0.0..400.0), rng.gen_range(0.0..120.0));
            let (c, scale) = (rng.gen_range(0.005..0.04), rng.gen_range(0.2..1.2));
            let phis = [rng.gen_range(0.05..1.0), 1.0];
            let model = QueueModel::with_scale(config.period, scale);
            let plant = L0Plant::new(&config, &phis, model, c, &mut settings);
            let reference = Reference {
                phis: &phis,
                model,
                config,
            };
            for (u, phi) in phis.iter().enumerate() {
                let next = plant.step(&L0State { q, work: 0.0 }, &u, &lambda);
                let (q_ref, r_ref) = reference.step(&(q, 0.0), &u, &(lambda, c));
                assert_eq!(next.q.to_bits(), q_ref.to_bits());
                let r = QueueModel::response(next.work, plant.settings[u].delivered);
                assert_eq!(r.to_bits(), r_ref.to_bits());
                let cost = plant.cost(&next, &u, None);
                let cost_ref = reference.cost(&(q_ref, r_ref), &u, None);
                assert_eq!(
                    cost.to_bits(),
                    cost_ref.to_bits(),
                    "q {q} λ {lambda} ĉ {c} ŝ {scale} φ {phi}"
                );
            }
        }
    }

    #[test]
    fn the_division_is_skipped_only_where_the_target_cannot_be_missed() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1_u64);
        let mut settings = Vec::new();
        let mut exact = 0;
        for _ in 0..20_000 {
            let mut config = L0Config::paper_default();
            config.response_target = rng.gen_range(0.05..8.0);
            let phis = [rng.gen_range(0.05..1.0)];
            let model = QueueModel::with_scale(config.period, rng.gen_range(0.2..1.2));
            let plant = L0Plant::new(&config, &phis, model, 0.0175, &mut settings);
            let reference = Reference {
                phis: &phis,
                model,
                config,
            };
            let Setting {
                delivered,
                work_within,
                power,
                ..
            } = plant.settings[0];
            // At the bound and a few ulps either side of it.
            for ulps in -4i64..=4 {
                let work = f64::from_bits(work_within.to_bits().wrapping_add_signed(ulps));
                if work <= work_within {
                    assert!(QueueModel::response(work, delivered) <= config.response_target);
                }
                let cost = plant.cost(&L0State { q: 0.0, work }, &0, None);
                assert_eq!(
                    cost.to_bits(),
                    reference_cost(&reference, work, delivered, 0).to_bits(),
                    "r* {} ŝφ {delivered} work {work}",
                    config.response_target
                );
            }
            // Where r̂ lands on r* exactly: no slack, but past the bound.
            let work = config.response_target * delivered;
            if QueueModel::response(work, delivered) == config.response_target {
                exact += 1;
                assert!(work > work_within);
                let cost = plant.cost(&L0State { q: 0.0, work }, &0, None);
                assert_eq!(cost.to_bits(), power.to_bits());
                assert_eq!(
                    cost.to_bits(),
                    reference_cost(&reference, work, delivered, 0).to_bits()
                );
            }
        }
        assert!(exact > 1000, "r̂ = r* exactly only {exact} times");
    }

    /// Each step's floor is at most the cost of every node the full tree
    /// holds at that step, and at the first step, out of the root's own
    /// queue, exactly the cheapest of them: idle to overload forecasts,
    /// empty to deep queues, φ tables of 4–8 entries at `ŝ ≤ 1`.
    #[test]
    fn cost_floors_hold_under_every_node_of_the_full_tree() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1_00_25);
        let config = L0Config::paper_default();
        let mut settings = Vec::new();
        let mut floors = vec![0.0; config.horizon];
        let mut guide = Vec::new();
        for _ in 0..1_000 {
            let mut phis: Vec<f64> = (0..rng.gen_range(3..8))
                .map(|_| rng.gen_range(0.05..1.0))
                .chain([1.0])
                .collect();
            phis.sort_by(f64::total_cmp);
            let (c, scale) = (rng.gen_range(0.005..0.04), rng.gen_range(0.2..=1.0));
            let model = QueueModel::with_scale(config.period, scale);
            let plant = L0Plant::new(&config, &phis, model, c, &mut settings);
            // What the fastest frequency serves: a quarter of the steps
            // see no load, a quarter more than it can take.
            let capacity = scale / c;
            let forecast: Vec<f64> = (0..config.horizon)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => rng.gen_range(1.0..3.0) * capacity,
                    _ => rng.gen_range(0.0..capacity),
                })
                .collect();
            let q0 = if rng.gen_bool(0.3) {
                0.0
            } else {
                rng.gen_range(0.0..400.0)
            };
            let root = L0State { q: q0, work: 0.0 };
            floors.fill(0.0);
            guide.clear();
            plant.cost_floors(&root, &forecast, &mut floors, &mut guide);
            let mut level = vec![root];
            for (d, lambda) in forecast.iter().enumerate() {
                let mut cheapest = f64::INFINITY;
                let mut below = Vec::with_capacity(level.len() * phis.len());
                for x in &level {
                    for u in 0..phis.len() {
                        let next = plant.step(x, &u, lambda);
                        cheapest = cheapest.min(plant.cost(&next, &u, None));
                        below.push(next);
                    }
                }
                let at = format!("step {d} q0 {q0} λ̂ {forecast:?} ĉ {c} ŝ {scale} φ {phis:?}");
                assert!(floors[d] <= cheapest, "{at}: {} > {cheapest}", floors[d]);
                if d == 0 {
                    assert_eq!(floors[0].to_bits(), cheapest.to_bits(), "{at}");
                }
                level = below;
            }
        }
    }

    /// The guide is empty or one valid index per step; it is empty exactly
    /// when every step's first cheapest frequency out of the lowest
    /// reachable queue is index 0, and is those frequencies otherwise. At
    /// `λ̂·ĉ ≥ 1.2·ŝ·φ_max` on every step it is the fastest throughout.
    #[test]
    fn the_guide_is_each_steps_first_cheapest_frequency() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6_01DE);
        let config = L0Config::paper_default();
        let mut settings = Vec::new();
        let (mut floors, mut guide) = (vec![0.0; config.horizon], Vec::new());
        let (mut empty, mut overloaded) = (0, 0);
        for _ in 0..2_000 {
            let mut phis: Vec<f64> = (0..rng.gen_range(3..8))
                .map(|_| rng.gen_range(0.05..1.0))
                .chain([1.0])
                .collect();
            phis.sort_by(f64::total_cmp);
            let (c, scale) = (rng.gen_range(0.005..0.04), rng.gen_range(0.2..=1.0));
            let model = QueueModel::with_scale(config.period, scale);
            let plant = L0Plant::new(&config, &phis, model, c, &mut settings);
            let reference = Reference {
                phis: &phis,
                model,
                config,
            };
            let capacity = scale / c;
            let overload = rng.gen_bool(0.25);
            let forecast: Vec<f64> = (0..config.horizon)
                .map(|_| match rng.gen_range(0..4) {
                    _ if overload => rng.gen_range(1.2..3.0) * capacity,
                    0 => 0.0,
                    1 => rng.gen_range(1.0..3.0) * capacity,
                    _ => rng.gen_range(0.0..capacity),
                })
                .collect();
            let q0 = if rng.gen_bool(0.3) {
                0.0
            } else {
                rng.gen_range(0.0..400.0)
            };
            guide.clear();
            plant.cost_floors(
                &L0State { q: q0, work: 0.0 },
                &forecast,
                &mut floors,
                &mut guide,
            );
            // Each step's first cheapest frequency out of the lowest
            // queue, that queue drained at full speed.
            let mut lowest = q0;
            let cheapest: Vec<usize> = forecast
                .iter()
                .map(|&lambda| {
                    let costs: Vec<f64> = (0..phis.len())
                        .map(|u| {
                            let next = reference.step(&(lowest, 0.0), &u, &(lambda, c));
                            reference.cost(&next, &u, None)
                        })
                        .collect();
                    lowest = reference
                        .step(&(lowest, 0.0), &(phis.len() - 1), &(lambda, c))
                        .0;
                    (0..phis.len())
                        .min_by(|&a, &b| costs[a].total_cmp(&costs[b]))
                        .unwrap()
                })
                .collect();
            let at = format!("q0 {q0} λ̂ {forecast:?} ĉ {c} ŝ {scale} φ {phis:?}");
            if cheapest.iter().all(|&u| u == 0) {
                assert!(guide.is_empty(), "{at}: {guide:?}");
                empty += 1;
            } else {
                assert_eq!(guide, cheapest, "{at}");
            }
            if overload {
                assert_eq!(guide, vec![phis.len() - 1; config.horizon], "{at}");
                overloaded += 1;
            }
        }
        assert!(
            empty > 30 && overloaded > 300,
            "{empty} empty, {overloaded} overloaded"
        );
    }

    /// The controller's decisions against the reference plant searched by
    /// the same lookahead — which `llc_core`'s differential test holds to
    /// the recursive expansion it replaced — over queues 0–60, idle to
    /// overload, at a learned `ŝ < 1`. The reference has neither cost
    /// floors nor a guide, so it prunes on path cost alone: the floors and
    /// the guide must never cost a state, must save some on a good share
    /// of the sweep, and must save some on every decision whose forecast
    /// is past capacity.
    #[test]
    fn decide_matches_the_reference_plant_over_a_load_sweep() {
        let mut config = L0Config::paper_default();
        config.scale = llc_core::ScaleEstimatorConfig::enabled();
        let phis = [0.3, 0.45, 0.6, 0.75, 0.9, 1.0];
        let search = LookaheadController::new(config.horizon).unwrap();
        let mut scaled = 0;
        let mut chosen = [0; 6];
        let (mut cases, mut fewer, mut overloaded) = (0, 0, 0);
        for lambda in [0.0, 2.0, 10.0, 25.0, 40.0, 55.0, 70.0, 120.0] {
            let mut l0 = L0Controller::new(config, phis.to_vec());
            for window in 0..6 {
                l0.observe((lambda * 30.0) as u64, Some(0.0175));
                // Busy windows delivering 70 % of nominal at φ = 0.6.
                l0.observe_service((0.7 * 0.6 / 0.0175 * 30.0) as u64, true, 2);
                for queue in (0..=60).step_by(6) {
                    let decision = l0.decide(queue).unwrap();
                    scaled += usize::from(l0.scale_estimate() < 1.0);
                    let reference = Reference {
                        phis: &phis,
                        model: QueueModel::with_scale(config.period, l0.scale_estimate()),
                        config,
                    };
                    let c = l0.c_estimate();
                    let forecast: Vec<_> = l0.forecast.iter().map(|&lambda| (lambda, c)).collect();
                    let expected = search
                        .decide(&reference, &(queue as f64, 0.0), None, &forecast)
                        .unwrap();
                    chosen[expected.input] += 1;
                    let at = format!("λ {lambda} window {window} queue {queue}");
                    assert_eq!(decision.frequency_index, expected.input, "{at}");
                    assert_eq!(
                        decision.predicted_cost.to_bits(),
                        expected.cost.to_bits(),
                        "{at}"
                    );
                    let (explored, reference) = (
                        decision.stats.states_explored,
                        expected.stats.states_explored,
                    );
                    assert!(explored <= reference, "{at}: {explored} > {reference}");
                    cases += 1;
                    fewer += usize::from(explored < reference);
                    let capacity = l0.scale_estimate() * phis[5] / c;
                    if l0.forecast.iter().all(|&lambda| lambda >= 1.2 * capacity) {
                        assert!(explored < reference, "{at}: {explored} states, overloaded");
                        overloaded += 1;
                    }
                }
            }
        }
        assert!(
            4 * fewer >= cases,
            "the floors saved states in {fewer} of {cases} decisions"
        );
        assert!(overloaded > 0, "the sweep never ran past capacity");
        assert!(scaled > 0, "the sweep never ran at ŝ < 1");
        assert!(
            chosen.iter().filter(|&&n| n > 0).count() >= 4,
            "the sweep chose too few frequencies: {chosen:?}"
        );
    }

    #[test]
    fn queue_model_drains_when_service_exceeds_arrivals() {
        let m = QueueModel::new(30.0);
        // λ = 10 req/s, c = 20 ms, φ = 1: service rate 50 req/s.
        let (q, r) = m.step(100.0, 10.0, 0.02, 1.0);
        assert_eq!(q, 0.0, "surplus capacity empties the queue");
        assert!((r - 0.02).abs() < 1e-12);
    }

    #[test]
    fn queue_model_grows_when_overloaded() {
        let m = QueueModel::new(30.0);
        // λ = 100 req/s, service rate φ/c = 50 req/s: +50/s for 30 s.
        let (q, r) = m.step(0.0, 100.0, 0.02, 1.0);
        assert!((q - 1500.0).abs() < 1e-9);
        assert!((r - 1501.0 * 0.02).abs() < 1e-9);
    }

    #[test]
    fn idle_computer_picks_lowest_frequency() {
        let mut c = controller();
        for _ in 0..10 {
            c.observe(0, Some(0.0175));
        }
        let d = c.decide(0).unwrap();
        assert_eq!(d.frequency_index, 0, "no load: minimize power");
    }

    #[test]
    fn overloaded_computer_picks_highest_frequency() {
        let mut c = controller();
        // 55 req/s at c = 17.5 ms: needs φ ≈ 0.96 — only φ = 1.0 serves it.
        for _ in 0..10 {
            c.observe(55 * 30, Some(0.0175));
        }
        let d = c.decide(40).unwrap();
        assert_eq!(d.frequency_index, 3, "overload: run flat out");
    }

    #[test]
    fn moderate_load_picks_intermediate_frequency() {
        let mut c = controller();
        // 20 req/s at c = 17.5 ms: φ = 0.5 serves 28.6 req/s with small
        // queues; φ = 0.25 (14.3 req/s) diverges.
        for _ in 0..10 {
            c.observe(20 * 30, Some(0.0175));
        }
        let d = c.decide(0).unwrap();
        assert!(
            d.frequency_index == 1 || d.frequency_index == 2,
            "expected an intermediate setting, got {}",
            d.frequency_index
        );
    }

    #[test]
    fn stats_accumulate_and_bound() {
        let mut c = controller();
        c.observe(100, Some(0.0175));
        let d = c.decide(0).unwrap();
        // Horizon 3, |U| = 4: at most 4 + 16 + 64 = 84 states.
        assert!(d.stats.states_explored <= 84);
        assert!(d.stats.states_explored >= 4);
        assert_eq!(c.decisions(), 1);
        assert!(c.mean_states_explored() > 0.0);
    }

    #[test]
    fn c_estimate_falls_back_before_observations() {
        let c = controller();
        assert!((c.c_estimate() - 0.0175).abs() < 1e-12);
    }

    #[test]
    fn simulate_model_costs_rise_with_load() {
        let cfg = L0Config::paper_default();
        let (low, p_low, _) = L0Controller::simulate_model(&cfg, &phis(), 0.0, 5.0, 0.0175, 4);
        let (high, p_high, _) = L0Controller::simulate_model(&cfg, &phis(), 0.0, 80.0, 0.0175, 4);
        assert!(
            p_high > p_low,
            "overload draws more power ({p_high:.2}) than light load ({p_low:.2})"
        );
        assert!(
            high > low,
            "overload cost {high} must exceed light-load cost {low}"
        );
    }

    #[test]
    fn simulate_model_final_queue_drains_under_capacity() {
        let cfg = L0Config::paper_default();
        let (_, _, q_final) = L0Controller::simulate_model(&cfg, &phis(), 50.0, 5.0, 0.0175, 4);
        assert_eq!(q_final, 0.0, "light load drains the backlog");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_phis_panic() {
        let _ = L0Controller::new(L0Config::paper_default(), vec![1.0, 0.5]);
    }

    #[test]
    fn scaled_model_halves_the_service_rate() {
        let nominal = QueueModel::new(30.0);
        let degraded = QueueModel::with_scale(30.0, 0.5);
        // λ = 30 req/s, c = 20 ms, φ = 1: nominal service 50 req/s
        // drains, half-capacity service 25 req/s backs up at +5/s.
        let (q_nom, _) = nominal.step(0.0, 30.0, 0.02, 1.0);
        let (q_deg, r_deg) = degraded.step(0.0, 30.0, 0.02, 1.0);
        assert_eq!(q_nom, 0.0);
        assert!((q_deg - 150.0).abs() < 1e-9);
        assert!((r_deg - 151.0 * 0.02 / 0.5).abs() < 1e-9);
        // ŝ = 1 must reproduce the nominal model bit for bit.
        assert_eq!(
            nominal.step(17.0, 41.0, 0.0175, 0.75),
            QueueModel::with_scale(30.0, 1.0).step(17.0, 41.0, 0.0175, 0.75)
        );
    }

    #[test]
    fn drift_aware_l0_raises_frequency_on_a_degraded_plant() {
        // 20 req/s at c = 17.5 ms on a plant delivering half its nominal
        // capacity: the drift-blind L0 believes φ = 0.5 serves 28.6 req/s
        // and settles there (the too-low leg of the limit cycle — it
        // really delivers 14.3); the drift-aware L0 learns ŝ ≈ 0.5 from
        // the completions and provisions at a setting whose *delivered*
        // rate covers the load (φ ≥ 0.75: ≥ 21.4 req/s).
        let mut cfg = L0Config::paper_default();
        cfg.scale = llc_core::ScaleEstimatorConfig::enabled();
        let mut aware = L0Controller::new(cfg, phis());
        let mut blind = controller();
        let true_scale: f64 = 0.5;
        for _ in 0..10 {
            blind.observe(20 * 30, Some(0.0175));
            aware.observe(20 * 30, Some(0.0175));
            // Busy windows at φ = 0.5: the plant completes ŝ·φ/c·T.
            let completions = (true_scale * 0.5 / 0.0175 * 30.0).round() as u64;
            aware.observe_service(completions, true, 1);
        }
        assert!(
            (aware.scale_estimate() - true_scale).abs() < 0.05,
            "ŝ = {} should track the degraded plant",
            aware.scale_estimate()
        );
        let blind_choice = blind.decide(0).unwrap().frequency_index;
        let aware_choice = aware.decide(0).unwrap().frequency_index;
        assert!(
            aware_choice > blind_choice,
            "drift-aware must provision above the drift-blind choice \
             ({aware_choice} vs {blind_choice})"
        );
        assert!(
            aware_choice >= 2,
            "half capacity at 20 req/s needs delivered rate ≥ load (φ ≥ 0.75), got index {aware_choice}"
        );
        aware.reset_scale();
        assert_eq!(aware.scale_estimate(), 1.0);
    }

    #[test]
    fn disabled_scale_estimator_ignores_service_windows() {
        let mut c = controller();
        c.observe_service(10_000, true, 0);
        assert_eq!(c.scale_estimate(), 1.0, "paper default stays blind");
    }
}
