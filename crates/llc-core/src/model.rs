use crate::Error;

/// A controlled switching hybrid system, in the sense of the paper's
/// discrete-time state-space equation `x(k+1) = f(x(k), u(k), ω(k))`.
///
/// The plant exposes three things to the controller:
///
/// * the **admissible input set** `U(x)` — finite, possibly state-dependent;
/// * the **dynamic map** `f` predicting the next state given an input and an
///   (estimated) environment sample;
/// * the **cost** `J(x, u)` of landing in a state having applied an input,
///   optionally penalizing the change `Δu` relative to the previous input.
///
/// Implementations should be cheap to call: the lookahead search evaluates
/// `step` and `cost` `O(|U|^N)` times per decision.
pub trait Plant {
    /// System state `x(k)`.
    type State: Clone;
    /// Control input `u(k)`, drawn from a finite set.
    type Input: Clone + PartialEq;
    /// Environment parameters `ω(k)` (e.g. arrival rate, service time).
    type Env: Clone;

    /// The admissible input set `U(x)` in state `x`.
    ///
    /// Returning an empty vector causes the controller to fail with
    /// [`Error::EmptyInputSet`](crate::Error::EmptyInputSet).
    fn admissible(&self, x: &Self::State) -> Vec<Self::Input>;

    /// Write the admissible input set into `out` (cleared by the caller).
    ///
    /// The lookahead search calls this once per expanded node; the default
    /// delegates to [`Plant::admissible`], but plants with a
    /// state-independent input set should override it to skip the
    /// per-node allocation. Must enumerate the same inputs in the same
    /// order as `admissible` (tie-breaking depends on it).
    fn admissible_into(&self, x: &Self::State, out: &mut Vec<Self::Input>) {
        out.extend(self.admissible(x));
    }

    /// One-step prediction `x̂(k+1) = f(x(k), u(k), ω̂(k))`.
    fn step(&self, x: &Self::State, u: &Self::Input, w: &Self::Env) -> Self::State;

    /// Cost `J` of the *successor* state `x_next` reached by applying `u`.
    ///
    /// `prev` is the input applied at the previous step, enabling
    /// `‖Δu‖`-style switching penalties; it is `None` on the first step of
    /// the first decision.
    fn cost(&self, x_next: &Self::State, u: &Self::Input, prev: Option<&Self::Input>) -> f64;
}

/// The environment scenario set for one future time step.
///
/// The paper's chattering mitigation evaluates each candidate action
/// against *three* samples of the forecast arrival rate
/// (`λ̂−δ`, `λ̂`, `λ̂+δ`) and averages their costs, while the search tree
/// itself advances along the nominal sample. `EnvStep` captures exactly
/// that: a nominal sample used to extend the state trajectory plus a
/// weighted sample set used for expected-cost evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvStep<E> {
    /// The nominal (most likely) environment sample; the search recurses
    /// through the state produced by this sample.
    pub nominal: E,
    /// Weighted samples for expected-cost evaluation. Weights need not be
    /// normalized; the controller divides by their sum. Must be non-empty.
    pub samples: Vec<(E, f64)>,
}

impl<E: Clone> EnvStep<E> {
    /// A deterministic step: the nominal sample with weight 1.
    pub fn certain(env: E) -> Self {
        EnvStep {
            nominal: env.clone(),
            samples: vec![(env, 1.0)],
        }
    }

    /// Make this a deterministic step at `env`, keeping the sample buffer.
    pub fn set_certain(&mut self, env: E) {
        self.samples.clear();
        self.samples.push((env.clone(), 1.0));
        self.nominal = env;
    }

    /// A step with equally-weighted samples around a nominal value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyScenario`] if `samples` is empty.
    pub fn with_samples(nominal: E, samples: Vec<E>) -> Result<Self, Error> {
        if samples.is_empty() {
            return Err(Error::EmptyScenario);
        }
        Ok(EnvStep {
            nominal,
            samples: samples.into_iter().map(|s| (s, 1.0)).collect(),
        })
    }

    /// Total sample weight (the normalizer for expected costs).
    pub fn total_weight(&self) -> f64 {
        self.samples.iter().map(|(_, w)| *w).sum()
    }
}

/// An environment forecast covering the prediction horizon: one
/// [`EnvStep`] per future time step, index 0 being `ω̂(k)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast<E> {
    steps: Vec<EnvStep<E>>,
}

impl<E: Clone> Forecast<E> {
    /// Build a forecast from per-step scenario sets.
    pub fn new(steps: Vec<EnvStep<E>>) -> Self {
        Forecast { steps }
    }

    /// Build a purely deterministic forecast from nominal values.
    pub fn from_nominal(nominals: Vec<E>) -> Self {
        Forecast {
            steps: nominals.into_iter().map(EnvStep::certain).collect(),
        }
    }

    /// Number of forecast steps available.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the forecast holds no steps at all.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The scenario set for future step `q` (0-based).
    pub fn step(&self, q: usize) -> Option<&EnvStep<E>> {
        self.steps.get(q)
    }

    /// The per-step scenario sets, writable in place: a controller that
    /// forecasts every sampling period refreshes the values of a forecast
    /// it keeps, instead of building a new one.
    pub fn steps_mut(&mut self) -> &mut [EnvStep<E>] {
        &mut self.steps
    }

    /// Iterate over the per-step scenario sets.
    pub fn iter(&self) -> std::slice::Iter<'_, EnvStep<E>> {
        self.steps.iter()
    }

    /// Validate that the forecast covers at least `horizon` steps and that
    /// no step has an empty sample set.
    ///
    /// # Errors
    ///
    /// [`Error::ForecastTooShort`] or [`Error::EmptyScenario`].
    pub fn validate(&self, horizon: usize) -> Result<(), Error> {
        if self.steps.len() < horizon {
            return Err(Error::ForecastTooShort {
                required: horizon,
                available: self.steps.len(),
            });
        }
        if self.steps.iter().any(|s| s.samples.is_empty()) {
            return Err(Error::EmptyScenario);
        }
        Ok(())
    }
}

impl<E> std::ops::Index<usize> for Forecast<E> {
    type Output = EnvStep<E>;
    fn index(&self, q: usize) -> &EnvStep<E> {
        &self.steps[q]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certain_step_has_single_unit_weight_sample() {
        let s = EnvStep::certain(3.5_f64);
        assert_eq!(s.samples.len(), 1);
        assert!((s.total_weight() - 1.0).abs() < 1e-12);
        assert_eq!(s.nominal, 3.5);
    }

    #[test]
    fn set_certain_rewrites_a_step_in_place() {
        let mut f = Forecast::from_nominal(vec![1.0, 2.0]);
        f.steps_mut()[1].set_certain(7.5);
        assert_eq!(f, Forecast::from_nominal(vec![1.0, 7.5]));
        let mut banded = EnvStep::with_samples(2.0, vec![1.0, 2.0, 3.0]).unwrap();
        banded.set_certain(4.0);
        assert_eq!(banded, EnvStep::certain(4.0));
    }

    #[test]
    fn with_samples_rejects_empty() {
        assert_eq!(
            EnvStep::<f64>::with_samples(1.0, vec![]),
            Err(Error::EmptyScenario)
        );
    }

    #[test]
    fn with_samples_weights_equally() {
        let s = EnvStep::with_samples(2.0, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.samples.len(), 3);
        assert!((s.total_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn forecast_validate_checks_length() {
        let f = Forecast::from_nominal(vec![1.0, 2.0]);
        assert!(f.validate(2).is_ok());
        assert_eq!(
            f.validate(3),
            Err(Error::ForecastTooShort {
                required: 3,
                available: 2
            })
        );
    }

    #[test]
    fn forecast_indexing_and_iter() {
        let f = Forecast::from_nominal(vec![10.0, 20.0]);
        assert_eq!(f[1].nominal, 20.0);
        assert_eq!(f.iter().count(), 2);
        assert!(!f.is_empty());
        assert_eq!(f.len(), 2);
        assert!(f.step(5).is_none());
    }
}
