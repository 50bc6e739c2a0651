//! Struct-of-arrays storage for the cluster's machines.
//!
//! The original simulator kept one heap-allocated `Computer` per machine;
//! at 1000+ machines the per-window sweep spent its time chasing pointers.
//! [`MachineSlabs`] stores every per-machine scalar (frequency index,
//! speed, power state, window stats, energy meter, …) in flat parallel
//! vectors indexed by global machine id, so the hot per-window step sweeps
//! contiguous slabs.
//!
//! The machine state machine — admission, completion, boot-done, power
//! refresh — is written once, on [`Machine`], an exclusive view of one
//! machine's slots. [`MachineSlabs`]' per-index methods (what actuation
//! calls between advances) and the window sweep's [`MachineLane`]s (what
//! `ClusterSim::run_until` steps, possibly on several threads) both go
//! through it.
//!
//! [`ComputerRef`] is the read-only per-machine view handed out by
//! `ClusterSim::computer`, preserving the old `sim.computer(i).state()`
//! call shape for every observer in the workspace.

use crate::metrics::EnergyMeter;
use crate::server::Server;
use crate::{PowerModel, Request, WindowStats};

/// Operating state of a simulated computer.
///
/// The paper's control actions carry **dead times**: "actions such as
/// (de)activating computing resources in a DCS often incur a substantial
/// dead time". Switching a computer on therefore passes through `Booting`
/// for `boot_delay` seconds (2 minutes in the experiments — the L1
/// sampling period). Switching off a busy computer drains its queue first;
/// a draining computer accepts no new work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerState {
    /// Powered down: zero draw, accepts no requests.
    Off,
    /// Switch-on in progress; operational at `ready_at`.
    Booting {
        /// Simulation time at which boot completes.
        ready_at: f64,
    },
    /// Fully operational.
    On,
    /// Ordered off but still finishing queued requests.
    Draining,
}

/// Outcome of offering a request to a computer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request went straight into service.
    Started,
    /// The request was queued (server busy or still booting).
    Queued,
    /// The computer is off/draining and refused the request.
    Rejected,
}

/// The per-request arrivals routed to one machine and not yet offered
/// to it, in `(arrival time, request id)` order. Ids are assigned in
/// submission order, so equal-time arrivals are served in the order they
/// were submitted.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pending {
    /// Arrivals due in the coming sweep, already in `(arrival, id)`
    /// order; the sweep consumes all of them.
    arrivals: Vec<Request>,
    /// First entry of `arrivals` not yet offered.
    cursor: usize,
}

impl Pending {
    /// Append a per-request arrival. Callers push in `(arrival, id)`
    /// order and only arrivals due by the next sweep's end.
    pub(crate) fn push(&mut self, request: Request) {
        self.arrivals.push(request);
    }

    /// Arrivals still buffered.
    pub(crate) fn len(&self) -> u64 {
        (self.arrivals.len() - self.cursor) as u64
    }

    /// The earliest buffered arrival.
    fn peek(&self) -> Option<Request> {
        self.arrivals.get(self.cursor).copied()
    }

    /// Mark the arrival [`Pending::peek`] returned offered.
    fn advance(&mut self) {
        self.cursor += 1;
    }

    /// Forget what a finished sweep offered, keeping the buffer.
    fn compact(&mut self) {
        self.arrivals.drain(..self.cursor);
        self.cursor = 0;
    }
}

/// Struct-of-arrays storage for every machine in the cluster.
///
/// Each field is a vector indexed by global machine id; the frequency
/// tables of all machines live concatenated in one flat slab. The
/// per-index methods take the instant they act at, so a caller owning a
/// clock (`ClusterSim`, or a test scheduler) can drive the state machine
/// directly.
#[derive(Debug, Clone)]
pub struct MachineSlabs {
    /// All machines' frequency tables, concatenated.
    freq_flat: Vec<f64>,
    /// Offset of machine `i`'s table inside `freq_flat`.
    freq_start: Vec<usize>,
    /// Length of machine `i`'s table.
    freq_len: Vec<usize>,
    freq_index: Vec<usize>,
    speed: Vec<f64>,
    power_model: Vec<PowerModel>,
    boot_delay: Vec<f64>,
    state: Vec<PowerState>,
    servers: Vec<Server>,
    meters: Vec<EnergyMeter>,
    stats: Vec<WindowStats>,
    switch_ons: Vec<u64>,
    switch_offs: Vec<u64>,
    lifetime_completions: Vec<u64>,
    energy_drained: Vec<f64>,
    service_scale: Vec<f64>,
    failed: Vec<bool>,
}

impl MachineSlabs {
    /// An empty slab set.
    pub fn new() -> Self {
        MachineSlabs {
            freq_flat: Vec::new(),
            freq_start: Vec::new(),
            freq_len: Vec::new(),
            freq_index: Vec::new(),
            speed: Vec::new(),
            power_model: Vec::new(),
            boot_delay: Vec::new(),
            state: Vec::new(),
            servers: Vec::new(),
            meters: Vec::new(),
            stats: Vec::new(),
            switch_ons: Vec::new(),
            switch_offs: Vec::new(),
            lifetime_completions: Vec::new(),
            energy_drained: Vec::new(),
            service_scale: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Append one machine, initially `Off` at time 0, and return its
    /// index. Validation matches the old `Computer::new`.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty, unsorted, or non-positive; if
    /// `speed <= 0`; or if `boot_delay < 0`.
    pub fn push(
        &mut self,
        frequencies: &[f64],
        speed: f64,
        power_model: PowerModel,
        boot_delay: f64,
    ) -> usize {
        assert!(!frequencies.is_empty(), "need at least one frequency");
        assert!(
            frequencies.windows(2).all(|w| w[0] < w[1]),
            "frequencies must be strictly ascending"
        );
        assert!(
            frequencies[0] > 0.0 && frequencies.iter().all(|f| f.is_finite()),
            "frequencies must be positive and finite"
        );
        assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
        assert!(
            boot_delay >= 0.0,
            "boot delay must be non-negative (may be +inf for a failed machine)"
        );
        let i = self.state.len();
        self.freq_start.push(self.freq_flat.len());
        self.freq_len.push(frequencies.len());
        self.freq_flat.extend_from_slice(frequencies);
        self.freq_index.push(frequencies.len() - 1);
        self.speed.push(speed);
        self.power_model.push(power_model);
        self.boot_delay.push(boot_delay);
        self.state.push(PowerState::Off);
        self.servers.push(Server::new(1.0));
        self.meters.push(EnergyMeter::new(0.0, 0.0));
        self.stats.push(WindowStats::default());
        self.switch_ons.push(0);
        self.switch_offs.push(0);
        self.lifetime_completions.push(0);
        self.energy_drained.push(0.0);
        self.service_scale.push(1.0);
        self.failed.push(false);
        i
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// `true` when no machines have been pushed.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Machine `i`'s frequency table (Hz, ascending).
    pub fn frequencies(&self, i: usize) -> &[f64] {
        let start = self.freq_start[i];
        &self.freq_flat[start..start + self.freq_len[i]]
    }

    /// Index of machine `i`'s current frequency setting.
    pub fn frequency_index(&self, i: usize) -> usize {
        self.freq_index[i]
    }

    /// Machine `i`'s current absolute frequency in Hz.
    #[cfg(test)]
    pub(crate) fn frequency(&self, i: usize) -> f64 {
        self.freq_flat[self.freq_start[i] + self.freq_index[i]]
    }

    /// Machine `i`'s scaling factor `φ = u / u_max ∈ (0, 1]`.
    pub(crate) fn phi(&self, i: usize) -> f64 {
        phi_at(
            &self.freq_flat,
            self.freq_start[i],
            self.freq_len[i],
            self.freq_index[i],
        )
    }

    /// Machine `i`'s relative full-speed capacity.
    pub fn speed(&self, i: usize) -> f64 {
        self.speed[i]
    }

    /// Machine `i`'s configured boot dead time in seconds.
    pub fn boot_delay(&self, i: usize) -> f64 {
        self.boot_delay[i]
    }

    /// Power state of machine `i`.
    pub fn state(&self, i: usize) -> PowerState {
        self.state[i]
    }

    /// `true` if machine `i` counts as "on" for the α vector (booting
    /// counts: the switch-on decision has been taken).
    pub fn is_active(&self, i: usize) -> bool {
        !matches!(self.state[i], PowerState::Off)
    }

    /// Requests in machine `i`'s system (queued + in service).
    pub fn queue_length(&self, i: usize) -> usize {
        self.servers[i].queue_length()
    }

    /// Total completed requests over machine `i`'s lifetime.
    pub fn completed(&self, i: usize) -> u64 {
        self.stats[i].completions + self.lifetime_completions[i]
    }

    /// Switch-on transitions so far (chattering metric).
    pub fn switch_ons(&self, i: usize) -> u64 {
        self.switch_ons[i]
    }

    /// Switch-off orders so far.
    #[cfg(test)]
    pub(crate) fn switch_offs(&self, i: usize) -> u64 {
        self.switch_offs[i]
    }

    /// Energy machine `i` consumed up to `now` (power·seconds).
    pub fn energy_at(&self, i: usize, now: f64) -> f64 {
        let mut m = self.meters[i];
        m.advance(now);
        m.energy()
    }

    /// Machine `i`'s current drift-injection factor on delivered capacity.
    #[cfg(test)]
    pub(crate) fn service_scale(&self, i: usize) -> f64 {
        self.service_scale[i]
    }

    /// `true` while machine `i` is crashed and unbootable.
    #[cfg(test)]
    pub(crate) fn is_failed(&self, i: usize) -> bool {
        self.failed[i]
    }

    /// Machine `i`'s in-progress window statistics (no reset).
    pub fn stats(&self, i: usize) -> &WindowStats {
        &self.stats[i]
    }

    /// Exclusive view of machine `i`, with `φ` as it stands now.
    fn machine(&mut self, i: usize) -> Machine<'_> {
        let phi = self.phi(i);
        Machine {
            state: &mut self.state[i],
            server: &mut self.servers[i],
            meter: &mut self.meters[i],
            stats: &mut self.stats[i],
            phi,
            speed: self.speed[i],
            power: self.power_model[i],
        }
    }

    /// Exclusive views of every machine at once, in index order — what
    /// the window sweep shards across threads.
    pub(crate) fn machines_mut(&mut self) -> impl Iterator<Item = Machine<'_>> {
        let MachineSlabs {
            freq_flat,
            freq_start,
            freq_len,
            freq_index,
            speed,
            power_model,
            state,
            servers,
            meters,
            stats,
            ..
        } = self;
        let slots = state.iter_mut().zip(servers).zip(meters).zip(stats);
        slots
            .enumerate()
            .map(|(i, (((state, server), meter), stats))| Machine {
                state,
                server,
                meter,
                stats,
                phi: phi_at(freq_flat, freq_start[i], freq_len[i], freq_index[i]),
                speed: speed[i],
                power: power_model[i],
            })
    }

    fn refresh_power(&mut self, i: usize, now: f64) {
        self.machine(i).refresh_power(now);
    }

    /// Order machine `i` on at `now`. Returns `Some(ready_at)` when a
    /// boot was started, `None` when the order was a no-op (already
    /// on/booting, or crashed) or an instant recovery from `Draining`.
    pub fn power_on(&mut self, i: usize, now: f64) -> Option<f64> {
        if self.failed[i] {
            return None; // a crashed machine is unbootable until repaired
        }
        match self.state[i] {
            PowerState::Off => {
                let ready_at = now + self.boot_delay[i];
                self.state[i] = PowerState::Booting { ready_at };
                self.switch_ons[i] += 1;
                self.refresh_power(i, now);
                Some(ready_at)
            }
            PowerState::Draining => {
                self.state[i] = PowerState::On;
                self.refresh_power(i, now);
                None
            }
            PowerState::Booting { .. } | PowerState::On => None,
        }
    }

    /// Initialization helper: put machine `i` straight into `On` without
    /// a boot delay or switch-on accounting.
    pub fn force_on(&mut self, i: usize, now: f64) {
        self.state[i] = PowerState::On;
        self.servers[i].start_next(now);
        self.refresh_power(i, now);
    }

    /// Complete machine `i`'s boot at `now`. Returns `true` if a queued
    /// request just started service.
    pub fn finish_boot(&mut self, i: usize, now: f64) -> bool {
        self.machine(i).finish_boot(now)
    }

    /// Order machine `i` off at `now`. A busy machine drains first; a
    /// booting machine cancels its boot.
    pub fn power_off(&mut self, i: usize, now: f64) {
        match self.state[i] {
            PowerState::On => {
                self.switch_offs[i] += 1;
                self.state[i] = if self.servers[i].queue_length() > 0 {
                    PowerState::Draining
                } else {
                    PowerState::Off
                };
                self.refresh_power(i, now);
            }
            PowerState::Booting { .. } => {
                self.switch_offs[i] += 1;
                self.state[i] = PowerState::Off;
                self.refresh_power(i, now);
            }
            PowerState::Off | PowerState::Draining => {}
        }
    }

    /// Crash machine `i` at `now`: every request in the system is ripped
    /// out and returned in FCFS order with demands rescaled back to
    /// reference units; the state drops straight to `Off` and the machine
    /// is marked failed (unbootable until [`MachineSlabs::repair`]).
    pub fn fail(&mut self, i: usize, now: f64) -> Vec<Request> {
        let speed = self.speed[i];
        let lost: Vec<Request> = self.servers[i]
            .drain()
            .into_iter()
            .map(|r| Request::new(r.id, r.arrival, r.demand * speed))
            .collect();
        self.state[i] = PowerState::Off;
        self.failed[i] = true;
        self.refresh_power(i, now);
        lost
    }

    /// Repair a crashed machine: clears the failed mark so the next
    /// power-on boots it through the normal dead time.
    pub fn repair(&mut self, i: usize, _now: f64) {
        self.failed[i] = false;
    }

    /// The scaling factor machine `i`'s server actually serves at: the
    /// DVFS `φ` times the injected capacity drift.
    fn effective_phi(&self, i: usize) -> f64 {
        self.phi(i) * self.service_scale[i]
    }

    /// Select machine `i`'s frequency by index at `now`. Returns the new
    /// completion time of the in-service request, if any.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_frequency_index(&mut self, i: usize, index: usize, now: f64) -> Option<f64> {
        assert!(index < self.freq_len[i], "frequency index out of range");
        self.freq_index[i] = index;
        let phi = self.effective_phi(i);
        let completion = self.servers[i].set_phi(phi, now);
        self.refresh_power(i, now);
        completion
    }

    /// Inject capacity drift into machine `i` at `now`: DVFS setting and
    /// power draw stay nominal, delivered throughput scales by `scale`.
    /// Returns the in-service request's new completion time, if any.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is outside `(0, 1]`.
    pub fn set_service_scale(&mut self, i: usize, scale: f64, now: f64) -> Option<f64> {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "service scale must lie in (0, 1], got {scale}"
        );
        self.service_scale[i] = scale;
        let phi = self.effective_phi(i);
        self.servers[i].set_phi(phi, now)
    }

    /// Offer a request to machine `i` at `now`. The request's reference
    /// demand is scaled by the machine's speed.
    pub fn offer(&mut self, i: usize, request: Request, now: f64) -> Admission {
        self.machine(i).offer(request, now)
    }

    /// Current completion time of machine `i`'s in-service request.
    pub fn completion_time(&self, i: usize) -> Option<f64> {
        completion_time(self.state[i], &self.servers[i])
    }

    /// Complete machine `i`'s in-service request at `now`, recording
    /// response-time and demand observations; auto-transitions
    /// `Draining → Off` when the queue empties. Returns the finished
    /// request.
    ///
    /// # Panics
    ///
    /// Panics if no request is in service.
    pub fn complete(&mut self, i: usize, now: f64) -> Request {
        self.machine(i).complete(now)
    }

    /// Drain and reset machine `i`'s window statistics, stamping the
    /// energy drawn since the previous drain.
    pub fn drain_stats(&mut self, i: usize, now: f64) -> WindowStats {
        let mut w = self.stats[i].drain();
        let total = self.energy_at(i, now);
        w.energy = total - self.energy_drained[i];
        self.energy_drained[i] = total;
        self.lifetime_completions[i] += w.completions;
        w
    }
}

impl Default for MachineSlabs {
    fn default() -> Self {
        MachineSlabs::new()
    }
}

/// Read-only view of one machine, handed out by `ClusterSim::computer`.
///
/// Replaces the old `&Computer` return type; every accessor the workspace
/// used on `Computer` is available here with the same name and meaning,
/// so `sim.computer(i).state()`-style call sites compile unchanged.
#[derive(Debug, Clone, Copy)]
pub struct ComputerRef<'a> {
    slabs: &'a MachineSlabs,
    i: usize,
}

impl<'a> ComputerRef<'a> {
    pub(crate) fn new(slabs: &'a MachineSlabs, i: usize) -> Self {
        ComputerRef { slabs, i }
    }

    /// The available frequency set (Hz, ascending).
    pub fn frequencies(&self) -> &'a [f64] {
        self.slabs.frequencies(self.i)
    }

    /// Index of the current frequency setting.
    pub fn frequency_index(&self) -> usize {
        self.slabs.frequency_index(self.i)
    }

    /// Relative full-speed capacity of this computer.
    pub fn speed(&self) -> f64 {
        self.slabs.speed(self.i)
    }

    /// Configured boot dead time in seconds.
    pub fn boot_delay(&self) -> f64 {
        self.slabs.boot_delay(self.i)
    }

    /// Power-state of the machine.
    pub fn state(&self) -> PowerState {
        self.slabs.state(self.i)
    }

    /// `true` if the computer counts as "on" for the α vector.
    pub fn is_active(&self) -> bool {
        self.slabs.is_active(self.i)
    }

    /// Requests in the system (queued + in service) — observed `q(k)`.
    pub fn queue_length(&self) -> usize {
        self.slabs.queue_length(self.i)
    }

    /// Total completed requests over the computer's lifetime.
    pub fn completed(&self) -> u64 {
        self.slabs.completed(self.i)
    }

    /// Number of switch-on transitions so far (chattering metric).
    pub fn switch_ons(&self) -> u64 {
        self.slabs.switch_ons(self.i)
    }

    /// Energy consumed up to `now` (power·seconds).
    pub fn energy_at(&self, now: f64) -> f64 {
        self.slabs.energy_at(self.i, now)
    }

    /// Current drift-injection factor on delivered capacity.
    #[cfg(test)]
    pub(crate) fn service_scale(&self) -> f64 {
        self.slabs.service_scale(self.i)
    }

    /// `true` while the machine is crashed and unbootable.
    #[cfg(test)]
    pub(crate) fn is_failed(&self) -> bool {
        self.slabs.is_failed(self.i)
    }

    /// Peek at the in-progress window statistics without resetting.
    pub fn stats(&self) -> &'a WindowStats {
        self.slabs.stats(self.i)
    }

    /// Current completion time of the in-service request (if serving).
    pub fn completion_time(&self) -> Option<f64> {
        self.slabs.completion_time(self.i)
    }
}

/// `φ = u / u_max` for a machine whose table of `len` frequencies starts
/// at `start` in `flat`, operating at entry `index`.
fn phi_at(flat: &[f64], start: usize, len: usize, index: usize) -> f64 {
    flat[start + index] / flat[start + len - 1]
}

/// Completion time of the in-service request of a machine in `state`.
fn completion_time(state: PowerState, server: &Server) -> Option<f64> {
    if matches!(state, PowerState::On | PowerState::Draining) {
        server.completion_time()
    } else {
        None
    }
}

/// Exclusive view of one machine's mutable slots plus the parameters its
/// state machine reads. Admission, completion, boot-done and power
/// refresh are implemented here and nowhere else.
#[derive(Debug)]
pub(crate) struct Machine<'a> {
    state: &'a mut PowerState,
    server: &'a mut Server,
    meter: &'a mut EnergyMeter,
    stats: &'a mut WindowStats,
    phi: f64,
    speed: f64,
    power: PowerModel,
}

impl Machine<'_> {
    /// Instantaneous power draw implied by the current state.
    fn current_power(&self) -> f64 {
        match *self.state {
            PowerState::Off => 0.0,
            PowerState::Booting { .. } => self.power.boot_cost(),
            PowerState::On | PowerState::Draining => {
                if self.server.busy() {
                    self.power.operating(self.phi)
                } else {
                    self.power.base_cost()
                }
            }
        }
    }

    fn refresh_power(&mut self, now: f64) {
        let p = self.current_power();
        self.meter.set_power(p, now);
    }

    fn finish_boot(&mut self, now: f64) -> bool {
        debug_assert!(matches!(*self.state, PowerState::Booting { .. }));
        *self.state = PowerState::On;
        let started = self.server.start_next(now);
        self.refresh_power(now);
        started
    }

    fn offer(&mut self, request: Request, now: f64) -> Admission {
        let scaled = Request::new(request.id, request.arrival, request.demand / self.speed);
        match *self.state {
            PowerState::On => {
                self.stats.arrivals += 1;
                if self.server.enqueue(scaled, now) {
                    self.refresh_power(now);
                    Admission::Started
                } else {
                    Admission::Queued
                }
            }
            PowerState::Booting { .. } => {
                self.stats.arrivals += 1;
                self.server.enqueue_waiting(scaled);
                Admission::Queued
            }
            PowerState::Off | PowerState::Draining => Admission::Rejected,
        }
    }

    fn complete(&mut self, now: f64) -> Request {
        let finished = self.server.complete(now);
        self.stats.completions += 1;
        self.stats.response_sum += finished.response_time(now);
        self.stats.demand_sum += finished.demand;
        if matches!(*self.state, PowerState::Draining) && self.server.queue_length() == 0 {
            *self.state = PowerState::Off;
        }
        self.refresh_power(now);
        finished
    }
}

/// One machine and its buffered arrivals, ready for a window sweep. Lanes
/// borrow disjoint slab slots, so `llc_par::par_for_each_mut` can hand
/// each worker its own; a lane's timeline (arrivals × completions ×
/// boot-done) touches nothing outside it, so the result is bit-identical
/// for any shard count by construction.
#[derive(Debug)]
pub(crate) struct MachineLane<'a> {
    machine: Machine<'a>,
    pending: &'a mut Pending,
    /// Output: arrivals this machine refused (Off/Draining), to be
    /// charged as drops + dispatcher rejections by the serial reducer.
    pub rejected: u64,
}

impl<'a> MachineLane<'a> {
    pub(crate) fn new(machine: Machine<'a>, pending: &'a mut Pending) -> Self {
        MachineLane {
            machine,
            pending,
            rejected: 0,
        }
    }

    /// Advance this machine's local timeline to `to`, offering it every
    /// buffered arrival due by then. At equal timestamps boot-done fires
    /// first, then completions, then arrivals; any other tie order
    /// differs only by zero-duration intervals, so stats and energy come
    /// out the same.
    pub(crate) fn step(&mut self, to: f64) {
        #[derive(Clone, Copy)]
        enum Kind {
            Ready,
            Completion,
            Arrival,
        }
        let mut arrival = self.pending.peek();
        loop {
            let ready = match *self.machine.state {
                PowerState::Booting { ready_at } => Some(ready_at),
                _ => None,
            };
            let completion = completion_time(*self.machine.state, self.machine.server);
            // Earliest event not past the sweep's end; first wins ties.
            let mut best: Option<(f64, Kind)> = None;
            for (t, kind) in [
                (ready, Kind::Ready),
                (completion, Kind::Completion),
                (arrival.map(|request| request.arrival), Kind::Arrival),
            ] {
                if let Some(t) = t {
                    if t <= to && best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, kind));
                    }
                }
            }
            let Some((t, kind)) = best else {
                break;
            };
            match kind {
                Kind::Ready => {
                    self.machine.finish_boot(t);
                }
                Kind::Completion => {
                    self.machine.complete(t);
                }
                Kind::Arrival => {
                    let request = arrival.expect("an arrival was the earliest event");
                    self.pending.advance();
                    if self.machine.offer(request, t) == Admission::Rejected {
                        self.rejected += 1;
                    }
                    arrival = self.pending.peek();
                }
            }
        }
        self.pending.compact();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab() -> MachineSlabs {
        let mut s = MachineSlabs::new();
        s.push(&[6.0e8, 1.2e9], 1.0, PowerModel::paper_default(), 120.0);
        s
    }

    #[test]
    fn starts_off_with_max_frequency_selected() {
        let s = slab();
        assert_eq!(s.state(0), PowerState::Off);
        assert_eq!(s.phi(0), 1.0);
        assert_eq!(s.frequency(0), 1.2e9);
        assert!(!s.is_active(0));
        assert_eq!(s.frequencies(0), &[6.0e8, 1.2e9]);
    }

    #[test]
    fn boot_sequence() {
        let mut s = slab();
        let ready = s.power_on(0, 0.0).expect("boot starts");
        assert_eq!(ready, 120.0);
        assert!(matches!(s.state(0), PowerState::Booting { .. }));
        assert!(s.is_active(0));
        assert_eq!(s.power_on(0, 1.0), None, "double power-on is a no-op");
        s.finish_boot(0, 120.0);
        assert_eq!(s.state(0), PowerState::On);
    }

    #[test]
    fn offers_while_booting_queue_and_start_at_boot() {
        let mut s = slab();
        s.power_on(0, 0.0);
        let adm = s.offer(0, Request::new(1, 10.0, 0.02), 10.0);
        assert_eq!(adm, Admission::Queued);
        assert_eq!(s.queue_length(0), 1);
        assert_eq!(s.completion_time(0), None, "not serving while booting");
        let started = s.finish_boot(0, 120.0);
        assert!(started);
        assert_eq!(s.completion_time(0), Some(120.02));
    }

    #[test]
    fn off_machine_rejects() {
        let mut s = slab();
        assert_eq!(
            s.offer(0, Request::new(1, 0.0, 0.01), 0.0),
            Admission::Rejected
        );
    }

    #[test]
    fn draining_completes_then_turns_off() {
        let mut s = slab();
        s.power_on(0, 0.0);
        s.finish_boot(0, 120.0);
        assert_eq!(
            s.offer(0, Request::new(1, 120.0, 1.0), 120.0),
            Admission::Started
        );
        s.power_off(0, 120.5);
        assert_eq!(s.state(0), PowerState::Draining);
        assert_eq!(
            s.offer(0, Request::new(2, 120.6, 1.0), 120.6),
            Admission::Rejected
        );
        let done = s.complete(0, 121.0);
        assert_eq!(done.id, 1);
        assert_eq!(s.state(0), PowerState::Off);
    }

    #[test]
    fn draining_recovers_to_on() {
        let mut s = slab();
        s.power_on(0, 0.0);
        s.finish_boot(0, 120.0);
        s.offer(0, Request::new(1, 120.0, 1.0), 120.0);
        s.power_off(0, 120.1);
        assert_eq!(s.state(0), PowerState::Draining);
        assert_eq!(s.power_on(0, 120.2), None);
        assert_eq!(s.state(0), PowerState::On);
    }

    #[test]
    fn cancel_boot() {
        let mut s = slab();
        s.power_on(0, 0.0);
        s.power_off(0, 10.0);
        assert_eq!(s.state(0), PowerState::Off);
        assert_eq!(s.switch_ons(0), 1);
        assert_eq!(s.switch_offs(0), 1);
    }

    #[test]
    fn speed_scales_demand() {
        let mut s = MachineSlabs::new();
        s.push(&[1.0e9], 2.0, PowerModel::paper_default(), 0.0);
        s.power_on(0, 0.0);
        s.finish_boot(0, 0.0);
        s.offer(0, Request::new(1, 0.0, 1.0), 0.0);
        assert_eq!(s.completion_time(0), Some(0.5), "2x speed halves service");
    }

    #[test]
    fn frequency_change_rescales_service() {
        let mut s = slab();
        s.power_on(0, 0.0);
        s.finish_boot(0, 0.0);
        s.offer(0, Request::new(1, 0.0, 1.0), 0.0);
        assert_eq!(s.completion_time(0), Some(1.0));
        let new_t = s.set_frequency_index(0, 0, 0.5); // φ = 0.5
        assert_eq!(new_t, Some(1.5), "0.5 remaining at half speed");
        assert_eq!(s.phi(0), 0.5);
    }

    #[test]
    fn energy_accounting_across_states() {
        let mut s = MachineSlabs::new();
        s.push(&[1.0e9], 1.0, PowerModel::new(0.75, 8.0), 10.0);
        assert_eq!(s.energy_at(0, 100.0), 0.0, "off draws nothing");
        s.power_on(0, 100.0);
        // 10 s of booting at 8.0 -> 80.
        s.finish_boot(0, 110.0);
        assert!((s.energy_at(0, 110.0) - 80.0).abs() < 1e-9);
        // 5 s idle-on at base 0.75 -> +3.75.
        s.offer(0, Request::new(1, 115.0, 2.0), 115.0);
        assert!((s.energy_at(0, 115.0) - 83.75).abs() < 1e-9);
        // 2 s busy at 0.75 + 1.0 = 1.75 -> +3.5.
        s.complete(0, 117.0);
        assert!((s.energy_at(0, 117.0) - 87.25).abs() < 1e-9);
    }

    #[test]
    fn stats_capture_response_times() {
        let mut s = slab();
        s.power_on(0, 0.0);
        s.finish_boot(0, 0.0);
        s.offer(0, Request::new(1, 0.0, 0.5), 0.0);
        s.offer(0, Request::new(2, 0.0, 0.5), 0.0);
        s.complete(0, 0.5);
        s.complete(0, 1.0);
        let w = s.drain_stats(0, 1.0);
        assert_eq!(w.arrivals, 2);
        assert_eq!(w.completions, 2);
        assert!((w.response_sum - 1.5).abs() < 1e-12);
        assert_eq!(w.mean_demand(), Some(0.5));
        // 1 s busy at operating power 0.75 + 1.0 (instant boot at t = 0).
        assert!((w.energy - 1.75).abs() < 1e-9, "window energy {}", w.energy);
        assert_eq!(s.stats(0).completions, 0, "drained");
        assert_eq!(s.completed(0), 2, "lifetime total survives drain");
        // The next window starts from a clean energy mark.
        let w2 = s.drain_stats(0, 2.0);
        assert!((w2.energy - 0.75).abs() < 1e-9, "1 s idle-on at base cost");
    }

    #[test]
    fn crash_drops_to_off_and_returns_work_in_reference_units() {
        let mut s = MachineSlabs::new();
        s.push(&[1.0e9], 2.0, PowerModel::paper_default(), 0.0);
        s.power_on(0, 0.0);
        s.finish_boot(0, 0.0);
        s.offer(0, Request::new(1, 0.0, 1.0), 0.0);
        s.offer(0, Request::new(2, 0.0, 0.5), 0.0);
        let lost = s.fail(0, 0.1);
        assert_eq!(s.state(0), PowerState::Off);
        assert!(s.is_failed(0));
        assert_eq!(s.queue_length(0), 0);
        assert_eq!(lost.len(), 2);
        // FCFS order, demands un-scaled back to reference units (offer
        // divided by speed = 2.0).
        assert_eq!(lost[0].id, 1);
        assert!((lost[0].demand - 1.0).abs() < 1e-12);
        assert!((lost[1].demand - 0.5).abs() < 1e-12);
        assert_eq!(
            s.energy_at(0, 10.0),
            s.energy_at(0, 0.1),
            "off draws nothing"
        );
    }

    #[test]
    fn failed_machine_refuses_power_on_until_repaired() {
        let mut s = slab();
        s.power_on(0, 0.0);
        s.finish_boot(0, 120.0);
        s.fail(0, 130.0);
        assert_eq!(s.power_on(0, 131.0), None, "unbootable while failed");
        assert_eq!(s.state(0), PowerState::Off);
        assert_eq!(
            s.offer(0, Request::new(1, 131.0, 0.02), 131.0),
            Admission::Rejected
        );
        s.repair(0, 200.0);
        assert!(!s.is_failed(0));
        let ready = s.power_on(0, 200.0).expect("boots normally after repair");
        assert_eq!(ready, 320.0, "normal boot dead time applies");
    }

    #[test]
    fn infinite_boot_delay_never_ready() {
        let mut s = MachineSlabs::new();
        s.push(&[1.0e9], 1.0, PowerModel::paper_default(), f64::INFINITY);
        let ready = s.power_on(0, 0.0).unwrap();
        assert!(ready.is_infinite(), "failed machine never boots");
    }

    /// Sweep machine 0 to `to`; returns what it refused.
    fn sweep(s: &mut MachineSlabs, pending: &mut Pending, to: f64) -> u64 {
        let mut lane = MachineLane::new(s.machine(0), pending);
        lane.step(to);
        lane.rejected
    }

    #[test]
    fn lane_step_matches_eventwise_service() {
        // One machine, three evenly spaced 1 s requests: the lane's local
        // event loop must produce the stats the slab methods called one
        // by one would (responses 1, 2, 3 s minus the staggered arrivals).
        let mut s = MachineSlabs::new();
        s.push(&[1.0e9], 1.0, PowerModel::new(0.75, 8.0), 0.0);
        s.force_on(0, 0.0);
        let mut pending = Pending::default();
        for k in 0..3 {
            pending.push(Request::new(k, k as f64 * 0.5, 1.0));
        }
        assert_eq!(sweep(&mut s, &mut pending, 10.0), 0);
        assert_eq!(pending.len(), 0);
        let w = s.drain_stats(0, 10.0);
        assert_eq!(w.arrivals, 3);
        assert_eq!(w.completions, 3);
        // Arrivals at 0, 0.5, 1.0; completions at 1, 2, 3.
        assert!((w.response_sum - (1.0 + 1.5 + 2.0)).abs() < 1e-9);
        // Busy 0..3 at 1.75, idle 3..10 at 0.75.
        assert!((w.energy - (3.0 * 1.75 + 7.0 * 0.75)).abs() < 1e-9);
    }

    #[test]
    fn lane_rejects_every_arrival_when_off() {
        let mut s = MachineSlabs::new();
        s.push(&[1.0e9], 1.0, PowerModel::paper_default(), 0.0);
        let mut pending = Pending::default();
        for k in 0..7 {
            pending.push(Request::new(k, k as f64 * 0.1, 0.01));
        }
        let rejected = sweep(&mut s, &mut pending, 1.0);
        assert_eq!(rejected, 7, "an off machine refuses its allotment");
        assert_eq!(s.stats(0).arrivals, 0);
    }

    #[test]
    fn lane_queues_through_boot_and_serves_at_ready() {
        let mut s = slab();
        s.power_on(0, 0.0); // ready at 120
        let mut pending = Pending::default();
        pending.push(Request::new(5, 60.0, 1.0));
        sweep(&mut s, &mut pending, 125.0);
        assert_eq!(s.state(0), PowerState::On);
        let w = s.drain_stats(0, 125.0);
        assert_eq!(w.completions, 1);
        // Arrived at 60, served 120..121 (φ = 1, speed 1): response 61.
        assert!((w.response_sum - 61.0).abs() < 1e-9, "{}", w.response_sum);
    }
}
