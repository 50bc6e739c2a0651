use crate::Request;
use std::collections::VecDeque;

/// A FCFS single-server queue with frequency-scaled service.
///
/// Work is measured in *demand seconds at full speed*; serving at scaling
/// factor `φ` consumes `φ` demand seconds per wall second, so a request
/// with demand `c` takes `c/φ` seconds of exclusive service. Frequency may
/// change mid-service: the remaining work is carried over and the
/// completion time re-derived, exactly like a processor whose DVFS setting
/// changed while a request executes.
///
/// The server itself is passive — it answers "when does the current job
/// finish?" and the owning timeline sweep asks again after every change.
#[derive(Debug, Clone)]
pub struct Server {
    queue: VecDeque<Request>,
    /// The job currently in service, with its remaining demand.
    in_service: Option<InService>,
    phi: f64,
}

#[derive(Debug, Clone, Copy)]
struct InService {
    request: Request,
    /// Remaining demand (seconds at full speed).
    remaining: f64,
    /// Last instant at which `remaining` was synchronized.
    synced_at: f64,
}

impl Server {
    /// An empty server at scaling factor `phi`.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is outside `(0, 1]`.
    pub fn new(phi: f64) -> Self {
        assert!(phi > 0.0 && phi <= 1.0, "φ must lie in (0, 1], got {phi}");
        Server {
            queue: VecDeque::new(),
            in_service: None,
            phi,
        }
    }

    /// Current frequency scaling factor `φ`.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Number of requests in the system (queued + in service) — the
    /// paper's observed queue length `q(k)`.
    pub fn queue_length(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    /// `true` if a request is being served.
    pub fn busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Enqueue an arrival at time `now`. Returns `true` if the request went
    /// straight into service.
    pub fn enqueue(&mut self, request: Request, now: f64) -> bool {
        if self.in_service.is_none() {
            self.in_service = Some(InService {
                request,
                remaining: request.demand,
                synced_at: now,
            });
            true
        } else {
            self.queue.push_back(request);
            false
        }
    }

    /// Completion time of the in-service request under the current `φ`,
    /// or `None` when idle.
    pub fn completion_time(&self) -> Option<f64> {
        self.in_service
            .as_ref()
            .map(|s| s.synced_at + s.remaining / self.phi)
    }

    /// Change the frequency at time `now`, crediting work done so far at
    /// the old frequency. Returns the new completion time if a job is in
    /// service.
    pub fn set_phi(&mut self, phi: f64, now: f64) -> Option<f64> {
        assert!(phi > 0.0 && phi <= 1.0, "φ must lie in (0, 1], got {phi}");
        if let Some(s) = self.in_service.as_mut() {
            let done = (now - s.synced_at) * self.phi;
            s.remaining = (s.remaining - done).max(0.0);
            s.synced_at = now;
        }
        self.phi = phi;
        self.completion_time()
    }

    /// Enqueue without starting service even when idle — used while the
    /// owning computer is still booting: requests wait for the machine.
    pub fn enqueue_waiting(&mut self, request: Request) {
        self.queue.push_back(request);
    }

    /// Promote the queue head into service if the server is idle. Returns
    /// `true` when a job entered service.
    pub fn start_next(&mut self, now: f64) -> bool {
        if self.in_service.is_some() {
            return false;
        }
        match self.queue.pop_front() {
            Some(next) => {
                self.in_service = Some(InService {
                    request: next,
                    remaining: next.demand,
                    synced_at: now,
                });
                true
            }
            None => false,
        }
    }

    /// Complete the in-service request at time `now` and promote the head
    /// of the queue. Returns the finished request; if another job starts,
    /// [`Server::completion_time`] says when it finishes.
    ///
    /// # Panics
    ///
    /// Panics if the server is idle.
    pub fn complete(&mut self, now: f64) -> Request {
        let finished = self
            .in_service
            .take()
            .expect("complete() called on an idle server")
            .request;
        if let Some(next) = self.queue.pop_front() {
            self.in_service = Some(InService {
                request: next,
                remaining: next.demand,
                synced_at: now,
            });
        }
        finished
    }

    /// Drain every request out of the system (used when a computer is
    /// force-killed in failure-injection tests). Returns them in FCFS
    /// order, in-service first.
    pub fn drain(&mut self) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.queue_length());
        if let Some(s) = self.in_service.take() {
            out.push(s.request);
        }
        out.extend(self.queue.drain(..));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, t: f64, c: f64) -> Request {
        Request::new(id, t, c)
    }

    #[test]
    fn single_job_completion_at_full_speed() {
        let mut s = Server::new(1.0);
        assert!(s.enqueue(req(1, 0.0, 2.0), 0.0));
        assert_eq!(s.completion_time(), Some(2.0));
        assert_eq!(s.queue_length(), 1);
    }

    #[test]
    fn half_speed_doubles_service_time() {
        let mut s = Server::new(0.5);
        s.enqueue(req(1, 0.0, 2.0), 0.0);
        assert_eq!(s.completion_time(), Some(4.0));
    }

    #[test]
    fn fcfs_ordering() {
        let mut s = Server::new(1.0);
        assert!(s.enqueue(req(1, 0.0, 1.0), 0.0));
        assert!(!s.enqueue(req(2, 0.1, 1.0), 0.1));
        assert!(!s.enqueue(req(3, 0.2, 1.0), 0.2));
        assert_eq!(s.queue_length(), 3);
        let done = s.complete(1.0);
        assert_eq!(done.id, 1);
        assert_eq!(s.completion_time(), Some(2.0));
        assert_eq!(s.complete(2.0).id, 2);
        assert_eq!(s.complete(3.0).id, 3);
        assert!(!s.busy());
    }

    #[test]
    fn mid_service_frequency_change_preserves_work() {
        let mut s = Server::new(1.0);
        s.enqueue(req(1, 0.0, 2.0), 0.0);
        // After 1 s at full speed, 1 demand-second remains. Dropping to
        // φ=0.5 stretches the remainder to 2 s: completion at t=3.
        let new_completion = s.set_phi(0.5, 1.0);
        assert_eq!(new_completion, Some(3.0));
        // Speeding back up at t=2 (0.5 demand-seconds left): done at 2.5.
        let new_completion = s.set_phi(1.0, 2.0);
        assert_eq!(new_completion, Some(2.5));
    }

    #[test]
    fn set_phi_on_idle_server_returns_none() {
        let mut s = Server::new(1.0);
        assert_eq!(s.set_phi(0.25, 5.0), None);
        assert_eq!(s.phi(), 0.25);
    }

    #[test]
    fn drain_returns_fcfs_order() {
        let mut s = Server::new(1.0);
        s.enqueue(req(1, 0.0, 1.0), 0.0);
        s.enqueue(req(2, 0.0, 1.0), 0.0);
        s.enqueue(req(3, 0.0, 1.0), 0.0);
        let drained = s.drain();
        assert_eq!(
            drained.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(s.queue_length(), 0);
    }

    #[test]
    #[should_panic(expected = "idle server")]
    fn complete_on_idle_panics() {
        let mut s = Server::new(1.0);
        let _ = s.complete(0.0);
    }

    #[test]
    fn work_conservation_across_many_switches() {
        // A 1-demand-second job served under alternating frequencies: the
        // total work delivered must equal the demand regardless of the
        // switching pattern.
        let mut s = Server::new(1.0);
        s.enqueue(req(1, 0.0, 1.0), 0.0);
        let phis = [0.25, 1.0, 0.5, 0.75, 1.0];
        for (i, &phi) in phis.iter().enumerate() {
            s.set_phi(phi, 0.1 * (i as f64 + 1.0));
        }
        // Work done in [0, 0.5]: 0.1·(1.0 initial + 0.25 + 1.0 + 0.5 + 0.75)
        // = 0.35. Remaining 0.65 at φ=1.0 finishes at 0.5 + 0.65 = 1.15.
        let done_at = s.completion_time().unwrap();
        assert!((done_at - 1.15).abs() < 1e-9, "{done_at}");
    }
}
