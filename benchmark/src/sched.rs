//! The open-loop arrival schedule.
//!
//! Independent analysts do not wait for each other, so `serve_short`'s
//! latency phase sends OPENs on a fixed schedule whatever the server is
//! doing. Each request's latency counts from when it was *due*, not from
//! when the generator got round to sending it: a stall anywhere (server or
//! generator) is then charged to every request it delayed, instead of
//! silently thinning the load. How late the generator itself ran is
//! reported beside the latencies.
//!
//! Times are nanoseconds since the phase began, so tests can drive the
//! schedule with a made-up clock.

/// A request counts as sent late when the generator sent it more than this
/// long after it was due.
pub const LATE_NS: u64 = 1_000_000;

/// Fixed-rate arrivals: request `i` is due at `i · interval`.
#[derive(Debug, Clone)]
pub struct Schedule {
    interval_ns: f64,
    end_ns: u64,
    issued: u64,
}

impl Schedule {
    pub fn new(rate_per_s: f64, duration_ns: u64) -> Self {
        assert!(rate_per_s > 0.0);
        Schedule {
            interval_ns: 1e9 / rate_per_s,
            end_ns: duration_ns,
            issued: 0,
        }
    }

    fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * self.interval_ns) as u64
    }

    /// If the next request is due at or before `now_ns` (and before the
    /// phase ends), returns its due time and moves on to the one after.
    pub fn take_due(&mut self, now_ns: u64) -> Option<u64> {
        let due = self.due_ns(self.issued);
        (due <= now_ns && due < self.end_ns).then(|| {
            self.issued += 1;
            due
        })
    }

    /// True once every request of the phase has been handed out.
    #[cfg(test)]
    pub fn exhausted(&self) -> bool {
        self.due_ns(self.issued) >= self.end_ns
    }
}

/// How late the generator ran.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lateness {
    pub sent: u64,
    pub late: u64,
    pub max_ns: u64,
}

impl Lateness {
    pub fn note(&mut self, due_ns: u64, sent_ns: u64) {
        let by = sent_ns.saturating_sub(due_ns);
        self.sent += 1;
        self.late += u64::from(by > LATE_NS);
        self.max_ns = self.max_ns.max(by);
    }

    pub fn late_share(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.late as f64 / self.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_come_due_on_the_grid_and_stop_at_the_end() {
        let mut s = Schedule::new(1000.0, 5_000_000);
        assert_eq!(s.take_due(0), Some(0));
        assert_eq!(s.take_due(0), None, "second request is due at 1 ms");
        assert_eq!(s.take_due(999_999), None);
        assert_eq!(s.take_due(1_000_000), Some(1_000_000));
        // Far in the future: the remaining three come out with their own
        // due times, then nothing (request 5 would be due at the end).
        let rest: Vec<u64> = std::iter::from_fn(|| s.take_due(u64::MAX)).collect();
        assert_eq!(rest, vec![2_000_000, 3_000_000, 4_000_000]);
        assert!(s.exhausted());
    }

    /// A generator loop over a made-up clock that stalls for 20 ms: every
    /// request that came due during the stall is still sent, its latency
    /// counts from its due time, and the lateness account shows the stall.
    #[test]
    fn a_stall_is_charged_to_the_requests_it_delayed() {
        const SERVICE_NS: u64 = 100_000;
        let mut sched = Schedule::new(1000.0, 50_000_000);
        let mut lateness = Lateness::default();
        let mut latencies_ms = Vec::new();
        let mut now = 0u64;
        while !sched.exhausted() {
            while let Some(due) = sched.take_due(now) {
                lateness.note(due, now);
                let first_estimate = now + SERVICE_NS;
                latencies_ms.push((due, (first_estimate - due) as f64 / 1e6));
            }
            now += if now == 10_000_000 {
                20_000_000
            } else {
                50_000
            };
        }
        assert_eq!(latencies_ms.len(), 50, "no request is dropped");
        let of = |due_ms: u64| {
            latencies_ms
                .iter()
                .find(|(d, _)| *d == due_ms * 1_000_000)
                .unwrap()
                .1
        };
        assert!((of(5) - 0.1).abs() < 1e-9, "on time before the stall");
        assert!((of(11) - 19.1).abs() < 1e-9, "due 11 ms, sent at 30 ms");
        assert!((of(29) - 1.1).abs() < 1e-9);
        assert!((of(40) - 0.1).abs() < 1e-9, "recovered after the stall");
        // Due 11..=28 ms were sent more than 1 ms late (29 ms exactly 1 ms).
        assert_eq!(lateness.sent, 50);
        assert_eq!(lateness.late, 18);
        assert_eq!(lateness.max_ns, 19_000_000);
        assert!((lateness.late_share() - 0.36).abs() < 1e-12);
    }
}
