//! Open-loop accounting: requests are due on a fixed schedule whatever
//! the server does, and each request's latency runs from its *due* time,
//! so a stall charges every request queued behind it.

use std::time::Duration;

/// Due offsets of `n` requests sent at `rate` per second from time zero.
pub fn due_times(n: usize, rate: f64) -> Vec<Duration> {
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// One request's timestamps, as offsets from the schedule's time zero.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When the server started on it.
    pub start: Duration,
    /// When the reply was complete.
    pub end: Duration,
    /// Whether the request succeeded.
    pub ok: bool,
}

/// Per-request figures derived from [`Sample`]s, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Due → reply complete.
    pub latency_ms: Vec<f64>,
    /// Due → service start.
    pub queue_wait_ms: Vec<f64>,
    /// Service start → reply complete.
    pub service_ms: Vec<f64>,
    /// Due → actually sent: how late the generator ran.
    pub lag_ms: Vec<f64>,
    /// Successful requests whose latency met the limit.
    pub good: usize,
    /// Time zero → last reply, seconds.
    pub elapsed_s: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Accounts `samples` against a latency `limit`. A failed request never
/// counts as meeting the limit.
pub fn account(samples: &[Sample], limit: Duration) -> Accounting {
    let mut a = Accounting::default();
    for s in samples {
        let latency = s.end.saturating_sub(s.due);
        a.latency_ms.push(ms(latency));
        a.queue_wait_ms.push(ms(s.start.saturating_sub(s.due)));
        a.service_ms.push(ms(s.end.saturating_sub(s.start)));
        a.lag_ms.push(ms(s.sent.saturating_sub(s.due)));
        if s.ok && latency <= limit {
            a.good += 1;
        }
        a.elapsed_s = a.elapsed_s.max(s.end.as_secs_f64());
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    /// A FIFO server: each request starts when it arrives or when the
    /// previous one ends, whichever is later.
    fn serve_fifo(due: &[Duration], service: &[u64]) -> Vec<Sample> {
        let mut free = Duration::ZERO;
        due.iter()
            .zip(service)
            .map(|(&due, &svc)| {
                let start = due.max(free);
                free = start + at(svc);
                Sample {
                    due,
                    sent: due,
                    start,
                    end: free,
                    ok: true,
                }
            })
            .collect()
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let due = due_times(4, 100.0);
        assert_eq!(due, vec![at(0), at(10), at(20), at(30)]);
    }

    #[test]
    fn a_stall_charges_the_requests_queued_behind_it() {
        let due = due_times(4, 100.0);
        // The first request stalls for 100 ms; the rest take 5 ms each.
        let a = account(&serve_fifo(&due, &[100, 5, 5, 5]), at(50));
        assert_eq!(a.service_ms, vec![100.0, 5.0, 5.0, 5.0]);
        // Measured from the due time, the followers wait out the stall.
        assert_eq!(a.latency_ms, vec![100.0, 95.0, 90.0, 85.0]);
        assert_eq!(a.queue_wait_ms, vec![0.0, 90.0, 85.0, 80.0]);
        assert_eq!(a.good, 0);
        assert_eq!(a.elapsed_s, 0.115);
        // Without the stall every request meets the limit.
        let a = account(&serve_fifo(&due, &[5, 5, 5, 5]), at(50));
        assert_eq!(a.latency_ms, vec![5.0; 4]);
        assert_eq!(a.good, 4);
    }

    #[test]
    fn failures_miss_the_limit_and_lag_is_reported() {
        let mut s = serve_fifo(&due_times(2, 10.0), &[1, 1]);
        s[0].ok = false;
        s[1].sent = s[1].due + at(3);
        let a = account(&s, at(50));
        assert_eq!(a.good, 1);
        assert_eq!(a.lag_ms, vec![0.0, 3.0]);
    }
}
