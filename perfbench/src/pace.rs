//! The closed loop both the socket run and the traced replay follow.
//!
//! The query side sends query `k` (0-based) once the ingest side has
//! `r·(k+1)` acks, and the ingest side sends line `i` only once query
//! `i/r − 2` has been answered. Each query thus overlaps the next `r`
//! ingest lines and no more, so the observe:query ratio is exactly `r`
//! however slow either side is, with at most one query in flight.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Default)]
struct State {
    acks: usize,
    answered: usize,
    /// The ingest side has stopped: no more acks will come.
    stopped: bool,
    /// The query side has stopped: no more answers will come.
    querier_done: bool,
}

pub struct Pace {
    ratio: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl Pace {
    pub fn new(ratio: usize) -> Pace {
        Pace {
            ratio: ratio.max(1),
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Neither side panics while holding the lock; a poisoned lock
        // still holds consistent counters.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn update(&self, f: impl FnOnce(&mut State)) {
        f(&mut self.lock());
        self.cv.notify_all();
    }

    /// Ingest side: block until line `i` may be sent. Returns how long it
    /// waited for the query side.
    pub fn before_line(&self, i: usize) -> Duration {
        let need = (i / self.ratio).saturating_sub(1);
        let t0 = Instant::now();
        let mut st = self.lock();
        while st.answered < need && !st.querier_done {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        t0.elapsed()
    }

    /// Ingest side: `acks` lines have been answered. The query side only
    /// ever waits for a multiple of `r` acks, so it is woken only then.
    pub fn acked(&self, acks: usize) {
        if acks.is_multiple_of(self.ratio) {
            self.update(|st| st.acks = acks);
        } else {
            self.lock().acks = acks;
        }
    }

    /// Ingest side: no more lines will be sent.
    pub fn stop(&self) {
        self.update(|st| st.stopped = true);
    }

    /// Query side: block until query `k` may be sent; `false` once the
    /// ingest side has stopped.
    pub fn before_query(&self, k: usize) -> bool {
        let need = self.ratio * (k + 1);
        let mut st = self.lock();
        while st.acks < need && !st.stopped {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        !st.stopped
    }

    /// Query side: one more query has been answered.
    pub fn answered(&self) {
        self.update(|st| st.answered += 1);
    }

    /// Query side: no more queries will be sent.
    pub fn querier_done(&self) {
        self.update(|st| st.querier_done = true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_holds_with_one_query_in_flight() {
        let r = 3;
        let (lines, queries) = (30, 10);
        let pace = Pace::new(r);
        let log = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                for k in 0..queries {
                    if !pace.before_query(k) {
                        break;
                    }
                    log.lock().unwrap().push(format!("q{k}"));
                    std::thread::sleep(Duration::from_millis(2));
                    log.lock().unwrap().push(format!("a{k}"));
                    pace.answered();
                }
                pace.querier_done();
            });
            for i in 0..lines {
                pace.before_line(i);
                log.lock().unwrap().push(format!("o{i}"));
                pace.acked(i + 1);
            }
        });
        let log = log.into_inner().unwrap();
        let pos = |x: &str| log.iter().position(|e| e == x).unwrap();
        assert_eq!(log.len(), lines + 2 * queries);
        for k in 0..queries {
            // Sent after the r·(k+1)-th ack ...
            assert!(pos(&format!("q{k}")) > pos(&format!("o{}", r * (k + 1) - 1)));
            // ... and answered before ingest line r·(k+2) goes out.
            if r * (k + 2) < lines {
                assert!(pos(&format!("a{k}")) < pos(&format!("o{}", r * (k + 2))));
            }
        }
    }

    #[test]
    fn a_stopped_side_releases_the_other() {
        let pace = Pace::new(2);
        pace.querier_done();
        // Would need answers that never come.
        assert!(pace.before_line(10) < Duration::from_secs(1));
        pace.stop();
        assert!(!pace.before_query(100));
    }
}
