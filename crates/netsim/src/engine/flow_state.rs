//! Active / stalled flow bookkeeping.
//!
//! Transition order is part of the engine's determinism contract:
//! completion scans use `swap_remove` (and re-examine the swapped-in
//! slot), fault re-partitions use order-preserving `remove`, and resumed
//! flows re-enter at the back of the active list. These exact semantics
//! decide the order flows appear in the waterfill demand set and must
//! not change.
//!
//! Each transition also reports how it moved the active list, and the
//! engine hands that on to the leveler, which keeps the cascade's demand
//! indices current without rescanning the list (DESIGN §16): a flow that
//! goes live or resumes enters at the returned back index; a completion
//! moves at most one flow, the former last one, into the completed slot;
//! a stall's `remove` shifts every flow behind it, which the leveler
//! answers with a scan.
//!
//! The set also owns per-transfer stall accounting: a flow accrues stall
//! time from the instant a fault freezes it (or it is born stalled)
//! until it resumes, or until the event queue drains if it never does.

/// One in-flight transfer: remaining payload and its current fair rate.
#[derive(Debug)]
pub(crate) struct ActiveFlow {
    pub tid: u32,
    pub remaining: f64,
    pub rate: f64,
}

#[derive(Debug)]
pub(crate) struct FlowSet {
    /// Flows currently moving bytes, in arrival order.
    pub active: Vec<ActiveFlow>,
    /// Flows frozen by a dead link / down endpoint, in stall order.
    pub stalled: Vec<ActiveFlow>,
    /// Instant each transfer last stalled; `INFINITY` when not stalled.
    stalled_since: Vec<f64>,
    /// Cumulative stall time per transfer.
    stall_time: Vec<f64>,
}

impl FlowSet {
    pub fn new(num_transfers: usize) -> FlowSet {
        FlowSet {
            active: Vec::new(),
            stalled: Vec::new(),
            stalled_since: vec![f64::INFINITY; num_transfers],
            stall_time: vec![0.0; num_transfers],
        }
    }

    /// A transfer's injection finished on a healthy route: it goes live
    /// at the back of the active list. Returns its index.
    pub fn activate(&mut self, tid: u32, bytes: f64) -> usize {
        self.active.push(ActiveFlow {
            tid,
            remaining: bytes,
            rate: 0.0,
        });
        self.active.len() - 1
    }

    /// A transfer's injection finished but its route is blocked: it is
    /// born stalled.
    pub fn stall_new(&mut self, tid: u32, bytes: f64, now: f64) {
        self.stalled_since[tid as usize] = now;
        self.stalled.push(ActiveFlow {
            tid,
            remaining: bytes,
            rate: 0.0,
        });
    }

    /// Freeze the active flow at index `i` (order-preserving removal).
    /// Returns its transfer id, and whether flows behind it shifted.
    pub fn stall_at(&mut self, i: usize, now: f64) -> (u32, bool) {
        let mut f = self.active.remove(i);
        f.rate = 0.0;
        self.stalled_since[f.tid as usize] = now;
        let tid = f.tid;
        self.stalled.push(f);
        (tid, i < self.active.len())
    }

    /// Resume the stalled flow at index `i` (order-preserving removal);
    /// it re-enters at the back of the active list. Returns its id and
    /// its active index.
    pub fn resume_at(&mut self, i: usize, now: f64) -> (u32, usize) {
        let f = self.stalled.remove(i);
        let tid = f.tid;
        let since = &mut self.stalled_since[tid as usize];
        self.stall_time[tid as usize] += now - *since;
        *since = f64::INFINITY;
        self.active.push(f);
        (tid, self.active.len() - 1)
    }

    /// Complete the active flow at index `i` (`swap_remove`: the caller's
    /// scan must re-examine slot `i`). Returns it, and the id of the
    /// flow that was last and now sits at `i`, if any.
    pub fn complete_at(&mut self, i: usize) -> (ActiveFlow, Option<u32>) {
        let f = self.active.swap_remove(i);
        (f, self.active.get(i).map(|m| m.tid))
    }

    /// Close the books at end of run: flows still stalled accrue stall
    /// time up to `end`, and the per-transfer totals are returned along
    /// with the ids of the flows that were still stalled at the drain
    /// (in stall order) — the merge layer extends those to the global
    /// drain when this component finished before its siblings.
    pub fn close(mut self, end: f64) -> (Vec<f64>, Vec<u32>) {
        let mut at_drain = Vec::new();
        for f in &self.stalled {
            let since = self.stalled_since[f.tid as usize];
            if since.is_finite() {
                self.stall_time[f.tid as usize] += end - since;
                at_drain.push(f.tid);
            }
        }
        (self.stall_time, at_drain)
    }

    /// [`close`](Self::close), keeping only the per-transfer totals.
    #[cfg(test)]
    pub fn into_stall_time(self, end: f64) -> Vec<f64> {
        self.close(end).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_and_resume_accrue_time() {
        let mut fs = FlowSet::new(2);
        assert_eq!(fs.activate(0, 100.0), 0);
        assert_eq!(fs.activate(1, 100.0), 1);
        assert_eq!(fs.stall_at(0, 2.0), (0, true));
        assert_eq!(fs.active.len(), 1);
        assert_eq!(fs.resume_at(0, 5.0), (0, 1));
        // Resumed flow re-enters at the back.
        assert_eq!(fs.active[1].tid, 0);
        let st = fs.into_stall_time(10.0);
        assert_eq!(st, vec![3.0, 0.0]);
    }

    #[test]
    fn transitions_report_how_the_list_moved() {
        let mut fs = FlowSet::new(4);
        for t in 0..4 {
            fs.activate(t, 100.0);
        }
        // The last flow moves into the completed slot.
        let (f, moved) = fs.complete_at(1);
        assert_eq!((f.tid, moved), (1, Some(3)));
        // Completing the last flow moves nothing.
        assert_eq!(fs.complete_at(2).1, None);
        // Stalling the first of two shifts the other; the last, nothing.
        assert_eq!(fs.stall_at(0, 0.0), (0, true));
        assert_eq!(fs.stall_at(0, 0.0), (3, false));
    }

    #[test]
    fn unresumed_stall_accrues_to_end_of_run() {
        let mut fs = FlowSet::new(2);
        fs.stall_new(1, 50.0, 4.0);
        let st = fs.into_stall_time(9.0);
        assert_eq!(st, vec![0.0, 5.0]);
    }
}
