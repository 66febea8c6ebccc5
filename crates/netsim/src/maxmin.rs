//! The incremental max-min fair rate solver behind the flow event loop
//! of [`crate::chaos::ChaosSim`] (which [`crate::FlowSim`] runs too).
//!
//! The loop tells the solver which flows are active on which path
//! ([`MaxMinSolver::activate`] / [`MaxMinSolver::deactivate`]) and call
//! [`MaxMinSolver::solve`] before reading rates. A solve re-runs
//! progressive filling only over the *connected components* (flows linked
//! through shared links) that contain a link whose flow set changed since
//! the last solve; every other flow keeps its rate.
//!
//! **Exactness.** Progressive filling repeatedly saturates the link with
//! the lowest fair share `remaining / count` (ties to the lowest link id)
//! and freezes its flows at that share, subtracting it from every link
//! they cross with `(remaining - fair).max(0.0)`. A link's share depends
//! only on the flows crossing it, which all belong to its component, so
//! the global solve's bottleneck sequence restricted to one component is
//! exactly the sequence a solve of that component alone takes: the same
//! float operations in the same order. A component with no changed link
//! has the same flows, paths and capacities as when it was last solved, so
//! its cached rates are the ones a global re-solve would compute. The
//! freeze order within one bottleneck does not matter either: every flow
//! frozen there takes the same share, and a link's remaining capacity sees
//! the same subtractions of that share in any order.
//!
//! **Bottleneck selection.** Instead of scanning every link per
//! iteration, the lowest share comes from a binary min-heap keyed on
//! `(share bits, link id)` with lazy invalidation: an entry is used only
//! if it still matches its link's current share. Shares are non-negative
//! and never NaN (capacities are validated `>= 0`, the update clamps at
//! zero), so their bit patterns order like their values once `-0.0` is
//! canonicalised to `+0.0`, and equal shares fall back to the lowest link
//! id — exactly the strict-`<` scan's tie-break.
//!
//! The replaced global re-solve is kept as the `#[cfg(test)]` oracle in
//! `oracle.rs`, against which differential tests compare rates and finish
//! times by `to_bits`.

use crate::sim::{Link, LinkId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Deterministic work done by a [`MaxMinSolver`]: how many solves did any
/// filling, and how many flows they re-solved in total. A regression to
/// global re-solves shows here exactly, without timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SolverWork {
    /// Solves that re-ran progressive filling over at least one flow.
    pub(crate) solves: u64,
    /// Flows re-solved, summed over those solves.
    pub(crate) flows_resolved: u64,
}

/// Heap key of a fair share: its bit pattern with `-0.0` mapped to `+0.0`.
fn share_key(share: f64) -> u64 {
    (share + 0.0).to_bits()
}

/// Incremental progressive-filling max-min solver over a fixed link set.
///
/// Flows are identified by dense indices `0..flows`; each is inactive until
/// [`activate`](Self::activate)d on a path.
#[derive(Debug, Clone)]
pub(crate) struct MaxMinSolver {
    caps: Vec<f64>,
    /// Active flows crossing each link, one entry per path occurrence.
    on_link: Vec<Vec<usize>>,
    /// Every path a flow was activated on, back to back: flow `f`'s
    /// current path is `arena[span[f].0..span[f].1]` (meaningful while
    /// active). One flat buffer keeps the per-flow footprint small.
    arena: Vec<LinkId>,
    span: Vec<(usize, usize)>,
    active: Vec<bool>,
    rates: Vec<f64>,
    /// Links whose flow set changed since the last solve.
    dirty: Vec<LinkId>,
    link_mark: Vec<bool>,
    /// Per-flow scratch: in the component being solved and not yet frozen.
    unfrozen: Vec<bool>,
    remaining: Vec<f64>,
    count: Vec<usize>,
    comp_links: Vec<LinkId>,
    comp_flows: Vec<usize>,
    touched: Vec<LinkId>,
    heap: BinaryHeap<Reverse<(u64, LinkId)>>,
    pub(crate) work: SolverWork,
    /// Test-only: re-solve every active flow with the oracle kernel.
    #[cfg(test)]
    global_oracle: bool,
}

impl MaxMinSolver {
    /// A solver over `links` for `flows` flows, all inactive.
    pub(crate) fn new(links: &[Link], flows: usize) -> Self {
        let n = links.len();
        Self {
            caps: links.iter().map(|l| l.capacity_gbps).collect(),
            on_link: vec![Vec::new(); n],
            arena: Vec::new(),
            span: vec![(0, 0); flows],
            active: vec![false; flows],
            rates: vec![0.0; flows],
            dirty: Vec::new(),
            link_mark: vec![false; n],
            unfrozen: vec![false; flows],
            remaining: vec![0.0; n],
            count: vec![0; n],
            comp_links: Vec::new(),
            comp_flows: Vec::new(),
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            work: SolverWork::default(),
            #[cfg(test)]
            global_oracle: false,
        }
    }

    /// A solver that answers every [`solve`](Self::solve) with a global
    /// re-solve by [`crate::oracle::max_min_rates_for`] over all active
    /// flows in id order, as the event loops did before this solver.
    #[cfg(test)]
    pub(crate) fn global_oracle(links: &[Link], flows: usize) -> Self {
        Self { global_oracle: true, ..Self::new(links, flows) }
    }

    #[cfg(test)]
    fn solve_globally(&mut self) {
        for l in self.dirty.drain(..) {
            self.link_mark[l] = false;
        }
        let links: Vec<Link> =
            self.caps.iter().map(|&capacity_gbps| Link { capacity_gbps }).collect();
        let active: Vec<usize> = (0..self.active.len()).filter(|&f| self.active[f]).collect();
        let paths: Vec<&[LinkId]> = active.iter().map(|&f| self.path(f)).collect();
        let rates = crate::oracle::max_min_rates_for(&links, &paths);
        for (&f, rate) in active.iter().zip(rates) {
            self.rates[f] = rate;
        }
        self.work.solves += 1;
        self.work.flows_resolved += active.len() as u64;
    }

    /// Is flow `f` active?
    pub(crate) fn is_active(&self, f: usize) -> bool {
        self.active[f]
    }

    /// Rate (GB/s) of active flow `f` as of the last [`solve`](Self::solve).
    /// A flow with an empty path has rate 0.
    pub(crate) fn rate(&self, f: usize) -> f64 {
        self.rates[f]
    }

    fn path(&self, f: usize) -> &[LinkId] {
        &self.arena[self.span[f].0..self.span[f].1]
    }

    fn mark_dirty(&mut self, l: LinkId) {
        if !self.link_mark[l] {
            self.link_mark[l] = true;
            self.dirty.push(l);
        }
    }

    /// Start flow `f` on `path`. The links it crosses are re-solved at the
    /// next [`solve`](Self::solve).
    pub(crate) fn activate(&mut self, f: usize, path: &[LinkId]) {
        debug_assert!(!self.active[f], "flow {f} is already active");
        self.active[f] = true;
        self.rates[f] = 0.0;
        if self.path(f) != path {
            let start = self.arena.len();
            self.arena.extend_from_slice(path);
            self.span[f] = (start, self.arena.len());
        }
        for &l in path {
            self.on_link[l].push(f);
            self.mark_dirty(l);
        }
    }

    /// Stop flow `f` if it is active; a no-op otherwise.
    pub(crate) fn deactivate(&mut self, f: usize) {
        if !std::mem::take(&mut self.active[f]) {
            return;
        }
        let (start, end) = self.span[f];
        for i in start..end {
            let l = self.arena[i];
            let flows = &mut self.on_link[l];
            if let Some(at) = flows.iter().position(|&g| g == f) {
                flows.swap_remove(at);
            }
            self.mark_dirty(l);
        }
    }

    /// Bring every active flow's rate up to date by re-solving the
    /// components that contain a changed link.
    pub(crate) fn solve(&mut self) {
        #[cfg(test)]
        if self.global_oracle {
            return self.solve_globally();
        }
        let Self {
            caps,
            on_link,
            arena,
            span,
            rates,
            dirty,
            link_mark,
            unfrozen,
            remaining,
            count,
            comp_links,
            comp_flows,
            touched,
            heap,
            work,
            ..
        } = self;
        // Collect the dirty links' components. `link_mark` already flags
        // the dirty links; it now marks every link reached.
        comp_links.clear();
        comp_flows.clear();
        while let Some(l) = dirty.pop() {
            comp_links.push(l);
            for &f in &on_link[l] {
                if !unfrozen[f] {
                    unfrozen[f] = true;
                    comp_flows.push(f);
                    for &m in &arena[span[f].0..span[f].1] {
                        if !link_mark[m] {
                            link_mark[m] = true;
                            dirty.push(m);
                        }
                    }
                }
            }
        }
        if !comp_flows.is_empty() {
            work.solves += 1;
            work.flows_resolved += comp_flows.len() as u64;
        }
        heap.clear();
        for &l in comp_links.iter() {
            link_mark[l] = false;
            remaining[l] = caps[l];
            count[l] = on_link[l].len();
            if count[l] > 0 {
                heap.push(Reverse((share_key(remaining[l] / count[l] as f64), l)));
            }
        }
        // Progressive filling: saturate the lowest-share link and freeze
        // its flows. Stale heap entries (share changed since the push, or
        // link already saturated) are skipped.
        while let Some(Reverse((key, bl))) = heap.pop() {
            let c = count[bl];
            if c == 0 {
                continue;
            }
            let fair = remaining[bl] / c as f64;
            if share_key(fair) != key {
                continue;
            }
            for &f in &on_link[bl] {
                if unfrozen[f] {
                    rates[f] = fair;
                    unfrozen[f] = false;
                    for &l in &arena[span[f].0..span[f].1] {
                        remaining[l] = (remaining[l] - fair).max(0.0);
                        count[l] -= 1;
                        if !link_mark[l] {
                            link_mark[l] = true;
                            touched.push(l);
                        }
                    }
                }
            }
            for l in touched.drain(..) {
                link_mark[l] = false;
                if count[l] > 0 {
                    heap.push(Reverse((share_key(remaining[l] / count[l] as f64), l)));
                }
            }
        }
    }
}

/// One-shot max-min rates for flows following `paths` over `links`.
pub(crate) fn max_min_rates(links: &[Link], paths: &[&[LinkId]]) -> Vec<f64> {
    let mut solver = MaxMinSolver::new(links, paths.len());
    for (f, path) in paths.iter().enumerate() {
        solver.activate(f, path);
    }
    solver.solve();
    solver.rates
}
