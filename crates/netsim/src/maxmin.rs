//! The incremental max-min fair rate solver behind the flow event loop
//! of [`crate::chaos::ChaosSim`] (which [`crate::FlowSim`] runs too).
//!
//! The loop tells the solver which flows are active on which path
//! ([`MaxMinSolver::activate`] / [`MaxMinSolver::deactivate`]) and calls
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
//! iteration, the lowest share comes from an indexed binary min-heap
//! ([`LinkHeap`]) that holds each link with unfrozen flows exactly once, at
//! its *current* key `(share bits, link id)`, and keeps a position per
//! link: when a bottleneck's flows freeze, every link they cross is
//! re-keyed in place by a sift, and a link whose count drops to zero
//! leaves the heap. Every pop is therefore a bottleneck step; there are no
//! stale entries to skip. Shares are non-negative and never NaN
//! (capacities are validated `>= 0`, the update clamps at zero), so their
//! bit patterns order like their values once `-0.0` is canonicalised to
//! `+0.0`, and equal shares fall back to the lowest link id — exactly the
//! strict-`<` scan's tie-break. The heap's minimum is the minimum current
//! key, which is what the scan finds and what the lazily invalidated heap
//! this replaced found too (its lowest *valid* entry), so the bottleneck
//! sequence is unchanged. Each dirty component is filled on its own, with
//! only its links in the heap; by the argument above its bottleneck
//! sequence is the one a joint fill takes restricted to it.
//!
//! The replaced global re-solve is kept as the `#[cfg(test)]` oracle in
//! `oracle.rs`, against which differential tests compare rates and finish
//! times by `to_bits`.

use crate::sim::{Link, LinkId};

/// Deterministic work done by a [`MaxMinSolver`]. A regression to global
/// re-solves, or to a heap that pops stale entries, shows here exactly,
/// without timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SolverWork {
    /// Calls to [`MaxMinSolver::solve`]: one per event that advances time.
    pub(crate) events: u64,
    /// Solves that re-ran progressive filling over at least one flow.
    pub(crate) solves: u64,
    /// Flows re-solved, summed over those solves.
    pub(crate) flows_resolved: u64,
    /// Links popped from the bottleneck heap: one per bottleneck step.
    pub(crate) heap_pops: u64,
}

/// Heap key of a fair share: its bit pattern with `-0.0` mapped to `+0.0`.
fn share_key(share: f64) -> u64 {
    (share + 0.0).to_bits()
}

/// Position of a link that is not in the [`LinkHeap`].
const ABSENT: usize = usize::MAX;

/// Indexed binary min-heap of links ordered by `(key, link id)`: each link
/// is in it at most once, and `pos` locates it so a key change sifts it in
/// place.
#[derive(Debug, Clone)]
struct LinkHeap {
    /// Entries in heap order, each `key << 64 | link`: one integer
    /// comparison orders by key, then by link id.
    entries: Vec<u128>,
    /// Index into `entries` per link, or [`ABSENT`].
    pos: Vec<usize>,
}

fn entry(key: u64, l: LinkId) -> u128 {
    (u128::from(key) << 64) | l as u128
}

fn entry_link(e: u128) -> LinkId {
    e as u64 as LinkId
}

impl LinkHeap {
    fn new(links: usize) -> Self {
        Self { entries: Vec::new(), pos: vec![ABSENT; links] }
    }

    /// Insert link `l` at `key`, or move it there if present.
    fn set(&mut self, l: LinkId, key: u64) {
        let e = entry(key, l);
        let at = self.pos[l];
        if at == ABSENT {
            self.entries.push(e);
            self.sift_up(self.entries.len() - 1, e);
        } else if e < self.entries[at] {
            self.sift_up(at, e);
        } else {
            self.sift_down(at, e);
        }
    }

    /// Take link `l` out of the heap if present.
    fn remove(&mut self, l: LinkId) {
        let at = std::mem::replace(&mut self.pos[l], ABSENT);
        if at == ABSENT {
            return;
        }
        self.entries.swap_remove(at);
        if let Some(&moved) = self.entries.get(at) {
            if at > 0 && moved < self.entries[(at - 1) / 2] {
                self.sift_up(at, moved);
            } else {
                self.sift_down(at, moved);
            }
        }
    }

    /// Remove and return the link with the lowest `(key, link id)`.
    fn pop(&mut self) -> Option<LinkId> {
        let l = entry_link(*self.entries.first()?);
        self.remove(l);
        Some(l)
    }

    /// Place `e` at or above slot `at`.
    fn sift_up(&mut self, mut at: usize, e: u128) {
        while at > 0 {
            let parent = (at - 1) / 2;
            let p = self.entries[parent];
            if p <= e {
                break;
            }
            self.entries[at] = p;
            self.pos[entry_link(p)] = at;
            at = parent;
        }
        self.entries[at] = e;
        self.pos[entry_link(e)] = at;
    }

    /// Place `e` at or below slot `at`.
    fn sift_down(&mut self, mut at: usize, e: u128) {
        let n = self.entries.len();
        loop {
            let mut child = 2 * at + 1;
            if child >= n {
                break;
            }
            if child + 1 < n {
                child += usize::from(self.entries[child + 1] < self.entries[child]);
            }
            let c = self.entries[child];
            if e <= c {
                break;
            }
            self.entries[at] = c;
            self.pos[entry_link(c)] = at;
            at = child;
        }
        self.entries[at] = e;
        self.pos[entry_link(e)] = at;
    }
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
    /// Per link: dirty (between solves), touched by a bottleneck step
    /// (during a fill).
    link_mark: Vec<bool>,
    /// Per link: reached by a component collected in the current solve.
    reached: Vec<bool>,
    /// Per-flow scratch: in the component being solved and not yet frozen.
    unfrozen: Vec<bool>,
    remaining: Vec<f64>,
    count: Vec<usize>,
    /// Every link reached in the current solve, component after component.
    comp_links: Vec<LinkId>,
    touched: Vec<LinkId>,
    heap: LinkHeap,
    pub(crate) work: SolverWork,
    /// Test-only: re-solve every active flow with the oracle kernel.
    #[cfg(test)]
    global_oracle: bool,
    /// Test-only: pick each bottleneck by scanning the component's links.
    #[cfg(test)]
    scan_bottlenecks: bool,
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
            reached: vec![false; n],
            unfrozen: vec![false; flows],
            remaining: vec![0.0; n],
            count: vec![0; n],
            comp_links: Vec::new(),
            touched: Vec::new(),
            heap: LinkHeap::new(n),
            work: SolverWork::default(),
            #[cfg(test)]
            global_oracle: false,
            #[cfg(test)]
            scan_bottlenecks: false,
        }
    }

    /// A solver that answers every [`solve`](Self::solve) with a global
    /// re-solve by [`crate::oracle::max_min_rates_for`] over all active
    /// flows in id order, as the event loops did before this solver.
    #[cfg(test)]
    pub(crate) fn global_oracle(links: &[Link], flows: usize) -> Self {
        Self { global_oracle: true, ..Self::new(links, flows) }
    }

    /// A solver that picks every bottleneck as the oracle kernel does, by a
    /// strict-`<` scan over the component's links, and counts one
    /// `heap_pops` per pick: its work counts the bottleneck steps without
    /// the heap.
    #[cfg(test)]
    pub(crate) fn scanning(links: &[Link], flows: usize) -> Self {
        Self { scan_bottlenecks: true, ..Self::new(links, flows) }
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
        self.work.events += 1;
        self.work.solves += 1;
        self.work.flows_resolved += active.len() as u64;
    }

    /// Is flow `f` active?
    #[cfg(test)]
    pub(crate) fn is_active(&self, f: usize) -> bool {
        self.active[f]
    }

    /// Rate (GB/s) of active flow `f` as of the last [`solve`](Self::solve).
    /// A flow with an empty path has rate 0.
    #[cfg(test)]
    pub(crate) fn rate(&self, f: usize) -> f64 {
        self.rates[f]
    }

    /// Every flow's [`rate`](Self::rate), indexed by flow.
    pub(crate) fn rates(&self) -> &[f64] {
        &self.rates
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

    /// Bring every active flow's rate up to date by re-solving, one at a
    /// time, the components that contain a changed link.
    pub(crate) fn solve(&mut self) {
        #[cfg(test)]
        if self.global_oracle {
            return self.solve_globally();
        }
        self.work.events += 1;
        let mut dirty = std::mem::take(&mut self.dirty);
        for &l in &dirty {
            self.link_mark[l] = false;
        }
        self.comp_links.clear();
        let mut resolved = 0;
        for &seed in &dirty {
            if !self.reached[seed] {
                let (first, flows) = self.collect_component(seed);
                resolved += flows;
                self.fill_component(first);
            }
        }
        for &l in &self.comp_links {
            self.reached[l] = false;
        }
        dirty.clear();
        self.dirty = dirty;
        if resolved > 0 {
            self.work.solves += 1;
            self.work.flows_resolved += resolved;
        }
    }

    /// Gather the component of `seed`: its links are appended to
    /// `comp_links` and marked `reached`, its flows are marked `unfrozen`.
    /// Returns where its links start in `comp_links` and its flow count.
    fn collect_component(&mut self, seed: LinkId) -> (usize, u64) {
        let Self { on_link, arena, span, reached, unfrozen, comp_links, .. } = self;
        let first = comp_links.len();
        reached[seed] = true;
        comp_links.push(seed);
        let mut flows = 0;
        let mut next = first;
        while next < comp_links.len() {
            let l = comp_links[next];
            next += 1;
            for &f in &on_link[l] {
                if !unfrozen[f] {
                    unfrozen[f] = true;
                    flows += 1;
                    for &m in &arena[span[f].0..span[f].1] {
                        if !reached[m] {
                            reached[m] = true;
                            comp_links.push(m);
                        }
                    }
                }
            }
        }
        (first, flows)
    }

    /// Progressive filling over the component whose links are
    /// `comp_links[first..]`: saturate the lowest-share link and freeze its
    /// flows, until every flow is frozen.
    fn fill_component(&mut self, first: usize) {
        let Self {
            caps,
            on_link,
            arena,
            span,
            rates,
            link_mark,
            unfrozen,
            remaining,
            count,
            comp_links,
            touched,
            heap,
            work,
            #[cfg(test)]
            scan_bottlenecks,
            ..
        } = self;
        for &l in &comp_links[first..] {
            remaining[l] = caps[l];
            count[l] = on_link[l].len();
            if count[l] > 0 {
                heap.set(l, share_key(remaining[l] / count[l] as f64));
            }
        }
        loop {
            #[cfg(test)]
            let next = if *scan_bottlenecks {
                scan_bottleneck(&comp_links[first..], remaining, count)
            } else {
                heap.pop()
            };
            #[cfg(not(test))]
            let next = heap.pop();
            let Some(bl) = next else { break };
            work.heap_pops += 1;
            let fair = remaining[bl] / count[bl] as f64;
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
                    heap.set(l, share_key(remaining[l] / count[l] as f64));
                } else {
                    heap.remove(l);
                }
            }
        }
    }
}

/// The lowest-share link among `links` with unfrozen flows, by the oracle
/// kernel's strict-`<` scan (ties to the first, i.e. lowest, link id).
#[cfg(test)]
fn scan_bottleneck(links: &[LinkId], remaining: &[f64], count: &[usize]) -> Option<LinkId> {
    let mut best: Option<(LinkId, f64)> = None;
    for &l in links {
        if count[l] > 0 {
            let fair = remaining[l] / count[l] as f64;
            if best.is_none_or(|(bl, bf)| fair < bf || (fair == bf && l < bl)) {
                best = Some((l, fair));
            }
        }
    }
    best.map(|(l, _)| l)
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
