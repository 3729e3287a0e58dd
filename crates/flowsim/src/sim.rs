//! The fluid flow-level event loop.
//!
//! Between events the network is in a max-min equilibrium computed by the
//! incremental [`crate::engine`]; flows drain at their allocated rates,
//! integrated *exactly* over the inter-event interval (piecewise-linear
//! fluid model — no time-stepping error). Events are flow arrivals (from
//! the generated workload) and flow departures (when a flow's remaining
//! volume reaches zero at its current rate). Each event triggers a
//! re-allocation.
//!
//! Arrivals and departures update the engine's active set incrementally:
//! a flow's subpaths are resolved into the engine's arena once, at
//! arrival, and each event recomputes only the rate vectors — over
//! persistent scratch state, with no per-event path resolution or
//! allocation. The output is bit-identical to the original formulation
//! that re-ran the from-scratch reference allocator on every event (see
//! the [`crate::engine`] exactness contract).
//!
//! Departure scheduling uses the standard epoch trick: after every
//! re-allocation only the *earliest* predicted departure is scheduled,
//! tagged with the allocation epoch; stale events are ignored when they
//! fire. This keeps the event count at `O(arrivals + departures)`.

use inrpp_sim::event::{Engine, SchedulePastError};
use inrpp_sim::fault::{FaultKind, FaultPlan};
use inrpp_sim::metrics::JainIndex;
use inrpp_sim::time::{SimDuration, SimTime};
use inrpp_topology::graph::{NodeId, Topology};

use crate::engine::AllocEngine;
use crate::metrics::{FlowSimReport, WeightedCdf};
use crate::strategy::RoutingStrategy;
use crate::workload::{FlowSpec, Workload};

/// Streaming observer over the fluid event loop.
///
/// Every hook is called *during* the run, at the instant the event
/// happens, so time-resolved metrics can be collected without replaying
/// the simulation. All hooks default to no-ops; observers are purely
/// passive — the simulation's arithmetic is identical with or without
/// one (`FlowSim::run` is `start().finish(&mut ())`).
///
/// This is the flowsim-level substrate the `inrpp::session` probe API
/// adapts onto; use that facade unless you need raw engine access.
#[allow(unused_variables)]
pub trait FlowObserver {
    /// A flow arrived and was admitted with `subpaths` resolved subpaths.
    fn on_flow_start(&mut self, t: SimTime, spec: &FlowSpec, subpaths: usize) {}

    /// A flow arrived but no route exists between its endpoints.
    fn on_flow_unroutable(&mut self, t: SimTime, spec: &FlowSpec) {}

    /// A flow drained completely and left the network.
    fn on_flow_end(&mut self, t: SimTime, flow: u64, delivered_bits: f64, fct_secs: f64) {}

    /// A flow was still in flight when the horizon struck.
    fn on_flow_partial(&mut self, t: SimTime, flow: u64, delivered_bits: f64) {}

    /// A re-allocation just ran: `flows[i]` (ascending flow ids) now
    /// drains at `rates[i]` bits/s.
    fn on_allocation(&mut self, t: SimTime, flows: &[u64], rates: &[f64]) {}

    /// Fluid state was integrated up to `t`; `delivered_bits` is the
    /// cumulative volume delivered across all flows so far.
    fn on_sample(&mut self, t: SimTime, delivered_bits: f64) {}
}

/// The no-op observer (what [`FlowSim::run`] uses).
impl FlowObserver for () {}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSimConfig {
    /// Hard stop; flows still active at the horizon are credited with the
    /// bits delivered so far.
    pub horizon: SimDuration,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig {
            horizon: SimDuration::from_secs(60),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(usize),
    /// `(flow id, allocation epoch)` — ignored if the epoch is stale.
    Departure(u64, u64),
    /// Fault-plan event `idx` takes effect.
    Fault(usize),
    /// The loss-burst window opened by plan event `idx` closes.
    FaultEnd(usize),
}

/// Per-flow bookkeeping, indexed by the engine's arena slot. The engine
/// owns the resolved subpaths; the simulator only needs the hop counts
/// (for the stretch CDF) and the drain state.
struct ActiveFlow {
    /// Hops of each subpath, preference order.
    subpath_hops: Vec<u32>,
    primary_hops: usize,
    size_bits: f64,
    remaining_bits: f64,
    /// bits delivered per subpath (for the stretch CDF)
    subpath_bits: Vec<f64>,
    arrival: SimTime,
}

/// The flow-level simulator. Construct with a topology, strategy and
/// workload; consume with [`FlowSim::run`].
pub struct FlowSim<'a> {
    topo: &'a Topology,
    strategy: &'a dyn RoutingStrategy,
    workload: &'a Workload,
    config: FlowSimConfig,
    faults: FaultPlan,
}

impl<'a> FlowSim<'a> {
    /// Bundle the inputs of one run.
    pub fn new(
        topo: &'a Topology,
        strategy: &'a dyn RoutingStrategy,
        workload: &'a Workload,
        config: FlowSimConfig,
    ) -> Self {
        FlowSim {
            topo,
            strategy,
            workload,
            config,
            faults: FaultPlan::empty(),
        }
    }

    /// Attach a fault plan: its timed events join the event stream and
    /// trigger a re-allocation on every capacity transition.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Execute the run and produce the report. For a streaming
    /// [`FlowObserver`], [`start`](FlowSim::start) the run and
    /// [`finish`](FlowRun::finish) it with the observer.
    pub fn run(self) -> FlowSimReport {
        self.start().finish(&mut ())
    }

    /// Begin a *stepping* run: events are not processed until the caller
    /// drives the returned [`FlowRun`] with
    /// [`run_until`](FlowRun::run_until) / [`finish`](FlowRun::finish).
    /// This is the service-mode entry point — it adds streaming arrivals
    /// ([`feed`](FlowRun::feed)) on top of the same event loop, with
    /// bit-identical results.
    pub fn start(self) -> FlowRun<'a> {
        FlowRun::new(
            self.topo,
            self.strategy,
            self.workload,
            self.config,
            self.faults,
        )
    }
}

/// An in-flight fluid simulation that can be driven in steps and fed
/// additional arrivals while running.
///
/// # Determinism contract
/// `finish` processes events with the engine's plain `next()` loop;
/// `run_until(t)` processes the identical `(time, seq)` prefix via
/// [`Engine::next_at_or_before`]. Splitting a run at any boundary
/// therefore pops the same event sequence and produces a bit-identical
/// report and observer stream, and a run driven through the same
/// `run_until`/`feed` calls is the same run. The session layer's
/// checkpoints rest on exactly this: they log those calls and replay
/// them. A boundary deliberately does *not* integrate the fluid state
/// up to the boundary instant: integration happens only at event
/// instants (and once at the end), so `r·(dt₁+dt₂)` is never split into
/// `r·dt₁ + r·dt₂`, which would change the floating-point sums.
pub struct FlowRun<'a> {
    topo: &'a Topology,
    strategy: &'a dyn RoutingStrategy,
    workload: &'a Workload,
    config: FlowSimConfig,
    faults: FaultPlan,
    /// Down-cause count per link: `LinkDown` and adjacent `NodeCrash`
    /// each add one; the link carries traffic only at zero.
    link_down: Vec<u32>,
    /// Capacity fraction per link from the latest `CapacityScale`.
    link_scale: Vec<f64>,
    /// Goodput factor per link while a loss burst is open (`1 - drop`).
    link_burst: Vec<f64>,
    /// Plan index of the burst currently in force per link, or `usize::MAX`.
    burst_owner: Vec<usize>,
    horizon: SimTime,
    eng: Engine<Event>,
    /// Flows fed after the run started; `Event::Arrival(idx)` with
    /// `idx >= workload.len()` indexes into this list.
    extra: Vec<FlowSpec>,
    alloc_engine: AllocEngine,
    states: Vec<Option<ActiveFlow>>,
    alloc_valid: bool,
    epoch: u64,
    last_update: SimTime,
    delivered_bits: f64,
    offered_bits: f64,
    arrived: usize,
    completed: usize,
    unroutable: usize,
    fct_sum: f64,
    stretch: WeightedCdf,
    jain_weighted: f64,
    util_weighted: f64,
    chan_weighted: Vec<f64>,
    weighted_secs: f64,
}

impl<'a> FlowRun<'a> {
    fn new(
        topo: &'a Topology,
        strategy: &'a dyn RoutingStrategy,
        workload: &'a Workload,
        config: FlowSimConfig,
        faults: FaultPlan,
    ) -> Self {
        let horizon = SimTime::ZERO + config.horizon;
        let mut eng: Engine<Event> = Engine::new().with_horizon(horizon);
        for (i, f) in workload.flows.iter().enumerate() {
            eng.schedule_at(f.arrival, Event::Arrival(i))
                .expect("workload arrivals are within the window");
        }
        // Fault events join the queue after arrivals so that same-instant
        // ties resolve arrivals-first (sequence order breaks ties).
        for (i, ev) in faults.events().iter().enumerate() {
            eng.schedule_at(ev.at, Event::Fault(i))
                .expect("fault plan times are non-negative");
            if let FaultKind::LossBurst { until, .. } = ev.kind {
                eng.schedule_at(until, Event::FaultEnd(i))
                    .expect("burst windows end after they start");
            }
        }
        let links = topo.link_count();
        FlowRun {
            topo,
            strategy,
            workload,
            config,
            faults,
            link_down: vec![0; links],
            link_scale: vec![1.0; links],
            link_burst: vec![1.0; links],
            burst_owner: vec![usize::MAX; links],
            horizon,
            eng,
            extra: Vec::new(),
            alloc_engine: AllocEngine::new(topo),
            states: Vec::new(),
            alloc_valid: false,
            epoch: 0,
            last_update: SimTime::ZERO,
            delivered_bits: 0.0,
            offered_bits: 0.0,
            arrived: 0,
            completed: 0,
            unroutable: 0,
            fct_sum: 0.0,
            stretch: WeightedCdf::new(),
            jain_weighted: 0.0,
            util_weighted: 0.0,
            chan_weighted: vec![0.0f64; topo.link_count() * 2],
            weighted_secs: 0.0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// The run's hard stop.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Flows arrived plus flows completed so far: the report's
    /// `arrived_flows + completed_flows`, read without assembling one.
    pub fn arrived_plus_completed(&self) -> u64 {
        (self.arrived + self.completed) as u64
    }

    /// Inject an additional flow while the run is live. The arrival must
    /// not precede the current clock; the flow joins the event stream
    /// exactly as if it had been scheduled up front (modulo insertion
    /// sequence, which follows feed order — the determinism contract is
    /// over a fixed feed schedule, see the type-level docs). The id is
    /// not checked: the session layer refuses a duplicate first.
    pub fn feed(&mut self, spec: FlowSpec) -> Result<(), SchedulePastError> {
        let idx = self.workload.len() + self.extra.len();
        self.eng.schedule_at(spec.arrival, Event::Arrival(idx))?;
        self.extra.push(spec);
        Ok(())
    }

    fn spec_at(&self, idx: usize) -> &FlowSpec {
        if idx < self.workload.len() {
            &self.workload.flows[idx]
        } else {
            &self.extra[idx - self.workload.len()]
        }
    }

    /// Integrate the fluid system from `last_update` to `now`. The
    /// engine's active set always equals the set the last allocation ran
    /// over: inserts/removes happen *after* the advance for their event.
    fn advance(&mut self, now: SimTime, obs: &mut dyn FlowObserver) {
        let dt = now
            .saturating_duration_since(self.last_update)
            .as_secs_f64();
        self.last_update = now;
        if dt <= 0.0 || !self.alloc_valid {
            return;
        }
        let rates = self.alloc_engine.flow_rates();
        for (pos, &rate) in rates.iter().enumerate().take(self.alloc_engine.len()) {
            let Some(fl) = self.states[self.alloc_engine.slot_at(pos)].as_mut() else {
                continue;
            };
            let got = (rate * dt).min(fl.remaining_bits);
            fl.remaining_bits -= got;
            self.delivered_bits += got;
            // distribute onto subpaths proportionally to their rates
            let srates = self.alloc_engine.subpath_rates(pos);
            let total: f64 = srates.iter().sum();
            if total > 0.0 {
                for (s, &r) in srates.iter().enumerate() {
                    fl.subpath_bits[s] += got * r / total;
                }
            }
        }
        if let Some(j) = JainIndex::compute(rates) {
            self.jain_weighted += j * dt;
            self.util_weighted += self.alloc_engine.mean_utilisation() * dt;
            self.alloc_engine
                .accumulate_channel_utilisation(dt, &mut self.chan_weighted);
            self.weighted_secs += dt;
        }
        obs.on_sample(now, self.delivered_bits);
    }

    /// Re-allocate and schedule the earliest departure.
    fn reallocate(&mut self, now: SimTime, obs: &mut dyn FlowObserver) {
        self.epoch += 1;
        if self.alloc_engine.is_empty() {
            self.alloc_valid = false;
            return;
        }
        self.alloc_engine.allocate();
        self.alloc_valid = true;
        obs.on_allocation(
            now,
            self.alloc_engine.keys(),
            self.alloc_engine.flow_rates(),
        );
        // earliest departure under the new rates
        let rates = self.alloc_engine.flow_rates();
        let mut best: Option<(f64, u64)> = None;
        for (pos, &fid) in self.alloc_engine.keys().iter().enumerate() {
            let rate = rates[pos];
            if rate <= 0.0 {
                continue;
            }
            let fl = self.states[self.alloc_engine.slot_at(pos)]
                .as_ref()
                .expect("engine and state slab agree on active slots");
            let eta = fl.remaining_bits / rate;
            if best.map_or(true, |(t, _)| eta < t) {
                best = Some((eta, fid));
            }
        }
        // +1 ns: over-wait past any float-to-nanosecond rounding so the
        // flow has definitely drained when the event fires (the
        // integrator clamps delivery at the remaining volume). A departure
        // past the end of the u64 nanosecond clock is never scheduled: the
        // flow drains until the horizon or the next re-allocation.
        let due = best.and_then(|(eta, fid)| {
            let wait = SimDuration::try_from_secs_f64(eta.max(0.0)).ok()?;
            let at = self
                .eng
                .now()
                .checked_add(wait)?
                .checked_add(SimDuration::from_nanos(1))?;
            Some((at, fid))
        });
        if let Some((at, fid)) = due {
            self.eng
                .schedule_at(at, Event::Departure(fid, self.epoch))
                .expect("departures lie ahead of the clock");
        }
    }

    /// Recompute the effective capacity factor of `link` after a fault
    /// transition touched it.
    fn refresh_link(&mut self, link: usize) {
        let factor = if self.link_down[link] > 0 {
            0.0
        } else {
            self.link_scale[link] * self.link_burst[link]
        };
        self.alloc_engine.set_link_capacity_factor(link, factor);
    }

    /// Apply the capacity transition of plan event `idx`. Pure state
    /// mutation — callers advance the fluid integral before and
    /// re-allocate after, exactly like arrivals and departures.
    fn apply_fault(&mut self, idx: usize) {
        match self.faults.events()[idx].kind {
            FaultKind::LinkDown { link } => {
                self.link_down[link as usize] += 1;
                self.refresh_link(link as usize);
            }
            FaultKind::LinkUp { link } => {
                let l = link as usize;
                self.link_down[l] = self.link_down[l].saturating_sub(1);
                self.refresh_link(l);
            }
            FaultKind::CapacityScale { link, fraction } => {
                self.link_scale[link as usize] = fraction;
                self.refresh_link(link as usize);
            }
            FaultKind::NodeCrash { node } => {
                for &(_, l) in self.topo.neighbors(NodeId(node)) {
                    self.link_down[l.idx()] += 1;
                    self.refresh_link(l.idx());
                }
            }
            FaultKind::NodeRecover { node } => {
                for &(_, l) in self.topo.neighbors(NodeId(node)) {
                    self.link_down[l.idx()] = self.link_down[l.idx()].saturating_sub(1);
                    self.refresh_link(l.idx());
                }
            }
            FaultKind::LossBurst {
                link, drop_chance, ..
            } => {
                // The fluid model treats random loss as a goodput derate:
                // retransmitted volume is capacity the link cannot pool.
                self.link_burst[link as usize] = 1.0 - drop_chance;
                self.burst_owner[link as usize] = idx;
                self.refresh_link(link as usize);
            }
        }
    }

    /// Close the loss-burst window opened by plan event `idx` (no-op if a
    /// later burst on the same link has taken over).
    fn apply_fault_end(&mut self, idx: usize) {
        if let FaultKind::LossBurst { link, .. } = self.faults.events()[idx].kind {
            let l = link as usize;
            if self.burst_owner[l] == idx {
                self.link_burst[l] = 1.0;
                self.burst_owner[l] = usize::MAX;
                self.refresh_link(l);
            }
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event, obs: &mut dyn FlowObserver) {
        match ev {
            Event::Arrival(idx) => {
                self.advance(now, obs);
                let spec = self.spec_at(idx).clone();
                self.arrived += 1;
                let paths = self
                    .strategy
                    .paths_for(self.topo, spec.src, spec.dst, spec.id);
                if paths.is_empty() {
                    self.unroutable += 1;
                    obs.on_flow_unroutable(now, &spec);
                    return;
                }
                self.offered_bits += spec.size_bits;
                let primary_hops = paths[0].hops().max(1);
                let subpath_hops: Vec<u32> = paths.iter().map(|p| p.hops() as u32).collect();
                let n = paths.len();
                let slot = self
                    .alloc_engine
                    .insert(spec.id, &paths)
                    .unwrap_or_else(|e| panic!("flow {}: {e}", spec.id));
                if self.states.len() <= slot {
                    self.states.resize_with(slot + 1, || None);
                }
                self.states[slot] = Some(ActiveFlow {
                    subpath_hops,
                    primary_hops,
                    size_bits: spec.size_bits,
                    remaining_bits: spec.size_bits,
                    subpath_bits: vec![0.0; n],
                    arrival: now,
                });
                obs.on_flow_start(now, &spec, n);
                self.reallocate(now, obs);
            }
            Event::Departure(fid, ev_epoch) => {
                if ev_epoch != self.epoch {
                    return; // superseded schedule
                }
                self.advance(now, obs);
                if let Some(slot) = self.alloc_engine.remove(fid) {
                    let fl = self.states[slot]
                        .take()
                        .expect("engine and state slab agree on active slots");
                    debug_assert!(
                        fl.remaining_bits < 1.0,
                        "flow {fid} departed with {} bits left",
                        fl.remaining_bits
                    );
                    self.completed += 1;
                    let fct = now.duration_since(fl.arrival).as_secs_f64();
                    self.fct_sum += fct;
                    obs.on_flow_end(now, fid, fl.size_bits - fl.remaining_bits, fct);
                    record_stretch(&mut self.stretch, &fl);
                }
                self.reallocate(now, obs);
            }
            Event::Fault(idx) => {
                self.advance(now, obs);
                self.apply_fault(idx);
                self.reallocate(now, obs);
            }
            Event::FaultEnd(idx) => {
                self.advance(now, obs);
                self.apply_fault_end(idx);
                self.reallocate(now, obs);
            }
        }
    }

    /// Process every event due at or before `t` (clamped to the
    /// horizon), then park the clock at the boundary. Returns the
    /// clock's new value. Fluid state is *not* integrated to the
    /// boundary — see the determinism contract above.
    pub fn run_until(&mut self, t: SimTime, obs: &mut dyn FlowObserver) -> SimTime {
        let limit = t.min(self.horizon);
        while let Some((now, ev)) = self.eng.next_at_or_before(limit) {
            self.handle(now, ev, obs);
        }
        if limit > self.eng.now() {
            self.eng.advance_clock_to(limit);
        }
        self.eng.now()
    }

    /// Drain the remaining events, integrate the final stretch of time,
    /// credit partial deliveries, and assemble the report.
    pub fn finish(mut self, obs: &mut dyn FlowObserver) -> FlowSimReport {
        while let Some((now, ev)) = self.eng.next() {
            self.handle(now, ev, obs);
        }
        // Horizon reached: integrate the final stretch of time and
        // credit partial deliveries.
        let end = self.horizon.min(self.eng.now().max(self.last_update));
        self.advance(end, obs);
        for pos in 0..self.alloc_engine.len() {
            if let Some(fl) = &self.states[self.alloc_engine.slot_at(pos)] {
                obs.on_flow_partial(
                    end,
                    self.alloc_engine.keys()[pos],
                    fl.size_bits - fl.remaining_bits,
                );
                record_stretch(&mut self.stretch, fl);
            }
        }
        self.report(self.config.horizon)
    }

    /// Assemble a report from the accumulators as they stand (used both
    /// by [`finish`](FlowRun::finish) and for incremental snapshots).
    fn report(&self, duration: SimDuration) -> FlowSimReport {
        FlowSimReport {
            strategy: self.strategy.name().to_string(),
            topology: self.topo.name().to_string(),
            arrived_flows: self.arrived,
            completed_flows: self.completed,
            unroutable_flows: self.unroutable,
            offered_bits: self.offered_bits,
            delivered_bits: self.delivered_bits,
            duration,
            mean_fct_secs: if self.completed > 0 {
                self.fct_sum / self.completed as f64
            } else {
                0.0
            },
            stretch: self.stretch.clone(),
            mean_jain: if self.weighted_secs > 0.0 {
                self.jain_weighted / self.weighted_secs
            } else {
                0.0
            },
            mean_utilisation: if self.weighted_secs > 0.0 {
                self.util_weighted / self.weighted_secs
            } else {
                0.0
            },
            channel_utilisation: if self.weighted_secs > 0.0 {
                self.chan_weighted
                    .iter()
                    .map(|w| w / self.weighted_secs)
                    .collect()
            } else {
                self.chan_weighted.clone()
            },
        }
    }

    /// A report of the run *so far*: accumulators as of the last
    /// processed event, with `duration` set to the elapsed window. Does
    /// not perturb the run.
    pub fn report_now(&self) -> FlowSimReport {
        self.report(self.eng.now().saturating_duration_since(SimTime::ZERO))
    }
}

fn record_stretch(stretch: &mut WeightedCdf, fl: &ActiveFlow) {
    for (s, &bits) in fl.subpath_bits.iter().enumerate() {
        if bits > 0.0 {
            let st = fl.subpath_hops[s] as f64 / fl.primary_hops as f64;
            stretch.record(st, bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{EcmpStrategy, InrpStrategy, SinglePathStrategy};
    use crate::workload::{PairSelector, WorkloadConfig};
    use inrpp_sim::units::Rate;
    use inrpp_topology::rocketfuel::{generate_isp, Isp};

    fn small_workload(topo: &Topology, rate: f64, secs: u64, seed: u64) -> Workload {
        Workload::generate(
            topo,
            &WorkloadConfig {
                arrival_rate: rate,
                mean_size_bits: 2e6,
                pairs: PairSelector::Uniform,
                ..WorkloadConfig::default()
            },
            SimDuration::from_secs(secs),
            seed,
        )
    }

    #[test]
    fn light_load_delivers_everything() {
        let topo = generate_isp(Isp::Vsnl, 1);
        let w = small_workload(&topo, 5.0, 5, 42);
        let sp = SinglePathStrategy;
        let report = FlowSim::new(
            &topo,
            &sp,
            &w,
            FlowSimConfig {
                horizon: SimDuration::from_secs(60),
            },
        )
        .run();
        assert_eq!(report.arrived_flows, w.len());
        assert_eq!(report.completed_flows + report.unroutable_flows, w.len());
        assert!(
            (report.throughput() - 1.0).abs() < 1e-6,
            "throughput {} under light load",
            report.throughput()
        );
        assert!(report.mean_fct_secs > 0.0);
        assert!(report.mean_jain > 0.0);
    }

    #[test]
    fn conservation_delivered_never_exceeds_offered() {
        let topo = generate_isp(Isp::Vsnl, 2);
        let w = small_workload(&topo, 400.0, 3, 7);
        let sp = SinglePathStrategy;
        let report = FlowSim::new(
            &topo,
            &sp,
            &w,
            FlowSimConfig {
                horizon: SimDuration::from_secs(4),
            },
        )
        .run();
        assert!(report.delivered_bits <= report.offered_bits * (1.0 + 1e-9));
        assert!(report.throughput() <= 1.0 + 1e-9);
    }

    #[test]
    fn overload_throughput_below_one() {
        let topo = generate_isp(Isp::Vsnl, 3);
        // brutal overload: many big flows, short horizon
        let w = Workload::generate(
            &topo,
            &WorkloadConfig {
                arrival_rate: 2000.0,
                mean_size_bits: 20e6,
                pairs: PairSelector::Uniform,
                ..WorkloadConfig::default()
            },
            SimDuration::from_secs(2),
            5,
        );
        let sp = SinglePathStrategy;
        let report = FlowSim::new(
            &topo,
            &sp,
            &w,
            FlowSimConfig {
                horizon: SimDuration::from_secs(3),
            },
        )
        .run();
        assert!(
            report.throughput() < 0.9,
            "expected clear overload, got {}",
            report.throughput()
        );
    }

    #[test]
    fn inrp_beats_sp_under_congestion() {
        // The Fig. 4a headline: URP carries more than SP on the same
        // workload once links saturate. Capacities are scaled down so the
        // workload genuinely overloads the core, and the horizon equals the
        // arrival window so unfinished traffic counts against throughput.
        use inrpp_topology::rocketfuel::{generate_with_capacities, CapacityPlan, Isp};
        let plan = CapacityPlan {
            core: Rate::mbps(1000.0),
            metro: Rate::mbps(500.0),
            stub: Rate::mbps(200.0),
        };
        let topo = generate_with_capacities(&Isp::Exodus.profile(), 1221, plan);
        let w = Workload::generate(
            &topo,
            &WorkloadConfig {
                arrival_rate: 120.0,
                mean_size_bits: 150e6,
                pairs: PairSelector::Uniform,
                ..WorkloadConfig::default()
            },
            SimDuration::from_secs(3),
            1221,
        );
        let cfg = FlowSimConfig {
            horizon: SimDuration::from_secs(3),
        };
        let sp = SinglePathStrategy;
        let inrp = InrpStrategy::with_defaults(&topo);
        let r_sp = FlowSim::new(&topo, &sp, &w, cfg).run();
        let r_inrp = FlowSim::new(&topo, &inrp, &w, cfg).run();
        assert!(
            r_sp.throughput() < 0.95,
            "workload must overload SP, got {}",
            r_sp.throughput()
        );
        assert!(
            r_inrp.throughput() > r_sp.throughput() * 1.02,
            "URP {} must clearly beat SP {}",
            r_inrp.throughput(),
            r_sp.throughput()
        );
    }

    #[test]
    fn stretch_cdf_starts_at_one_for_sp() {
        let topo = generate_isp(Isp::Vsnl, 1);
        let w = small_workload(&topo, 50.0, 3, 3);
        let sp = SinglePathStrategy;
        let mut report = FlowSim::new(
            &topo,
            &sp,
            &w,
            FlowSimConfig {
                horizon: SimDuration::from_secs(30),
            },
        )
        .run();
        // single-path flows can never stretch
        assert!((report.stretch.fraction_le(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inrp_stretch_stays_modest() {
        let topo = generate_isp(Isp::Tiscali, 1221);
        let w = Workload::generate(
            &topo,
            &WorkloadConfig {
                arrival_rate: 300.0,
                mean_size_bits: 30e6,
                pairs: PairSelector::Uniform,
                ..WorkloadConfig::default()
            },
            SimDuration::from_secs(3),
            9,
        );
        let inrp = InrpStrategy::with_defaults(&topo);
        let mut report = FlowSim::new(
            &topo,
            &inrp,
            &w,
            FlowSimConfig {
                horizon: SimDuration::from_secs(5),
            },
        )
        .run();
        // Fig. 4b: at least half the traffic rides the original path...
        assert!(
            report.stretch.fraction_le(1.0) > 0.5,
            "mass at stretch 1.0: {}",
            report.stretch.fraction_le(1.0)
        );
        // ...and stretched traffic stays within ~2x
        assert!(report.stretch.quantile(0.99).unwrap() <= 2.0);
    }

    #[test]
    fn ecmp_runs_and_reports() {
        let topo = generate_isp(Isp::Vsnl, 1);
        let w = small_workload(&topo, 50.0, 2, 17);
        let ecmp = EcmpStrategy;
        let report = FlowSim::new(
            &topo,
            &ecmp,
            &w,
            FlowSimConfig {
                horizon: SimDuration::from_secs(20),
            },
        )
        .run();
        assert_eq!(report.strategy, "ECMP");
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let topo = generate_isp(Isp::Vsnl, 5);
        let w = small_workload(&topo, 100.0, 2, 5);
        let inrp = InrpStrategy::with_defaults(&topo);
        let cfg = FlowSimConfig {
            horizon: SimDuration::from_secs(10),
        };
        let a = FlowSim::new(&topo, &inrp, &w, cfg).run();
        let b = FlowSim::new(&topo, &inrp, &w, cfg).run();
        assert_eq!(a.delivered_bits, b.delivered_bits);
        assert_eq!(a.completed_flows, b.completed_flows);
        assert_eq!(a.mean_jain, b.mean_jain);
    }

    #[test]
    fn empty_workload_reports_zeroes() {
        let topo = Topology::fig3();
        let w = Workload {
            flows: Vec::new(),
            offered_bits: 0.0,
        };
        let sp = SinglePathStrategy;
        let report = FlowSim::new(
            &topo,
            &sp,
            &w,
            FlowSimConfig {
                horizon: SimDuration::from_secs(1),
            },
        )
        .run();
        assert_eq!(report.arrived_flows, 0);
        assert_eq!(report.throughput(), 0.0);
    }

    #[test]
    fn fig3_static_scenario_through_simulator() {
        // Two long flows starting together on the Fig. 3 network: with the
        // INRP strategy both should progress at ~5 Mbps.
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let flows = vec![
            crate::workload::FlowSpec {
                id: 0,
                src: n("1"),
                dst: n("4"),
                size_bits: 5e6 * 10.0, // 10 s at 5 Mbps
                arrival: SimTime::ZERO,
            },
            crate::workload::FlowSpec {
                id: 1,
                src: n("1"),
                dst: n("3"),
                size_bits: 5e6 * 10.0,
                arrival: SimTime::ZERO,
            },
        ];
        let w = Workload {
            offered_bits: flows.iter().map(|f| f.size_bits).sum(),
            flows,
        };
        let inrp = InrpStrategy::with_defaults(&topo);
        let report = FlowSim::new(
            &topo,
            &inrp,
            &w,
            FlowSimConfig {
                horizon: SimDuration::from_secs(11),
            },
        )
        .run();
        assert_eq!(report.completed_flows, 2);
        assert!(
            (report.mean_jain - 1.0).abs() < 1e-6,
            "jain {}",
            report.mean_jain
        );
        assert!((report.mean_fct_secs - 10.0).abs() < 0.1);
        let _ = Rate::ZERO; // keep the import exercised on all feature sets
    }

    #[test]
    fn departures_past_the_end_of_the_clock_are_not_scheduled() {
        // The clock counts u64 nanoseconds, about 584 years. A flow whose
        // finish lies beyond that, by its size or by its arrival, drains
        // until the horizon and is credited as partial.
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let spec = |id, size_bits, arrival| FlowSpec {
            id,
            src: n("1"),
            dst: n("3"),
            size_bits,
            arrival,
        };
        let inrp = InrpStrategy::with_defaults(&topo);
        let cases = [
            // 1e30 bits at 10 Mbps or less: about 3e15 years
            (
                vec![spec(0, 1e30, SimTime::ZERO), spec(1, 5e6, SimTime::ZERO)],
                SimDuration::from_secs(10),
                1,
            ),
            // a 0.5 s transfer that arrives 1 µs before the clock ends
            (
                vec![spec(0, 5e6, SimTime::from_nanos(u64::MAX - 1_000))],
                SimDuration::MAX,
                0,
            ),
        ];
        for (flows, horizon, completed) in cases {
            let w = Workload {
                offered_bits: flows.iter().map(|f| f.size_bits).sum(),
                flows,
            };
            let report = FlowSim::new(&topo, &inrp, &w, FlowSimConfig { horizon }).run();
            assert_eq!(report.arrived_flows, w.flows.len());
            assert_eq!(report.completed_flows, completed);
            assert!(report.delivered_bits < report.offered_bits);
        }
    }

    // ---- stepping / feed ------------------------------------------------

    /// Observer that folds every hook's payload into an FNV-style hash,
    /// bit-exactly — two runs with identical streams get identical
    /// fingerprints.
    #[derive(Default)]
    struct StreamFp(u64);

    impl StreamFp {
        fn mix(&mut self, x: u64) {
            let mut h = self.0 ^ x;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
            self.0 = h ^ (h >> 29);
        }
        fn mix_f(&mut self, x: f64) {
            self.mix(x.to_bits());
        }
    }

    impl FlowObserver for StreamFp {
        fn on_flow_start(&mut self, t: SimTime, spec: &FlowSpec, subpaths: usize) {
            self.mix(1);
            self.mix(t.as_nanos());
            self.mix(spec.id);
            self.mix(subpaths as u64);
        }
        fn on_flow_unroutable(&mut self, t: SimTime, spec: &FlowSpec) {
            self.mix(2);
            self.mix(t.as_nanos());
            self.mix(spec.id);
        }
        fn on_flow_end(&mut self, t: SimTime, flow: u64, delivered_bits: f64, fct_secs: f64) {
            self.mix(3);
            self.mix(t.as_nanos());
            self.mix(flow);
            self.mix_f(delivered_bits);
            self.mix_f(fct_secs);
        }
        fn on_flow_partial(&mut self, t: SimTime, flow: u64, delivered_bits: f64) {
            self.mix(4);
            self.mix(t.as_nanos());
            self.mix(flow);
            self.mix_f(delivered_bits);
        }
        fn on_allocation(&mut self, t: SimTime, flows: &[u64], rates: &[f64]) {
            self.mix(5);
            self.mix(t.as_nanos());
            for (&f, &r) in flows.iter().zip(rates) {
                self.mix(f);
                self.mix_f(r);
            }
        }
        fn on_sample(&mut self, t: SimTime, delivered_bits: f64) {
            self.mix(6);
            self.mix(t.as_nanos());
            self.mix_f(delivered_bits);
        }
    }

    /// Bit-exact report comparison (f64 fields via `to_bits`).
    fn assert_reports_identical(a: &FlowSimReport, b: &FlowSimReport) {
        assert_eq!(a.arrived_flows, b.arrived_flows);
        assert_eq!(a.completed_flows, b.completed_flows);
        assert_eq!(a.unroutable_flows, b.unroutable_flows);
        assert_eq!(a.offered_bits.to_bits(), b.offered_bits.to_bits());
        assert_eq!(a.delivered_bits.to_bits(), b.delivered_bits.to_bits());
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.mean_fct_secs.to_bits(), b.mean_fct_secs.to_bits());
        assert_eq!(a.mean_jain.to_bits(), b.mean_jain.to_bits());
        assert_eq!(a.mean_utilisation.to_bits(), b.mean_utilisation.to_bits());
        assert_eq!(a.channel_utilisation.len(), b.channel_utilisation.len());
        for (x, y) in a.channel_utilisation.iter().zip(&b.channel_utilisation) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.stretch, b.stretch);
    }

    #[test]
    fn stepping_run_matches_straight_run() {
        let topo = generate_isp(Isp::Vsnl, 5);
        let w = small_workload(&topo, 150.0, 3, 11);
        let inrp = InrpStrategy::with_defaults(&topo);
        let cfg = FlowSimConfig {
            horizon: SimDuration::from_secs(8),
        };
        let mut fp_a = StreamFp::default();
        let straight = FlowSim::new(&topo, &inrp, &w, cfg)
            .start()
            .finish(&mut fp_a);

        let mut fp_b = StreamFp::default();
        let mut run = FlowSim::new(&topo, &inrp, &w, cfg).start();
        // uneven boundaries, including one past the horizon
        for secs in [1, 2, 3, 5, 30] {
            run.run_until(SimTime::from_secs(secs), &mut fp_b);
        }
        let stepped = run.finish(&mut fp_b);

        assert_reports_identical(&straight, &stepped);
        assert_eq!(fp_a.0, fp_b.0, "observer streams diverged");
    }

    #[test]
    fn fault_plan_freezes_and_recovers_flows() {
        use inrpp_sim::fault::FaultEvent;
        let topo = Topology::line(3, Rate::mbps(10.0), SimDuration::from_millis(1));
        let w = Workload {
            flows: vec![FlowSpec {
                id: 0,
                src: NodeId(0),
                dst: NodeId(2),
                size_bits: 1e7,
                arrival: SimTime::ZERO,
            }],
            offered_bits: 1e7,
        };
        let sp = SinglePathStrategy;
        let cfg = FlowSimConfig {
            horizon: SimDuration::from_secs(10),
        };
        let clean = FlowSim::new(&topo, &sp, &w, cfg).run();
        assert_eq!(clean.completed_flows, 1);
        assert!(
            (clean.mean_fct_secs - 1.0).abs() < 0.01,
            "{}",
            clean.mean_fct_secs
        );

        // A 400 ms outage on the second hop stalls the flow for 400 ms.
        let outage =
            FaultPlan::link_outage(1, SimTime::from_millis(300), SimTime::from_millis(700))
                .unwrap();
        let faulted = FlowSim::new(&topo, &sp, &w, cfg)
            .with_faults(outage.clone())
            .run();
        assert_eq!(faulted.completed_flows, 1);
        assert!(
            (faulted.mean_fct_secs - 1.4).abs() < 0.01,
            "{}",
            faulted.mean_fct_secs
        );

        // Degrading to half capacity doubles the remaining drain time.
        let scale = FaultPlan::try_new(vec![FaultEvent {
            at: SimTime::from_millis(500),
            kind: FaultKind::CapacityScale {
                link: 0,
                fraction: 0.5,
            },
        }])
        .unwrap();
        let scaled = FlowSim::new(&topo, &sp, &w, cfg).with_faults(scale).run();
        assert!(
            (scaled.mean_fct_secs - 1.5).abs() < 0.01,
            "{}",
            scaled.mean_fct_secs
        );

        // A loss burst derates goodput to (1 - drop) of capacity.
        let burst = FaultPlan::try_new(vec![FaultEvent {
            at: SimTime::from_millis(100),
            kind: FaultKind::LossBurst {
                link: 1,
                drop_chance: 0.5,
                until: SimTime::from_millis(500),
            },
        }])
        .unwrap();
        let bursty = FlowSim::new(&topo, &sp, &w, cfg).with_faults(burst).run();
        assert!(
            (bursty.mean_fct_secs - 1.2).abs() < 0.01,
            "{}",
            bursty.mean_fct_secs
        );

        // A node crash downs every adjacent link; recovery restores them.
        let crash = FaultPlan::try_new(vec![
            FaultEvent {
                at: SimTime::from_millis(200),
                kind: FaultKind::NodeCrash { node: 1 },
            },
            FaultEvent {
                at: SimTime::from_millis(450),
                kind: FaultKind::NodeRecover { node: 1 },
            },
        ])
        .unwrap();
        let crashed = FlowSim::new(&topo, &sp, &w, cfg).with_faults(crash).run();
        assert!(
            (crashed.mean_fct_secs - 1.25).abs() < 0.01,
            "{}",
            crashed.mean_fct_secs
        );

        // Stepping across a boundary inside the outage changes nothing.
        let mut fp_a = StreamFp::default();
        let straight = FlowSim::new(&topo, &sp, &w, cfg)
            .with_faults(outage.clone())
            .start()
            .finish(&mut fp_a);
        let mut fp_b = StreamFp::default();
        let mut stepped = FlowSim::new(&topo, &sp, &w, cfg)
            .with_faults(outage)
            .start();
        stepped.run_until(SimTime::from_millis(500), &mut fp_b);
        let stepped = stepped.finish(&mut fp_b);
        assert_reports_identical(&straight, &stepped);
        assert_eq!(fp_a.0, fp_b.0, "a mid-outage boundary changed the stream");
    }

    #[test]
    fn report_now_snapshots_without_perturbing_the_run() {
        let topo = generate_isp(Isp::Vsnl, 5);
        let w = small_workload(&topo, 100.0, 2, 3);
        let sp = SinglePathStrategy;
        let cfg = FlowSimConfig {
            horizon: SimDuration::from_secs(10),
        };
        let mut fp_a = StreamFp::default();
        let straight = FlowSim::new(&topo, &sp, &w, cfg).start().finish(&mut fp_a);
        let mut fp_b = StreamFp::default();
        let mut run = FlowSim::new(&topo, &sp, &w, cfg).start();
        run.run_until(SimTime::from_secs(1), &mut fp_b);
        let snap = run.report_now();
        assert!(snap.arrived_flows > 0);
        assert!(snap.delivered_bits <= straight.delivered_bits);
        let end = run.finish(&mut fp_b);
        assert_reports_identical(&straight, &end);
        assert_eq!(fp_a.0, fp_b.0, "observer streams diverged");
    }

    #[test]
    fn feed_streams_arrivals_into_a_live_run() {
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let w = Workload {
            flows: vec![FlowSpec {
                id: 0,
                src: n("1"),
                dst: n("4"),
                size_bits: 5e6,
                arrival: SimTime::ZERO,
            }],
            offered_bits: 5e6,
        };
        let inrp = InrpStrategy::with_defaults(&topo);
        let cfg = FlowSimConfig {
            horizon: SimDuration::from_secs(30),
        };
        let fed_flow = FlowSpec {
            id: 1,
            src: n("1"),
            dst: n("3"),
            size_bits: 5e6,
            arrival: SimTime::from_secs(2),
        };

        let run_with_feed = |fp: &mut StreamFp| {
            let mut run = FlowSim::new(&topo, &inrp, &w, cfg).start();
            run.run_until(SimTime::from_secs(1), fp);
            run.feed(fed_flow.clone())
                .expect("arrival is in the future");
            run.finish(fp)
        };
        let mut fp_a = StreamFp::default();
        let a = run_with_feed(&mut fp_a);
        assert_eq!(a.arrived_flows, 2);
        assert_eq!(a.completed_flows, 2);

        // same feed schedule → bit-identical run
        let mut fp_b = StreamFp::default();
        let b = run_with_feed(&mut fp_b);
        assert_reports_identical(&a, &b);
        assert_eq!(fp_a.0, fp_b.0);

        // feeding into the past is rejected
        let mut run = FlowSim::new(&topo, &inrp, &w, cfg).start();
        run.run_until(SimTime::from_secs(5), &mut ());
        let mut stale = fed_flow.clone();
        stale.arrival = SimTime::from_secs(2);
        stale.id = 9;
        assert!(run.feed(stale).is_err());
    }

    #[test]
    fn checkpoint_survives_fed_flows() {
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let w = Workload {
            flows: vec![FlowSpec {
                id: 0,
                src: n("1"),
                dst: n("4"),
                size_bits: 8e6,
                arrival: SimTime::ZERO,
            }],
            offered_bits: 8e6,
        };
        let inrp = InrpStrategy::with_defaults(&topo);
        let cfg = FlowSimConfig {
            horizon: SimDuration::from_secs(30),
        };
        let fed_flow = FlowSpec {
            id: 1,
            src: n("1"),
            dst: n("3"),
            size_bits: 8e6,
            arrival: SimTime::from_secs(2),
        };

        // straight: feed at 1 s, run to completion
        let mut fp_a = StreamFp::default();
        let mut straight = FlowSim::new(&topo, &inrp, &w, cfg).start();
        straight.run_until(SimTime::from_secs(1), &mut fp_a);
        straight.feed(fed_flow.clone()).unwrap();
        let a = straight.finish(&mut fp_a);

        // interrupted: identical feed, stopped *between* the feed and the
        // fed flow's arrival
        let mut fp_b = StreamFp::default();
        let mut head = FlowSim::new(&topo, &inrp, &w, cfg).start();
        head.run_until(SimTime::from_secs(1), &mut fp_b);
        head.feed(fed_flow.clone()).unwrap();
        head.run_until(SimTime::from_millis(1_500), &mut fp_b);
        drop(head);

        // resumed the way a session checkpoint resumes: a fresh run
        // replays the logged run_until/feed calls with the observer
        // muted, then finishes with it
        let mut tail = FlowSim::new(&topo, &inrp, &w, cfg).start();
        tail.run_until(SimTime::from_secs(1), &mut ());
        tail.feed(fed_flow).unwrap();
        tail.run_until(SimTime::from_millis(1_500), &mut ());
        let b = tail.finish(&mut fp_b);

        assert_reports_identical(&a, &b);
        assert_eq!(fp_a.0, fp_b.0, "fed-flow checkpoint changed the stream");
        assert_eq!(b.arrived_flows, 2);
        assert_eq!(b.completed_flows, 2);
    }
}
