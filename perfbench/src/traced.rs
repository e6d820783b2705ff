//! The traced run: a copy of `harness::run`'s event loop, built only from
//! the workspace's public API, with a [`Ledger`] span around every call into
//! a layer.
//!
//! The copy schedules, draws random numbers and calls the protocol in
//! exactly the order `harness::run` does, so for one configuration it must
//! produce the same event count, the same `Report` and the same diagnostic
//! snapshot; [`gate`] checks that, because a copy that diverged would be
//! measuring a different program. Protocol self time is the `Driver::step`
//! span minus its host-callback children.

use crate::ledger::{Ledger, SpanId};
use churn::TraceEvent;
use harness::fxhash::FxHashMap;
use harness::metrics::Metrics;
use harness::{Oracle, Report, RunConfig, RunResult, Workload};
use mspastry::{
    Delivery, Driver, DropReason, Event, Host, Id, LookupId, Message, Node, NodeId, TimerKind,
};
use netsim::{EndpointId, EventQueue, Network};
use obs::{HistId, Obs};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::Topology;

const NO_JOIN: u64 = u64::MAX;
const NOT_ACTIVE: u32 = u32::MAX;

/// Every `TREE_EVERY`-th event keeps its full span tree.
pub const TREE_EVERY: u64 = 1 << 16;
/// Most span trees kept per run.
pub const MAX_TREES: usize = 256;

/// Message kinds, indexed by [`msg_kind`]; each is `Message::kind_name`.
pub const MSG_KINDS: [&str; 22] = [
    "join-request",
    "join-reply",
    "ls-probe",
    "ls-probe-reply",
    "heartbeat",
    "rt-probe",
    "rt-probe-reply",
    "rt-row-request",
    "rt-row-reply",
    "rt-row-announce",
    "rt-slot-request",
    "rt-slot-reply",
    "distance-probe",
    "distance-probe-reply",
    "distance-report",
    "nn-leafset-request",
    "nn-leafset-reply",
    "nn-row-request",
    "nn-row-reply",
    "lookup",
    "ack",
    "leaving",
];

/// Timer kinds, indexed by [`timer_kind`].
pub const TIMER_KINDS: [&str; 9] = [
    "Heartbeat",
    "RtProbeTick",
    "RtMaintenance",
    "SelfTune",
    "ProbeTimeout",
    "AckTimeout",
    "DistanceProbeNext",
    "DistanceProbeTimeout",
    "JoinRetry",
];

/// Local commands a host feeds a node, besides messages and timers.
pub const COMMANDS: [&str; 3] = ["join", "lookup_issue", "leave"];

/// The protocol mechanisms, named after the `mspastry` module that
/// `node.rs` dispatches each message, timer or command to.
pub const MECHANISMS: [&str; 4] = ["consistency", "reliability", "maintenance", "measurement"];

/// Mechanism (index into [`MECHANISMS`]) of each message kind.
pub const MSG_MECHANISM: [usize; 22] = [
    0, 0, 0, 0, // join-request, join-reply, ls-probe, ls-probe-reply
    2, 2, 2, 2, 2, 2, 2, 2, // heartbeat and the routing-table exchange
    3, 3, 3, 3, 3, 3, 3, // distance probing and nearest-neighbour discovery
    1, 1, // lookup, ack
    0, // leaving
];

/// Mechanism of each timer kind.
pub const TIMER_MECHANISM: [usize; 9] = [2, 2, 2, 2, 0, 1, 3, 3, 0];

/// Mechanism of each local command.
pub const COMMAND_MECHANISM: [usize; 3] = [0, 1, 0];

/// Index of a message's kind in [`MSG_KINDS`].
pub fn msg_kind(m: &Message) -> usize {
    match m {
        Message::JoinRequest { .. } => 0,
        Message::JoinReply { .. } => 1,
        Message::LsProbe { .. } => 2,
        Message::LsProbeReply { .. } => 3,
        Message::Heartbeat { .. } => 4,
        Message::RtProbe { .. } => 5,
        Message::RtProbeReply { .. } => 6,
        Message::RtRowRequest { .. } => 7,
        Message::RtRowReply { .. } => 8,
        Message::RtRowAnnounce { .. } => 9,
        Message::RtSlotRequest { .. } => 10,
        Message::RtSlotReply { .. } => 11,
        Message::DistanceProbe { .. } => 12,
        Message::DistanceProbeReply { .. } => 13,
        Message::DistanceReport { .. } => 14,
        Message::NnLeafSetRequest => 15,
        Message::NnLeafSetReply { .. } => 16,
        Message::NnRowRequest { .. } => 17,
        Message::NnRowReply { .. } => 18,
        Message::Lookup { .. } => 19,
        Message::Ack { .. } => 20,
        Message::Leaving => 21,
    }
}

/// Index of a timer's kind in [`TIMER_KINDS`].
pub fn timer_kind(k: &TimerKind) -> usize {
    match k {
        TimerKind::Heartbeat => 0,
        TimerKind::RtProbeTick => 1,
        TimerKind::RtMaintenance => 2,
        TimerKind::SelfTune => 3,
        TimerKind::ProbeTimeout { .. } => 4,
        TimerKind::AckTimeout { .. } => 5,
        TimerKind::DistanceProbeNext { .. } => 6,
        TimerKind::DistanceProbeTimeout { .. } => 7,
        TimerKind::JoinRetry => 8,
    }
}

/// Span names of the ledger, in [`SpanId`] order.
pub mod span {
    use super::SpanId;
    pub const QUEUE_POP: SpanId = 1;
    pub const QUEUE_SCHEDULE: SpanId = 2;
    pub const NETWORK: SpanId = 3;
    pub const ROW_BUILD: SpanId = 4;
    pub const TOPOLOGY_BUILD: SpanId = 5;
    pub const CODEC: SpanId = 6;
    pub const METRICS_ON_SEND: SpanId = 7;
    pub const METRICS_ON_SEND_KIND: SpanId = 8;
    pub const METRICS_LOOKUP: SpanId = 9;
    pub const METRICS_OTHER: SpanId = 10;
    pub const ORACLE: SpanId = 11;
    pub const ADDR: SpanId = 12;
    pub const SESSION: SpanId = 13;
    /// First message-kind step span; kind `k` is `MSG + k`.
    pub const MSG: SpanId = 14;
    /// First timer-kind step span.
    pub const TIMER: SpanId = MSG + super::MSG_KINDS.len();
    /// First local-command step span.
    pub const COMMAND: SpanId = TIMER + super::TIMER_KINDS.len();
    /// Number of spans.
    pub const COUNT: SpanId = COMMAND + super::COMMANDS.len();
}

/// The ledger's span names; step spans are named like their metrics
/// (`mspastry.msg.<kind>`, `mspastry.timer.<TimerKind>`, `mspastry.join`).
pub fn span_names() -> Vec<&'static str> {
    static STEPS: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    let steps = STEPS.get_or_init(|| {
        let msgs = MSG_KINDS.iter().map(|k| format!("mspastry.msg.{k}"));
        let timers = TIMER_KINDS.iter().map(|k| format!("mspastry.timer.{k}"));
        let commands = COMMANDS.iter().map(|k| format!("mspastry.{k}"));
        msgs.chain(timers)
            .chain(commands)
            .map(|n| &*n.leak())
            .collect()
    });
    let mut names = vec![
        "harness.loop",
        "netsim.queue.pop",
        "netsim.queue.schedule",
        "netsim.network.sample",
        "topology.row_build",
        "topology.build",
        "codec.encoded_len",
        "harness.metrics.on_send",
        "harness.metrics.on_send_kind",
        "harness.metrics.lookup",
        "harness.metrics.other",
        "harness.oracle",
        "harness.addr",
        "harness.session",
    ];
    names.extend(steps);
    debug_assert_eq!(names.len(), span::COUNT);
    names
}

/// Deterministic work counters gathered next to the spans.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Calls to `Network::sample_delivery`.
    pub sample_calls: u64,
    /// `sample_delivery` calls that lost the message.
    pub lost: u64,
    /// Delay rows materialised during the run.
    pub rows_built: u64,
    /// Wire bytes per `codec::encoded_len`.
    pub bytes: u64,
    /// Host callbacks made from inside `Driver::step`.
    pub host_calls: u64,
    /// `Driver::step` calls for timers.
    pub timer_steps: u64,
    /// Timer steps that made no host callback.
    pub noop_timer_steps: u64,
    /// Timers popped for endpoints with no driver.
    pub dead_endpoint_timers: u64,
    /// Sum of the queue length after each pop.
    pub depth_sum: u64,
    /// Queue high-water mark.
    pub depth_max: u64,
    /// Entries of the lookup-source map at the end.
    pub src_ep_entries: u64,
}

impl Counters {
    /// Adds another run's counters (the high-water mark takes the max).
    pub fn merge(&mut self, o: &Counters) {
        self.sample_calls += o.sample_calls;
        self.lost += o.lost;
        self.rows_built += o.rows_built;
        self.bytes += o.bytes;
        self.host_calls += o.host_calls;
        self.timer_steps += o.timer_steps;
        self.noop_timer_steps += o.noop_timer_steps;
        self.dead_endpoint_timers += o.dead_endpoint_timers;
        self.depth_sum += o.depth_sum;
        self.depth_max = self.depth_max.max(o.depth_max);
        self.src_ep_entries += o.src_ep_entries;
    }
}

/// What a traced run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// Simulation events, counted as `harness::run` counts them.
    pub sim_events: u64,
    /// The run's §5.2 metrics.
    pub report: Report,
    /// End-of-run snapshot of the diagnostic registry.
    pub diag: obs::Snapshot,
    /// Span self times, calls and sampled trees.
    pub ledger: Ledger,
    /// Work counters.
    pub counters: Counters,
}

/// Checks that a traced run reproduced the untraced one; `Err` names the
/// first difference.
pub fn gate(traced: &TracedRun, reference: &RunResult) -> Result<(), String> {
    if traced.sim_events != reference.sim_events {
        return Err(format!(
            "sim_events differ: traced {} vs harness::run {}",
            traced.sim_events, reference.sim_events
        ));
    }
    if traced.report != reference.report {
        return Err("Report differs from harness::run's".into());
    }
    if traced.diag != reference.diag {
        return Err("diagnostic snapshot differs from harness::run's".into());
    }
    Ok(())
}

#[derive(Debug)]
enum Ev {
    Msg {
        from: NodeId,
        to: EndpointId,
        msg: Message,
    },
    Timer {
        node: EndpointId,
        kind: TimerKind,
    },
    Join(usize),
    Fail(usize),
    NextLookup {
        node: EndpointId,
    },
    End,
}

#[derive(Clone, Copy, PartialEq)]
enum SessionState {
    Pending,
    Alive,
    Dead,
}

struct World {
    cfg: RunConfig,
    net: Network,
    queue: EventQueue<Ev>,
    metrics: Metrics,
    obs: Obs,
    h_latency: HistId,
    h_hops: HistId,
    oracle: Oracle,
    rng: SmallRng,
    node_ids: Vec<NodeId>,
    ep_of_id: FxHashMap<u128, EndpointId>,
    ep_of_session: Vec<Option<EndpointId>>,
    session_of_ep: Vec<usize>,
    session_state: Vec<SessionState>,
    active_list: Vec<EndpointId>,
    active_pos: Vec<u32>,
    join_started: Vec<u64>,
    src_ep: FxHashMap<LookupId, EndpointId>,
    end_us: u64,
    sim_events: u64,
    /// Routers whose delay row is known to be materialised (all of them on
    /// a dense matrix).
    row_known: Vec<bool>,
    ledger: Ledger,
    counters: Counters,
}

struct TracedHost<'a> {
    ep: EndpointId,
    now: u64,
    world: &'a mut World,
}

impl Host for TracedHost<'_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.world.counters.host_calls += 1;
        self.world.apply_send(self.now, self.ep, to, msg);
    }

    fn set_timer(&mut self, delay_us: u64, kind: TimerKind) {
        let w = &mut *self.world;
        w.counters.host_calls += 1;
        w.ledger.enter(span::QUEUE_SCHEDULE);
        w.queue.schedule_in(
            delay_us,
            Ev::Timer {
                node: self.ep,
                kind,
            },
        );
        w.ledger.exit();
    }

    fn deliver(&mut self, delivery: Delivery) {
        self.world.counters.host_calls += 1;
        self.world.apply_deliver(self.now, self.ep, delivery);
    }

    fn became_active(&mut self) {
        self.world.counters.host_calls += 1;
        self.world.apply_became_active(self.now, self.ep);
    }

    fn lookup_dropped(&mut self, _id: LookupId, _reason: DropReason) {
        let w = &mut *self.world;
        w.counters.host_calls += 1;
        w.ledger.enter(span::METRICS_OTHER);
        w.metrics.on_drop_report();
        w.ledger.exit();
    }
}

/// Runs `cfg` through the traced copy of the run loop.
///
/// # Panics
///
/// On configurations the copy does not reproduce: scripted workloads,
/// outages, recorded deliveries, hop tracing or time-series sampling.
pub fn run(cfg: RunConfig) -> TracedRun {
    assert!(
        !matches!(cfg.workload, Workload::Scripted(_))
            && cfg.outages.is_empty()
            && !cfg.record_deliveries
            && cfg.trace_sample_rate == 0.0
            && cfg.ts_interval_us == 0
            && !cfg.profile,
        "the traced run covers Poisson/None workloads without telemetry"
    );
    let mut ledger = Ledger::new(span_names(), MAX_TREES);
    ledger.enter(span::TOPOLOGY_BUILD);
    let topo = Topology::build(cfg.topology.clone());
    ledger.exit();
    let dense = topo.delay_rows_materialized() == topo.router_count();
    let row_known = vec![dense; topo.router_count()];
    let mut net = Network::new(topo, cfg.seed ^ 0x6e65_7477);
    net.set_loss_rate(cfg.network_loss_rate);
    let obs = Obs::new(cfg.trace_sample_rate, cfg.trace_capacity, false);
    net.set_obs(obs.clone());
    let h_latency = obs.histogram("lookup.latency_us");
    let h_hops = obs.histogram("lookup.hops");
    let metrics = Metrics::new(cfg.warmup_us, cfg.metrics_window_us, cfg.lookup_timeout_us);
    let end_us = cfg.warmup_us + cfg.trace.duration_us();
    let n_sessions = cfg.trace.sessions().len();
    let rng = SmallRng::seed_from_u64(cfg.seed);
    let mut r = Runner {
        drivers: Vec::new(),
        world: World {
            net,
            queue: EventQueue::new(),
            metrics,
            obs,
            h_latency,
            h_hops,
            oracle: Oracle::new(),
            rng,
            node_ids: Vec::new(),
            ep_of_id: FxHashMap::default(),
            ep_of_session: vec![None; n_sessions],
            session_of_ep: Vec::new(),
            session_state: vec![SessionState::Pending; n_sessions],
            active_list: Vec::new(),
            active_pos: Vec::new(),
            join_started: Vec::new(),
            src_ep: FxHashMap::default(),
            end_us,
            sim_events: 0,
            row_known,
            ledger,
            counters: Counters::default(),
            cfg,
        },
    };
    r.schedule_trace();
    r.run()
}

struct Runner {
    drivers: Vec<Option<Driver>>,
    world: World,
}

impl Runner {
    fn schedule_trace(&mut self) {
        let w = &mut self.world;
        w.ledger.enter(span::QUEUE_SCHEDULE);
        let initial: Vec<usize> = w
            .cfg
            .trace
            .sessions()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.arrive_us == 0)
            .map(|(i, _)| i)
            .collect();
        let spread = w.cfg.warmup_us * 4 / 5;
        let k = initial.len().max(1) as u64;
        for (n, &i) in initial.iter().enumerate() {
            w.queue.schedule_at(n as u64 * spread / k, Ev::Join(i));
        }
        for (t, ev) in w.cfg.trace.events() {
            match ev {
                TraceEvent::Join(i) => {
                    if w.cfg.trace.sessions()[i].arrive_us > 0 {
                        w.queue.schedule_at(t + w.cfg.warmup_us, Ev::Join(i));
                    }
                }
                TraceEvent::Fail(i) => {
                    w.queue.schedule_at(t + w.cfg.warmup_us, Ev::Fail(i));
                }
            }
        }
        w.queue.schedule_at(w.end_us, Ev::End);
        w.ledger.exit();
    }

    fn run(mut self) -> TracedRun {
        loop {
            // An event's top-level span hands over to the next pop, so the
            // loop's bookkeeping after an event is charged to the queue.
            let w = &mut self.world;
            if !w.ledger.is_current(span::QUEUE_POP) {
                w.ledger.cancel_hand_over();
                w.ledger.enter(span::QUEUE_POP);
            }
            let ev = w.queue.pop();
            w.counters.depth_sum += w.queue.len() as u64;
            w.ledger.exit();
            let Some(ev) = ev else {
                break;
            };
            let now = ev.at_us;
            w.sim_events += 1;
            let sampled = w.sim_events.is_multiple_of(TREE_EVERY);
            if sampled {
                w.ledger.begin_tree(w.sim_events);
            } else {
                w.ledger.hand_over(span::QUEUE_POP);
            }
            match ev.payload {
                Ev::End => {
                    self.world.ledger.cancel_hand_over();
                    self.world.ledger.end_tree();
                    break;
                }
                Ev::Join(i) => self.on_trace_join(now, i),
                Ev::Fail(i) => self.on_trace_fail(now, i),
                Ev::Msg { from, to, msg } => {
                    debug_assert_eq!(MSG_KINDS[msg_kind(&msg)], msg.kind_name());
                    let s = span::MSG + msg_kind(&msg);
                    self.dispatch(now, to, Event::Receive { from, msg }, s);
                }
                Ev::Timer { node, kind } => {
                    let before = self.world.counters.host_calls;
                    let s = span::TIMER + timer_kind(&kind);
                    let stepped = self.dispatch(now, node, Event::Timer(kind), s);
                    let c = &mut self.world.counters;
                    if !stepped {
                        c.dead_endpoint_timers += 1;
                    } else {
                        c.timer_steps += 1;
                        if c.host_calls == before {
                            c.noop_timer_steps += 1;
                        }
                    }
                }
                Ev::NextLookup { node } => self.on_next_lookup(now, node),
            }
            if sampled {
                self.world.ledger.end_tree();
            }
        }
        let mut w = self.world;
        w.ledger.enter(span::METRICS_OTHER);
        let report = w.metrics.finalize(w.end_us);
        w.ledger.exit();
        let diag = w.obs.snapshot();
        w.counters.depth_max = w.queue.high_water_mark() as u64;
        w.counters.src_ep_entries = w.src_ep.len() as u64;
        w.ledger.finish();
        TracedRun {
            sim_events: w.sim_events,
            report,
            diag,
            ledger: w.ledger,
            counters: w.counters,
        }
    }

    fn on_trace_join(&mut self, now: u64, session: usize) {
        let w = &mut self.world;
        w.ledger.enter(span::SESSION);
        if w.session_state[session] != SessionState::Pending {
            w.ledger.exit();
            return;
        }
        w.session_state[session] = SessionState::Alive;
        let ep = w.net.add_endpoint();
        let id = Id::random(&mut w.rng);
        self.drivers.push(Some(Driver::new(Node::with_obs(
            id,
            w.cfg.protocol.clone(),
            w.obs.clone(),
        ))));
        w.node_ids.push(id);
        w.session_of_ep.push(session);
        w.active_pos.push(NOT_ACTIVE);
        w.join_started.push(now);
        w.ledger.enter(span::ADDR);
        w.ep_of_id.insert(id.0, ep);
        w.ledger.exit();
        w.ep_of_session[session] = Some(ep);
        let seed = self.pick_seed(ep);
        self.dispatch(now, ep, Event::Join { seed }, span::COMMAND);
        self.world.ledger.exit();
    }

    fn pick_seed(&mut self, joiner: EndpointId) -> Option<NodeId> {
        let w = &mut self.world;
        if !w.active_list.is_empty() {
            let ep = w.active_list[w.rng.gen_range(0..w.active_list.len())];
            return Some(w.node_ids[ep]);
        }
        let alive = |e: &usize| *e != joiner && self.drivers[*e].is_some();
        let n_alive = (0..self.drivers.len()).filter(alive).count();
        if n_alive == 0 {
            None
        } else {
            let k = w.rng.gen_range(0..n_alive);
            let ep = (0..self.drivers.len())
                .filter(alive)
                .nth(k)
                .expect("k < n_alive");
            Some(w.node_ids[ep])
        }
    }

    fn on_trace_fail(&mut self, now: u64, session: usize) {
        self.world.ledger.enter(span::SESSION);
        match self.world.session_state[session] {
            SessionState::Pending => {
                self.world.session_state[session] = SessionState::Dead;
            }
            SessionState::Dead => {}
            SessionState::Alive => {
                self.world.session_state[session] = SessionState::Dead;
                let ep = self.world.ep_of_session[session].expect("alive session has endpoint");
                let was_active = self.drivers[ep]
                    .as_ref()
                    .is_some_and(|d| d.node().is_active());
                if was_active
                    && self.world.cfg.graceful_leave_fraction > 0.0
                    && self
                        .world
                        .rng
                        .gen_bool(self.world.cfg.graceful_leave_fraction)
                {
                    self.dispatch(now, ep, Event::Leave, span::COMMAND + 2);
                }
                let w = &mut self.world;
                self.drivers[ep] = None;
                if was_active {
                    w.ledger.enter(span::ORACLE);
                    w.oracle.remove(w.node_ids[ep]);
                    w.ledger.exit();
                    w.ledger.enter(span::METRICS_OTHER);
                    w.metrics.set_active_delta(now, -1);
                    w.ledger.exit();
                    w.remove_active(ep);
                }
            }
        }
        self.world.ledger.exit();
    }

    fn on_next_lookup(&mut self, now: u64, ep: EndpointId) {
        let Workload::Poisson {
            rate_per_node_per_sec,
        } = self.world.cfg.workload
        else {
            return;
        };
        self.world.ledger.enter(span::SESSION);
        let usable = self.drivers[ep]
            .as_ref()
            .is_some_and(|d| d.node().is_active());
        if usable {
            let key = Id::random(&mut self.world.rng);
            self.dispatch(
                now,
                ep,
                Event::Lookup { key, payload: 0 },
                span::COMMAND + 1,
            );
            let w = &mut self.world;
            let delay = exp_interval_us(&mut w.rng, rate_per_node_per_sec);
            w.ledger.enter(span::QUEUE_SCHEDULE);
            w.queue.schedule_in(delay, Ev::NextLookup { node: ep });
            w.ledger.exit();
        }
        self.world.ledger.exit();
    }

    /// Feeds one event to the endpoint's driver inside step span `s`.
    ///
    /// The span opens before the driver lookup, which is the first touch of
    /// the node's memory. An event for an endpoint with no driver is
    /// dropped, its span charged to `harness.session`; returns whether the
    /// node stepped.
    fn dispatch(&mut self, now: u64, ep: EndpointId, event: Event, s: SpanId) -> bool {
        self.world.ledger.enter(s);
        let Some(driver) = self.drivers[ep].as_mut() else {
            drop(event);
            self.world.ledger.exit_as(span::SESSION);
            return false;
        };
        let mut host = TracedHost {
            ep,
            now,
            world: &mut self.world,
        };
        driver.step(now, event, &mut host);
        self.world.ledger.exit();
        true
    }
}

impl World {
    fn remove_active(&mut self, ep: EndpointId) {
        let pos = std::mem::replace(&mut self.active_pos[ep], NOT_ACTIVE);
        if pos != NOT_ACTIVE {
            let last = self.active_list.pop().unwrap();
            if last != ep {
                self.active_list[pos as usize] = last;
                self.active_pos[last] = pos;
            }
        }
    }

    /// Runs a network call that reads the delay row of `src`'s router. On a
    /// lazy matrix, a call during which the materialised-row count rose is
    /// charged to `topology.row_build` instead of the network.
    fn net_call<R>(&mut self, src: EndpointId, f: impl FnOnce(&mut Network) -> R) -> R {
        self.ledger.enter(span::NETWORK);
        let router = self.net.router_of(src) as usize;
        if self.row_known[router] {
            let r = f(&mut self.net);
            self.ledger.exit();
            return r;
        }
        let before = self.net.topology().delay_rows_materialized();
        let r = f(&mut self.net);
        let built = self.net.topology().delay_rows_materialized() - before;
        if built > 0 {
            self.row_known[router] = true;
            self.counters.rows_built += built as u64;
            self.ledger.exit_as(span::ROW_BUILD);
        } else {
            self.ledger.exit();
        }
        r
    }

    fn apply_deliver(&mut self, now: u64, ep: EndpointId, d: Delivery) {
        let deliverer = self.node_ids[ep];
        self.ledger.enter(span::ORACLE);
        let correct = self.oracle.root_of(d.key) == Some(deliverer);
        self.ledger.exit();
        self.ledger.enter(span::ADDR);
        let src = self.src_ep.get(&d.id).copied();
        self.ledger.exit();
        let direct = match src {
            Some(src) if src != ep => self.net_call(src, |net| net.base_delay_us(src, ep)),
            _ => 0,
        };
        self.ledger.enter(span::METRICS_LOOKUP);
        self.metrics.sight_lookup(d.id, d.issued_at_us);
        self.metrics
            .on_delivered(now, d.id, d.issued_at_us, correct, d.hops, direct);
        if d.issued_at_us >= self.cfg.warmup_us {
            self.obs
                .record(self.h_latency, now.saturating_sub(d.issued_at_us));
            self.obs.record(self.h_hops, d.hops as u64);
        }
        self.ledger.exit();
    }

    fn apply_became_active(&mut self, now: u64, ep: EndpointId) {
        let id = self.node_ids[ep];
        self.ledger.enter(span::ORACLE);
        let known = self.oracle.contains(id);
        if !known {
            self.oracle.insert(id);
        }
        self.ledger.exit();
        if known {
            return;
        }
        self.ledger.enter(span::METRICS_OTHER);
        self.metrics.set_active_delta(now, 1);
        self.ledger.exit();
        self.ledger.enter(span::SESSION);
        self.active_pos[ep] = self.active_list.len() as u32;
        self.active_list.push(ep);
        let start = std::mem::replace(&mut self.join_started[ep], NO_JOIN);
        self.ledger.exit();
        if start != NO_JOIN && now >= self.cfg.warmup_us {
            self.ledger.enter(span::METRICS_OTHER);
            self.metrics.on_join_latency(now - start);
            self.ledger.exit();
        }
        if let Workload::Poisson {
            rate_per_node_per_sec,
        } = self.cfg.workload
        {
            self.ledger.enter(span::SESSION);
            let first = now
                .max(self.cfg.warmup_us)
                .saturating_add(exp_interval_us(&mut self.rng, rate_per_node_per_sec));
            self.ledger.exit();
            self.ledger.enter(span::QUEUE_SCHEDULE);
            self.queue.schedule_at(first, Ev::NextLookup { node: ep });
            self.ledger.exit();
        }
    }

    fn apply_send(&mut self, now: u64, ep: EndpointId, to: NodeId, msg: Message) {
        self.ledger.enter(span::CODEC);
        let len = mspastry::codec::encoded_len(&msg);
        self.ledger.exit();
        self.counters.bytes += len as u64;
        self.ledger.enter(span::METRICS_ON_SEND);
        self.metrics.on_send(now, msg.category(), len);
        self.ledger.exit();
        self.ledger.enter(span::METRICS_ON_SEND_KIND);
        self.metrics.on_send_kind(now, msg.kind_name());
        self.ledger.exit();
        if let Message::Lookup {
            id, issued_at_us, ..
        } = &msg
        {
            self.ledger.enter(span::METRICS_LOOKUP);
            self.metrics.sight_lookup(*id, *issued_at_us);
            self.ledger.exit();
            self.ledger.enter(span::ADDR);
            if let Some(&src) = self.ep_of_id.get(&id.src.0) {
                self.src_ep.entry(*id).or_insert(src);
            }
            self.ledger.exit();
        }
        self.ledger.enter(span::ADDR);
        let dst = self.ep_of_id.get(&to.0).copied();
        self.ledger.exit();
        let Some(dst) = dst else {
            return;
        };
        self.counters.sample_calls += 1;
        let delay = self.net_call(ep, |net| net.sample_delivery(ep, dst));
        match delay {
            Some(delay) => {
                let from = self.node_ids[ep];
                self.ledger.enter(span::QUEUE_SCHEDULE);
                self.queue
                    .schedule_in(delay, Ev::Msg { from, to: dst, msg });
                self.ledger.exit();
            }
            None => self.counters.lost += 1,
        }
    }
}

/// Exponential inter-arrival sample for a Poisson process, microseconds
/// (the draw `harness::run` makes).
fn exp_interval_us<R: Rng + ?Sized>(rng: &mut R, rate_per_sec: f64) -> u64 {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    ((-u.ln() / rate_per_sec) * 1e6) as u64
}
