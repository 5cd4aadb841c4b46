//! Per-host TCP demultiplexer and the application interface.
//!
//! [`TcpHost`] is the [`simnet::Endpoint`] a host runs: it owns every
//! sending and receiving connection terminating at the host and dispatches
//! packets and timers to them. Application logic (the workload crate's
//! coordinators and workers) plugs in as a [`TcpApp`] and acts through a
//! [`TcpApi`] — opening connections, adding demand, sending request
//! messages, and arming its own timers.

use crate::config::TcpConfig;
use crate::keys::{self, TimerKind};
use crate::receiver::Receiver;
use crate::sender::{AckOutcome, FlowProbe, Sender};
use simnet::{Ctx, Endpoint, FlowId, NodeId, Packet, PacketKind, SimTime};
use telemetry::SinkRef;

/// Dense connection table indexed directly by flow id.
///
/// The per-packet demux is an array index instead of a hash-map probe.
/// Flow ids are global to a run, so a host's table spans every id up to
/// the highest it has opened, most of them empty: a worker that opens only
/// flow 100 000 holds 100 001 slots. A slot is one pointer (8 B), not an
/// inline `Sender` (312 B) or `Receiver` (160 B); each connection is
/// boxed once when it opens, never on the packet path.
/// Iteration runs in ascending flow-id order — deterministic, unlike the
/// `HashMap` this replaced.
#[derive(Debug)]
pub struct FlowTable<T> {
    slots: Vec<Option<Box<T>>>,
    len: usize,
}

impl<T> FlowTable<T> {
    fn new() -> Self {
        FlowTable {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of open connections.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no connection is open.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The connection for `flow`, if open.
    pub fn get(&self, flow: FlowId) -> Option<&T> {
        self.slots.get(flow.0 as usize)?.as_deref()
    }

    fn get_mut(&mut self, flow: FlowId) -> Option<&mut T> {
        self.slots.get_mut(flow.0 as usize)?.as_deref_mut()
    }

    fn get_or_insert_with(&mut self, flow: FlowId, make: impl FnOnce() -> T) -> &mut T {
        let i = flow.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some(Box::new(make()));
            self.len += 1;
        }
        slot.as_deref_mut().expect("slot just filled")
    }

    /// Iterates open connections in ascending flow-id order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_deref().map(|t| (FlowId(i as u32), t)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (FlowId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_deref_mut().map(|t| (FlowId(i as u32), t)))
    }
}

/// Connection tables and configuration for one host.
#[derive(Debug)]
pub struct HostCore {
    cfg: TcpConfig,
    senders: FlowTable<Sender>,
    receivers: FlowTable<Receiver>,
    /// Telemetry sink handed to every sender opened on this host.
    sink: Option<SinkRef>,
    /// Packets for unknown flows (should stay zero in healthy runs).
    pub stray_packets: u64,
    /// Highest control-plane notification epoch applied per control flow
    /// (one entry per congested switch port heard from). Duplicated,
    /// reordered, or retried notifications with a stale epoch are
    /// acknowledged but not re-applied.
    notif_epochs: Vec<(FlowId, u32)>,
    /// Notifications received / applied (stale ones count only the first).
    pub notifs_seen: u64,
    /// Notifications whose epoch was fresh and whose action was applied.
    pub notifs_applied: u64,
}

impl HostCore {
    fn new(cfg: TcpConfig) -> Self {
        cfg.validate().expect("invalid TcpConfig");
        HostCore {
            cfg,
            senders: FlowTable::new(),
            receivers: FlowTable::new(),
            sink: None,
            stray_packets: 0,
            notif_epochs: Vec::new(),
            notifs_seen: 0,
            notifs_applied: 0,
        }
    }

    /// Records `epoch` for `ctrl_flow`; returns true when it is fresh
    /// (strictly newer than anything applied for that control flow).
    fn note_epoch(&mut self, ctrl_flow: FlowId, epoch: u32) -> bool {
        match self.notif_epochs.iter_mut().find(|(f, _)| *f == ctrl_flow) {
            Some((_, last)) if *last >= epoch => false,
            Some((_, last)) => {
                *last = epoch;
                true
            }
            None => {
                self.notif_epochs.push((ctrl_flow, epoch));
                true
            }
        }
    }

    /// The host's transport configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// A sending connection, if open.
    pub fn sender(&self, flow: FlowId) -> Option<&Sender> {
        self.senders.get(flow)
    }

    /// A receiving connection, if open.
    pub fn receiver(&self, flow: FlowId) -> Option<&Receiver> {
        self.receivers.get(flow)
    }

    /// Iterates all sending connections, ascending by flow id.
    pub fn senders(&self) -> impl Iterator<Item = (FlowId, &Sender)> {
        self.senders.iter()
    }

    /// Iterates all receiving connections, ascending by flow id.
    pub fn receivers(&self) -> impl Iterator<Item = (FlowId, &Receiver)> {
        self.receivers.iter()
    }
}

/// Application logic running over a [`TcpHost`].
///
/// All callbacks receive a [`TcpApi`] giving access to simulated time, the
/// connection tables, and actions.
pub trait TcpApp {
    /// Simulation start.
    fn on_start(&mut self, _api: &mut TcpApi) {}
    /// A control (request) message arrived, e.g. a coordinator's demand.
    fn on_ctrl(
        &mut self,
        _api: &mut TcpApi,
        _from: NodeId,
        _flow: FlowId,
        _demand: u64,
        _burst: u64,
    ) {
    }
    /// In-order data arrived on a receiving connection.
    fn on_receive(&mut self, _api: &mut TcpApi, _flow: FlowId, _newly: u64, _total: u64) {}
    /// Every byte of a sending connection's demand has been acknowledged.
    fn on_all_acked(&mut self, _api: &mut TcpApi, _flow: FlowId) {}
    /// An application timer (set via [`TcpApi::set_app_timer`]) fired.
    fn on_app_timer(&mut self, _api: &mut TcpApi, _id: u64) {}
}

/// The application's handle to the host and simulator during a callback.
pub struct TcpApi<'a, 'c> {
    ctx: &'a mut Ctx<'c>,
    core: &'a mut HostCore,
}

impl<'a, 'c> TcpApi<'a, 'c> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This host's node id.
    pub fn node(&self) -> NodeId {
        self.ctx.node()
    }

    /// Read access to the connection tables.
    pub fn core(&self) -> &HostCore {
        self.core
    }

    /// Opens (or reuses) a sending connection of `flow` toward `peer`.
    /// New senders pick up the host's telemetry sink, if one is attached.
    pub fn open_sender(&mut self, flow: FlowId, peer: NodeId) {
        let cfg = &self.core.cfg;
        let sink = &self.core.sink;
        let node = self.ctx.node();
        self.core.senders.get_or_insert_with(flow, || {
            let mut tx = Sender::new(flow, peer, cfg);
            if let Some(s) = sink {
                tx.set_probe(FlowProbe::new(s.clone(), node));
            }
            tx
        });
    }

    /// Appends `bytes` of demand on an open sending connection.
    ///
    /// Panics if the flow was never opened.
    pub fn add_demand(&mut self, flow: FlowId, bytes: u64) {
        let tx = self
            .core
            .senders
            .get_mut(flow)
            .unwrap_or_else(|| panic!("add_demand on unopened flow {flow}"));
        tx.add_demand(self.ctx, bytes);
    }

    /// Sends an application control message (a request) to `peer`.
    pub fn send_ctrl(&mut self, peer: NodeId, flow: FlowId, demand: u64, burst: u64) {
        let pkt = Packet::ctrl(flow, self.ctx.node(), peer, demand, burst);
        self.ctx.send(pkt);
    }

    /// Arms application timer `id` at absolute time `at`.
    pub fn set_app_timer(&mut self, id: u64, at: SimTime) {
        self.ctx.set_timer(keys::app_key(id), at);
    }

    /// Arms application timer `id` to fire `delay` from now.
    pub fn set_app_timer_after(&mut self, id: u64, delay: SimTime) {
        self.ctx.set_timer_after(keys::app_key(id), delay);
    }

    /// Disarms application timer `id`.
    pub fn cancel_app_timer(&mut self, id: u64) {
        self.ctx.cancel_timer(keys::app_key(id));
    }
}

/// A `Shared<T>` application delegates to the wrapped app, so callers can
/// keep a handle and read application state after the simulation run.
impl<T: TcpApp> TcpApp for simnet::Shared<T> {
    fn on_start(&mut self, api: &mut TcpApi) {
        self.borrow_mut().on_start(api);
    }
    fn on_ctrl(&mut self, api: &mut TcpApi, from: NodeId, flow: FlowId, demand: u64, burst: u64) {
        self.borrow_mut().on_ctrl(api, from, flow, demand, burst);
    }
    fn on_receive(&mut self, api: &mut TcpApi, flow: FlowId, newly: u64, total: u64) {
        self.borrow_mut().on_receive(api, flow, newly, total);
    }
    fn on_all_acked(&mut self, api: &mut TcpApi, flow: FlowId) {
        self.borrow_mut().on_all_acked(api, flow);
    }
    fn on_app_timer(&mut self, api: &mut TcpApi, id: u64) {
        self.borrow_mut().on_app_timer(api, id);
    }
}

/// The per-host TCP endpoint.
pub struct TcpHost {
    core: HostCore,
    app: Option<Box<dyn TcpApp>>,
}

impl TcpHost {
    /// Creates a host running `app` with the given transport configuration.
    pub fn new(cfg: TcpConfig, app: Box<dyn TcpApp>) -> Self {
        TcpHost {
            core: HostCore::new(cfg),
            app: Some(app),
        }
    }

    /// Connection tables (for post-run statistics).
    pub fn core(&self) -> &HostCore {
        &self.core
    }

    /// Attaches a telemetry sink: every sender opened afterwards streams
    /// its window transitions ([`telemetry::EventKind::FlowWindow`]) to it.
    /// Attach before the simulation starts so no connection is missed.
    pub fn set_sink(&mut self, sink: SinkRef) {
        self.core.sink = Some(sink);
    }

    fn with_app<F>(&mut self, ctx: &mut Ctx, f: F)
    where
        F: FnOnce(&mut dyn TcpApp, &mut TcpApi),
    {
        let mut app = self.app.take().expect("app re-entered");
        {
            let mut api = TcpApi {
                ctx,
                core: &mut self.core,
            };
            f(app.as_mut(), &mut api);
        }
        self.app = Some(app);
    }
}

impl Endpoint for TcpHost {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.with_app(ctx, |app, api| app.on_start(api));
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        match pkt.kind {
            PacketKind::Data {
                seq, payload, ts, ..
            } => {
                let cfg = &self.core.cfg;
                let rx = self
                    .core
                    .receivers
                    .get_or_insert_with(pkt.flow, || Receiver::new(pkt.flow, pkt.src, cfg));
                let newly = rx.on_data(ctx, seq, payload, pkt.is_ce(), ts);
                let total = rx.delivered();
                if newly > 0 {
                    self.with_app(ctx, |app, api| app.on_receive(api, pkt.flow, newly, total));
                }
            }
            PacketKind::Ack { ack, ece, ts_echo } => match self.core.senders.get_mut(pkt.flow) {
                Some(tx) => {
                    if tx.on_ack(ctx, ack, ece, ts_echo) == AckOutcome::AllAcked {
                        self.with_app(ctx, |app, api| app.on_all_acked(api, pkt.flow));
                    }
                }
                None => self.core.stray_packets += 1,
            },
            PacketKind::QuicData {
                pn,
                offset,
                payload,
                ts,
                ..
            } => {
                let cfg = &self.core.cfg;
                let rx = self
                    .core
                    .receivers
                    .get_or_insert_with(pkt.flow, || Receiver::new(pkt.flow, pkt.src, cfg));
                let newly = rx.on_quic_data(ctx, pn, offset, payload, pkt.is_ce(), ts);
                let total = rx.delivered();
                if newly > 0 {
                    self.with_app(ctx, |app, api| app.on_receive(api, pkt.flow, newly, total));
                }
            }
            PacketKind::QuicAck {
                blocks,
                ece,
                ts_echo,
            } => match self.core.senders.get_mut(pkt.flow) {
                Some(tx) => {
                    if tx.on_quic_ack(ctx, blocks, ece, ts_echo) == AckOutcome::AllAcked {
                        self.with_app(ctx, |app, api| app.on_all_acked(api, pkt.flow));
                    }
                }
                None => self.core.stray_packets += 1,
            },
            PacketKind::Ctrl { demand, burst } => {
                self.with_app(ctx, |app, api| {
                    app.on_ctrl(api, pkt.src, pkt.flow, demand, burst)
                });
            }
            PacketKind::Notif { epoch, pause, cut } => {
                // ALWAYS acknowledge — even a stale or duplicate epoch —
                // so the switch stops retrying; the ack rides the control
                // flow id, which names the congested port.
                ctx.send(Packet::notif_ack(pkt.flow, ctx.node(), pkt.src, epoch));
                self.core.notifs_seen += 1;
                if !self.core.note_epoch(pkt.flow, epoch) {
                    return;
                }
                self.core.notifs_applied += 1;
                for (_, tx) in self.core.senders.iter_mut() {
                    if cut {
                        tx.apply_cut(ctx);
                    } else {
                        tx.apply_pause(ctx, pause);
                    }
                }
            }
            // A notification ack terminates at its switch; one reaching a
            // host is a routing bug.
            PacketKind::NotifAck { .. } => self.core.stray_packets += 1,
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, key: u64) {
        match keys::decode(key) {
            TimerKind::Rto(flow) | TimerKind::Pto(flow) => {
                if let Some(tx) = self.core.senders.get_mut(flow) {
                    tx.on_rto(ctx);
                }
            }
            TimerKind::Delack(flow) => {
                if let Some(rx) = self.core.receivers.get_mut(flow) {
                    rx.on_delack_timer(ctx);
                }
            }
            TimerKind::Pace(flow) => {
                if let Some(tx) = self.core.senders.get_mut(flow) {
                    tx.on_pace(ctx);
                }
            }
            TimerKind::Guard(flow) => {
                if let Some(tx) = self.core.senders.get_mut(flow) {
                    tx.on_guard(ctx);
                }
            }
            TimerKind::App(id) => {
                self.with_app(ctx, |app, api| app.on_app_timer(api, id));
            }
        }
    }
}

impl std::fmt::Debug for TcpHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpHost")
            .field("senders", &self.core.senders.len())
            .field("receivers", &self.core.receivers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{build_dumbbell, Shared};
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    /// Worker: on ctrl, opens a sender back to the coordinator and sends.
    struct Worker;
    impl TcpApp for Worker {
        fn on_ctrl(&mut self, api: &mut TcpApi, from: NodeId, flow: FlowId, demand: u64, _b: u64) {
            api.open_sender(flow, from);
            api.add_demand(flow, demand);
        }
    }

    /// Coordinator: requests `demand` bytes from each worker at start,
    /// records per-flow delivery and completion time.
    struct Coordinator {
        workers: Vec<NodeId>,
        demand: u64,
        received: Rc<RefCell<HashMap<FlowId, u64>>>,
        done_at: Rc<RefCell<Option<SimTime>>>,
    }
    impl TcpApp for Coordinator {
        fn on_start(&mut self, api: &mut TcpApi) {
            for (i, &w) in self.workers.iter().enumerate() {
                api.send_ctrl(w, FlowId(i as u32), self.demand, 0);
            }
        }
        fn on_receive(&mut self, api: &mut TcpApi, flow: FlowId, _newly: u64, total: u64) {
            self.received.borrow_mut().insert(flow, total);
            let all = self
                .received
                .borrow()
                .values()
                .filter(|&&t| t >= self.demand)
                .count();
            if all == self.workers.len() {
                *self.done_at.borrow_mut() = Some(api.now());
            }
        }
    }

    #[test]
    fn end_to_end_incast_completes() {
        let mut fabric = build_dumbbell(4, 1);
        let rx = fabric.receivers[0];
        let received = Rc::new(RefCell::new(HashMap::new()));
        let done = Rc::new(RefCell::new(None));

        for &s in &fabric.senders {
            fabric.sim.set_endpoint(
                s,
                Box::new(TcpHost::new(TcpConfig::default(), Box::new(Worker))),
            );
        }
        let coord = TcpHost::new(
            TcpConfig::default(),
            Box::new(Coordinator {
                workers: fabric.senders.clone(),
                demand: 50_000,
                received: received.clone(),
                done_at: done.clone(),
            }),
        );
        let coord = Shared::new(coord);
        let handle = coord.handle();
        fabric.sim.set_endpoint(rx, Box::new(coord));
        fabric.sim.run();

        assert!(done.borrow().is_some(), "incast never completed");
        for (_, &total) in received.borrow().iter() {
            assert_eq!(total, 50_000);
        }
        // All four receiving connections exist on the coordinator and
        // delivered everything.
        let host = handle.borrow();
        assert_eq!(host.core().receivers().count(), 4);
        for (_, rx) in host.core().receivers() {
            assert_eq!(rx.delivered(), 50_000);
        }
        assert_eq!(host.core().stray_packets, 0);
    }

    #[test]
    fn sender_side_stats_visible_after_run() {
        let mut fabric = build_dumbbell(1, 2);
        let rx = fabric.receivers[0];
        let received = Rc::new(RefCell::new(HashMap::new()));
        let done = Rc::new(RefCell::new(None));

        let worker = Shared::new(TcpHost::new(TcpConfig::default(), Box::new(Worker)));
        let wh = worker.handle();
        fabric.sim.set_endpoint(fabric.senders[0], Box::new(worker));
        fabric.sim.set_endpoint(
            rx,
            Box::new(TcpHost::new(
                TcpConfig::default(),
                Box::new(Coordinator {
                    workers: fabric.senders.clone(),
                    demand: 20_000,
                    received: received.clone(),
                    done_at: done.clone(),
                }),
            )),
        );
        fabric.sim.run();

        let host = wh.borrow();
        let (_, tx) = host.core().senders().next().expect("sender exists");
        assert_eq!(tx.stats().bytes_acked, 20_000);
        assert_eq!(tx.stats().demand_bytes, 20_000);
        assert!(tx.is_idle());
        assert!(tx.srtt().is_some(), "rtt was sampled");
        // Uncongested single flow: no retransmissions.
        assert_eq!(tx.stats().bytes_retx, 0);
        assert_eq!(tx.stats().timeouts, 0);
    }

    #[test]
    fn app_timers_dispatch() {
        struct TimerApp {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl TcpApp for TimerApp {
            fn on_start(&mut self, api: &mut TcpApi) {
                api.set_app_timer_after(3, SimTime::from_us(5));
                api.set_app_timer_after(9, SimTime::from_us(1));
                api.set_app_timer_after(4, SimTime::from_us(10));
                api.cancel_app_timer(4);
            }
            fn on_app_timer(&mut self, _api: &mut TcpApi, id: u64) {
                self.fired.borrow_mut().push(id);
            }
        }
        let mut fabric = build_dumbbell(1, 3);
        let fired = Rc::new(RefCell::new(Vec::new()));
        fabric.sim.set_endpoint(
            fabric.senders[0],
            Box::new(TcpHost::new(
                TcpConfig::default(),
                Box::new(TimerApp {
                    fired: fired.clone(),
                }),
            )),
        );
        fabric.sim.run();
        assert_eq!(*fired.borrow(), vec![9, 3]);
    }

    #[test]
    fn host_sink_probes_every_opened_sender() {
        let mut fabric = build_dumbbell(2, 4);
        let rx = fabric.receivers[0];
        let (jsonl, sref) = telemetry::JsonlSink::new()
            .with_classes(&[telemetry::EventClass::Flow])
            .shared();

        for &s in &fabric.senders {
            let mut host = TcpHost::new(TcpConfig::default(), Box::new(Worker));
            host.set_sink(sref.clone());
            fabric.sim.set_endpoint(s, Box::new(host));
        }
        fabric.sim.set_endpoint(
            rx,
            Box::new(TcpHost::new(
                TcpConfig::default(),
                Box::new(Coordinator {
                    workers: fabric.senders.clone(),
                    demand: 30_000,
                    received: Rc::new(RefCell::new(HashMap::new())),
                    done_at: Rc::new(RefCell::new(None)),
                }),
            )),
        );
        fabric.sim.run();

        let out = jsonl.borrow().render().to_string();
        assert!(!out.is_empty(), "probes emitted nothing");
        // Both flows report transitions, starting with burst_start.
        assert!(out.contains(r#""flow":0"#));
        assert!(out.contains(r#""flow":1"#));
        assert!(out
            .lines()
            .next()
            .unwrap()
            .contains(r#""trigger":"burst_start""#));
        for line in out.lines() {
            assert!(line.contains(r#""ev":"flow_window""#), "{line}");
        }
    }

    #[test]
    fn flow_table_iterates_in_flow_id_order_whatever_the_open_order() {
        let mut t = FlowTable::new();
        for id in [900u32, 3, 41, 0, 7] {
            t.get_or_insert_with(FlowId(id), || id * 10);
        }
        // Reopening keeps the first value and the count.
        t.get_or_insert_with(FlowId(41), || 0);
        assert_eq!(t.len(), 5);
        let seen: Vec<(u32, u32)> = t.iter().map(|(f, &v)| (f.0, v)).collect();
        assert_eq!(seen, vec![(0, 0), (3, 30), (7, 70), (41, 410), (900, 9000)]);
        *t.get_mut(FlowId(7)).unwrap() += 1;
        let ids: Vec<u32> = t.iter_mut().map(|(f, _)| f.0).collect();
        assert_eq!(ids, vec![0, 3, 7, 41, 900]);
        assert_eq!(t.get(FlowId(7)), Some(&71));
        assert_eq!(t.get(FlowId(8)), None);
        assert_eq!(t.get(FlowId(5000)), None);
    }
}
