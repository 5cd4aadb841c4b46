//! Per-host connection tables cost memory per open connection, not per
//! flow id, proven by a byte-counting allocator.
//!
//! Flow ids are global to a run, so a worker host in a large sweep may
//! open a single connection whose id is in the hundreds of thousands. The
//! host's `transport::host::FlowTable` indexes by flow id; this test pins that
//! the empty slots below such an id stay pointer-sized, so opening one
//! sender at flow 100 000 allocates well under a megabyte (inline slots of
//! a few hundred bytes each would take tens of megabytes), and a whole
//! transfer on that id allocates about as much as the same transfer on
//! flow 0.
//!
//! The whole file is one `#[test]`: the counter is a process-wide global,
//! so the measurements run sequentially inside it instead of as tests
//! racing in harness threads.

use simnet::{build_dumbbell, FlowId, NodeId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use transport::{TcpApi, TcpApp, TcpConfig, TcpHost};

/// Counts the bytes of every allocator entry point that can hand out new
/// memory. Frees are not subtracted: the bound is on what gets minted.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const MB: u64 = 1 << 20;

fn allocated() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Worker app: at start, opens one sender on `flow` toward `peer`, records
/// the bytes that call allocated, and queues `demand` bytes on it.
struct OpenOne {
    flow: FlowId,
    peer: NodeId,
    demand: u64,
    open_bytes: Rc<Cell<u64>>,
}

impl TcpApp for OpenOne {
    fn on_start(&mut self, api: &mut TcpApi) {
        let before = allocated();
        api.open_sender(self.flow, self.peer);
        self.open_bytes.set(allocated() - before);
        api.add_demand(self.flow, self.demand);
    }
}

/// Receiver app: accepts whatever arrives.
struct Sink;
impl TcpApp for Sink {}

/// One sender transfers `demand` bytes on `flow` to one receiver. Returns
/// (bytes allocated by `open_sender`, bytes allocated by the whole run,
/// bytes delivered).
fn transfer(flow: FlowId, demand: u64) -> (u64, u64, u64) {
    let mut f = build_dumbbell(1, 3);
    let open_bytes = Rc::new(Cell::new(0));
    let rx_node = f.receivers[0];
    f.sim.set_endpoint(
        f.senders[0],
        Box::new(TcpHost::new(
            TcpConfig::default(),
            Box::new(OpenOne {
                flow,
                peer: rx_node,
                demand,
                open_bytes: Rc::clone(&open_bytes),
            }),
        )),
    );
    let rx = simnet::Shared::new(TcpHost::new(TcpConfig::default(), Box::new(Sink)));
    f.sim.set_endpoint(rx_node, Box::new(rx.handle()));
    let before = allocated();
    f.sim.run_until(SimTime::from_ms(50));
    let run_bytes = allocated() - before;
    let delivered = rx
        .borrow()
        .core()
        .receiver(flow)
        .expect("receiver opened")
        .delivered();
    (open_bytes.get(), run_bytes, delivered)
}

#[test]
fn flow_tables_cost_memory_per_connection_not_per_flow_id() {
    const DEMAND: u64 = 64 * 1446;
    let (open_high, run_high, got_high) = transfer(FlowId(100_000), DEMAND);
    let (open_low, run_low, got_low) = transfer(FlowId(0), DEMAND);
    assert_eq!(got_high, DEMAND, "transfer on flow 100000 incomplete");
    assert_eq!(got_low, DEMAND, "transfer on flow 0 incomplete");
    assert!(
        open_high < MB,
        "opening a sender at flow 100000 allocated {open_high} B (flow 0: {open_low} B)"
    );
    // The run opens the receiver side at flow 100000 too; sender plus
    // receiver tables may cost one pointer per empty id each.
    let extra = run_high.saturating_sub(run_low);
    assert!(
        extra < 2 * MB,
        "a run on flow 100000 allocated {run_high} B, {extra} B more than on flow 0"
    );
}
