//! Property-based tests of the message fabric and the service timeline.

use proptest::prelude::*;
use sim_core::{CostModel, HostId, SplitMix64};
use sim_net::{FaultPlane, Network, ServerTimeline};

proptest! {
    /// Per-sender FIFO: messages from one sender to one receiver arrive
    /// in send order regardless of payload sizes and timestamps.
    #[test]
    fn per_sender_fifo(
        sends in proptest::collection::vec((0usize..4096, 0u64..1_000_000), 1..200),
    ) {
        let (_net, eps) = Network::<u32>::new(2, CostModel::default());
        for (i, &(payload, vt)) in sends.iter().enumerate() {
            eps[0].send(HostId(1), i as u32, payload, vt);
        }
        for i in 0..sends.len() {
            let pkt = eps[1].recv().expect("delivered");
            prop_assert_eq!(pkt.msg, i as u32);
            prop_assert_eq!(pkt.payload_bytes, sends[i].0);
        }
    }

    /// Arrival stamps: wire latency is monotone in payload size and the
    /// arrival never precedes the send.
    #[test]
    fn arrival_monotone_in_payload(a in 0usize..65536, b in 0usize..65536, vt in 0u64..1_000_000) {
        let (net, eps) = Network::<()>::new(2, CostModel::default());
        let (small, large) = (a.min(b), a.max(b));
        let t_small = eps[0].send(HostId(1), (), small, vt);
        let t_large = eps[0].send(HostId(1), (), large, vt);
        prop_assert!(t_small >= vt);
        prop_assert!(t_large >= t_small);
        prop_assert_eq!(t_small, vt + net.cost().msg_time(small));
    }

    /// Self-delivery is cheaper than any wire message.
    #[test]
    fn self_send_is_local(payload in 0usize..8192, vt in 0u64..1_000_000) {
        let (net, eps) = Network::<()>::new(2, CostModel::default());
        let t_self = eps[0].send(HostId(0), (), payload, vt);
        prop_assert_eq!(t_self, vt + net.cost().self_msg);
        prop_assert!(t_self <= eps[1].send(HostId(1), (), payload, vt));
        // Drain so nothing is left hanging.
        let _ = eps[0].recv();
        let _ = eps[1].recv();
    }

    /// Timeline: service start never precedes arrival + the minimum poll
    /// delay, and idle-host service is deterministic.
    #[test]
    fn timeline_start_bounds(arrivals in proptest::collection::vec(0u64..50_000_000, 1..100)) {
        let cost = CostModel::default();
        let mut tl = ServerTimeline::new(cost.clone(), SplitMix64::new(1));
        for &a in &arrivals {
            let start = tl.begin_service(a, false);
            prop_assert!(start >= a + cost.service_delay.poller_delay);
            tl.charge(1_000);
        }
    }

    /// Reliable channel: under an arbitrary seeded drop/duplicate/reorder
    /// schedule, delivery to the receiver is exactly-once and FIFO — every
    /// message arrives once, in send order, with consecutive wire sequence
    /// numbers, and the cumulative-ack watermark ends at the send count.
    /// (The stub proptest has integer strategies only, hence the
    /// per-mille probabilities; drop stays ≤ 10% so no schedule can
    /// plausibly exhaust the 8-retransmit budget.)
    #[test]
    fn reliable_channel_exactly_once_fifo(
        seed in 0u64..1_000_000,
        drop_pm in 1u32..100,
        dup_pm in 0u32..200,
        reorder_pm in 0u32..300,
        n in 1usize..120,
    ) {
        let plane = FaultPlane::lossy(
            seed,
            drop_pm as f64 / 1000.0,
            dup_pm as f64 / 1000.0,
            reorder_pm as f64 / 1000.0,
        );
        let (net, eps) = Network::<u64>::with_faults(2, CostModel::default(), plane);
        for i in 0..n {
            eps[0].send(HostId(1), i as u64, 64, i as u64 * 1_000);
        }
        // A packet the wire still holds back to reorder it is the gate's
        // to deliver.
        net.gate().flush_held();
        for i in 0..n {
            let pkt = eps[1].recv().expect("delivered");
            prop_assert_eq!(pkt.msg, i as u64, "out-of-order delivery");
            prop_assert_eq!(pkt.wire_seq, i as u64 + 1);
        }
        // No duplicate survived the dedup buffer…
        prop_assert!(eps[1].recv().is_none());
        // …and the receiver acknowledged every sequence number in order.
        prop_assert_eq!(net.link_acked(HostId(0), HostId(1)), n as u64);
        prop_assert_eq!(net.total_unacked(), 0);
    }

    /// Stats: message and byte counters equal what was sent.
    #[test]
    fn stats_match_traffic(payloads in proptest::collection::vec(0usize..4096, 0..64)) {
        let (net, eps) = Network::<()>::new(2, CostModel::default());
        let mut bytes = 0u64;
        for &p in &payloads {
            eps[0].send(HostId(1), (), p, 0);
            bytes += p as u64;
        }
        prop_assert_eq!(net.stats().messages.get(), payloads.len() as u64);
        prop_assert_eq!(net.stats().payload_bytes.get(), bytes);
    }
}

#[test]
fn timeline_contention_window_behaviour() {
    // Messages close in virtual time queue; far-future then far-past
    // messages do not drag each other.
    let cost = CostModel::fast_polling(); // Deterministic poll delay.
    let mut tl = ServerTimeline::new(cost, SplitMix64::new(2));
    let s1 = tl.begin_service(1_000, false);
    tl.charge(100_000); // Busy until ~103k.
    let s2 = tl.begin_service(2_000, false);
    assert!(s2 >= s1 + 100_000, "close-by message queues: {s2}");
    tl.charge(10_000);
    // A message an hour ahead jumps the clock...
    let s3 = tl.begin_service(3_600_000_000_000, false);
    assert!(s3 >= 3_600_000_000_000);
    // ...and one far in the past is served back at its own time.
    let s4 = tl.begin_service(5_000, false);
    assert!(
        s4 < 1_000_000,
        "past message must not queue behind the future: {s4}"
    );
}
