//! Per-node traffic accounting with transport-overhead models.
//!
//! Figure 7 of the paper reports *traffic per node* under TCP and UDP as the
//! number of dataflow trees grows. The ledger records, for every node, the
//! messages and payload bytes it sent and received, and for the whole run
//! the packets sent after segmenting each payload at the MSS. On-the-wire
//! bytes under either transport are payload plus per-packet header overhead
//! (plus, for TCP, a per-message charge), so the ledger derives them from
//! those sums instead of keeping them per node: every reader of wire bytes
//! reads a mean over all nodes.

use crate::topology::NodeIdx;

/// Maximum segment size used to packetize payloads (Ethernet-ish).
pub const MSS_BYTES: usize = 1_460;
/// Per-packet header overhead for TCP over IPv4 (TCP 20 + IP 20).
pub const TCP_HEADER_BYTES: usize = 40;
/// Per-packet header overhead for UDP over IPv4 (UDP 8 + IP 20).
pub const UDP_HEADER_BYTES: usize = 28;
/// Extra bytes charged per *message* under TCP to amortize connection
/// management (SYN/ACK/FIN exchanges and pure ACKs).
pub const TCP_PER_MESSAGE_BYTES: usize = 120;

/// Packets a `payload`-byte message is segmented into (at least one).
fn packets(payload: usize) -> usize {
    payload.div_ceil(MSS_BYTES).max(1)
}

/// On-the-wire size of a `payload`-byte message under TCP.
pub fn tcp_wire_bytes(payload: usize) -> usize {
    payload + packets(payload) * TCP_HEADER_BYTES + TCP_PER_MESSAGE_BYTES
}

/// On-the-wire size of a `payload`-byte message under UDP.
pub fn udp_wire_bytes(payload: usize) -> usize {
    payload + packets(payload) * UDP_HEADER_BYTES
}

/// Cumulative traffic counters for one node: 32 bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeTraffic {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Payload bytes sent.
    pub payload_sent: u64,
    /// Payload bytes received.
    pub payload_recv: u64,
}

/// Traffic ledger for an entire simulation.
#[derive(Clone, Debug, Default)]
pub struct TrafficLedger {
    per_node: Vec<NodeTraffic>,
    /// Packets sent by all nodes, from which [`TrafficLedger::totals`]
    /// derives the wire bytes.
    packets_sent: u64,
}

impl TrafficLedger {
    /// Creates a ledger for `n` nodes.
    pub fn new(n: usize) -> Self {
        TrafficLedger {
            per_node: vec![NodeTraffic::default(); n],
            packets_sent: 0,
        }
    }

    /// Records a message of `payload` bytes sent from `src`.
    pub fn record_send(&mut self, src: NodeIdx, payload: usize) {
        let t = &mut self.per_node[src];
        t.msgs_sent += 1;
        t.payload_sent += payload as u64;
        self.packets_sent += packets(payload) as u64;
    }

    /// Records a message of `payload` bytes received at `dst`.
    pub fn record_recv(&mut self, dst: NodeIdx, payload: usize) {
        let t = &mut self.per_node[dst];
        t.msgs_recv += 1;
        t.payload_recv += payload as u64;
    }

    /// Returns the counters for node `i`.
    pub fn node(&self, i: NodeIdx) -> NodeTraffic {
        self.per_node[i]
    }

    /// Returns the counters for every node.
    pub fn all(&self) -> &[NodeTraffic] {
        &self.per_node
    }

    /// Mean TCP wire bytes sent per node.
    pub fn mean_tcp_sent(&self) -> f64 {
        let t = self.totals();
        t.mean_per_node(t.tcp_sent, self.per_node.len())
    }

    /// Mean UDP wire bytes sent per node.
    pub fn mean_udp_sent(&self) -> f64 {
        let t = self.totals();
        t.mean_per_node(t.udp_sent, self.per_node.len())
    }

    /// Total messages sent across all nodes.
    pub fn total_msgs(&self) -> u64 {
        self.per_node.iter().map(|t| t.msgs_sent).sum()
    }

    /// Heap bytes reserved by the per-node records.
    pub fn heap_bytes(&self) -> usize {
        self.per_node.capacity() * std::mem::size_of::<NodeTraffic>()
    }

    /// Resets all counters to zero (e.g. after overlay warm-up, so that only
    /// the workload phase is measured).
    pub fn reset(&mut self) {
        for t in &mut self.per_node {
            *t = NodeTraffic::default();
        }
        self.packets_sent = 0;
    }

    /// Sums every node's counters into a mergeable [`TrafficTotals`] value —
    /// the form a finished trial hands back to the benchmark harness. The
    /// wire bytes are the per-message sums of [`tcp_wire_bytes`] and
    /// [`udp_wire_bytes`], regrouped: payload, plus headers per packet,
    /// plus TCP's per-message charge.
    pub fn totals(&self) -> TrafficTotals {
        let mut t = TrafficTotals::default();
        for n in &self.per_node {
            t.msgs_sent += n.msgs_sent;
            t.msgs_recv += n.msgs_recv;
            t.payload_sent += n.payload_sent;
            t.payload_recv += n.payload_recv;
        }
        let packets = self.packets_sent;
        t.tcp_sent = t.payload_sent
            + packets * TCP_HEADER_BYTES as u64
            + t.msgs_sent * TCP_PER_MESSAGE_BYTES as u64;
        t.udp_sent = t.payload_sent + packets * UDP_HEADER_BYTES as u64;
        t
    }
}

/// Whole-simulation traffic totals, summed over nodes.
///
/// Unlike [`TrafficLedger`] this is a small plain value with no per-node
/// vectors, so trials can return it by value and sweeps can merge it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Payload bytes sent.
    pub payload_sent: u64,
    /// Payload bytes received.
    pub payload_recv: u64,
    /// Wire bytes sent if every message used TCP.
    pub tcp_sent: u64,
    /// Wire bytes sent if every message used UDP.
    pub udp_sent: u64,
}

impl TrafficTotals {
    /// Adds another total into this one.
    pub fn merge(&mut self, other: &TrafficTotals) {
        self.msgs_sent += other.msgs_sent;
        self.msgs_recv += other.msgs_recv;
        self.payload_sent += other.payload_sent;
        self.payload_recv += other.payload_recv;
        self.tcp_sent += other.tcp_sent;
        self.udp_sent += other.udp_sent;
    }

    /// `count / nodes` as a float mean (0 when `nodes` is 0).
    pub fn mean_per_node(&self, count: u64, nodes: usize) -> f64 {
        if nodes == 0 {
            0.0
        } else {
            count as f64 / nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_overhead_exceeds_udp() {
        for payload in [0, 1, 100, 1_460, 1_461, 1_000_000] {
            assert!(tcp_wire_bytes(payload) > udp_wire_bytes(payload));
            assert!(udp_wire_bytes(payload) >= payload);
        }
    }

    #[test]
    fn packetization_at_mss_boundary() {
        // One packet up to MSS, two packets just above it.
        assert_eq!(udp_wire_bytes(MSS_BYTES), MSS_BYTES + UDP_HEADER_BYTES);
        assert_eq!(
            udp_wire_bytes(MSS_BYTES + 1),
            MSS_BYTES + 1 + 2 * UDP_HEADER_BYTES
        );
    }

    #[test]
    fn ledger_accumulates_and_averages() {
        let mut ledger = TrafficLedger::new(3);
        ledger.record_send(0, 1_000);
        ledger.record_send(0, 2_000);
        ledger.record_recv(1, 1_000);
        assert_eq!(ledger.node(0).msgs_sent, 2);
        assert_eq!(ledger.node(0).payload_sent, 3_000);
        assert_eq!(ledger.node(1).msgs_recv, 1);
        assert_eq!(ledger.total_msgs(), 2);
        let expected = (tcp_wire_bytes(1_000) + tcp_wire_bytes(2_000)) as f64 / 3.0;
        assert!((ledger.mean_tcp_sent() - expected).abs() < 1e-9);
    }

    #[test]
    fn derived_wire_totals_equal_the_per_message_sums() {
        let payloads = [0, 1, 1_460, 1_461, 1_000_000];
        let tcp: usize = payloads.iter().map(|&p| tcp_wire_bytes(p)).sum();
        let udp: usize = payloads.iter().map(|&p| udp_wire_bytes(p)).sum();
        let mut ledger = TrafficLedger::new(3);
        for round in 0..2 {
            for (i, &p) in payloads.iter().enumerate() {
                ledger.record_send(i % 3, p);
            }
            let t = ledger.totals();
            assert_eq!(
                (t.tcp_sent, t.udp_sent),
                (tcp as u64, udp as u64),
                "round {round}"
            );
            assert_eq!(t.payload_sent, payloads.iter().sum::<usize>() as u64);
            assert!((ledger.mean_tcp_sent() - tcp as f64 / 3.0).abs() < 1e-9);
            // After a reset the ledger derives from the new sends alone.
            ledger.reset();
            assert_eq!(ledger.totals(), TrafficTotals::default());
        }
        assert_eq!(std::mem::size_of::<NodeTraffic>(), 32);
    }

    #[test]
    fn reset_clears_counters() {
        let mut ledger = TrafficLedger::new(2);
        ledger.record_send(1, 500);
        ledger.reset();
        assert_eq!(ledger.node(1).msgs_sent, 0);
        assert_eq!(ledger.mean_udp_sent(), 0.0);
    }

    #[test]
    fn empty_ledger_mean_is_zero() {
        let ledger = TrafficLedger::new(0);
        assert_eq!(ledger.mean_tcp_sent(), 0.0);
    }
}
