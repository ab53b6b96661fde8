//! The NIC receive path is copy-free: frames for another MAC and ARP
//! broadcasts a node merely overhears cost no allocation, and a delivered
//! IPv4 packet's payload is a view into the received frame's buffer.

use bytes::Bytes;

use netsim::device::nic::{ArpIdentity, NicRx};
use netsim::profile;
use netsim::wire::arp::ArpPacket;
use netsim::wire::ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
use netsim::wire::ipv4::IPV4_HEADER_LEN;
use netsim::{HostConfig, IpProtocol, Ipv4Addr, Ipv4Packet, LinkConfig, NodeId, World};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

/// Two hosts on one LAN: `a` (10.0.0.1) receives, `b` (10.0.0.2) sends.
fn lan_pair() -> (World, NodeId, MacAddr, MacAddr) {
    let mut w = World::new(7);
    let lan = w.add_segment(LinkConfig::lan());
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    w.attach(a, lan, Some("10.0.0.1/24"));
    w.attach(b, lan, Some("10.0.0.2/24"));
    let mac_a = w.host(a).nic().mac(0);
    let mac_b = w.host(b).nic().mac(0);
    (w, a, mac_a, mac_b)
}

fn udp_frame(dst_mac: MacAddr, src_mac: MacAddr, dst: Ipv4Addr) -> Bytes {
    let pkt = Ipv4Packet::new(
        ip("10.0.0.2"),
        dst,
        IpProtocol::Udp,
        Bytes::from(vec![0xab; 64]),
    );
    EthernetFrame::new(dst_mac, src_mac, EtherType::Ipv4, pkt.emit()).emit()
}

#[test]
fn frames_for_others_and_overheard_arp_allocate_nothing() {
    let (mut w, a, _, mac_b) = lan_pair();
    // Unicast to a MAC that is not a's, carrying a packet for a's address.
    let elsewhere = udp_frame(MacAddr::from_index(999), mac_b, ip("10.0.0.1"));
    // b resolving a third party: a hears the broadcast but is not asked.
    let request = ArpPacket::request(mac_b, ip("10.0.0.2"), ip("10.0.0.3"));
    let overheard = EthernetFrame::new(
        MacAddr::BROADCAST,
        mac_b,
        EtherType::Arp,
        Bytes::from(request.emit()),
    )
    .emit();
    w.host_do(a, |h, ctx| {
        let nic = h.nic_mut();
        let (before, _) = profile::thread_allocations();
        let r1 = nic.on_frame(ctx, 0, &elsewhere, &ArpIdentity::default());
        let r2 = nic.on_frame(ctx, 0, &overheard, &ArpIdentity::default());
        let (after, _) = profile::thread_allocations();
        assert!(matches!(r1, NicRx::Consumed), "{r1:?}");
        assert!(matches!(r2, NicRx::Consumed), "{r2:?}");
        assert_eq!(after - before, 0, "ignored frames must not allocate");
    });
    // Overhearing creates no binding for the sender either.
    let now = w.now();
    assert!(w.host(a).nic().arp_lookup(0, ip("10.0.0.2"), now).is_none());
}

#[test]
fn delivered_packet_shares_the_frame_buffer() {
    let (mut w, a, mac_a, mac_b) = lan_pair();
    let frame = udp_frame(mac_a, mac_b, ip("10.0.0.1"));
    let rx = w.host_do(a, |h, ctx| {
        h.nic_mut()
            .on_frame(ctx, 0, &frame, &ArpIdentity::default())
    });
    let NicRx::Ip(pkt) = rx else {
        panic!("expected an IPv4 packet, got {rx:?}");
    };
    assert_eq!(&pkt.payload[..], &[0xab; 64][..]);
    let at = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
    assert_eq!(
        pkt.payload.as_ptr(),
        frame[at..].as_ptr(),
        "payload must be a view into the received frame, not a copy"
    );
}
