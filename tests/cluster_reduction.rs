//! The Appendix B simulation technique applied to real protocols: an
//! 8-party inner system (A-Cast, binary BA) hosted on 4 outer
//! super-parties, as in the lower bound's `n ≤ 4t` reduction.

use aft::ba::{BinaryBa, OracleCoin};
use aft::broadcast::Acast;
use aft::sim::cluster::{Cluster, InnerFactory};
use aft::sim::{
    NetConfig, PartyId, Payload, RandomScheduler, Runtime, RuntimeExt, SessionId, SessionTag,
    SimNetwork, StopReason,
};

fn watched(kind: &'static str) -> SessionId {
    SessionId::root().child(SessionTag::new(kind, 0))
}

#[test]
fn acast_eight_on_four() {
    let inner_n = 8;
    let inner_t = 2;
    let bloc = 2;
    let assignment: Vec<usize> = (0..inner_n).map(|i| i / bloc).collect();
    let mut net = SimNetwork::new(NetConfig::new(4, 1, 5), Box::new(RandomScheduler));
    let outer_sid = SessionId::root().child(SessionTag::new("cluster", 0));
    for outer in 0..4 {
        let factory: InnerFactory = Box::new(move |inner| {
            let inst: Box<dyn aft::sim::Instance> = if inner == 0 {
                Box::new(Acast::sender(PartyId(0), 777u64))
            } else {
                Box::new(Acast::<u64>::receiver(PartyId(0)))
            };
            vec![(watched("acast"), inst)]
        });
        net.spawn(
            PartyId(outer),
            outer_sid.clone(),
            Box::new(Cluster::new(
                inner_n,
                inner_t,
                assignment.clone(),
                watched("acast"),
                factory,
            )),
        );
    }
    let report = net.run(50_000_000);
    assert_eq!(report.stop, StopReason::Quiescent);
    for outer in 0..4 {
        let out = net
            .output_as::<Vec<(usize, Payload)>>(PartyId(outer), &outer_sid)
            .unwrap_or_else(|| panic!("outer {outer} incomplete"));
        assert_eq!(out.len(), 2);
        for (inner, payload) in out {
            assert_eq!(
                payload.downcast_ref::<u64>(),
                Some(&777),
                "inner party {inner} must deliver the broadcast"
            );
        }
    }
}

#[test]
fn binary_ba_eight_on_four() {
    let inner_n = 8;
    let inner_t = 2;
    let assignment: Vec<usize> = (0..inner_n).map(|i| i / 2).collect();
    let mut net = SimNetwork::new(NetConfig::new(4, 1, 6), Box::new(RandomScheduler));
    let outer_sid = SessionId::root().child(SessionTag::new("cluster", 0));
    for outer in 0..4 {
        let factory: InnerFactory = Box::new(move |inner| {
            let inst: Box<dyn aft::sim::Instance> =
                Box::new(BinaryBa::new(inner % 2 == 0, Box::new(OracleCoin::new(99))));
            vec![(watched("ba"), inst)]
        });
        net.spawn(
            PartyId(outer),
            outer_sid.clone(),
            Box::new(Cluster::new(
                inner_n,
                inner_t,
                assignment.clone(),
                watched("ba"),
                factory,
            )),
        );
    }
    let report = net.run(500_000_000);
    assert_eq!(report.stop, StopReason::Quiescent);
    // All 8 inner parties across all 4 outer hosts agree.
    let mut decisions = Vec::new();
    for outer in 0..4 {
        let out = net
            .output_as::<Vec<(usize, Payload)>>(PartyId(outer), &outer_sid)
            .unwrap_or_else(|| panic!("outer {outer} incomplete"));
        for (_, payload) in out {
            decisions.push(*payload.downcast_ref::<bool>().expect("BA output"));
        }
    }
    assert_eq!(decisions.len(), 8);
    assert!(
        decisions.windows(2).all(|w| w[0] == w[1]),
        "inner agreement across super-parties: {decisions:?}"
    );
}
