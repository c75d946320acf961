//! Quickstart: flip one strong common coin among four parties, one of
//! which has crashed, under a randomized asynchronous scheduler.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use aft::core::{CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind};
use aft::sim::{
    NetConfig, PartyId, RandomScheduler, Runtime, RuntimeExt, SessionId, SessionTag,
    SilentInstance, SimNetwork,
};

fn main() {
    let (n, t) = (4usize, 1usize);
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024u64);

    println!("== aft quickstart: strong common coin (Algorithm 1) ==");
    println!("n = {n}, t = {t}, seed = {seed}; party 3 is crashed\n");

    let mut net = SimNetwork::new(NetConfig::new(n, t, seed), Box::new(RandomScheduler));
    let sid = SessionId::root().child(SessionTag::new("coin", 0));
    for p in 0..n {
        if p == 3 {
            net.spawn(PartyId(p), sid.clone(), Box::new(SilentInstance));
        } else {
            net.spawn(
                PartyId(p),
                sid.clone(),
                Box::new(CoinFlip::new(
                    CoinFlipParams::FixedK { k: 4 },
                    CoinKind::Oracle(seed),
                )),
            );
        }
    }

    let report = net.run(100_000_000);
    println!(
        "simulation: {} deliveries, {} messages sent, stop = {:?}",
        report.steps, report.metrics.sent, report.stop
    );

    for p in 0..3 {
        let out = net
            .output_as::<CoinFlipOutput>(PartyId(p), &sid)
            .expect("honest parties terminate almost surely");
        println!(
            "party {p}: coin = {}, local majority before final BA = {}, iterations = {}",
            out.value as u8, out.local_majority as u8, out.iterations
        );
    }

    let v0 = net
        .output_as::<CoinFlipOutput>(PartyId(0), &sid)
        .unwrap()
        .value;
    let all_agree = (0..3).all(|p| {
        net.output_as::<CoinFlipOutput>(PartyId(p), &sid)
            .unwrap()
            .value
            == v0
    });
    println!("\nall honest parties agree: {all_agree} (the STRONG coin property)");
    assert!(all_agree);
}
