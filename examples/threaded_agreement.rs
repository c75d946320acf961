//! The same protocol code over real OS threads: binary Byzantine
//! agreement with split inputs, driven through the `Runtime` trait on the
//! threaded backend — no schedulers, no seeds controlling delivery, just
//! the operating system's own nondeterminism.
//!
//! ```sh
//! cargo run --example threaded_agreement [rounds]
//! ```

use aft::ba::{BinaryBa, OracleCoin};
use aft::sim::{NetConfig, PartyId, Runtime, RuntimeExt, SessionId, SessionTag, ThreadedRuntime};
use std::time::Instant;

fn main() {
    let iterations: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let n = 4;

    println!("== binary BA over real OS threads ==");
    println!("n = {n}, split inputs, {iterations} independent agreements\n");

    for i in 0..iterations {
        let sid = SessionId::root().child(SessionTag::new("ba", 0));
        let mut rt = ThreadedRuntime::new(NetConfig::new(n, 1, i as u64));
        for p in 0..n {
            rt.spawn(
                PartyId(p),
                sid.clone(),
                Box::new(BinaryBa::new(
                    p % 2 == 0,
                    Box::new(OracleCoin::new(1000 + i as u64)),
                )),
            );
        }
        let t0 = Instant::now();
        let report = rt.run(u64::MAX);
        let decisions: Vec<bool> = (0..n)
            .map(|p| {
                *rt.output_as::<bool>(PartyId(p), &sid)
                    .expect("BA terminates")
            })
            .collect();
        let agreed = decisions.windows(2).all(|w| w[0] == w[1]);
        println!(
            "  run {i:>2}: decided {} in {:>7.2?}  ({} deliveries, agreement: {agreed})",
            decisions[0] as u8,
            t0.elapsed(),
            report.metrics.delivered,
        );
        assert!(agreed, "agreement must hold over real threads");
    }
    println!("\nall runs agreed — same Instance code as the simulator, zero changes.");
}
