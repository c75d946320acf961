//! `exp_claims [<id>…]` — E1–E10: runs the paper's claims
//! ([`aft_bench::claims::CLAIMS`]) it names, or all of them in table order,
//! each printing its tables and the backend counters of its own runs.

use aft_bench::claims;
use aft_bench::cli::{Cli, Flag};

fn main() {
    claims::run(&Cli::parse(&[
        Flag::Claims,
        Flag::Runtime,
        Flag::Trace,
        Flag::Json,
    ]));
}
