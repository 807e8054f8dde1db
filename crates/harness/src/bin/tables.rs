//! Print the paper's Table I (simulated architecture) and Table II
//! (applications and input sets).
//!
//! Usage: `tables`.

use dsm_harness::cli;
use dsm_harness::report;
use dsm_harness::tables::{table1, table2};

fn main() {
    cli::parse("tables");
    let out = format!("{}\n{}", table1().render(), table2().render());
    println!("{out}");
    report::announce(&report::write_text("tables.txt", &out).expect("write"));
}
