//! Quickstart: regenerate the paper's five tables in one run.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dsv3_core::experiments::{table1, table2, table3, table4, table5};

fn main() {
    println!("Reproducing 'Insights into DeepSeek-V3' (ISCA '25) — headline tables\n");
    println!("{}", table1::render(&table1::run()));
    println!("{}", table2::render(&table2::run()));
    println!("{}", table3::render(&table3::run()));
    println!("{}", table4::render(&table4::run()));
    println!("{}", table5::render(&table5::run()));
    println!("Figures 5-8 and the in-text analyses have their own runners in");
    println!("dsv3_core::experiments — see the other examples.");
}
