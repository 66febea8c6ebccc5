//! Network-planning scenario (§5): topology costing, all-to-all parity,
//! DeepEP throughput, and routing-policy effects on RoCE.
//!
//! ```sh
//! cargo run --release --example network_planning
//! ```

use dsv3_core::experiments::{fig5, fig6, fig7, fig8, table3};
use dsv3_core::topology::cost::CostModel;
use dsv3_core::topology::fattree::MultiPlane;
use dsv3_core::topology::slimfly::SlimFly;

fn main() {
    println!("{}", table3::render(&table3::run()));

    // How far do the planes take you? Scale the MPFT.
    println!("Multi-plane scaling with 64-port switches:");
    for planes in [1usize, 2, 4, 8] {
        let mp = MultiPlane::from_radix(64, planes);
        let cost = CostModel::default().cost(&mp.summary("MPFT")) / 1e6;
        println!(
            "  {planes} plane(s): {:>6} endpoints, {:>4} switches, ${cost:>5.0}M",
            mp.endpoints(),
            mp.switches()
        );
    }
    println!();

    // A real diameter-2 Slim Fly instance, built over GF(29).
    let sf = SlimFly::new(29);
    let g = sf.build();
    println!(
        "Slim Fly q=29: {} switches, {} links, diameter {} (Moore-optimal-ish)\n",
        g.switches(),
        g.switch_links(),
        g.diameter()
    );

    println!("{}", fig5::render(&fig5::run()));
    println!("{}", fig6::render(&fig6::run()));
    println!("{}", fig7::render(&fig7::run(512)));
    println!("{}", fig8::render(&fig8::run()));
}
