//! Generated inputs are a function of the seed: equal seeds give
//! identical inputs, different seeds different ones.

use dsv3_core::collectives::deepep::generate_traffic;
use dsv3_core::serving::workload::generate;
use dsv3_perfbench::probes::serving_config;
use dsv3_perfbench::workloads::{ep_cluster, ep_config};

#[test]
fn ep_traffic_follows_the_seed() {
    let c = ep_cluster(2);
    let a = generate_traffic(&c, &ep_config(7));
    assert_eq!(a, generate_traffic(&c, &ep_config(7)));
    assert_ne!(a, generate_traffic(&c, &ep_config(8)));
}

#[test]
fn request_streams_follow_the_seed() {
    let stream = |seed| generate(&serving_config(seed).workload);
    let a = stream(20_250_805);
    assert_eq!(a.len(), 20_000);
    assert_eq!(a, stream(20_250_805));
    assert_ne!(a, stream(1));
}
