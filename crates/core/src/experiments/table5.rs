//! Table 5: 64 B end-to-end latency, IB vs RoCE vs NVLink.

use crate::report::{fmt, Table};
use dsv3_netsim::latency::table5_rows;
pub use dsv3_netsim::latency::Table5Row as Row;

/// Compute the table.
#[must_use]
pub fn run() -> Vec<Row> {
    table5_rows()
}

/// Render like the paper.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t =
        Table::new("Table 5: 64B end-to-end latency", &["Link Layer", "Same Leaf", "Cross Leaf"]);
    for r in rows {
        t.row(&[
            r.link_layer.clone(),
            format!("{}us", fmt(r.same_leaf_us, 2)),
            r.cross_leaf_us.map_or("-".to_string(), |v| format!("{}us", fmt(v, 2))),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn three_rows() {
        assert_eq!(super::run().len(), 3);
    }
}
