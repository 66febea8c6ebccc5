//! Table 3: network topology comparison under the calibrated cost model.

use crate::report::{fmt, Table};
pub use dsv3_topology::cost::Table3Row as Row;
use dsv3_topology::cost::{table3_rows, CostModel};

/// Compute the table with the default calibrated prices.
#[must_use]
pub fn run() -> Vec<Row> {
    table3_rows(&CostModel::default())
}

/// Render like the paper.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Table 3: network topology comparison",
        &["Metric", "FT2", "MPFT", "FT3", "SF", "DF"],
    );
    let col = |f: &dyn Fn(&Row) -> String| -> Vec<String> { rows.iter().map(f).collect() };
    let mut push = |name: &str, vals: Vec<String>| {
        let mut cells = vec![name.to_string()];
        cells.extend(vals);
        t.row(&cells);
    };
    push("Endpoints", col(&|r| r.endpoints.to_string()));
    push("Switches", col(&|r| r.switches.to_string()));
    push("Links", col(&|r| r.links.to_string()));
    push("Cost [M$]", col(&|r| fmt(r.cost_musd, 0)));
    push("Cost/Endpoint [k$]", col(&|r| fmt(r.cost_per_endpoint_kusd, 2)));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_topologies_rendered() {
        let t = render(&run());
        assert_eq!(t.headers.len(), 6);
        assert_eq!(t.rows.len(), 5);
    }
}
