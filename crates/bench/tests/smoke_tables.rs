//! The E1–E4 smoke tables, rendered as `experiments e1 e2 e3 e4 --smoke
//! --no-csv` prints them, against a golden copy. A refactor or a
//! speed-up that must leave every experiment output unchanged fails
//! here if it does not.
//!
//! After an intended output change, regenerate the copy with
//!
//! ```text
//! cargo run --release -q -p sws-bench --bin experiments -- e1 e2 e3 e4 --smoke --no-csv \
//!     | grep -v '^Running \|^All proven' > crates/bench/tests/golden/smoke_tables.txt
//! ```
//!
//! and name the rows that moved in the change.

use sws_bench::{e1_sbo, e2_rls, e3_tri, e4_constrained, render_table};

#[test]
fn e1_to_e4_smoke_tables_match_the_golden_copy() {
    let e4 = e4_constrained::run(&e4_constrained::E4Config::smoke());
    let tables = [
        e1_sbo::to_table(&e1_sbo::run(&e1_sbo::E1Config::smoke())),
        e2_rls::to_table(&e2_rls::run(&e2_rls::E2Config::smoke())),
        e3_tri::to_table(&e3_tri::run(&e3_tri::E3Config::smoke())),
        e4_constrained::independent_table(&e4.independent),
        e4_constrained::dag_table(&e4.dag),
    ];
    // The binary prints a blank line after each table.
    let rendered: String = tables.iter().map(|t| render_table(t) + "\n").collect();
    let golden = include_str!("golden/smoke_tables.txt");
    // Line by line first, so a failure names the first row that moved.
    for (k, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {}", k + 1);
    }
    assert_eq!(rendered, golden);
}
