//! Regeneration of the paper's Tables 1 and 2 from the live types.

use rmb_analysis::Table;
use rmb_core::{CycleController, PortStatus};

/// Renders Table 1 — "Interconnections between input and output ports of
/// an INC (viewed from the output port)" — from the live
/// [`PortStatus`] encoding.
pub fn table1() -> Table {
    let mut t = Table::new(vec!["code", "allowed", "interpretation"]);
    for (code, allowed, interp) in PortStatus::table1() {
        t.row(vec![
            format!("{code:03b}"),
            if allowed { "yes" } else { "NO" }.to_owned(),
            interp.to_owned(),
        ]);
    }
    t
}

/// Renders Table 2 — "States/signals used in odd-even cycle control" —
/// from the live [`CycleController`] definitions.
pub fn table2() -> Table {
    let mut t = Table::new(vec!["mnemonic", "kind", "interpretation"]);
    for (mnemonic, kind, interp) in CycleController::table2() {
        t.row(vec![
            mnemonic.to_owned(),
            kind.to_owned(),
            interp.to_owned(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_eight_rows_two_forbidden() {
        let t = table1();
        assert_eq!(t.len(), 8);
        let s = t.to_string();
        assert_eq!(s.matches("NO").count(), 2);
        assert!(s.contains("Port receives from above and straight"));
    }

    #[test]
    fn table2_lists_all_mnemonics() {
        let s = table2().to_string();
        for m in ["OD", "OC", "LD", "LC", "RD", "RC", "ID"] {
            assert!(s.contains(m), "missing {m}");
        }
    }
}
