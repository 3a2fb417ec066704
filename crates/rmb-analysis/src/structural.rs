//! Cross-checks of the §3.2 formulas against constructed instances.
//!
//! The paper's closed forms are only credible if they describe the objects
//! they claim to describe. For every architecture we can build (RMB,
//! hypercube, fat tree, mesh), this module counts links on the *actual*
//! constructed instance and compares with the [`crate::cost`] model under
//! the paper's per-architecture counting convention.

use crate::cost::{cost, Architecture};
use rmb_baselines::{FatTree, Hypercube, Mesh2D, Network};

/// Result of one structural cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossCheck {
    /// Architecture checked.
    pub arch: Architecture,
    /// Node count.
    pub n: u32,
    /// Permutation capability.
    pub k: u16,
    /// Links predicted by the §3.2 formula.
    pub model_links: f64,
    /// Links counted on the constructed instance, normalised to the
    /// paper's convention for this architecture.
    pub structural_links: f64,
    /// Note about the counting convention applied.
    pub convention: &'static str,
}

impl CrossCheck {
    /// Relative error between model and structure.
    pub fn relative_error(&self) -> f64 {
        if self.model_links == 0.0 {
            return 0.0;
        }
        (self.model_links - self.structural_links).abs() / self.model_links
    }
}

/// Cross-checks the RMB link count: `N·k` unidirectional segments.
fn check_rmb(n: u32, k: u16) -> CrossCheck {
    // The RMB's structure is by construction N hops x k segments; the
    // simulator's segment array is exactly that object.
    let structural = f64::from(n) * f64::from(k);
    CrossCheck {
        arch: Architecture::Rmb,
        n,
        k,
        model_links: cost(Architecture::Rmb, n, k).links,
        structural_links: structural,
        convention: "unidirectional bus segments",
    }
}

/// Cross-checks the hypercube: the paper's `N log N` counts directed
/// channels (each node owns `log N` outgoing links).
fn check_hypercube(n: u32) -> CrossCheck {
    let cube = Hypercube::new(n);
    let k = 1;
    CrossCheck {
        arch: Architecture::Hypercube,
        n,
        k,
        model_links: cost(Architecture::Hypercube, n, k).links,
        structural_links: cube.graph().channel_count() as f64,
        convention: "directed channels (paper counts per-node links)",
    }
}

/// Cross-checks the k-capped fat tree: the paper's `N log k + N - 2k`
/// counts undirected switch-to-switch links and excludes the `N`
/// PE-attachment links at the leaves, which the constructed instance
/// includes — so the structural count is normalised by subtracting `N`.
fn check_fat_tree(n: u32, k: u16) -> CrossCheck {
    let tree = FatTree::new(n, k);
    CrossCheck {
        arch: Architecture::FatTree,
        n,
        k,
        model_links: cost(Architecture::FatTree, n, k).links,
        structural_links: tree.link_count() as f64 - f64::from(n),
        convention: "undirected switch-to-switch links (N PE attachments excluded)",
    }
}

/// Cross-checks the k-scaled GFC: §3.2 clusters `k` PEs per cube node,
/// leaving a `N/k`-node cube with `(N/k)·log(N/k)` links (directed, as in
/// the hypercube convention). Structurally this is a hypercube over the
/// `N/k` supernodes.
///
/// # Panics
///
/// Panics unless `n / k` is a power of two of at least 2.
fn check_gfc(n: u32, k: u16) -> CrossCheck {
    let m = n / u32::from(k);
    let cube = Hypercube::new(m);
    CrossCheck {
        arch: Architecture::GfcScaled,
        n,
        k,
        model_links: cost(Architecture::GfcScaled, n, k).links,
        structural_links: cube.graph().channel_count() as f64,
        convention: "directed channels of the N/k-supernode cube",
    }
}

/// Cross-checks the mesh: the paper's `2N` counts undirected links of the
/// unexpanded mesh (boundary nodes make the exact count `2N - 2√N`).
fn check_mesh(n: u32) -> CrossCheck {
    let mesh = Mesh2D::square(n);
    CrossCheck {
        arch: Architecture::Mesh,
        n,
        k: 1,
        model_links: cost(Architecture::Mesh, n, 1).links,
        structural_links: mesh.link_count() as f64,
        convention: "undirected links; paper's 2N ignores the boundary",
    }
}

/// Runs every cross-check that applies at `(n, k)` (powers of two only
/// for cube/tree; perfect squares for the mesh).
pub fn all_checks(n: u32, k: u16) -> Vec<CrossCheck> {
    let mut out = vec![check_rmb(n, k)];
    if n.is_power_of_two() {
        out.push(check_hypercube(n));
        out.push(check_fat_tree(n, k));
        let m = n / u32::from(k);
        if m >= 2 && m.is_power_of_two() {
            out.push(check_gfc(n, k));
        }
    }
    let side = (n as f64).sqrt().round() as u32;
    if side * side == n {
        out.push(check_mesh(n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmb_matches_exactly() {
        let c = check_rmb(64, 8);
        assert_eq!(c.relative_error(), 0.0);
    }

    #[test]
    fn hypercube_matches_exactly() {
        for n in [8u32, 64, 256] {
            let c = check_hypercube(n);
            assert_eq!(c.relative_error(), 0.0, "N={n}");
        }
    }

    #[test]
    fn fat_tree_matches_exactly_after_pe_link_normalisation() {
        // Constructed tree: sum over levels of min(2^j, k)-capacity
        // bundles = N log k + 2N - 2k undirected links, exactly N (the
        // PE attachments) above the paper's N log k + N - 2k.
        for (n, k) in [(16u32, 4u16), (64, 8), (256, 16)] {
            let c = check_fat_tree(n, k);
            assert_eq!(
                c.relative_error(),
                0.0,
                "N={n} k={k}: model {} vs structural {}",
                c.model_links,
                c.structural_links
            );
            let tree = FatTree::new(n, k);
            assert_eq!(
                tree.link_count() as f64,
                c.model_links + f64::from(n),
                "raw structural count exceeds the paper by exactly N"
            );
        }
    }

    #[test]
    fn gfc_matches_exactly() {
        for (n, k) in [(64u32, 8u16), (256, 16), (1024, 16)] {
            let c = check_gfc(n, k);
            assert_eq!(c.relative_error(), 0.0, "N={n} k={k}");
        }
    }

    #[test]
    fn mesh_matches_up_to_boundary() {
        for n in [16u32, 64, 256, 1024] {
            let c = check_mesh(n);
            // 2N vs 2N - 2sqrt(N): error 1/sqrt(N), shrinking with N.
            let bound = 1.0 / (n as f64).sqrt() + 1e-9;
            assert!(c.relative_error() <= bound, "N={n}: {}", c.relative_error());
        }
    }

    #[test]
    fn all_checks_dispatches_by_shape() {
        // 64 is a power of two and a perfect square: all five checks.
        assert_eq!(all_checks(64, 4).len(), 5);
        // 36 is a perfect square only: RMB + mesh.
        assert_eq!(all_checks(36, 4).len(), 2);
        // 32 is a power of two only: RMB + cube + tree + gfc.
        assert_eq!(all_checks(32, 4).len(), 4);
    }
}
