//! Minimal resource hierarchy: cluster / node / core arities.
//!
//! Real platforms expose processors through a shallow tree — clusters
//! of nodes of cores. The [`Hierarchy`] type carries the three arities
//! parsed from a `--hierarchy` spec like `2x4x8` (2 clusters × 4 nodes ×
//! 8 cores = 64 processors); the node-granularity scheduling adapter of
//! `demt-api` reads the node count and node width from it to coarsen an
//! instance to whole nodes and expand the placements back to cores.
//!
//! Core ids are assigned depth-first: cluster `c`, node `n`, core `k`
//! maps to id `(c · nodes_per_cluster + n) · cores_per_node + k`, so
//! every node (and every cluster) is one contiguous id interval.

use std::fmt;

/// Errors raised while parsing or building hierarchy specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// The spec is not three positive integers joined by `x`.
    BadSpec {
        /// The offending spec string.
        spec: String,
    },
    /// The arity product does not fit the processor id space.
    Overflow {
        /// The offending spec string.
        spec: String,
    },
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::BadSpec { spec } => {
                write!(
                    f,
                    "hierarchy spec `{spec}` is not CLUSTERSxNODESxCORES (e.g. 2x4x8)"
                )
            }
            HierarchyError::Overflow { spec } => {
                write!(
                    f,
                    "hierarchy spec `{spec}` overflows the processor id space"
                )
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

/// A three-level cluster/node/core machine shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hierarchy {
    clusters: u32,
    nodes_per_cluster: u32,
    cores_per_node: u32,
}

impl Hierarchy {
    /// Builds a hierarchy from explicit arities (all must be ≥ 1 and
    /// the product must fit `u32`).
    pub fn new(
        clusters: u32,
        nodes_per_cluster: u32,
        cores_per_node: u32,
    ) -> Result<Self, HierarchyError> {
        let spec = || format!("{clusters}x{nodes_per_cluster}x{cores_per_node}");
        if clusters == 0 || nodes_per_cluster == 0 || cores_per_node == 0 {
            return Err(HierarchyError::BadSpec { spec: spec() });
        }
        let total = u64::from(clusters) * u64::from(nodes_per_cluster) * u64::from(cores_per_node);
        if u32::try_from(total).is_err() {
            return Err(HierarchyError::Overflow { spec: spec() });
        }
        Ok(Self {
            clusters,
            nodes_per_cluster,
            cores_per_node,
        })
    }

    /// Parses a `CLUSTERSxNODESxCORES` spec such as `2x4x8`.
    pub fn parse(spec: &str) -> Result<Self, HierarchyError> {
        let bad = || HierarchyError::BadSpec {
            spec: spec.to_string(),
        };
        let mut it = spec.split('x');
        let mut next = || -> Result<u32, HierarchyError> {
            it.next().ok_or_else(bad)?.trim().parse().map_err(|_| bad())
        };
        let (c, n, k) = (next()?, next()?, next()?);
        if it.next().is_some() {
            return Err(bad());
        }
        Self::new(c, n, k)
    }

    /// Total number of nodes across all clusters.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.clusters * self.nodes_per_cluster
    }

    /// Cores per node.
    #[must_use]
    pub fn cores_per_node(&self) -> u32 {
        self.cores_per_node
    }

    /// Total processor count (the instance's `m`).
    #[must_use]
    pub fn total_cores(&self) -> usize {
        self.nodes() as usize * self.cores_per_node as usize
    }
}

impl fmt::Display for Hierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}",
            self.clusters, self.nodes_per_cluster, self.cores_per_node
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_canonical_spec() {
        let h = Hierarchy::parse("2x4x8").unwrap();
        assert_eq!(h.nodes(), 8);
        assert_eq!(h.cores_per_node(), 8);
        assert_eq!(h.total_cores(), 64);
        assert_eq!(h.to_string(), "2x4x8");
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in ["", "2x4", "2x4x8x16", "0x4x8", "2x-1x8", "axbxc"] {
            assert!(
                matches!(Hierarchy::parse(bad), Err(HierarchyError::BadSpec { .. })),
                "{bad} should be rejected"
            );
        }
        assert!(matches!(
            Hierarchy::new(70000, 70000, 1),
            Err(HierarchyError::Overflow { .. })
        ));
    }
}
