//! Strongly-typed identifiers for nodes, edges and facilities.
//!
//! All identifiers are thin wrappers around `u32`, dense and zero-based: the
//! `i`-th node added to a [`crate::GraphBuilder`] receives `NodeId(i)`. The dense
//! property is relied upon by `mcn-storage` (records are addressed by id) and by
//! the expansion algorithms (visited sets are flat bit vectors).

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw `u32` index.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the identifier as a `usize`, suitable for indexing dense arrays.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(id: $name) -> u32 {
                id.0
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(raw: usize) -> Self {
                debug_assert!(raw <= u32::MAX as usize, "identifier overflow");
                Self(raw as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a network node (road intersection).
    NodeId,
    "v"
);
define_id!(
    /// Identifier of a network edge (road segment).
    EdgeId,
    "e"
);
define_id!(
    /// Identifier of a facility (point of interest) lying on an edge.
    FacilityId,
    "p"
);
define_id!(
    /// Identifier of a graph region produced by the partitioner (see
    /// `mcn_graph::partition`). Regions shard the disk-resident store and
    /// drive region-affine query scheduling in `mcn-engine`.
    RegionId,
    "r"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_raw() {
        let n = NodeId::new(42);
        assert_eq!(n.raw(), 42);
        assert_eq!(n.index(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
        assert_eq!(NodeId::from(42usize), n);
    }

    #[test]
    fn display_uses_paper_prefixes() {
        assert_eq!(NodeId::new(3).to_string(), "v3");
        assert_eq!(EdgeId::new(7).to_string(), "e7");
        assert_eq!(FacilityId::new(1).to_string(), "p1");
        assert_eq!(format!("{:?}", FacilityId::new(1)), "p1");
    }

    #[test]
    fn ordering_follows_raw_index() {
        let mut v = vec![NodeId::new(5), NodeId::new(1), NodeId::new(3)];
        v.sort();
        assert_eq!(v, vec![NodeId::new(1), NodeId::new(3), NodeId::new(5)]);
    }

    #[test]
    fn hashable_and_distinct_types() {
        let mut set = HashSet::new();
        set.insert(NodeId::new(0));
        set.insert(NodeId::new(0));
        set.insert(NodeId::new(1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
        assert_eq!(EdgeId::default().raw(), 0);
    }
}
