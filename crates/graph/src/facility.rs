//! Facilities (points of interest) lying on network edges.

use crate::cost::CostVec;
use crate::ids::{EdgeId, FacilityId};

/// A facility (point of interest) lying on an edge of the MCN.
///
/// Following Section III of the paper, a facility falls between the end-nodes
/// of an edge; the *partial weight* from the facility to either end-node is
/// proportional to the Euclidean distance along the edge, and the two partial
/// weights sum to the edge's full cost vector. We store the proportion as
/// [`Facility::position`], the fraction `t ∈ [0, 1]` of the way from the
/// edge's `source` to its `target`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Facility {
    /// The facility identifier.
    pub id: FacilityId,
    /// The edge the facility lies on.
    pub edge: EdgeId,
    /// Fraction of the way from the edge's source to its target, in `[0, 1]`.
    pub position: f64,
}

impl Facility {
    /// Creates a facility at fraction `position` along `edge`.
    ///
    /// # Panics
    /// Panics if `position` is not within `[0, 1]` (with no tolerance).
    #[inline]
    pub fn new(id: FacilityId, edge: EdgeId, position: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&position),
            "facility position must lie within [0, 1], got {position}"
        );
        Self { id, edge, position }
    }

    /// Partial cost vector from the edge's **source** end-node to the facility.
    #[inline]
    pub fn partial_from_source(&self, edge_costs: &CostVec) -> CostVec {
        edge_costs.scale(self.position)
    }

    /// Partial cost vector from the edge's **target** end-node to the facility.
    #[inline]
    pub fn partial_from_target(&self, edge_costs: &CostVec) -> CostVec {
        edge_costs.scale(1.0 - self.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_weights_sum_to_edge_costs() {
        let f = Facility::new(FacilityId::new(0), EdgeId::new(3), 0.25);
        let w = CostVec::from_slice(&[8.0, 4.0]);
        let a = f.partial_from_source(&w);
        let b = f.partial_from_target(&w);
        assert_eq!(a.as_slice(), &[2.0, 1.0]);
        assert_eq!(b.as_slice(), &[6.0, 3.0]);
        assert_eq!((a + b).as_slice(), w.as_slice());
    }

    #[test]
    fn endpoints_are_allowed() {
        let at_source = Facility::new(FacilityId::new(1), EdgeId::new(0), 0.0);
        let at_target = Facility::new(FacilityId::new(2), EdgeId::new(0), 1.0);
        let w = CostVec::from_slice(&[10.0]);
        assert_eq!(at_source.partial_from_source(&w).as_slice(), &[0.0]);
        assert_eq!(at_target.partial_from_target(&w).as_slice(), &[0.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_position_panics() {
        let _ = Facility::new(FacilityId::new(0), EdgeId::new(0), 1.5);
    }
}
