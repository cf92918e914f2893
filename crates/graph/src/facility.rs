//! Facilities (points of interest) lying on network edges.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_are_allowed() {
        let at_source = Facility::new(FacilityId::new(1), EdgeId::new(0), 0.0);
        let at_target = Facility::new(FacilityId::new(2), EdgeId::new(0), 1.0);
        assert_eq!((at_source.position, at_target.position), (0.0, 1.0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_position_panics() {
        let _ = Facility::new(FacilityId::new(0), EdgeId::new(0), 1.5);
    }
}
