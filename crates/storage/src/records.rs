//! On-disk record formats for the adjacency and facility files.
//!
//! The layout follows the paper's Figure 2:
//!
//! * The **adjacency file** stores, per node, one record listing its incident
//!   edges: opposite node, edge identifier, the `d`-dimensional cost vector,
//!   and a pointer into the facility file for the facilities lying on that
//!   edge.
//! * The **facility file** stores, per edge, a contiguous run of facility
//!   entries (facility identifier + fractional position along the edge, from
//!   which the partial weights to the end-nodes are computed).
//!
//! Records never straddle a page boundary; facility *runs* may span multiple
//! consecutive pages, but individual 12-byte entries never do.

use crate::codec::{RecordReader, RecordWriter};
use crate::page::PageId;
use mcn_graph::{CostVec, EdgeId, FacilityId, NodeId};

/// Location of a record inside the database: page and in-page byte offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RecordPtr {
    /// The page holding the record.
    pub page: PageId,
    /// Byte offset of the record within the page.
    pub offset: u16,
}

/// Pointer to the facilities of one edge inside the facility file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FacilityRun {
    /// First entry of the run.
    pub start: RecordPtr,
    /// Number of facility entries in the run.
    pub count: u16,
}

/// One entry of a node's adjacency record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdjacencyEntry {
    /// The node at the other end of the edge.
    pub neighbor: NodeId,
    /// The connecting edge.
    pub edge: EdgeId,
    /// Whether the edge can be traversed starting from the record's node
    /// (false for the reverse direction of a directed edge).
    pub traversable: bool,
    /// The edge's cost vector.
    pub costs: CostVec,
    /// Facilities lying on the edge, if any.
    pub facilities: Option<FacilityRun>,
}

/// A node's full adjacency record.
#[derive(Clone, Debug, PartialEq)]
pub struct AdjacencyList {
    /// The node the record belongs to.
    pub node: NodeId,
    /// One entry per incident edge.
    pub entries: Vec<AdjacencyEntry>,
}

const _: () = crate::assert_send_sync::<AdjacencyList>();

/// Size in bytes of one facility entry (facility id + position).
pub(crate) const FACILITY_ENTRY_SIZE: usize = 4 + 8;

/// Size in bytes of one adjacency entry for a graph with `d` cost types.
pub(crate) const fn adjacency_entry_size(d: usize) -> usize {
    // neighbor + edge + flags + facility (page, offset, count) + d costs
    4 + 4 + 1 + 4 + 2 + 2 + 8 * d
}

/// Size in bytes of a whole adjacency record with the given degree.
pub(crate) const fn adjacency_record_size(degree: usize, d: usize) -> usize {
    2 + degree * adjacency_entry_size(d)
}

const FLAG_TRAVERSABLE: u8 = 0b0000_0001;
const FLAG_HAS_FACILITIES: u8 = 0b0000_0010;

/// Encodes an adjacency record into `buf` (which must be large enough; see
/// [`adjacency_record_size`]).
pub(crate) fn encode_adjacency_record(buf: &mut [u8], entries: &[AdjacencyEntry]) {
    let mut w = RecordWriter::new(buf);
    w.put_u16(entries.len() as u16);
    for e in entries {
        w.put_u32(e.neighbor.raw());
        w.put_u32(e.edge.raw());
        let mut flags = 0u8;
        if e.traversable {
            flags |= FLAG_TRAVERSABLE;
        }
        if e.facilities.is_some() {
            flags |= FLAG_HAS_FACILITIES;
        }
        w.put_u8(flags);
        let run = e.facilities.unwrap_or(FacilityRun {
            start: RecordPtr {
                page: PageId::new(0),
                offset: 0,
            },
            count: 0,
        });
        w.put_u32(run.start.page.raw());
        w.put_u16(run.start.offset);
        w.put_u16(run.count);
        for c in e.costs.iter() {
            w.put_f64(c);
        }
    }
}

/// Decodes the adjacency record that starts at `offset` in `bytes`, appending
/// its entries to `out` (which is not cleared: a caller may gather several
/// records in one buffer).
///
/// `d` is the number of cost types of the store (needed to know the entry
/// width).
pub(crate) fn decode_adjacency_record(
    bytes: &[u8],
    offset: usize,
    d: usize,
    out: &mut Vec<AdjacencyEntry>,
) {
    let mut r = RecordReader::new(bytes, offset);
    let degree = r.get_u16() as usize;
    out.reserve(degree);
    for _ in 0..degree {
        let neighbor = NodeId::new(r.get_u32());
        let edge = EdgeId::new(r.get_u32());
        let flags = r.get_u8();
        let fac_page = r.get_u32();
        let fac_offset = r.get_u16();
        let fac_count = r.get_u16();
        let mut costs = CostVec::zeros(d);
        for i in 0..d {
            costs[i] = r.get_f64();
        }
        let facilities = if flags & FLAG_HAS_FACILITIES != 0 {
            Some(FacilityRun {
                start: RecordPtr {
                    page: PageId::new(fac_page),
                    offset: fac_offset,
                },
                count: fac_count,
            })
        } else {
            None
        };
        out.push(AdjacencyEntry {
            neighbor,
            edge,
            traversable: flags & FLAG_TRAVERSABLE != 0,
            costs,
            facilities,
        });
    }
}

/// Encodes one facility entry at the start of `buf`.
pub(crate) fn encode_facility_entry(buf: &mut [u8], facility: FacilityId, position: f64) {
    let mut w = RecordWriter::new(buf);
    w.put_u32(facility.raw());
    w.put_f64(position);
}

/// Decodes one facility entry from `bytes` at `offset`.
pub(crate) fn decode_facility_entry(bytes: &[u8], offset: usize) -> (FacilityId, f64) {
    let mut r = RecordReader::new(bytes, offset);
    let id = FacilityId::new(r.get_u32());
    let position = r.get_f64();
    (id, position)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn sample_entries(d: usize) -> Vec<AdjacencyEntry> {
        vec![
            AdjacencyEntry {
                neighbor: NodeId::new(7),
                edge: EdgeId::new(3),
                traversable: true,
                costs: CostVec::from_slice(&vec![1.5; d]),
                facilities: Some(FacilityRun {
                    start: RecordPtr {
                        page: PageId::new(12),
                        offset: 48,
                    },
                    count: 5,
                }),
            },
            AdjacencyEntry {
                neighbor: NodeId::new(9),
                edge: EdgeId::new(4),
                traversable: false,
                costs: CostVec::from_slice(&vec![2.25; d]),
                facilities: None,
            },
        ]
    }

    #[test]
    fn adjacency_record_roundtrip() {
        for d in [2usize, 4, 5, 8] {
            let entries = sample_entries(d);
            let size = adjacency_record_size(entries.len(), d);
            let mut buf = vec![0u8; size + 16];
            encode_adjacency_record(&mut buf, &entries);
            let mut decoded = Vec::new();
            decode_adjacency_record(&buf, 0, d, &mut decoded);
            assert_eq!(decoded, entries, "d = {d}");
            // Decoding appends: what the buffer already holds stays.
            decode_adjacency_record(&buf, 0, d, &mut decoded);
            assert_eq!(decoded[..2], entries[..]);
            assert_eq!(decoded[2..], entries[..]);
        }
    }

    #[test]
    fn record_sizes_fit_typical_road_network_degrees() {
        // With the maximum d = 8 a degree-40 intersection still fits one page.
        assert!(adjacency_record_size(40, 8) < PAGE_SIZE);
        assert_eq!(adjacency_entry_size(4), 17 + 32);
        assert_eq!(adjacency_record_size(0, 4), 2);
    }

    #[test]
    fn facility_entry_roundtrip() {
        let mut buf = vec![0u8; 2 * FACILITY_ENTRY_SIZE];
        encode_facility_entry(&mut buf, FacilityId::new(17), 0.375);
        encode_facility_entry(&mut buf[FACILITY_ENTRY_SIZE..], FacilityId::new(18), 1.0);
        assert_eq!(decode_facility_entry(&buf, 0), (FacilityId::new(17), 0.375));
        assert_eq!(
            decode_facility_entry(&buf, FACILITY_ENTRY_SIZE),
            (FacilityId::new(18), 1.0)
        );
    }

    #[test]
    fn empty_adjacency_record_roundtrip() {
        let mut buf = vec![0u8; 4];
        encode_adjacency_record(&mut buf, &[]);
        let mut decoded = Vec::new();
        decode_adjacency_record(&buf, 0, 4, &mut decoded);
        assert!(decoded.is_empty());
    }
}
