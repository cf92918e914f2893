//! Error types for building and opening MCN stores.

use mcn_graph::NodeId;
use std::fmt;

/// Errors produced while building or opening a disk-resident MCN store.
#[derive(Clone, Debug, PartialEq)]
pub enum StorageError {
    /// A node's adjacency record does not fit in a single page.
    RecordTooLarge {
        /// The offending node.
        node: NodeId,
        /// The record size that was required.
        required: usize,
        /// The maximum record size (one page).
        maximum: usize,
    },
    /// The header page is missing or malformed.
    InvalidHeader(String),
    /// The header image is shorter than the fixed header layout.
    TruncatedHeader {
        /// Bytes the header layout requires.
        required: usize,
        /// Bytes actually available.
        actual: usize,
    },
    /// The graph is too large for the 32-bit identifier space of the layout.
    TooManyPages,
    /// A partitioned store's inputs are inconsistent (map/disks/graph
    /// mismatch).
    Partition(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::RecordTooLarge {
                node,
                required,
                maximum,
            } => write!(
                f,
                "adjacency record of node {node} needs {required} bytes but a page holds {maximum}"
            ),
            StorageError::InvalidHeader(msg) => write!(f, "invalid store header: {msg}"),
            StorageError::TruncatedHeader { required, actual } => write!(
                f,
                "truncated store header: {actual} bytes but the layout needs {required}"
            ),
            StorageError::TooManyPages => write!(f, "store exceeds the 32-bit page id space"),
            StorageError::Partition(msg) => write!(f, "inconsistent partitioned store: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        let e = StorageError::RecordTooLarge {
            node: NodeId::new(3),
            required: 9000,
            maximum: 4096,
        };
        let msg = e.to_string();
        assert!(msg.contains("v3") && msg.contains("9000") && msg.contains("4096"));
        assert!(StorageError::InvalidHeader("bad magic".into())
            .to_string()
            .contains("bad magic"));
        let truncated = StorageError::TruncatedHeader {
            required: 60,
            actual: 12,
        };
        assert!(truncated.to_string().contains("60") && truncated.to_string().contains("12"));
    }
}
