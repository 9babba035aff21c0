//! The byte units reports use. The hardware rates of a Polaris compute
//! node (§3.1 of the paper) live in [`crate::costmodel::CostModel::polaris`].

/// One binary gibibyte.
pub const GIB: u64 = 1024 * 1024 * 1024;
