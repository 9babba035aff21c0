//! Device identities and the byte units reports use. The hardware rates of
//! a Polaris compute node (§3.1 of the paper) live in
//! [`crate::costmodel::CostModel::polaris`].

/// Which device a buffer or computation lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Host CPU + system memory.
    Host,
    /// A GPU, identified by its index within the compute node.
    Gpu(u32),
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Host => write!(f, "host"),
            DeviceKind::Gpu(i) => write!(f, "gpu{i}"),
        }
    }
}

/// One binary gibibyte.
pub const GIB: u64 = 1024 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_kind_display() {
        assert_eq!(DeviceKind::Host.to_string(), "host");
        assert_eq!(DeviceKind::Gpu(2).to_string(), "gpu2");
    }
}
