//! Model hyper-parameters.

use serde::{Deserialize, Serialize};

/// How the node entity aggregates path information (extended model only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeUpdate {
    /// Aggregate the path-RNN hidden states *at the node's positions* in each
    /// path sequence — symmetric with RouteNet's link update. Default.
    PositionalMessages,
    /// Aggregate the *final* path states of all traversing paths — the
    /// paper's literal wording ("element-wise summation of all the path
    /// states associated to the node"). Compared against the default in
    /// ablation E5.
    FinalPathStateSum,
}

/// Hyper-parameters shared by every model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Dimensionality of every entity state (paths, links, nodes).
    pub state_dim: usize,
    /// Number of message-passing iterations `T`.
    pub mp_iterations: usize,
    /// Hidden width of the readout MLP (two hidden layers of this width).
    pub readout_hidden: usize,
    /// Node aggregation scheme (ignored by the original model).
    pub node_update: NodeUpdate,
    /// Seed for weight initialization.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            state_dim: 16,
            mp_iterations: 6,
            readout_hidden: 32,
            node_update: NodeUpdate::PositionalMessages,
            seed: 0,
        }
    }
}

impl ModelConfig {
    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.state_dim < 2 {
            return Err("state_dim must be at least 2 (features occupy leading columns)".into());
        }
        if self.mp_iterations == 0 {
            return Err("need at least one message-passing iteration".into());
        }
        if self.readout_hidden == 0 {
            return Err("readout hidden width must be positive".into());
        }
        Ok(())
    }

    /// The configuration of the paper-scale model (state 32, T = 8).
    pub fn paper_scale() -> Self {
        Self {
            state_dim: 32,
            mp_iterations: 8,
            readout_hidden: 64,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        ModelConfig::default().validate().unwrap();
        ModelConfig::paper_scale().validate().unwrap();
    }

    #[test]
    fn degenerate_configs_rejected() {
        let c = ModelConfig {
            state_dim: 1,
            ..ModelConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ModelConfig {
            mp_iterations: 0,
            ..ModelConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ModelConfig {
            readout_hidden: 0,
            ..ModelConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let c = ModelConfig {
            node_update: NodeUpdate::FinalPathStateSum,
            ..ModelConfig::default()
        };
        let back: ModelConfig = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(c, back);
    }
}
