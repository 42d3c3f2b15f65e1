//! The serving model's architecture spec and its hot-swap registry.
//!
//! [`SnapshotRegistry`] is `dftensor`'s generation-stamped [`HotSwap`]
//! store instantiated for the fusion model: a publish validates against
//! [`ModelSpec`], in-flight batches keep the generation they started with,
//! and score-cache keys mix the generation in, so a swap invalidates stale
//! scores by missing instead of requiring a flush.

use dfchem::featurize::{GraphConfig, VoxelConfig};
use dffusion::config::{Cnn3dConfig, FusionConfig, FusionKind, SgCnnConfig};
use dffusion::FusionModel;
use dftensor::params::ParamStore;
use dftensor::{Architecture, HotSwap};

pub use dftensor::Generation;

/// Everything needed to (re)build the serving model architecture and its
/// featurization, so a snapshot can be validated before it goes live.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Fusion variant and layer sizing.
    pub fusion: FusionConfig,
    /// SG-CNN head sizing.
    pub sgcnn: SgCnnConfig,
    /// 3D-CNN head sizing.
    pub cnn3d: Cnn3dConfig,
    /// Voxelization the 3D-CNN was trained against.
    pub voxel: VoxelConfig,
    /// Graph featurization the SG-CNN was trained against.
    pub graph: GraphConfig,
    /// Weight-initialization seed (generation 0 serves these weights).
    pub seed: u64,
}

impl ModelSpec {
    /// A CPU-tractable spec for tests and benches.
    pub fn tiny(seed: u64) -> ModelSpec {
        let sgcnn = SgCnnConfig {
            covalent_gather_width: 6,
            noncovalent_gather_width: 8,
            covalent_k: 1,
            noncovalent_k: 1,
            ..SgCnnConfig::table2()
        };
        // The graph featurization must match what the SG-CNN was built for.
        let graph = sgcnn.graph_config();
        ModelSpec {
            fusion: FusionConfig {
                num_dense_nodes: 8,
                ..FusionConfig::small(FusionKind::Coherent)
            },
            sgcnn,
            cnn3d: Cnn3dConfig {
                conv_filters_1: 4,
                conv_filters_2: 6,
                num_dense_nodes: 8,
                ..Cnn3dConfig::table3()
            },
            voxel: VoxelConfig { grid_dim: 8, resolution: 2.0 },
            graph,
            seed,
        }
    }

    /// Builds the model structure and its freshly-initialized parameters.
    pub fn build(&self) -> (FusionModel, ParamStore) {
        let mut ps = ParamStore::new();
        let model = FusionModel::new(
            &self.fusion,
            &self.sgcnn,
            &self.cnn3d,
            &self.voxel,
            &mut ps,
            self.seed,
        );
        (model, ps)
    }
}

impl Architecture for ModelSpec {
    const SWAP_COUNTER: &'static str = "serve.registry.swaps";

    fn fresh_params(&self) -> ParamStore {
        self.build().1
    }
}

/// The fusion model's hot-swap registry. Cheap to share
/// (`Arc<SnapshotRegistry>`): producers publish from any thread while the
/// serving loop reads.
pub type SnapshotRegistry = HotSwap<ModelSpec>;
