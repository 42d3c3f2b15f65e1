//! The surrogate's hot-swap registry.
//!
//! [`SurrogateRegistry`] is `dftensor`'s generation-stamped [`HotSwap`]
//! store — the same one behind `dfserve`'s fusion-model `SnapshotRegistry`
//! — instantiated for [`SurrogateConfig`], so the active-learning driver's
//! per-epoch retrain becomes visible to the serving tier the moment it
//! publishes. The registry holds weights only: whoever predicts builds the
//! [`SurrogateMlp`](crate::SurrogateMlp) structure once from the same
//! config.

use crate::model::SurrogateConfig;
use dftensor::params::ParamStore;
use dftensor::{Architecture, HotSwap};

impl Architecture for SurrogateConfig {
    const SWAP_COUNTER: &'static str = "surrogate.registry.swaps";

    fn fresh_params(&self) -> ParamStore {
        self.build().1
    }
}

/// The surrogate's hot-swap registry. Cheap to share
/// (`Arc<SurrogateRegistry>`): the campaign driver publishes after each
/// retrain while scoring passes and the serving tier read.
pub type SurrogateRegistry = HotSwap<SurrogateConfig>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::snapshot_hash;
    use crate::train::{train, LabeledExample, TrainConfig};

    #[test]
    fn retrain_then_publish_changes_predictions_under_a_new_generation() {
        let cfg = SurrogateConfig::tiny(7);
        let reg = SurrogateRegistry::new(cfg.clone());
        let rows: Vec<Vec<f32>> = (0..6)
            .map(|i| {
                let (_, row) = crate::model::featurize_compound(
                    &cfg.fingerprint,
                    dfchem::genmol::Library::Chembl,
                    i,
                    5,
                );
                row
            })
            .collect();
        let (model, mut ps) = cfg.build();
        let live = reg.current();
        assert_eq!(live.generation, 0);
        let before = model.predict(&live.params, &rows);

        let pool: Vec<LabeledExample> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| LabeledExample {
                index: i as u64,
                features: r.clone(),
                label: -4.0 - i as f32 * 0.3,
            })
            .collect();
        train(&model, &mut ps, &TrainConfig { epochs: 10, ..TrainConfig::default() }, &pool);
        reg.publish(&ps.snapshot()).expect("trained snapshot");
        let live = reg.current();
        assert_eq!(live.generation, 1);
        assert_eq!(snapshot_hash(&live.params.snapshot()), snapshot_hash(&ps.snapshot()));
        let after = model.predict(&live.params, &rows);
        assert_ne!(before, after, "hot-swap must change live predictions");
    }
}
