//! The scenario registry: every evaluation artifact as a [`Scenario`].
//!
//! Each module puts one evaluation artifact on the shared trial-engine
//! API. [`all`] lists them in paper order; the `totoro-bench` CLI looks
//! them up with [`find`].

use crate::scenario::Scenario;

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod simcore;
pub mod table3;
pub mod tta;

/// All registered scenarios, in paper order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(fig5::Fig5),
        Box::new(fig6::Fig6),
        Box::new(fig7::Fig7),
        Box::new(table3::Table3),
        Box::new(tta::FIG8),
        Box::new(tta::FIG9),
        Box::new(fig10::Fig10),
        Box::new(fig11::Fig11),
        Box::new(fig12::Fig12),
        Box::new(fig13::Fig13),
        Box::new(ablation::Ablation),
        Box::new(simcore::Simcore),
        Box::new(crate::chaos::ChaosScenario),
    ]
}

/// Looks up a scenario by its registry name.
pub fn find(name: &str) -> Option<Box<dyn Scenario>> {
    all().into_iter().find(|s| s.name() == name)
}
