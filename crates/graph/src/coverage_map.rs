//! Coverage-point enumeration.
//!
//! Both simulation paths — the interpretive engine and the generated C
//! code — must agree on which bitmap bit belongs to which coverage point.
//! [`CoverageIndex`] enumerates all points of a preprocessed model once, in
//! execution order, following the paper's metric definitions (§3.2A):
//!
//! - **Actor**: one point per actor (`actorBitmap[actorID] = 1`);
//! - **Condition**: one point per branch outcome of each branch actor,
//!   plus two per conditional group (its enable condition, true and false);
//! - **Decision**: two points (true/false outcome) per boolean-logic actor;
//! - **MC/DC**: two points per input of each combination condition — the
//!   input was observed independently driving the decision as true and as
//!   false (masking test).

use crate::flat::{ActorId, FlatModel, GroupId};
use accmos_ir::{CoverageKind, CoverageMap};

/// Dense bitmap indices for every coverage point of one model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageIndex {
    /// The number of points per metric.
    pub map: CoverageMap,
    /// Per actor: its actor-coverage bit.
    pub actor_point: Vec<usize>,
    /// Per actor: `(first_bit, outcome_count)` for branch actors.
    pub condition: Vec<Option<(usize, usize)>>,
    /// Per actor: first of two decision bits (`+0` true, `+1` false).
    pub decision: Vec<Option<usize>>,
    /// Per actor: `(first_bit, input_count)`; two MC/DC bits per input
    /// (`first + 2*i` shown-true, `first + 2*i + 1` shown-false).
    pub mcdc: Vec<Option<(usize, usize)>>,
    /// Per group: first of two condition bits (`+0` active, `+1` inactive).
    pub group_condition: Vec<usize>,
}

impl CoverageIndex {
    /// Enumerate the coverage points of `flat` (requires a schedule).
    pub fn build(flat: &FlatModel) -> CoverageIndex {
        let n = flat.actors.len();
        let mut index = CoverageIndex {
            map: CoverageMap::new(),
            actor_point: vec![0; n],
            condition: vec![None; n],
            decision: vec![None; n],
            mcdc: vec![None; n],
            group_condition: vec![0; flat.groups.len()],
        };

        for actor in flat.ordered_actors() {
            index.actor_point[actor.id.0] = index.map.add(CoverageKind::Actor);

            if let Some(outcomes) = actor.kind.branch_outcomes() {
                let base = index.map.add(CoverageKind::Condition);
                for _ in 1..outcomes {
                    index.map.add(CoverageKind::Condition);
                }
                index.condition[actor.id.0] = Some((base, outcomes));
            }

            if actor.kind.contains_boolean_logic() {
                let base = index.map.add(CoverageKind::Decision);
                index.map.add(CoverageKind::Decision);
                index.decision[actor.id.0] = Some(base);
            }

            if actor.kind.is_combination_condition() {
                let inputs = actor.inputs.len();
                let mut first = None;
                for _ in 0..inputs {
                    let t = index.map.add(CoverageKind::Mcdc);
                    index.map.add(CoverageKind::Mcdc);
                    first.get_or_insert(t);
                }
                index.mcdc[actor.id.0] = first.map(|f| (f, inputs));
            }
        }

        for group in &flat.groups {
            let base = index.map.add(CoverageKind::Condition);
            index.map.add(CoverageKind::Condition);
            index.group_condition[group.id.0] = base;
        }

        index
    }

    /// Actor-coverage bit of `actor`.
    pub fn actor_bit(&self, actor: ActorId) -> usize {
        self.actor_point[actor.0]
    }

    /// Condition bits of a group.
    pub fn group_bits(&self, group: GroupId) -> (usize, usize) {
        let base = self.group_condition[group.0];
        (base, base + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{flatten::flatten, schedule::schedule};
    use accmos_ir::{
        ActorKind, DataType, LogicOp, ModelBuilder, RelOp, Scalar, SwitchCriteria, SystemKind,
    };

    fn prep(b: ModelBuilder) -> FlatModel {
        let mut flat = flatten(&b.build().unwrap()).unwrap();
        schedule(&mut flat).unwrap();
        flat
    }

    #[test]
    fn counts_by_metric() {
        let mut b = ModelBuilder::new("M");
        b.inport("A", DataType::F64);
        b.inport("B", DataType::F64);
        b.actor("Lt", ActorKind::Relational { op: RelOp::Lt });
        b.actor("Gt", ActorKind::Relational { op: RelOp::Gt });
        b.actor("And", ActorKind::Logical { op: LogicOp::And, inputs: 2 });
        b.actor("Sw", ActorKind::Switch { criteria: SwitchCriteria::NotEqualZero });
        b.outport("Y", DataType::F64);
        b.connect(("A", 0), ("Lt", 0));
        b.connect(("B", 0), ("Lt", 1));
        b.connect(("A", 0), ("Gt", 0));
        b.connect(("B", 0), ("Gt", 1));
        b.connect(("Lt", 0), ("And", 0));
        b.connect(("Gt", 0), ("And", 1));
        b.connect(("A", 0), ("Sw", 0));
        b.connect(("And", 0), ("Sw", 1));
        b.connect(("B", 0), ("Sw", 2));
        b.wire("Sw", "Y");
        let flat = prep(b);
        let idx = CoverageIndex::build(&flat);
        assert_eq!(idx.map.total(CoverageKind::Actor), 7);
        assert_eq!(idx.map.total(CoverageKind::Condition), 2); // switch branches
        assert_eq!(idx.map.total(CoverageKind::Decision), 6); // Lt, Gt, And
        assert_eq!(idx.map.total(CoverageKind::Mcdc), 4); // 2 inputs x 2
        let and = flat.actors.iter().find(|a| a.path.key() == "M_And").unwrap();
        assert_eq!(idx.mcdc[and.id.0].unwrap().1, 2);
        assert!(idx.decision[and.id.0].is_some());
    }

    #[test]
    fn group_condition_points_registered() {
        let mut b = ModelBuilder::new("M");
        b.constant("En", Scalar::Bool(true));
        b.subsystem("Sub", SystemKind::Enabled, |s| {
            s.constant("K", Scalar::F64(1.0));
            s.outport("y", DataType::F64);
            s.wire("K", "y");
        });
        b.outport("Y", DataType::F64);
        b.wire_to("En", "Sub", 0);
        b.wire("Sub", "Y");
        let flat = prep(b);
        let idx = CoverageIndex::build(&flat);
        assert_eq!(idx.map.total(CoverageKind::Condition), 2);
        let (t, f) = idx.group_bits(GroupId(0));
        assert_eq!(f, t + 1);
    }

    #[test]
    fn actor_bits_follow_execution_order() {
        let mut b = ModelBuilder::new("M");
        b.outport("Y", DataType::I32);
        b.constant("C", Scalar::I32(1));
        b.wire("C", "Y");
        let flat = prep(b);
        let idx = CoverageIndex::build(&flat);
        // C executes before Y even though declared after.
        let c = flat.actors.iter().find(|a| a.path.key() == "M_C").unwrap();
        let y = flat.actors.iter().find(|a| a.path.key() == "M_Y").unwrap();
        assert!(idx.actor_bit(c.id) < idx.actor_bit(y.id));
    }
}
