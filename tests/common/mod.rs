//! Models shared by more than one integration test.

use accmos_ir::{ActorKind, BitOp, DataType, Model, ModelBuilder};

/// A straight-line chain of `n` bitwise NOTs: every actor is branch-free
/// *and* diagnosis-free (bit operations cannot overflow), so the schedule
/// carries no instrumentation but coverage writes.
pub fn chain_model(n: usize) -> Model {
    let mut b = ModelBuilder::new("Chain");
    b.inport("In", DataType::U32);
    let mut prev = "In".to_string();
    for i in 0..n {
        let name = format!("A{i}");
        b.actor(&name, ActorKind::Bitwise { op: BitOp::Not });
        b.connect((prev.as_str(), 0), (name.as_str(), 0));
        prev = name;
    }
    b.outport("Out", DataType::U32);
    b.connect((prev.as_str(), 0), ("Out", 0));
    b.build().expect("chain model")
}
