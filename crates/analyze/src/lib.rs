//! # accmos-analyze
//!
//! Static model analysis for AccMoS-RS: a fixpoint **abstract
//! interpretation** over the preprocessed (flattened, scheduled, resolved)
//! model that assigns every signal a value [`Interval`], plus three
//! consumers of those intervals:
//!
//! 1. a **lint catalogue** ([`AnalysisFinding`]) — dead actors, constant
//!    branch conditions, guaranteed downcast truncation, possible division
//!    by zero, constant out-of-range indices and implicit float→integer
//!    type flows;
//! 2. **proven-safe instrumentation pruning** — per `(actor, diagnostic)`
//!    facts ([`ModelAnalysis::proves_never_fires`]) that codegen uses to
//!    drop runtime diagnosis checks which can *never* fire on any input;
//! 3. **unsatisfiable coverage points** — bitmap bits (e.g. the false
//!    outcome of a constantly-true decision) no stimulus can ever cover,
//!    listed in the `accmos analyze` report.
//!
//! The soundness contract is one-directional: the analysis may *fail* to
//! prove a safe site safe (the check stays, costing only time), but it
//! must never prune a check that some input could trip. Every transfer
//! function therefore over-approximates the generated C semantics —
//! `-fwrapv` modular integers, saturating NaN→0 float-to-int conversion,
//! checked division — and every proof obligation falls back to "don't
//! know" (⊤) rather than guess.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fixpoint;
mod verdict;

use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::str::FromStr;

use accmos_graph::{ActorId, PreprocessedModel, SignalId};
use accmos_ir::{CoverageKind, DiagnosticKind, Interval, JsonObject, TestVectors};

use fixpoint::Engine;

pub use fixpoint::{cast_interval, float_outward, wrap_fold};

/// Lint severity, ordered `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or informational; never gates CI.
    Info,
    /// Likely-unintended modeling; worth a look.
    Warning,
    /// Almost certainly a modeling bug.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

impl FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Severity, String> {
        match s {
            "info" => Ok(Severity::Info),
            "warning" | "warn" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(format!("unknown severity '{other}' (info|warning|error)")),
        }
    }
}

/// The lint catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintRule {
    /// An actor (or whole conditional group) provably never executes.
    DeadActor,
    /// A branch or decision outcome is statically fixed, so some coverage
    /// objective is unsatisfiable.
    ConstantBranch,
    /// An input's value range lies entirely outside the output type's
    /// range: the downcast *always* truncates.
    GuaranteedDowncast,
    /// A divisor's value range includes zero.
    PossibleDivisionByZero,
    /// A constant selector/index lies outside the valid range.
    ConstantIndexOutOfRange,
    /// A float signal flows implicitly into an integer computation.
    TypeFlowMismatch,
    /// A conditional group's whole activation chain is provably never
    /// active: everything inside it is dead weight.
    NeverActiveGroup,
    /// A Switch (or MultiportSwitch) provably always takes the same arm;
    /// the block adds a branch that never branches.
    AlwaysTakenSwitchArm,
}

impl LintRule {
    /// Stable kebab-case rule name (CLI / JSON).
    pub fn name(self) -> &'static str {
        match self {
            LintRule::DeadActor => "dead-actor",
            LintRule::ConstantBranch => "constant-branch",
            LintRule::GuaranteedDowncast => "guaranteed-downcast",
            LintRule::PossibleDivisionByZero => "possible-division-by-zero",
            LintRule::ConstantIndexOutOfRange => "constant-index-out-of-range",
            LintRule::TypeFlowMismatch => "type-flow-mismatch",
            LintRule::NeverActiveGroup => "never-active-group",
            LintRule::AlwaysTakenSwitchArm => "always-taken-switch-arm",
        }
    }

    /// Default severity of the rule.
    pub fn severity(self) -> Severity {
        match self {
            LintRule::DeadActor => Severity::Warning,
            LintRule::ConstantBranch => Severity::Warning,
            LintRule::GuaranteedDowncast => Severity::Error,
            LintRule::PossibleDivisionByZero => Severity::Warning,
            LintRule::ConstantIndexOutOfRange => Severity::Error,
            LintRule::TypeFlowMismatch => Severity::Info,
            LintRule::NeverActiveGroup => Severity::Warning,
            LintRule::AlwaysTakenSwitchArm => Severity::Warning,
        }
    }
}

/// One reported lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisFinding {
    /// The violated rule.
    pub rule: LintRule,
    /// Severity (normally [`LintRule::severity`]).
    pub severity: Severity,
    /// Hierarchical key of the offending actor or group.
    pub actor: String,
    /// Human-readable explanation with concrete ranges.
    pub message: String,
}

/// The result of analyzing one preprocessed model.
#[derive(Debug, Clone)]
pub struct ModelAnalysis {
    model: String,
    sig: Vec<Interval>,
    live: Vec<bool>,
    iterations: usize,
    narrow_passes: usize,
    converged: bool,
    findings: Vec<AnalysisFinding>,
    never_fires: HashSet<(ActorId, DiagnosticKind)>,
    unsat: [BTreeSet<usize>; 4],
}

/// Analyze a preprocessed model with no stimulus assumption: root inports
/// range over their full data type. Results are safe to use for pruning
/// and unsatisfiable-coverage marking under *any* test vectors.
pub fn analyze(pre: &PreprocessedModel) -> ModelAnalysis {
    build(pre, None)
}

/// Like [`analyze`], but when `tests` is given the *lints* are sharpened
/// by seeding each root inport with the hull of its declared test column
/// (matched by name and type). Pruning facts and unsatisfiable points are
/// still computed without the seed — they must hold for any stimulus.
pub fn analyze_with_tests(pre: &PreprocessedModel, tests: Option<&TestVectors>) -> ModelAnalysis {
    build(pre, tests)
}

fn build(pre: &PreprocessedModel, tests: Option<&TestVectors>) -> ModelAnalysis {
    let mut engine = Engine::new(&pre.flat, None);
    engine.run();
    let (never_fires, unsat) = verdict::facts(&engine, &pre.coverage);

    let findings = if tests.is_some() {
        let mut seeded = Engine::new(&pre.flat, tests);
        seeded.run();
        verdict::lints(&seeded)
    } else {
        verdict::lints(&engine)
    };

    ModelAnalysis {
        model: pre.flat.name.clone(),
        sig: engine.sig.clone(),
        live: engine.live.clone(),
        iterations: engine.iterations,
        narrow_passes: engine.narrow_passes,
        converged: engine.converged,
        findings,
        never_fires,
        unsat,
    }
}

impl ModelAnalysis {
    /// The analyzed model's name.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The value interval of a signal at the fixpoint.
    pub fn signal(&self, id: SignalId) -> Interval {
        self.sig.get(id.0).copied().unwrap_or(Interval::TOP)
    }

    /// Whether the actor can execute at all (its conditional-group chain
    /// is not provably inactive).
    pub fn is_live(&self, id: ActorId) -> bool {
        self.live.get(id.0).copied().unwrap_or(true)
    }

    /// Fixpoint passes executed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Descending (narrowing) passes that refined at least one interval
    /// after the widened fixpoint.
    pub fn narrow_passes(&self) -> usize {
        self.narrow_passes
    }

    /// Whether the iteration stabilized before the hard pass cap (it
    /// should always, thanks to widening; the result is sound either way).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// All lints, most severe first.
    pub fn findings(&self) -> &[AnalysisFinding] {
        &self.findings
    }

    /// The most severe finding, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Whether the intervals prove the given diagnosis check can never
    /// fire on any input — the license to prune it from generated code.
    pub fn proves_never_fires(&self, actor: ActorId, kind: DiagnosticKind) -> bool {
        self.never_fires.contains(&(actor, kind))
    }

    /// Total number of prunable diagnosis checks.
    pub fn prunable_checks(&self) -> usize {
        self.never_fires.len()
    }

    /// Bitmap bits of `kind` no stimulus can cover.
    pub fn unsatisfiable_points(&self, kind: CoverageKind) -> &BTreeSet<usize> {
        &self.unsat[kind.index()]
    }

    /// Number of unsatisfiable points of `kind`.
    pub fn unsatisfiable_count(&self, kind: CoverageKind) -> usize {
        self.unsat[kind.index()].len()
    }

    /// Plain-text report (CLI `--format text`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "analysis of {}: {} pass(es), {}\n",
            self.model,
            self.iterations,
            if self.converged { "converged" } else { "pass cap hit (sound, imprecise)" }
        ));
        out.push_str(&format!(
            "  dead actors: {}\n  prunable diagnosis checks: {}\n",
            self.live.iter().filter(|l| !**l).count(),
            self.prunable_checks(),
        ));
        out.push_str(&format!("  narrowing passes: {}\n", self.narrow_passes));
        for kind in CoverageKind::ALL {
            let n = self.unsatisfiable_count(kind);
            if n > 0 {
                out.push_str(&format!("  unsatisfiable {kind} points: {n}\n"));
            }
        }
        if self.findings.is_empty() {
            out.push_str("no findings\n");
        } else {
            out.push_str(&format!("{} finding(s):\n", self.findings.len()));
            for f in &self.findings {
                out.push_str(&format!(
                    "  [{}] {}: {} — {}\n",
                    f.severity,
                    f.rule.name(),
                    f.actor,
                    f.message
                ));
            }
        }
        out
    }

    /// JSON report (CLI `--format json`), stable key order.
    pub fn render_json(&self) -> String {
        let mut unsatisfiable = JsonObject::default();
        for kind in CoverageKind::ALL {
            unsatisfiable.num(&kind.to_string(), self.unsatisfiable_count(kind));
        }
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                JsonObject::default()
                    .str("rule", f.rule.name())
                    .str("severity", &f.severity.to_string())
                    .str("actor", &f.actor)
                    .str("message", &f.message)
                    .finish()
            })
            .collect();
        let mut out = JsonObject::default();
        out.str("model", &self.model)
            .num("iterations", self.iterations)
            .num("narrow_passes", self.narrow_passes)
            .bool("converged", self.converged)
            .num("dead_actors", self.live.iter().filter(|l| !**l).count())
            .num("prunable_checks", self.prunable_checks())
            .raw("unsatisfiable", &unsatisfiable.finish());
        match self.max_severity() {
            Some(worst) => out.str("max_severity", &worst.to_string()),
            None => out.raw("max_severity", "null"),
        };
        out.raw("findings", &format!("[{}]", findings.join(","))).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accmos_graph::preprocess;
    use accmos_ir::{
        Actor, ActorKind, DataType, LogicOp, Model, ModelBuilder, RelOp, Scalar, SwitchCriteria,
        SystemKind,
    };

    fn analyzed(model: &Model) -> (PreprocessedModel, ModelAnalysis) {
        let pre = preprocess(model).expect("preprocess");
        let analysis = analyze(&pre);
        (pre, analysis)
    }

    fn actor_id(pre: &PreprocessedModel, key: &str) -> ActorId {
        pre.flat
            .actors
            .iter()
            .find(|a| a.path.key() == key)
            .unwrap_or_else(|| panic!("no actor {key}"))
            .id
    }

    fn has_finding(a: &ModelAnalysis, rule: LintRule, key: &str) -> bool {
        a.findings.iter().any(|f| f.rule == rule && f.actor == key)
    }

    #[test]
    fn constant_arithmetic_reaches_exact_fixpoint() {
        let mut b = ModelBuilder::new("M");
        b.constant("A", Scalar::I32(3));
        b.constant("B", Scalar::I32(4));
        b.actor("Add", ActorKind::Sum { signs: "++".into() });
        b.outport("Y", DataType::I32);
        b.connect(("A", 0), ("Add", 0));
        b.connect(("B", 0), ("Add", 1));
        b.wire("Add", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        assert!(a.converged());
        let add = pre.flat.actor(actor_id(&pre, "M_Add"));
        assert_eq!(a.signal(add.outputs[0]).as_const(), Some(7.0));
        assert!(a.is_live(add.id));
        // 3 + 4 provably fits i32: the overflow check is prunable.
        assert!(a.proves_never_fires(add.id, DiagnosticKind::WrapOnOverflow));
    }

    #[test]
    fn unbounded_inport_blocks_overflow_proof() {
        let mut b = ModelBuilder::new("M");
        b.inport("A", DataType::I32);
        b.inport("B", DataType::I32);
        b.actor("Add", ActorKind::Sum { signs: "++".into() });
        b.outport("Y", DataType::I32);
        b.connect(("A", 0), ("Add", 0));
        b.connect(("B", 0), ("Add", 1));
        b.wire("Add", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let add = actor_id(&pre, "M_Add");
        assert!(!a.proves_never_fires(add, DiagnosticKind::WrapOnOverflow));
    }

    #[test]
    fn feedback_loop_widens_and_terminates() {
        // Classic accumulator: UnitDelay -> (+1) -> UnitDelay. The exact
        // range grows forever; widening must close it out quickly.
        let mut b = ModelBuilder::new("M");
        b.constant("One", Scalar::I32(1));
        b.actor("Z", ActorKind::UnitDelay { init: Scalar::I32(0) });
        b.actor("Add", ActorKind::Sum { signs: "++".into() });
        b.outport("Y", DataType::I32);
        b.connect(("Z", 0), ("Add", 0));
        b.connect(("One", 0), ("Add", 1));
        b.connect(("Add", 0), ("Z", 0));
        b.wire("Add", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        assert!(a.converged(), "widening must terminate the loop");
        assert!(a.iterations() < 16, "few passes expected, got {}", a.iterations());
        let add = pre.flat.actor(actor_id(&pre, "M_Add"));
        // The accumulator can genuinely wrap: no overflow pruning.
        assert!(!a.proves_never_fires(add.id, DiagnosticKind::WrapOnOverflow));
        let iv = a.signal(add.outputs[0]);
        assert!(iv.contains(1.0) && iv.contains(i32::MAX as f64));
    }

    #[test]
    fn dead_group_actors_are_flagged_and_fully_prunable() {
        let mut b = ModelBuilder::new("M");
        b.constant("Off", Scalar::Bool(false));
        b.subsystem("Sub", SystemKind::Enabled, |s| {
            s.inport("u", DataType::F64);
            s.actor("Sq", ActorKind::Sqrt);
            s.outport("y", DataType::F64);
            s.wire("u", "Sq");
            s.wire("Sq", "y");
        });
        b.inport("U", DataType::F64);
        b.outport("Y", DataType::F64);
        // Port 0 is the declared inport `u`; the enable control is the
        // port after the declared inports.
        b.connect(("U", 0), ("Sub", 0));
        b.wire_to("Off", "Sub", 1);
        b.wire("Sub", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let sq = actor_id(&pre, "M_Sub_Sq");
        assert!(!a.is_live(sq));
        assert!(has_finding(&a, LintRule::DeadActor, "M_Sub_Sq"));
        let group_key = pre.flat.groups[0].path.key();
        assert!(has_finding(&a, LintRule::NeverActiveGroup, &group_key));
        // Dead actors' checks can never fire (sqrt domain included).
        assert!(a.proves_never_fires(sq, DiagnosticKind::DomainError));
        // Its actor-coverage bit is unsatisfiable.
        let bit = pre.coverage.actor_bit(sq);
        assert!(a.unsatisfiable_points(CoverageKind::Actor).contains(&bit));
        // The group's "active" condition bit is unsatisfiable too.
        let (t, _f) = pre.coverage.group_bits(pre.flat.groups[0].id);
        assert!(a.unsatisfiable_points(CoverageKind::Condition).contains(&t));
    }

    #[test]
    fn constant_decision_marks_unsat_and_lints() {
        let mut b = ModelBuilder::new("M");
        b.constant("C", Scalar::I32(5));
        b.actor(
            "Cmp",
            ActorKind::CompareToConstant { op: RelOp::Gt, constant: Scalar::I32(3) },
        );
        b.outport("Y", DataType::Bool);
        b.wire("C", "Cmp");
        b.wire("Cmp", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let cmp = actor_id(&pre, "M_Cmp");
        assert!(has_finding(&a, LintRule::ConstantBranch, "M_Cmp"));
        let base = pre.coverage.decision[cmp.0].expect("decision point");
        // 5 > 3 is constantly true: the false outcome is unsatisfiable.
        assert!(a.unsatisfiable_points(CoverageKind::Decision).contains(&(base + 1)));
        assert!(!a.unsatisfiable_points(CoverageKind::Decision).contains(&base));
    }

    #[test]
    fn constant_switch_branch_is_unsatisfiable() {
        let mut b = ModelBuilder::new("M");
        b.constant("Ctl", Scalar::F64(2.0));
        b.inport("A", DataType::F64);
        b.inport("B", DataType::F64);
        b.actor("Sw", ActorKind::Switch { criteria: SwitchCriteria::Greater(1.0) });
        b.outport("Y", DataType::F64);
        b.connect(("A", 0), ("Sw", 0));
        b.connect(("Ctl", 0), ("Sw", 1));
        b.connect(("B", 0), ("Sw", 2));
        b.wire("Sw", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let sw = actor_id(&pre, "M_Sw");
        let (base, outcomes) = pre.coverage.condition[sw.0].expect("branch point");
        assert_eq!(outcomes, 2);
        // Control 2.0 > 1.0 always: the else branch (bit base+1) is dead.
        assert!(a.unsatisfiable_points(CoverageKind::Condition).contains(&(base + 1)));
        assert!(has_finding(&a, LintRule::ConstantBranch, "M_Sw"));
        assert!(has_finding(&a, LintRule::AlwaysTakenSwitchArm, "M_Sw"));
    }

    #[test]
    fn logical_mcdc_masking_unsat() {
        // And(x, false): the false input fixes the decision; neither input
        // can independently drive it while the mask requires the other
        // input to be true.
        let mut b = ModelBuilder::new("M");
        b.inport("X", DataType::Bool);
        b.constant("F", Scalar::Bool(false));
        b.actor("And", ActorKind::Logical { op: LogicOp::And, inputs: 2 });
        b.outport("Y", DataType::Bool);
        b.connect(("X", 0), ("And", 0));
        b.connect(("F", 0), ("And", 1));
        b.wire("And", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let and = actor_id(&pre, "M_And");
        let (first, inputs) = pre.coverage.mcdc[and.0].expect("mcdc point");
        assert_eq!(inputs, 2);
        let unsat = a.unsatisfiable_points(CoverageKind::Mcdc);
        // Input 0's mask (input 1 true) never holds: both bits unsat.
        assert!(unsat.contains(&first) && unsat.contains(&(first + 1)));
        // Input 1 is constantly false: its shown-true bit is unsat.
        assert!(unsat.contains(&(first + 2)));
        // Decision constantly false -> true outcome unsat.
        let dbase = pre.coverage.decision[and.0].unwrap();
        assert!(a.unsatisfiable_points(CoverageKind::Decision).contains(&dbase));
    }

    #[test]
    fn guaranteed_downcast_lint_fires() {
        let mut b = ModelBuilder::new("M");
        b.constant("Big", Scalar::I32(300));
        b.actor("Cast", Actor::new(ActorKind::DataTypeConversion { to: DataType::I8 }).with_dtype(DataType::I8));
        b.outport("Y", DataType::I8);
        b.wire("Big", "Cast");
        b.wire("Cast", "Y");
        let (_pre, a) = analyzed(&b.build().unwrap());
        assert!(has_finding(&a, LintRule::GuaranteedDowncast, "M_Cast"));
        assert_eq!(a.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn division_lints_and_proofs() {
        // Divisor includes zero -> warning, no prune. Divisor bounded away
        // from zero (via a nonzero constant) -> prunable, no warning.
        let mut b = ModelBuilder::new("M");
        b.inport("U", DataType::F64);
        b.constant("K", Scalar::F64(4.0));
        b.actor("DivU", ActorKind::Product { ops: "*/".into() });
        b.actor("DivK", ActorKind::Product { ops: "*/".into() });
        b.outport("Y", DataType::F64);
        b.outport("Z", DataType::F64);
        b.connect(("K", 0), ("DivU", 0));
        b.connect(("U", 0), ("DivU", 1));
        b.connect(("U", 0), ("DivK", 0));
        b.connect(("K", 0), ("DivK", 1));
        b.wire("DivU", "Y");
        b.wire("DivK", "Z");
        let (pre, a) = analyzed(&b.build().unwrap());
        assert!(has_finding(&a, LintRule::PossibleDivisionByZero, "M_DivU"));
        assert!(!has_finding(&a, LintRule::PossibleDivisionByZero, "M_DivK"));
        assert!(!a.proves_never_fires(actor_id(&pre, "M_DivU"), DiagnosticKind::DivisionByZero));
        assert!(a.proves_never_fires(actor_id(&pre, "M_DivK"), DiagnosticKind::DivisionByZero));
    }

    #[test]
    fn constant_out_of_range_selector_lint() {
        let mut b = ModelBuilder::new("M");
        b.constant("Sel", Scalar::I32(7));
        b.inport("A", DataType::F64);
        b.inport("B", DataType::F64);
        b.actor("Mp", ActorKind::MultiportSwitch { cases: 2 });
        b.outport("Y", DataType::F64);
        b.connect(("Sel", 0), ("Mp", 0));
        b.connect(("A", 0), ("Mp", 1));
        b.connect(("B", 0), ("Mp", 2));
        b.wire("Mp", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        assert!(has_finding(&a, LintRule::ConstantIndexOutOfRange, "M_Mp"));
        // The out-of-range check genuinely fires: must NOT be prunable.
        assert!(!a.proves_never_fires(actor_id(&pre, "M_Mp"), DiagnosticKind::ArrayOutOfBounds));
    }

    #[test]
    fn in_range_selector_proves_bounds_check_safe() {
        let mut b = ModelBuilder::new("M");
        b.constant("Sel", Scalar::I32(2));
        b.inport("A", DataType::F64);
        b.inport("B", DataType::F64);
        b.actor("Mp", ActorKind::MultiportSwitch { cases: 2 });
        b.outport("Y", DataType::F64);
        b.connect(("Sel", 0), ("Mp", 0));
        b.connect(("A", 0), ("Mp", 1));
        b.connect(("B", 0), ("Mp", 2));
        b.wire("Mp", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let mp = actor_id(&pre, "M_Mp");
        assert!(a.proves_never_fires(mp, DiagnosticKind::ArrayOutOfBounds));
        // Case 1 (branch bit base+0) is unsatisfiable, case 2 reachable.
        let (base, _) = pre.coverage.condition[mp.0].unwrap();
        assert!(a.unsatisfiable_points(CoverageKind::Condition).contains(&base));
        assert!(!a.unsatisfiable_points(CoverageKind::Condition).contains(&(base + 1)));
    }

    #[test]
    fn type_flow_mismatch_info() {
        let mut b = ModelBuilder::new("M");
        b.inport("U", DataType::F64);
        b.actor("Add", Actor::new(ActorKind::Sum { signs: "++".into() }).with_dtype(DataType::I32));
        b.outport("Y", DataType::I32);
        b.connect(("U", 0), ("Add", 0));
        b.connect(("U", 0), ("Add", 1));
        b.wire("Add", "Y");
        let (_pre, a) = analyzed(&b.build().unwrap());
        assert!(has_finding(&a, LintRule::TypeFlowMismatch, "M_Add"));
        let f = a
            .findings()
            .iter()
            .find(|f| f.rule == LintRule::TypeFlowMismatch)
            .unwrap();
        assert_eq!(f.severity, Severity::Info);
    }

    #[test]
    fn domain_error_proof_for_nonnegative_sqrt() {
        let mut b = ModelBuilder::new("M");
        b.inport("U", DataType::F64);
        b.actor("AbsU", ActorKind::Abs);
        b.actor("Root", ActorKind::Sqrt);
        b.outport("Y", DataType::F64);
        b.wire("U", "AbsU");
        b.wire("AbsU", "Root");
        b.wire("Root", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        // |u| >= 0, NaN can't satisfy `x < 0.0`: domain check prunable.
        assert!(a.proves_never_fires(actor_id(&pre, "M_Root"), DiagnosticKind::DomainError));
    }

    #[test]
    fn saturation_branch_reachability() {
        let mut b = ModelBuilder::new("M");
        b.constant("C", Scalar::F64(5.0));
        b.actor("Sat", ActorKind::Saturation { lo: -1.0, hi: 1.0 });
        b.outport("Y", DataType::F64);
        b.wire("C", "Sat");
        b.wire("Sat", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let sat = actor_id(&pre, "M_Sat");
        let (base, outcomes) = pre.coverage.condition[sat.0].unwrap();
        assert_eq!(outcomes, 3);
        let unsat = a.unsatisfiable_points(CoverageKind::Condition);
        // 5.0 is always above: below (base+0) and pass (base+1) are unsat.
        assert!(unsat.contains(&base));
        assert!(unsat.contains(&(base + 1)));
        assert!(!unsat.contains(&(base + 2)));
        let out = pre.flat.actor(sat);
        assert_eq!(a.signal(out.outputs[0]).as_const(), Some(1.0));
    }

    #[test]
    fn render_json_is_well_formed_enough() {
        let mut b = ModelBuilder::new("M");
        b.constant("C", Scalar::F64(1.0));
        b.outport("Y", DataType::F64);
        b.wire("C", "Y");
        let (_pre, a) = analyzed(&b.build().unwrap());
        let json = a.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"model\":\"M\""));
        assert!(json.contains("\"findings\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn precision_loss_needs_a_constant_for_float_inputs() {
        // An interval only bounds a float signal; it cannot prove every
        // value inside is representable after the round trip. A UnitDelay
        // alternating {0, 10} has interval [0, 10] with exact-integer
        // bounds — pruning on bounds alone was a soundness bug.
        let mut b = ModelBuilder::new("M");
        b.constant("Ten", Scalar::F64(10.0));
        b.actor("Dly", ActorKind::UnitDelay { init: Scalar::F64(0.0) });
        b.actor(
            "ToInt",
            Actor::new(ActorKind::Gain { gain: Scalar::F64(1.0) }).with_dtype(DataType::I32),
        );
        b.outport("Y", DataType::I32);
        b.wire("Ten", "Dly");
        b.wire("Dly", "ToInt");
        b.wire("ToInt", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let to_int = actor_id(&pre, "M_ToInt");
        assert!(
            !a.proves_never_fires(to_int, DiagnosticKind::PrecisionLoss),
            "a non-constant float interval must keep the round-trip check"
        );

        // A pinned constant that round-trips exactly is provable...
        let mut b = ModelBuilder::new("M");
        b.constant("C", Scalar::F64(2.5));
        b.actor(
            "Narrow",
            Actor::new(ActorKind::Gain { gain: Scalar::F32(2.0) }).with_dtype(DataType::F32),
        );
        b.outport("Y", DataType::F32);
        b.wire("C", "Narrow");
        b.wire("Narrow", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let narrow = actor_id(&pre, "M_Narrow");
        assert!(a.proves_never_fires(narrow, DiagnosticKind::PrecisionLoss), "2.5 is exact in f32");

        // ...while one that does not (0.1 has no exact f32) is not.
        let mut b = ModelBuilder::new("M");
        b.constant("C", Scalar::F64(0.1));
        b.actor(
            "Narrow",
            Actor::new(ActorKind::Gain { gain: Scalar::F32(2.0) }).with_dtype(DataType::F32),
        );
        b.outport("Y", DataType::F32);
        b.wire("C", "Narrow");
        b.wire("Narrow", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let narrow = actor_id(&pre, "M_Narrow");
        assert!(!a.proves_never_fires(narrow, DiagnosticKind::PrecisionLoss));
    }

    #[test]
    fn severity_parse_and_order() {
        assert!(Severity::Info < Severity::Warning && Severity::Warning < Severity::Error);
        assert_eq!("error".parse::<Severity>().unwrap(), Severity::Error);
        assert_eq!("warn".parse::<Severity>().unwrap(), Severity::Warning);
        assert!("fatal".parse::<Severity>().is_err());
    }

    #[test]
    fn test_vector_seeding_sharpens_lints_but_not_proofs() {
        // U in [-8, 8] per declared tests: the division warning remains
        // (0 inside), but a Bias by 100 into i8... stays unproven because
        // proofs must ignore the seed.
        let mut b = ModelBuilder::new("M");
        b.inport("U", DataType::I8);
        b.actor("Inc", ActorKind::Bias { bias: Scalar::I8(1) });
        b.outport("Y", DataType::I8);
        b.wire("U", "Inc");
        b.wire("Inc", "Y");
        let model = b.build().unwrap();
        let pre = preprocess(&model).unwrap();
        let mut tests = TestVectors::new();
        tests.push_column(
            "U",
            DataType::I8,
            (-8i8..=8).map(Scalar::I8).collect::<Vec<_>>(),
        );
        let a = analyze_with_tests(&pre, Some(&tests));
        let inc = actor_id(&pre, "M_Inc");
        // Even though the seeded range can't wrap, the proof must assume
        // the full i8 range (127 + 1 wraps): not prunable.
        assert!(!a.proves_never_fires(inc, DiagnosticKind::WrapOnOverflow));
    }

    #[test]
    fn narrowing_recovers_precision_after_widening() {
        // Clamped accumulator: Z -> +1 -> Sat[0,1000] -> Z. The ascending
        // passes widen the adder toward the type maximum; the descending
        // passes must pull it back to the clamp's successor range.
        let mut b = ModelBuilder::new("M");
        b.constant("One", Scalar::F64(1.0));
        b.actor("Z", ActorKind::UnitDelay { init: Scalar::F64(0.0) });
        b.actor("Add", ActorKind::Sum { signs: "++".into() });
        b.actor("Sat", ActorKind::Saturation { lo: 0.0, hi: 1000.0 });
        b.outport("Y", DataType::F64);
        b.connect(("Z", 0), ("Add", 0));
        b.connect(("One", 0), ("Add", 1));
        b.wire("Add", "Sat");
        b.connect(("Sat", 0), ("Z", 0));
        b.wire("Sat", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        assert!(a.converged());
        assert!(a.narrow_passes() >= 1, "narrowing must refine the widened loop");
        let add = pre.flat.actor(actor_id(&pre, "M_Add"));
        let iv = a.signal(add.outputs[0]);
        assert!(iv.contains(1001.0));
        assert!(iv.hi <= 1001.0, "widened adder must narrow to clamp + 1, got {iv}");
    }

    #[test]
    fn always_active_group_keeps_members_live() {
        let mut b = ModelBuilder::new("M");
        b.constant("On", Scalar::Bool(true));
        b.subsystem("Sub", SystemKind::Enabled, |s| {
            s.inport("u", DataType::F64);
            s.actor("Neg", ActorKind::Gain { gain: Scalar::F64(-1.0) });
            s.outport("y", DataType::F64);
            s.wire("u", "Neg");
            s.wire("Neg", "y");
        });
        b.inport("U", DataType::F64);
        b.outport("Y", DataType::F64);
        b.connect(("U", 0), ("Sub", 0));
        b.wire_to("On", "Sub", 1);
        b.wire("Sub", "Y");
        let (pre, a) = analyzed(&b.build().unwrap());
        let neg = actor_id(&pre, "M_Sub_Neg");
        assert!(a.is_live(neg));
        let group_key = pre.flat.groups[0].path.key();
        assert!(!has_finding(&a, LintRule::NeverActiveGroup, &group_key));
        assert!(has_finding(&a, LintRule::ConstantBranch, &group_key));
    }
}
