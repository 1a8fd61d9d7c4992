//! Consumers of the interval fixpoint: proven-never-fires facts for
//! diagnosis pruning, unsatisfiable coverage points, and the lint
//! catalogue.
//!
//! Everything here is *post*-fixpoint: it reads the converged signal,
//! state and liveness data from the [`Engine`] and re-derives per-actor
//! proof obligations. The cardinal rule is stated in the crate docs:
//! a fact is only emitted when the intervals *prove* it — anything short
//! of a proof keeps the runtime check and the coverage point.

use std::collections::{BTreeSet, HashSet};

use accmos_graph::{ActorId, CoverageIndex, FlatActor};
use accmos_ir::{
    applicable_diagnoses, ActorKind, CoverageKind, DataType, DiagnosticKind, Interval, LogicOp,
    MathOp, ShiftDir, SystemKind, TrigOp,
};

use crate::fixpoint::{wrap_fold, Act, Engine};
use crate::{AnalysisFinding, LintRule};

/// Compute pruning facts and unsatisfiable coverage points.
pub fn facts(
    engine: &Engine<'_>,
    coverage: &CoverageIndex,
) -> (HashSet<(ActorId, DiagnosticKind)>, [BTreeSet<usize>; 4]) {
    let flat = engine.flat;
    let mut never = HashSet::new();
    let mut unsat: [BTreeSet<usize>; 4] = Default::default();
    let mark = |kind: CoverageKind, bit: usize, set: &mut [BTreeSet<usize>; 4]| {
        set[kind.index()].insert(bit);
    };

    for actor in &flat.actors {
        let id = actor.id;
        let applicable =
            applicable_diagnoses(&actor.kind, &flat.input_dtypes(actor), actor.dtype);

        if !engine.live[id.0] {
            // A provably-dead actor can fire nothing and cover nothing.
            for kind in applicable {
                never.insert((id, kind));
            }
            mark(CoverageKind::Actor, coverage.actor_point[id.0], &mut unsat);
            if let Some((base, outcomes)) = coverage.condition[id.0] {
                for i in 0..outcomes {
                    mark(CoverageKind::Condition, base + i, &mut unsat);
                }
            }
            if let Some(base) = coverage.decision[id.0] {
                mark(CoverageKind::Decision, base, &mut unsat);
                mark(CoverageKind::Decision, base + 1, &mut unsat);
            }
            if let Some((first, inputs)) = coverage.mcdc[id.0] {
                for i in 0..inputs * 2 {
                    mark(CoverageKind::Mcdc, first + i, &mut unsat);
                }
            }
            continue;
        }

        for kind in applicable {
            if proves_check_safe(engine, actor, kind) {
                never.insert((id, kind));
            }
        }

        // --- unsatisfiable branch outcomes (condition coverage) ----------
        if let Some((base, outcomes)) = coverage.condition[id.0] {
            for i in unsat_branches(engine, actor, outcomes) {
                mark(CoverageKind::Condition, base + i, &mut unsat);
            }
        }

        // --- constant decisions ------------------------------------------
        if let Some(base) = coverage.decision[id.0] {
            match engine.tri_decision(actor) {
                Some(true) => mark(CoverageKind::Decision, base + 1, &mut unsat),
                Some(false) => mark(CoverageKind::Decision, base, &mut unsat),
                None => {}
            }
        }

        // --- MC/DC objectives --------------------------------------------
        if let Some((first, inputs)) = coverage.mcdc[id.0] {
            if let ActorKind::Logical { op, .. } = &actor.kind {
                for bit in unsat_mcdc(engine, actor, *op, inputs) {
                    mark(CoverageKind::Mcdc, first + bit, &mut unsat);
                }
            }
        }
    }

    // --- group enable-condition points -----------------------------------
    for group in &flat.groups {
        let (t, f) = coverage.group_bits(group.id);
        let parent = group.parent.map(|p| engine.final_act(p)).unwrap_or(Act::Always);
        if parent == Act::Never {
            // Recorded only while the parent is active: never recorded.
            mark(CoverageKind::Condition, t, &mut unsat);
            mark(CoverageKind::Condition, f, &mut unsat);
            continue;
        }
        let ctrl = engine.sig[group.control.0];
        match group.kind {
            SystemKind::Enabled => {
                if ctrl.always_zero() {
                    mark(CoverageKind::Condition, t, &mut unsat);
                } else if ctrl.always_nonzero() {
                    mark(CoverageKind::Condition, f, &mut unsat);
                }
            }
            SystemKind::Triggered => {
                // A constantly-zero control never rises. A nonzero control
                // still de-asserts after the first step, so only the
                // "fired" outcome can be ruled out.
                if ctrl.always_zero() {
                    mark(CoverageKind::Condition, t, &mut unsat);
                }
            }
            SystemKind::Plain => {}
        }
    }

    (never, unsat)
}

/// Whether the fixpoint proves the diagnosis check of `kind` on `actor`
/// can never fire on any input.
fn proves_check_safe(engine: &Engine<'_>, actor: &FlatActor, kind: DiagnosticKind) -> bool {
    use ActorKind::*;
    let dt = actor.dtype;
    match kind {
        DiagnosticKind::WrapOnOverflow => match &actor.kind {
            Sum { signs } => {
                wrap_fold(
                    dt,
                    Interval::exact(0.0),
                    signs.chars().enumerate().map(|(i, s)| (s, engine.iv_in_cast(actor, i))),
                )
                .1
            }
            Product { ops } => {
                // Division results are checked with wide arithmetic that
                // interacts with the zero-divisor guard; don't prune.
                !ops.contains('/')
                    && wrap_fold(
                        dt,
                        Interval::exact(1.0),
                        ops.chars().enumerate().map(|(i, _)| ('*', engine.iv_in_cast(actor, i))),
                    )
                    .1
            }
            Gain { gain } => {
                let g = Interval::exact(gain.cast(dt).to_f64());
                wrap_fold(dt, engine.iv_in_cast(actor, 0), [('*', g)]).1
            }
            Bias { bias } => {
                let b = Interval::exact(bias.cast(dt).to_f64());
                wrap_fold(dt, engine.iv_in_cast(actor, 0), [('+', b)]).1
            }
            Abs => engine.iv_in_cast(actor, 0).abs().fits(dt),
            Math { op: MathOp::Square } => {
                let x = engine.iv_in_cast(actor, 0);
                wrap_fold(dt, x, [('*', x)]).1
            }
            Shift { dir: ShiftDir::Left, amount } => {
                let f = Interval::exact((2.0f64).powi(*amount as i32));
                wrap_fold(dt, engine.iv_in_cast(actor, 0), [('*', f)]).1
            }
            Shift { dir: ShiftDir::Right, .. } => true, // shrinks magnitude
            SumOfElements => {
                let w = engine.in_width(actor, 0);
                let x = engine.iv_in_cast(actor, 0);
                wrap_fold(dt, Interval::exact(0.0), (0..w).map(|_| ('+', x))).1
            }
            ProductOfElements => {
                let w = engine.in_width(actor, 0);
                let x = engine.iv_in_cast(actor, 0);
                wrap_fold(dt, Interval::exact(1.0), (0..w).map(|_| ('*', x))).1
            }
            DotProduct => {
                let w = engine.in_width(actor, 0);
                let a = engine.iv_in_cast(actor, 0);
                let b = engine.iv_in_cast(actor, 1);
                let term = a * b;
                // Every partial product and partial sum must fit.
                term.fits(dt)
                    && wrap_fold(dt, Interval::exact(0.0), (0..w).map(|_| ('+', term))).1
            }
            DiscreteDerivative => {
                wrap_fold(dt, engine.iv_in_cast(actor, 0), [('-', engine.state[actor.id.0])]).1
            }
            DiscreteIntegrator { .. } => {
                let incr = engine.integrator_increment(actor);
                wrap_fold(dt, engine.state[actor.id.0], [('+', incr)]).1
            }
            // The generated checker has no recompute arm for polynomials:
            // the check is vacuous and trivially prunable.
            Polynomial { .. } => true,
            _ => false,
        },
        DiagnosticKind::DivisionByZero => {
            let ports: Vec<usize> = match &actor.kind {
                Product { ops } => {
                    ops.chars().enumerate().filter(|(_, c)| *c == '/').map(|(i, _)| i).collect()
                }
                Math { op: MathOp::Reciprocal } => vec![0],
                Math { op: MathOp::Mod } | Math { op: MathOp::Rem } => vec![1],
                _ => return false,
            };
            // The runtime check compares the *cast* input against zero;
            // cast_interval already folds NaN→0 for integer targets, so
            // excludes_zero is exactly the no-fire proof.
            !ports.is_empty()
                && ports.iter().all(|p| engine.iv_in_cast(actor, *p).excludes_zero())
        }
        DiagnosticKind::DomainError => {
            let x = engine.iv_in_cast(actor, 0);
            match &actor.kind {
                // `x < 0.0` — NaN compares false, so NaN can't fire it.
                Sqrt => x.numeric_empty() || x.lo >= 0.0,
                // `x <= 0.0` — likewise NaN-immune.
                Math { op: MathOp::Log } | Math { op: MathOp::Log10 } => {
                    x.numeric_empty() || x.lo > 0.0
                }
                // `fabs(x) > 1.0` — NaN-immune.
                Trig { op: TrigOp::Asin } | Trig { op: TrigOp::Acos } => {
                    x.numeric_empty() || (x.lo >= -1.0 && x.hi <= 1.0)
                }
                _ => false,
            }
        }
        DiagnosticKind::ArrayOutOfBounds => {
            let (sel, limit) = match &actor.kind {
                MultiportSwitch { cases } => (engine.iv_in(actor, 0), *cases),
                Selector { dynamic: true, .. } => {
                    (engine.iv_in(actor, 1), engine.in_width(actor, 0))
                }
                _ => return false,
            };
            // The check truncates to a wide integer: `sel < 1 || sel > n`.
            !sel.nan
                && !sel.numeric_empty()
                && sel.lo.is_finite()
                && sel.hi.is_finite()
                && sel.lo.trunc() >= 1.0
                && sel.hi.trunc() <= limit as f64
        }
        DiagnosticKind::PrecisionLoss => {
            // The site round-trips every flagged input through the output
            // type; all of them must provably survive the trip. An interval
            // only bounds the values — it says nothing about *which* floats
            // occur inside it — so a float-typed input is provable only when
            // pinned to a single constant whose round-trip is exact. An
            // integer-typed input holds integral values by construction, so
            // bounds inside the target mantissa's exact range suffice.
            actor.inputs.iter().enumerate().all(|(i, s)| {
                let from = engine.flat.signal(*s).dtype;
                if !from.precision_loss_to(dt) {
                    return true;
                }
                let iv = engine.iv_in(actor, i);
                if iv.nan {
                    return false;
                }
                if from.is_float() {
                    match iv.as_const() {
                        Some(c) => round_trip_exact(c, from, dt),
                        None => false,
                    }
                } else {
                    let bound = crate::fixpoint::mantissa_exact_bound(dt);
                    !iv.numeric_empty() && iv.lo >= -bound && iv.hi <= bound
                }
            })
        }
        // Fires once unconditionally on the first execution; only a dead
        // actor (handled by the caller) makes it unreachable.
        DiagnosticKind::Downcast => false,
    }
}

/// Whether the constant `c` (a value of type `from`) survives the
/// generated round-trip cast `from -> dt -> from` bit-for-bit. Mirrors
/// the C helpers: float->int truncates and saturates, NaN maps to zero
/// (NaN inputs are rejected before this is called).
fn round_trip_exact(c: f64, from: DataType, dt: DataType) -> bool {
    let forward = if dt.is_float() {
        if dt == DataType::F32 { (c as f32) as f64 } else { c }
    } else {
        let range = Interval::of_dtype(dt);
        c.trunc().clamp(range.lo, range.hi)
    };
    let back = if from == DataType::F32 { (forward as f32) as f64 } else { forward };
    back == c
}

/// Branch outcomes (0-based, `..outcomes`) this actor can never take.
fn unsat_branches(engine: &Engine<'_>, actor: &FlatActor, outcomes: usize) -> Vec<usize> {
    use ActorKind::*;
    let mut dead = Vec::new();
    match &actor.kind {
        Switch { criteria } => match engine.tri_switch(actor, criteria) {
            Some(true) => dead.push(1),
            Some(false) => dead.push(0),
            None => {}
        },
        MultiportSwitch { cases } => {
            let (lo, hi) = engine.multiport_range(actor, *cases);
            for case in 1..=*cases {
                if case < lo || case > hi {
                    dead.push(case - 1);
                }
            }
        }
        Saturation { lo, hi } => {
            let x = engine.iv_in_cast(actor, 0);
            // Branches: 0 = below lo, 1 = pass (incl. NaN), 2 = above hi.
            if x.numeric_empty() || x.lo >= *lo {
                dead.push(0);
            }
            if !x.nan && (x.numeric_empty() || x.hi < *lo || x.lo > *hi) {
                dead.push(1);
            }
            if x.numeric_empty() || x.hi <= *hi {
                dead.push(2);
            }
        }
        DeadZone { start, end } => {
            let x = engine.iv_in_cast(actor, 0);
            if x.numeric_empty() || x.lo >= *start {
                dead.push(0);
            }
            if !x.nan && (x.numeric_empty() || x.hi < *start || x.lo > *end) {
                dead.push(1);
            }
            if x.numeric_empty() || x.hi <= *end {
                dead.push(2);
            }
        }
        Relay { on_threshold, .. } => {
            let x = engine.iv_in_cast(actor, 0);
            // Branch 1 = on. Turning on requires some value >= threshold.
            if x.numeric_empty() || x.hi < *on_threshold {
                dead.push(1);
            }
            // Branch 0 = off, recorded unless the relay latches on from
            // the very first step (NaN never compares true, so a possible
            // NaN keeps the off branch reachable).
            if !x.numeric_empty() && x.lo >= *on_threshold && !x.nan {
                dead.push(0);
            }
        }
        // RateLimiter reachability depends on the step-to-step trajectory,
        // which the per-signal domain doesn't track: claim nothing.
        RateLimiter { .. } => {}
        _ => {}
    }
    dead.retain(|b| *b < outcomes);
    dead
}

/// Unsatisfiable MC/DC bit offsets (relative to the actor's first bit).
fn unsat_mcdc(engine: &Engine<'_>, actor: &FlatActor, op: LogicOp, inputs: usize) -> Vec<usize> {
    let cs: Vec<Option<bool>> = (0..inputs).map(|i| engine.tri_nonzero(actor, i)).collect();
    let mut bits = BTreeSet::new();
    for i in 0..inputs {
        // A constant input can never be observed at its other value.
        match cs[i] {
            Some(true) => {
                bits.insert(2 * i + 1);
            }
            Some(false) => {
                bits.insert(2 * i);
            }
            None => {}
        }
        // Masking: input i is only observable when every other input is
        // at the op's neutral element (true for AND-like, false for
        // OR-like). A constant other input at the wrong polarity makes
        // the mask — and both objectives of input i — unsatisfiable.
        let mask_dead = match op {
            LogicOp::And | LogicOp::Nand => {
                (0..inputs).any(|j| j != i && cs[j] == Some(false))
            }
            LogicOp::Or | LogicOp::Nor => {
                (0..inputs).any(|j| j != i && cs[j] == Some(true))
            }
            LogicOp::Xor | LogicOp::Not => false,
        };
        if mask_dead {
            bits.insert(2 * i);
            bits.insert(2 * i + 1);
        }
    }
    bits.into_iter().collect()
}

/// Produce the lint catalogue from a (possibly test-seeded) fixpoint.
pub fn lints(engine: &Engine<'_>) -> Vec<AnalysisFinding> {
    use ActorKind::*;
    let flat = engine.flat;
    let mut out = Vec::new();
    let mut push = |rule: LintRule, actor: String, message: String| {
        out.push(AnalysisFinding { rule, severity: rule.severity(), actor, message });
    };

    for actor in &flat.actors {
        let key = actor.path.key();
        let dt = actor.dtype;

        if !engine.live[actor.id.0] {
            push(
                LintRule::DeadActor,
                key,
                "inside a conditional group whose control is provably never active".into(),
            );
            continue;
        }

        // Constant branches / decisions.
        let mut const_notes: Vec<String> = Vec::new();
        match &actor.kind {
            Switch { criteria } => if let Some(v) = engine.tri_switch(actor, criteria) {
                const_notes.push(format!(
                    "switch criteria is constantly {v}; the {} branch is unreachable",
                    if v { "else" } else { "pass-through" }
                ));
                push(
                    LintRule::AlwaysTakenSwitchArm,
                    key.clone(),
                    format!(
                        "the {} arm is always taken: the switch never switches",
                        if v { "pass-through" } else { "else" }
                    ),
                );
            },
            MultiportSwitch { cases } => {
                let (lo, hi) = engine.multiport_range(actor, *cases);
                if (hi - lo + 1) < *cases {
                    const_notes
                        .push(format!("selector only reaches cases {lo}..={hi} of {cases}"));
                }
                if lo == hi {
                    push(
                        LintRule::AlwaysTakenSwitchArm,
                        key.clone(),
                        format!("case {lo} is always selected: the switch never switches"),
                    );
                }
            }
            _ => {}
        }
        if let Some(v) = engine.tri_decision(actor) {
            const_notes.push(format!("decision is constantly {v}"));
        }
        for note in const_notes {
            push(LintRule::ConstantBranch, key.clone(), note);
        }

        // Guaranteed downcast truncation: an input whose entire value
        // range lies outside what the output type can represent.
        for (i, s) in actor.inputs.iter().enumerate() {
            let from = flat.signal(*s).dtype;
            if !from.downcast_to(dt) {
                continue;
            }
            let iv = engine.iv_in(actor, i);
            if !iv.numeric_empty() && (iv.lo > dt.max_f64() || iv.hi < dt.min_f64()) {
                push(
                    LintRule::GuaranteedDowncast,
                    key.clone(),
                    format!(
                        "input {i} ({from}) ranges over {iv}, entirely outside {dt}: \
                         every value truncates"
                    ),
                );
            }
        }

        // Possible division by zero.
        let div_ports: Vec<usize> = match &actor.kind {
            Product { ops } => {
                ops.chars().enumerate().filter(|(_, c)| *c == '/').map(|(i, _)| i).collect()
            }
            Math { op: MathOp::Reciprocal } => vec![0],
            Math { op: MathOp::Mod } | Math { op: MathOp::Rem } => vec![1],
            _ => Vec::new(),
        };
        for p in div_ports {
            let iv = engine.iv_in_cast(actor, p);
            if !iv.excludes_zero() {
                push(
                    LintRule::PossibleDivisionByZero,
                    key.clone(),
                    format!("divisor (input {p}) ranges over {iv}, which includes zero"),
                );
            }
        }

        // Constant out-of-range indices.
        match &actor.kind {
            MultiportSwitch { cases } => {
                let sel = engine.iv_in(actor, 0);
                if let Some(c) = sel.as_const() {
                    if c.fract() == 0.0 && (c < 1.0 || c > *cases as f64) {
                        push(
                            LintRule::ConstantIndexOutOfRange,
                            key.clone(),
                            format!("selector is constantly {c}, outside 1..={cases} (clamped)"),
                        );
                    }
                }
            }
            Selector { indices, dynamic } => {
                let width = engine.in_width(actor, 0);
                if *dynamic {
                    let sel = engine.iv_in(actor, 1);
                    if let Some(c) = sel.as_const() {
                        if c.fract() == 0.0 && (c < 1.0 || c > width as f64) {
                            push(
                                LintRule::ConstantIndexOutOfRange,
                                key.clone(),
                                format!(
                                    "runtime index is constantly {c}, outside 1..={width} (clamped)"
                                ),
                            );
                        }
                    }
                } else {
                    for idx in indices {
                        if *idx >= width {
                            push(
                                LintRule::ConstantIndexOutOfRange,
                                key.clone(),
                                format!("static index {idx} out of range for width {width}"),
                            );
                        }
                    }
                }
            }
            _ => {}
        }

        // Implicit float → integer type flow.
        if dt.is_integer()
            && actor.kind.is_calculation()
            && !matches!(actor.kind, DataTypeConversion { .. })
        {
            let float_ins: Vec<usize> = actor
                .inputs
                .iter()
                .enumerate()
                .filter(|(_, s)| flat.signal(**s).dtype.is_float())
                .map(|(i, _)| i)
                .collect();
            if !float_ins.is_empty() {
                push(
                    LintRule::TypeFlowMismatch,
                    key.clone(),
                    format!(
                        "float input(s) {float_ins:?} are implicitly converted to {dt} \
                         (saturating, NaN becomes 0)"
                    ),
                );
            }
        }
    }

    // Never-active groups: the whole activation chain (own control plus
    // every ancestor) is provably inactive — stronger than a single
    // constant control, hence its own rule.
    for group in &flat.groups {
        if engine.final_act(group.id) == Act::Never {
            push(
                LintRule::NeverActiveGroup,
                group.path.key(),
                "the group's activation chain is provably never active: \
                 every member is dead weight"
                    .into(),
            );
        }
    }

    // Constant group controls.
    for group in &flat.groups {
        let ctrl = engine.sig[group.control.0];
        let note = match group.kind {
            SystemKind::Enabled if ctrl.always_zero() => {
                Some("enable control is constantly zero: the subsystem never runs")
            }
            SystemKind::Enabled if ctrl.always_nonzero() => {
                Some("enable control is constantly nonzero: the subsystem always runs")
            }
            SystemKind::Triggered if ctrl.always_zero() => {
                Some("trigger control is constantly zero: the subsystem never fires")
            }
            _ => None,
        };
        if let Some(note) = note {
            push(LintRule::ConstantBranch, group.path.key(), note.into());
        }
    }

    // Most severe first, stable within a severity class.
    out.sort_by_key(|f| std::cmp::Reverse(f.severity));
    out
}
