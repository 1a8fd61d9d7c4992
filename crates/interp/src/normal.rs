//! The SSE stand-in: interpretive simulation with full runtime
//! diagnostics, four-metric coverage and signal monitoring.
//!
//! This engine evaluates the model step by step through dynamic dispatch
//! over boxed [`accmos_ir::Value`]s — the *"interpreted execution method"*
//! whose overhead the paper identifies as the root cause of SSE's
//! slowness. It is the correctness reference for the generated code.

use crate::options::{Engine, SimOptions};
use crate::semantics::{
    eval_actor, integrator_update_wraps, widen, EvalOutcome, RuntimeState,
};
use accmos_graph::{FlatActor, FlatModel, PreprocessedModel};
use accmos_ir::{
    applicable_diagnoses, ActorKind, DiagnosticEvent, DiagnosticKind, LogicOp, OutputDigest,
    SignalSample, SimulationReport, SystemKind, TestVectors, Value, SIGNAL_LOG_LIMIT,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The SSE (normal simulation mode) stand-in engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalEngine;

impl NormalEngine {
    /// A new engine.
    pub fn new() -> NormalEngine {
        NormalEngine
    }
}

/// Shared per-run bookkeeping used by both interpretive engines.
pub(crate) struct RunBook {
    pub inport_col: Vec<Option<usize>>,
    pub diag_lists: Vec<Vec<DiagnosticKind>>,
}

impl RunBook {
    pub fn new(flat: &FlatModel) -> RunBook {
        let mut inport_col = vec![None; flat.actors.len()];
        for (col, id) in flat.root_inports.iter().enumerate() {
            inport_col[id.0] = Some(col);
        }
        // The paper's default `diagnoseList` holds the calculation actors;
        // others are not instrumented (matching the code generator).
        let diag_lists = flat
            .actors
            .iter()
            .map(|a| {
                if !a.kind.is_calculation() {
                    return Vec::new();
                }
                let ins = flat.input_dtypes(a);
                applicable_diagnoses(&a.kind, &ins, a.dtype)
            })
            .collect();
        RunBook { inport_col, diag_lists }
    }
}

struct DiagAgg {
    events: BTreeMap<(usize, DiagnosticKind), (u64, u64)>,
}

impl DiagAgg {
    fn new() -> DiagAgg {
        DiagAgg { events: BTreeMap::new() }
    }

    fn hit(&mut self, actor: usize, kind: DiagnosticKind, step: u64) {
        let entry = self.events.entry((actor, kind)).or_insert((step, 0));
        entry.1 += 1;
    }

    fn any(&self) -> bool {
        !self.events.is_empty()
    }

    fn into_events(self, flat: &FlatModel) -> Vec<DiagnosticEvent> {
        let mut out: Vec<DiagnosticEvent> = self
            .events
            .into_iter()
            .map(|((actor, kind), (first_step, count))| DiagnosticEvent {
                actor: flat.actors[actor].path.key(),
                kind,
                first_step,
                count,
            })
            .collect();
        out.sort_by_key(|e| (e.first_step, e.actor.clone()));
        out
    }
}

impl Engine for NormalEngine {
    fn name(&self) -> &'static str {
        "sse"
    }

    fn run(
        &self,
        pre: &PreprocessedModel,
        tests: &TestVectors,
        opts: &SimOptions,
    ) -> SimulationReport {
        run_normal(self.name(), pre, tests, opts)
    }
}

/// The engine body.
fn run_normal(
    name: &str,
    pre: &PreprocessedModel,
    tests: &TestVectors,
    opts: &SimOptions,
) -> SimulationReport {
    let flat = &pre.flat;
    let book = RunBook::new(flat);
    let mut rt = RuntimeState::new(flat);
    let mut bitmaps = pre.coverage.map.new_bitmaps();
    let mut diag = DiagAgg::new();
    let mut digest = OutputDigest::new();
    let mut log: Vec<SignalSample> = Vec::new();
    let mut finals: Vec<(String, Value)> = Vec::new();

    let start = Instant::now();
    let mut executed = 0u64;
    'steps: for step in 0..opts.steps {
        if let Some(budget) = opts.time_budget {
            if step % 512 == 0 && start.elapsed() >= budget {
                break 'steps;
            }
        }
        rt.begin_step();
        for idx in 0..flat.order.len() {
            let id = flat.order[idx];
            let actor = flat.actor(id);
            if !rt.actor_active(flat, actor) {
                continue;
            }
            let raw_inputs: Vec<Value> =
                actor.inputs.iter().map(|s| rt.signals[s.0].clone()).collect();
            let outcome = eval_actor(flat, actor, &mut rt, tests, &book.inport_col);
            record_coverage(pre, actor, &outcome, &mut bitmaps);
            let applicable = &book.diag_lists[id.0];
            record_diagnostics(actor, applicable, &outcome, &raw_inputs, step, &mut diag);
            if log.len() < SIGNAL_LOG_LIMIT {
                monitor(flat, actor, &rt, &raw_inputs, step, &mut log);
            }
        }
        record_group_coverage(pre, &mut rt, &mut bitmaps);
        // Integrator accumulators can wrap during the end-of-step
        // update; diagnose before applying it.
        for id in &flat.order {
            let actor = flat.actor(*id);
            if matches!(actor.kind, ActorKind::DiscreteIntegrator { .. })
                && rt.actor_active(flat, actor)
                && integrator_update_wraps(actor, &rt)
            {
                diag.hit(id.0, DiagnosticKind::WrapOnOverflow, step);
            }
        }
        // Root outputs: digest + final values.
        finals.clear();
        for id in &flat.root_outports {
            let actor = flat.actor(*id);
            // Widen scalar feeds to the outport's resolved width: the
            // generated C records one element per declared lane of the
            // output array, broadcasting a scalar source.
            let v = widen(rt.signals[actor.inputs[0].0].cast(actor.dtype), actor.width);
            for e in v.elems() {
                digest.write_u64(e.to_bits_u64());
            }
            finals.push((actor.path.name().to_owned(), v));
        }
        rt.end_step(flat);
        executed = step + 1;
        if opts.stop_on_diagnostic && diag.any() {
            break 'steps;
        }
    }

    let mut report = SimulationReport::new(&flat.name, name);
    report.steps = executed;
    report.wall = start.elapsed();
    report.coverage = Some(bitmaps);
    report.diagnostics = diag.into_events(flat);
    report.signal_log = log;
    report.output_digest = digest.finish();
    report.final_outputs = finals;
    report
}

/// Coverage updates for one executed actor.
pub(crate) fn record_coverage(
    pre: &PreprocessedModel,
    actor: &FlatActor,
    outcome: &EvalOutcome,
    bitmaps: &mut accmos_ir::CoverageBitmaps,
) {
    use accmos_ir::CoverageKind::*;
    let idx = &pre.coverage;
    bitmaps.set(Actor, idx.actor_point[actor.id.0]);

    if let Some((base, count)) = idx.condition[actor.id.0] {
        for &b in &outcome.branches {
            debug_assert!(b < count);
            bitmaps.set(Condition, base + b.min(count - 1));
        }
    }
    if let Some(base) = idx.decision[actor.id.0] {
        for &d in &outcome.decisions {
            bitmaps.set(Decision, base + usize::from(!d));
        }
    }
    if let Some((base, inputs)) = idx.mcdc[actor.id.0] {
        let op = match &actor.kind {
            ActorKind::Logical { op, .. } => *op,
            _ => return,
        };
        for conds in &outcome.mcdc_conds {
            for i in 0..inputs.min(conds.len()) {
                if mcdc_masked(op, conds, i) {
                    bitmaps.set(Mcdc, base + 2 * i + usize::from(!conds[i]));
                }
            }
        }
    }
}

/// Whether condition `i` independently determines the gate's outcome given
/// the other conditions (the masking test used for MC/DC).
pub(crate) fn mcdc_masked(op: LogicOp, conds: &[bool], i: usize) -> bool {
    let others = conds.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, c)| *c);
    match op {
        LogicOp::And | LogicOp::Nand => others.clone().all(|c| c),
        LogicOp::Or | LogicOp::Nor => !others.clone().any(|c| c),
        LogicOp::Xor => true,
        LogicOp::Not => true,
    }
}

/// Group enable conditions contribute condition-coverage points whenever
/// they are evaluated (i.e. their parent chain is active).
pub(crate) fn record_group_coverage(
    pre: &PreprocessedModel,
    rt: &mut RuntimeState,
    bitmaps: &mut accmos_ir::CoverageBitmaps,
) {
    use accmos_ir::CoverageKind::Condition;
    let flat = &pre.flat;
    for g in &flat.groups {
        let parent_ok = match g.parent {
            Some(p) => rt.group_is_active(flat, p),
            None => true,
        };
        if !parent_ok {
            continue;
        }
        let control = rt.signals[g.control.0].get(0).map(accmos_ir::Scalar::as_bool).unwrap_or(false);
        let own = match g.kind {
            SystemKind::Enabled => control,
            SystemKind::Triggered => control && !rt.group_prev[g.id.0],
            SystemKind::Plain => true,
        };
        let (t, f) = pre.coverage.group_bits(g.id);
        bitmaps.set(Condition, if own { t } else { f });
    }
}

fn record_diagnostics(
    actor: &FlatActor,
    applicable: &[DiagnosticKind],
    outcome: &EvalOutcome,
    raw_inputs: &[Value],
    step: u64,
    diag: &mut DiagAgg,
) {
    use DiagnosticKind::*;
    let id = actor.id.0;
    let has = |k: DiagnosticKind| applicable.contains(&k);

    if outcome.overflow && has(WrapOnOverflow) {
        diag.hit(id, WrapOnOverflow, step);
    }
    if outcome.div_zero && has(DivisionByZero) {
        diag.hit(id, DivisionByZero, step);
    }
    if outcome.oob && has(ArrayOutOfBounds) {
        diag.hit(id, ArrayOutOfBounds, step);
    }
    if outcome.domain && has(DomainError) {
        diag.hit(id, DomainError, step);
    }
    // Downcast is a static property of the port types (paper Fig. 4 line 4:
    // a sizeof comparison); it fires once, on first execution.
    if has(Downcast) && !diag.events.contains_key(&(id, Downcast)) {
        diag.hit(id, Downcast, step);
    }
    // Precision loss fires when a concrete input value does not survive the
    // round-trip through the output type.
    if has(PrecisionLoss) {
        let dt = actor.dtype;
        let lossy = raw_inputs.iter().any(|v| {
            v.dtype().precision_loss_to(dt)
                && v.elems().iter().any(|e| e.cast(dt).cast(e.dtype()) != *e)
        });
        if lossy {
            diag.hit(id, PrecisionLoss, step);
        }
    }
}

fn monitor(
    flat: &FlatModel,
    actor: &FlatActor,
    rt: &RuntimeState,
    raw_inputs: &[Value],
    step: u64,
    log: &mut Vec<SignalSample>,
) {
    if actor.monitor {
        for sig in &actor.outputs {
            if log.len() >= SIGNAL_LOG_LIMIT {
                return;
            }
            log.push(SignalSample {
                path: flat.signal(*sig).name.clone(),
                step,
                value: rt.signals[sig.0].clone(),
            });
        }
    }
    if actor.kind.is_monitor_sink() && !raw_inputs.is_empty() && log.len() < SIGNAL_LOG_LIMIT {
        log.push(SignalSample {
            path: format!("{}_in", actor.path.key()),
            step,
            value: raw_inputs[0].clone(),
        });
    }
}
