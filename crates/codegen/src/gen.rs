//! Actor translation and simulation-oriented instrumentation.
//!
//! This module implements the paper's Algorithm 1 over the C backend:
//! every actor in execution order is translated from its code template
//! (`genCodeFromTemp`), then instrumented with actor/condition/decision/
//! MC/DC coverage, signal-collection calls (`outputCollect`, Figure 3),
//! and calls to dynamically generated per-actor diagnostic functions
//! (`diagnose_<path>`, Figure 4).

use crate::cwriter::CodeBuf;
use crate::options::CodegenOptions;
use accmos_analyze::ModelAnalysis;
use accmos_graph::{FlatActor, PreprocessedModel, SignalId};
use accmos_ir::{
    applicable_diagnoses, ActorKind, BitOp, DataType, DiagnosticKind, LogicOp, LookupMethod,
    MathOp, MinMaxOp, RoundOp, Scalar, ShiftDir, SwitchCriteria, TrigOp,
};

/// One (actor, diagnostic kind) reporting site in the generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagSite {
    /// Path key of the diagnosed actor.
    pub actor: String,
    /// The error category.
    pub kind: DiagnosticKind,
}

/// Emission context shared across the program.
pub(crate) struct EmitCtx<'a> {
    pub pre: &'a PreprocessedModel,
    pub opts: &'a CodegenOptions,
    pub diag_sites: Vec<DiagSite>,
    /// `(actor index, site)` pairs for integrator end-of-step overflow
    /// checks, consumed by the synthesis of `Model_Update`.
    pub update_sites: Vec<(usize, usize)>,
    /// Interval analysis consulted for proven-safe pruning (present when
    /// `opts.instrument && opts.prune_proven_safe`).
    pub analysis: Option<ModelAnalysis>,
    /// Diagnosis checks dropped because the analysis proved them dead.
    pub pruned_sites: usize,
    /// Wall-clock time the interval analysis took (zero when pruning is
    /// off); reported as its own telemetry phase.
    pub analyze_time: std::time::Duration,
}

impl<'a> EmitCtx<'a> {
    pub fn new(pre: &'a PreprocessedModel, opts: &'a CodegenOptions) -> EmitCtx<'a> {
        let analyze_start = std::time::Instant::now();
        let analysis =
            (opts.instrument && opts.prune_proven_safe).then(|| accmos_analyze::analyze(pre));
        let analyze_time =
            if analysis.is_some() { analyze_start.elapsed() } else { Default::default() };
        EmitCtx {
            pre,
            opts,
            diag_sites: Vec::new(),
            update_sites: Vec::new(),
            analysis,
            pruned_sites: 0,
            analyze_time,
        }
    }

    fn sig_name(&self, id: SignalId) -> &str {
        &self.pre.flat.signal(id).name
    }

    fn add_site(&mut self, actor: &str, kind: DiagnosticKind) -> usize {
        self.diag_sites.push(DiagSite { actor: actor.to_owned(), kind });
        self.diag_sites.len() - 1
    }

    fn cov_on(&self) -> bool {
        self.opts.instrument && self.opts.coverage
    }
}

/// C literal for an `f64` parameter.
pub(crate) fn f64_lit(v: f64) -> String {
    Scalar::F64(v).c_literal()
}

/// A cast between signal types with the shared conversion semantics.
pub(crate) fn cast_expr(expr: &str, from: DataType, to: DataType) -> String {
    if from == to {
        return expr.to_owned();
    }
    if to == DataType::Bool {
        return format!("(uint8_t)(({expr}) != 0)");
    }
    if from.is_float() && to.is_integer() {
        return format!("accmos_f64_to_{}((double)({expr}))", to.mnemonic());
    }
    format!("({})({expr})", to.c_name())
}

/// Cast an already-`double` expression into `to`.
pub(crate) fn cast_f64_expr(expr: &str, to: DataType) -> String {
    match to {
        DataType::F64 => expr.to_owned(),
        DataType::F32 => format!("(float)({expr})"),
        DataType::Bool => format!("(uint8_t)(({expr}) != 0.0)"),
        t => format!("accmos_f64_to_{}({expr})", t.mnemonic()),
    }
}

/// Decode a `takeTestCase` bits word into a typed C value.
pub(crate) fn decode_bits(bits: &str, dt: DataType) -> String {
    match dt {
        DataType::F64 => format!("accmos_f64_from_bits({bits})"),
        DataType::F32 => format!("accmos_f32_from_bits({bits})"),
        DataType::Bool => format!("(uint8_t)(({bits}) != 0)"),
        t => {
            let ut = unsigned_of(t);
            format!("({})(({ut})({bits}))", t.c_name())
        }
    }
}

/// Reference to element `idx` of a (possibly scalar) stored variable.
fn elem_of(name: &str, width: usize, idx: &str) -> String {
    if width == 1 {
        name.to_owned()
    } else {
        format!("{name}[{idx}]")
    }
}

struct ActorRefs<'c, 'a> {
    ctx: &'c EmitCtx<'a>,
    actor: &'c FlatActor,
}

impl ActorRefs<'_, '_> {
    /// Raw (uncast) element expression of input `port`.
    fn in_raw(&self, port: usize, idx: &str) -> String {
        let sig = self.ctx.pre.flat.signal(self.actor.inputs[port]);
        elem_of(&sig.name, sig.width, idx)
    }

    /// Input element cast to the actor's output type.
    fn in_cast(&self, port: usize, idx: &str) -> String {
        let sig = self.ctx.pre.flat.signal(self.actor.inputs[port]);
        cast_expr(&self.in_raw(port, idx), sig.dtype, self.actor.dtype)
    }

    /// Input dtype.
    fn in_dtype(&self, port: usize) -> DataType {
        self.ctx.pre.flat.signal(self.actor.inputs[port]).dtype
    }

    /// Input width.
    fn in_width(&self, port: usize) -> usize {
        self.ctx.pre.flat.signal(self.actor.inputs[port]).width
    }

    /// Output element reference of port 0.
    fn out(&self, idx: &str) -> String {
        let sig = self.ctx.pre.flat.signal(self.actor.outputs[0]);
        elem_of(&sig.name, sig.width, idx)
    }

    /// Output variable name of port `p`.
    fn out_name(&self, p: usize) -> &str {
        self.ctx.sig_name(self.actor.outputs[p])
    }
}

/// Emit `body(idx)` once for scalars or inside an element loop for vectors.
fn for_elems(w: &mut CodeBuf, width: usize, body: impl FnOnce(&mut CodeBuf, &str)) {
    if width == 1 {
        body(w, "0");
    } else {
        w.open(format!("for (int e = 0; e < {width}; e++) {{"));
        body(w, "e");
        w.close("}");
    }
}

/// The C state-variable declarations of one actor, if it is stateful.
pub(crate) fn state_decls(actor: &FlatActor) -> Vec<String> {
    use ActorKind::*;
    let key = actor.path.key();
    let t = actor.dtype.c_name();
    let w = actor.width;
    let arr = |n: usize| if n == 1 { String::new() } else { format!("[{n}]") };
    let init_list = |s: Scalar, n: usize| -> String {
        let lit = s.cast(actor.dtype).c_literal();
        if n == 1 {
            lit
        } else {
            let items = vec![lit; n].join(", ");
            format!("{{ {items} }}")
        }
    };
    match &actor.kind {
        UnitDelay { init } | Memory { init } => {
            vec![format!("static {t} {key}_state{} = {};", arr(w), init_list(*init, w))]
        }
        Delay { steps, init } => {
            let total = steps * w;
            let items = vec![init.cast(actor.dtype).c_literal(); total].join(", ");
            vec![
                format!("static {t} {key}_buf[{total}] = {{ {items} }};"),
                format!("static int {key}_pos = 0;"),
            ]
        }
        DiscreteIntegrator { init, .. } => {
            vec![format!("static {t} {key}_acc{} = {};", arr(w), init_list(*init, w))]
        }
        DiscreteDerivative | RateLimiter { .. } => {
            vec![format!("static {t} {key}_prev{};", arr(w))]
        }
        ZeroOrderHold { .. } => vec![format!("static {t} {key}_held{};", arr(w))],
        Relay { .. } => vec![format!("static uint8_t {key}_on = 0;")],
        EdgeDetector { .. } => vec![format!("static uint8_t {key}_prev = 0;")],
        Counter { .. } => vec![format!("static uint64_t {key}_cnt = 0;")],
        RandomNumber { seed } => vec![format!("static uint64_t {key}_rng = {seed}ULL;")],
        Lookup1D { breakpoints, table, .. } => {
            vec![
                const_f64_array(&format!("{key}_bps"), breakpoints),
                const_f64_array(&format!("{key}_tab"), table),
            ]
        }
        Lookup2D { row_bps, col_bps, table, .. } => {
            vec![
                const_f64_array(&format!("{key}_rbps"), row_bps),
                const_f64_array(&format!("{key}_cbps"), col_bps),
                const_f64_array(&format!("{key}_tab"), table),
            ]
        }
        Polynomial { coeffs } => vec![const_f64_array(&format!("{key}_coef"), coeffs)],
        Selector { indices, dynamic: false } => {
            let items = indices.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ");
            vec![format!("static const int {key}_idx[{}] = {{ {items} }};", indices.len())]
        }
        _ => Vec::new(),
    }
}

fn const_f64_array(name: &str, values: &[f64]) -> String {
    let items = values.iter().map(|v| f64_lit(*v)).collect::<Vec<_>>().join(", ");
    format!("static const double {name}[{}] = {{ {items} }};", values.len())
}

/// The enabled diagnoses of an actor on the diagnose list, which holds
/// every calculation actor (the interpreter diagnoses the same set).
pub(crate) fn diagnosis_plan(
    ctx: &EmitCtx<'_>,
    actor: &FlatActor,
) -> Vec<DiagnosticKind> {
    if !ctx.opts.instrument || !actor.kind.is_calculation() {
        return Vec::new();
    }
    let ins = ctx.pre.flat.input_dtypes(actor);
    applicable_diagnoses(&actor.kind, &ins, actor.dtype)
        .into_iter()
        .filter(|k| ctx.opts.policy.enabled(*k))
        .collect()
}

/// [`diagnosis_plan`] minus the checks the interval analysis proves can
/// never fire; dropped checks are tallied in [`EmitCtx::pruned_sites`].
pub(crate) fn pruned_diagnosis_plan(
    ctx: &mut EmitCtx<'_>,
    actor: &FlatActor,
) -> Vec<DiagnosticKind> {
    let full = diagnosis_plan(ctx, actor);
    let Some(analysis) = ctx.analysis.as_ref() else {
        return full;
    };
    let keep: Vec<DiagnosticKind> = full
        .iter()
        .copied()
        .filter(|k| !analysis.proves_never_fires(actor.id, *k))
        .collect();
    ctx.pruned_sites += full.len() - keep.len();
    keep
}

/// Whether the actor's output is collected (the `collectList`: every
/// `monitor`-flagged actor and every monitor sink).
fn on_collect_list(opts: &CodegenOptions, actor: &FlatActor) -> bool {
    opts.instrument && (actor.monitor || actor.kind.is_monitor_sink())
}

/// Result of emitting one actor: the in-line code plus the definition of
/// its diagnostic function (Algorithm 1 line 15, `genDiagnoseImpl`).
pub(crate) struct EmittedActor {
    pub code: String,
    pub diag_code: String,
    /// The actor's path key — names its profiling site and the per-actor
    /// `ACCMOS:PROF` records.
    pub key: String,
}

/// Algorithm 1, per actor: template code + coverage + collection +
/// diagnosis instrumentation.
pub(crate) fn emit_actor(ctx: &mut EmitCtx<'_>, actor: &FlatActor) -> EmittedActor {
    // Checks the interval analysis proves dead are dropped up front.
    let plan = pruned_diagnosis_plan(ctx, actor);

    let mut w = CodeBuf::new();
    w.comment(format!(
        "{} type actor \"{}\"",
        actor.kind.type_name(),
        actor.path
    ));

    match actor.group {
        Some(g) => w.open(format!("if (g{}_active()) {{", g.0)),
        None => w.open("{"),
    };

    emit_calculation(ctx, actor, &mut w);

    // Actor coverage: "we add coverage statistics code at the end of each
    // actor, for example, actorBitmap[actorID]=1".
    if ctx.cov_on() {
        w.line(format!(
            "ACCMOS_COV(accmos_cov_actor, {}); /* actorBitmap */",
            ctx.pre.coverage.actor_point[actor.id.0]
        ));
    }

    // Signal collection (Figure 3 / Figure 5 line 6).
    if on_collect_list(ctx.opts, actor) {
        emit_collect(ctx, actor, &mut w);
    }

    // Diagnosis call + dynamically generated implementation (Figure 4).
    let mut diag_code = String::new();
    if !plan.is_empty() {
        let (call, def) = emit_diagnosis(ctx, actor, &plan);
        w.line(call);
        diag_code = def;
    }

    // Custom signal diagnosis hooks.
    for (site, probe) in ctx.opts.custom.iter().enumerate() {
        if probe.actor == actor.path.key() && !actor.outputs.is_empty() {
            let refs = ActorRefs { ctx, actor };
            w.open("{");
            w.line(format!(
                "{} value = {};",
                actor.dtype.c_name(),
                refs.out("0")
            ));
            w.line(format!("if ({}) accmos_custom_hit({site});", probe.condition_c));
            w.close("}");
        }
    }

    // DiscreteDerivative updates its previous-input state only after the
    // diagnostic call has observed the old value.
    if matches!(actor.kind, ActorKind::DiscreteDerivative) {
        let refs = ActorRefs { ctx, actor };
        let key = actor.path.key();
        for_elems(&mut w, actor.width, |w, idx| {
            let prev = elem_of(&format!("{key}_prev"), actor.width, idx);
            w.line(format!("{prev} = {};", refs.in_cast(0, idx)));
        });
    }
    w.close("}");
    EmittedActor {
        code: w.finish(),
        diag_code,
        key: actor.path.key(),
    }
}

fn emit_collect(ctx: &EmitCtx<'_>, actor: &FlatActor, w: &mut CodeBuf) {
    let flat = &ctx.pre.flat;
    if actor.monitor {
        for sig_id in &actor.outputs {
            let sig = flat.signal(*sig_id);
            w.line(format!(
                "outputCollect(\"{}\", (const void*)&{}, \"{}\", {});",
                sig.name,
                if sig.width == 1 { sig.name.clone() } else { format!("{}[0]", sig.name) },
                sig.dtype.mnemonic(),
                sig.width
            ));
        }
    }
    if actor.kind.is_monitor_sink() && !actor.inputs.is_empty() {
        let sig = flat.signal(actor.inputs[0]);
        w.line(format!(
            "outputCollect(\"{}_in\", (const void*)&{}, \"{}\", {});",
            actor.path.key(),
            if sig.width == 1 { sig.name.clone() } else { format!("{}[0]", sig.name) },
            sig.dtype.mnemonic(),
            sig.width
        ));
    }
}

// ---------------------------------------------------------------------------
// calculation templates (genCodeFromTemp)
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_lines)]
fn emit_calculation(ctx: &EmitCtx<'_>, actor: &FlatActor, w: &mut CodeBuf) {
    use ActorKind::*;
    let key = actor.path.key();
    let dt = actor.dtype;
    let t = dt.c_name();
    let width = actor.width;
    let refs = ActorRefs { ctx, actor };
    let cov = ctx.cov_on();
    let cond_base = ctx.pre.coverage.condition[actor.id.0].map(|(b, _)| b);
    let dec_base = ctx.pre.coverage.decision[actor.id.0];
    let cov_branch = |w: &mut CodeBuf, branch: String| {
        if cov {
            if let Some(base) = cond_base {
                w.line(format!("ACCMOS_COV(accmos_cov_cond, {base} + ({branch}));"));
            }
        }
    };
    let cov_decision = |w: &mut CodeBuf, expr: &str| {
        if cov {
            if let Some(base) = dec_base {
                w.line(format!("ACCMOS_COV(accmos_cov_dec, {base} + (({expr}) ? 0 : 1));"));
            }
        }
    };

    match &actor.kind {
        // ---- sources -----------------------------------------------------
        Inport { .. } => {
            if actor.inputs.is_empty() {
                // Root input: Figure 5's takeTestCase().
                let col = ctx
                    .pre
                    .flat
                    .root_inports
                    .iter()
                    .position(|id| *id == actor.id)
                    .expect("root inport listed");
                let bits = format!("takeTestCase({col})");
                let decoded = decode_bits(&bits, dt);
                for_elems(w, width, |w, idx| {
                    w.line(format!("{} = {decoded};", refs.out(idx)));
                });
            } else {
                for_elems(w, width, |w, idx| {
                    w.line(format!("{} = {};", refs.out(idx), refs.in_cast(0, idx)));
                });
            }
        }
        Constant { value } => {
            for (e, s) in value.elems().iter().enumerate() {
                let target = elem_of(refs.out_name(0), width, &e.to_string());
                w.line(format!("{target} = {};", s.c_literal()));
            }
        }
        Step { time, before, after } => {
            let b = before.cast(dt).c_literal();
            let a = after.cast(dt).c_literal();
            for_elems(w, width, |w, idx| {
                w.line(format!(
                    "{} = (accmos_step >= {time}ULL) ? {a} : {b};",
                    refs.out(idx)
                ));
            });
        }
        Ramp { slope, start, initial } => {
            let expr = format!(
                "(accmos_step < {start}ULL) ? {} : ({} + {} * (double)(accmos_step - {start}ULL))",
                f64_lit(*initial),
                f64_lit(*initial),
                f64_lit(*slope)
            );
            let val = cast_f64_expr(&format!("({expr})"), dt);
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {val};", refs.out(idx)));
            });
        }
        SineWave { amplitude, freq, phase, bias } => {
            let expr = format!(
                "{} * sin({} * (double)accmos_step + {}) + {}",
                f64_lit(*amplitude),
                f64_lit(*freq),
                f64_lit(*phase),
                f64_lit(*bias)
            );
            let val = cast_f64_expr(&format!("({expr})"), dt);
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {val};", refs.out(idx)));
            });
        }
        PulseGenerator { period, duty, amplitude } => {
            let amp = amplitude.cast(dt).c_literal();
            let zero = Scalar::zero(dt).c_literal();
            for_elems(w, width, |w, idx| {
                w.line(format!(
                    "{} = (accmos_step % {period}ULL < {duty}ULL) ? {amp} : {zero};",
                    refs.out(idx)
                ));
            });
        }
        Clock => {
            let val = cast_expr("accmos_step", DataType::U64, dt);
            // i128 wrap from the step counter == wrap-cast from u64.
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {val};", refs.out(idx)));
            });
        }
        Counter { limit } => {
            let val = cast_expr(&format!("{key}_cnt"), DataType::U64, dt);
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {val};", refs.out(idx)));
            });
            w.line(format!(
                "{key}_cnt = ({key}_cnt >= {limit}ULL) ? 0 : {key}_cnt + 1;"
            ));
        }
        RandomNumber { .. } => {
            w.open("{");
            w.line(format!("uint64_t rw = accmos_rng_next(&{key}_rng);"));
            let val = if dt.is_float() {
                cast_f64_expr("accmos_rng_unit(rw)", dt)
            } else {
                cast_expr("(rw >> 32)", DataType::U64, dt)
            };
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {val};", refs.out(idx)));
            });
            w.close("}");
        }
        Ground => {
            let zero = Scalar::zero(dt).c_literal();
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {zero};", refs.out(idx)));
            });
        }

        // ---- math ----------------------------------------------------------
        Sum { signs } => {
            for_elems(w, width, |w, idx| {
                let mut expr = format!("({t})0");
                for (i, sign) in signs.chars().enumerate() {
                    let inp = refs.in_cast(i, idx);
                    expr = format!("({t})({expr} {sign} {inp})");
                }
                w.line(format!("{} = {expr};", refs.out(idx)));
            });
        }
        Product { ops } => {
            for_elems(w, width, |w, idx| {
                let mut expr = format!("({t})1");
                for (i, op) in ops.chars().enumerate() {
                    let inp = refs.in_cast(i, idx);
                    expr = if op == '*' {
                        format!("({t})({expr} * {inp})")
                    } else {
                        emit_div(dt, &expr, &inp)
                    };
                }
                w.line(format!("{} = {expr};", refs.out(idx)));
            });
        }
        Gain { gain } => {
            let g = gain.cast(dt).c_literal();
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = ({t})({} * {g});", refs.out(idx), refs.in_cast(0, idx)));
            });
        }
        Bias { bias } => {
            let b = bias.cast(dt).c_literal();
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = ({t})({} + {b});", refs.out(idx), refs.in_cast(0, idx)));
            });
        }
        Abs => {
            for_elems(w, width, |w, idx| {
                let x = refs.in_cast(0, idx);
                let expr = if dt.is_float() {
                    let f = if dt == DataType::F32 { "fabsf" } else { "fabs" };
                    format!("{f}({x})")
                } else if dt.is_signed() {
                    format!("({x} < 0) ? ({t})(0 - {x}) : ({t})({x})")
                } else {
                    x.clone()
                };
                w.line(format!("{} = {expr};", refs.out(idx)));
            });
        }
        Sign => {
            for_elems(w, width, |w, idx| {
                let x = refs.in_cast(0, idx);
                w.line(format!(
                    "{} = ({t})(((double)({x}) > 0.0) - ((double)({x}) < 0.0));",
                    refs.out(idx)
                ));
            });
        }
        Sqrt => {
            for_elems(w, width, |w, idx| {
                let x = refs.in_cast(0, idx);
                let val = cast_f64_expr(&format!("sqrt((double)({x}))"), dt);
                w.line(format!("{} = {val};", refs.out(idx)));
            });
        }
        Math { op } => emit_math(ctx, actor, *op, w),
        Trig { op } => {
            for_elems(w, width, |w, idx| {
                let expr = if *op == TrigOp::Atan2 {
                    format!(
                        "atan2((double)({}), (double)({}))",
                        refs.in_cast(0, idx),
                        refs.in_cast(1, idx)
                    )
                } else {
                    format!("{}((double)({}))", op.name(), refs.in_cast(0, idx))
                };
                w.line(format!("{} = {};", refs.out(idx), cast_f64_expr(&expr, dt)));
            });
        }
        MinMax { op, inputs } => {
            let cmp = if *op == MinMaxOp::Min { "<" } else { ">" };
            for_elems(w, width, |w, idx| {
                w.line(format!("{t} acc = {};", refs.in_cast(0, idx)));
                for i in 1..*inputs {
                    let x = refs.in_cast(i, idx);
                    if dt.is_float() {
                        let f = match (dt, *op) {
                            (DataType::F32, MinMaxOp::Min) => "fminf",
                            (DataType::F32, MinMaxOp::Max) => "fmaxf",
                            (_, MinMaxOp::Min) => "fmin",
                            (_, MinMaxOp::Max) => "fmax",
                        };
                        w.line(format!("acc = {f}(acc, {x});"));
                    } else {
                        w.line(format!("acc = ({x} {cmp} acc) ? {x} : acc;"));
                    }
                }
                w.line(format!("{} = acc;", refs.out(idx)));
            });
        }
        Rounding { op } => {
            for_elems(w, width, |w, idx| {
                let x = refs.in_cast(0, idx);
                if dt.is_float() {
                    let f = match op {
                        RoundOp::Floor => "floor",
                        RoundOp::Ceil => "ceil",
                        RoundOp::Round => "round",
                        RoundOp::Fix => "trunc",
                    };
                    let val = cast_f64_expr(&format!("{f}((double)({x}))"), dt);
                    w.line(format!("{} = {val};", refs.out(idx)));
                } else {
                    w.line(format!("{} = {x};", refs.out(idx)));
                }
            });
        }
        Polynomial { coeffs } => {
            for_elems(w, width, |w, idx| {
                let x = refs.in_cast(0, idx);
                w.line(format!("double px = (double)({x});"));
                w.line("double pacc = 0.0;");
                w.open(format!("for (int k = 0; k < {}; k++) {{", coeffs.len()));
                w.line(format!("pacc = pacc * px + {key}_coef[k];"));
                w.close("}");
                w.line(format!("{} = {};", refs.out(idx), cast_f64_expr("pacc", dt)));
            });
        }
        DotProduct => {
            let n = refs.in_width(0);
            w.open("{");
            w.line(format!("{t} acc = 0;"));
            w.open(format!("for (int e = 0; e < {n}; e++) {{"));
            w.line(format!(
                "acc = ({t})(acc + ({t})({} * {}));",
                refs.in_cast(0, "e"),
                refs.in_cast(1, "e")
            ));
            w.close("}");
            w.line(format!("{} = acc;", refs.out("0")));
            w.close("}");
        }
        SumOfElements => {
            let n = refs.in_width(0);
            w.open("{");
            w.line(format!("{t} acc = 0;"));
            w.open(format!("for (int e = 0; e < {n}; e++) {{"));
            w.line(format!("acc = ({t})(acc + {});", refs.in_cast(0, "e")));
            w.close("}");
            w.line(format!("{} = acc;", refs.out("0")));
            w.close("}");
        }
        ProductOfElements => {
            let n = refs.in_width(0);
            w.open("{");
            w.line(format!("{t} acc = 1;"));
            w.open(format!("for (int e = 0; e < {n}; e++) {{"));
            w.line(format!("acc = ({t})(acc * {});", refs.in_cast(0, "e")));
            w.close("}");
            w.line(format!("{} = acc;", refs.out("0")));
            w.close("}");
        }

        // ---- logic & comparison --------------------------------------------
        Relational { op } => {
            let any_float = refs.in_dtype(0).is_float() || refs.in_dtype(1).is_float();
            for_elems(w, width, |w, idx| {
                let (a, b) = if any_float {
                    (
                        format!("(double)({})", refs.in_raw(0, idx)),
                        format!("(double)({})", refs.in_raw(1, idx)),
                    )
                } else {
                    (
                        format!("(accmos_wide)({})", refs.in_raw(0, idx)),
                        format!("(accmos_wide)({})", refs.in_raw(1, idx)),
                    )
                };
                w.line(format!(
                    "{} = (uint8_t)({a} {} {b});",
                    refs.out(idx),
                    op.c_symbol()
                ));
                cov_decision(w, &refs.out(idx));
            });
        }
        CompareToConstant { op, constant } => {
            let any_float = refs.in_dtype(0).is_float() || constant.dtype().is_float();
            for_elems(w, width, |w, idx| {
                let (a, b) = if any_float {
                    (
                        format!("(double)({})", refs.in_raw(0, idx)),
                        format!("(double)({})", Scalar::F64(constant.to_f64()).c_literal()),
                    )
                } else {
                    (
                        format!("(accmos_wide)({})", refs.in_raw(0, idx)),
                        format!("(accmos_wide)({})", constant.c_literal()),
                    )
                };
                w.line(format!(
                    "{} = (uint8_t)({a} {} {b});",
                    refs.out(idx),
                    op.c_symbol()
                ));
                cov_decision(w, &refs.out(idx));
            });
        }
        Logical { op, inputs } => {
            let n = if *op == LogicOp::Not { 1 } else { *inputs };
            for_elems(w, width, |w, idx| {
                for i in 0..n {
                    w.line(format!(
                        "uint8_t c{i} = (uint8_t)(({}) != 0);",
                        refs.in_raw(i, idx)
                    ));
                }
                let expr = match op {
                    LogicOp::And => join_conds(n, " && ", false),
                    LogicOp::Or => join_conds(n, " || ", false),
                    LogicOp::Nand => format!("!({})", join_conds(n, " && ", false)),
                    LogicOp::Nor => format!("!({})", join_conds(n, " || ", false)),
                    LogicOp::Xor => {
                        let xor =
                            (0..n).map(|i| format!("c{i}")).collect::<Vec<_>>().join(" ^ ");
                        format!("(({xor}) & 1)")
                    }
                    LogicOp::Not => "!c0".to_owned(),
                };
                w.line(format!("{} = (uint8_t)({expr});", refs.out(idx)));
                cov_decision(w, &refs.out(idx));
                // MC/DC: each condition shown to independently affect the
                // outcome (instMCDCCov, Algorithm 1 line 10).
                if cov {
                    if let Some((base, _)) = ctx.pre.coverage.mcdc[actor.id.0] {
                        for i in 0..n {
                            let mask = mcdc_mask(*op, n, i);
                            w.line(format!(
                                "if ({mask}) ACCMOS_COV(accmos_cov_mcdc, {} + (c{i} ? 0 : 1));",
                                base + 2 * i
                            ));
                        }
                    }
                }
            });
        }
        Bitwise { op } => {
            for_elems(w, width, |w, idx| {
                let a = refs.in_cast(0, idx);
                let expr = match op {
                    BitOp::Not => format!("({t})(~{a})"),
                    _ => {
                        let b = refs.in_cast(1, idx);
                        let sym = match op {
                            BitOp::And => "&",
                            BitOp::Or => "|",
                            BitOp::Xor => "^",
                            BitOp::Not => unreachable!(),
                        };
                        format!("({t})({a} {sym} {b})")
                    }
                };
                w.line(format!("{} = {expr};", refs.out(idx)));
            });
        }
        Shift { dir, amount } => {
            for_elems(w, width, |w, idx| {
                let x = refs.in_cast(0, idx);
                let expr = match dir {
                    ShiftDir::Left => {
                        // Shift on the unsigned representation, wrap back.
                        let ut = unsigned_of(dt);
                        format!("({t})(({ut})({x}) << {amount})")
                    }
                    ShiftDir::Right => format!("({t})({x} >> {amount})"),
                };
                w.line(format!("{} = {expr};", refs.out(idx)));
            });
        }

        // ---- control & nonlinear --------------------------------------------
        Switch { criteria } => {
            let ctrl = format!("(double)({})", refs.in_raw(1, "0"));
            let cond = match criteria {
                SwitchCriteria::GreaterEqual(th) => format!("{ctrl} >= {}", f64_lit(*th)),
                SwitchCriteria::Greater(th) => format!("{ctrl} > {}", f64_lit(*th)),
                SwitchCriteria::NotEqualZero => format!("{ctrl} != 0.0"),
            };
            w.open(format!("if ({cond}) {{"));
            cov_branch(w, "0".into());
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {};", refs.out(idx), refs.in_cast(0, idx)));
            });
            w.close("}");
            w.open("else {");
            cov_branch(w, "1".into());
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {};", refs.out(idx), refs.in_cast(2, idx)));
            });
            w.close("}");
        }
        MultiportSwitch { cases } => {
            w.open("{");
            w.line(format!("accmos_wide sel = (accmos_wide)({});", refs.in_raw(0, "0")));
            w.line(format!(
                "int pick = (sel < 1) ? 1 : ((sel > {cases}) ? {cases} : (int)sel);"
            ));
            w.open("switch (pick) {");
            for case in 1..=*cases {
                w.open(format!("case {case}:"));
                cov_branch(w, format!("{}", case - 1));
                for_elems(w, width, |w, idx| {
                    w.line(format!("{} = {};", refs.out(idx), refs.in_cast(case, idx)));
                });
                w.line("break;");
                w.close("");
            }
            w.close("}");
            w.close("}");
        }
        Merge { inputs } => {
            for i in 0..*inputs {
                let src = ctx.pre.flat.signal(actor.inputs[i]).source;
                let src_actor = ctx.pre.flat.actor(src);
                let guard = match src_actor.group {
                    Some(g) => format!("g{}_active()", g.0),
                    None => "1".to_owned(),
                };
                w.open(format!("if ({guard}) {{"));
                for_elems(w, width, |w, idx| {
                    w.line(format!("{} = {};", refs.out(idx), refs.in_cast(i, idx)));
                });
                w.close("}");
            }
        }
        Saturation { lo, hi } => {
            let (lo_l, hi_l) = (f64_lit(*lo), f64_lit(*hi));
            for_elems(w, width, |w, idx| {
                let x = refs.in_cast(0, idx);
                w.open(format!("if ((double)({x}) < {lo_l}) {{"));
                cov_branch(w, "0".into());
                w.line(format!("{} = {};", refs.out(idx), cast_f64_expr(&lo_l, dt)));
                w.close("}");
                w.open(format!("else if ((double)({x}) > {hi_l}) {{"));
                cov_branch(w, "2".into());
                w.line(format!("{} = {};", refs.out(idx), cast_f64_expr(&hi_l, dt)));
                w.close("}");
                w.open("else {");
                cov_branch(w, "1".into());
                w.line(format!("{} = {x};", refs.out(idx)));
                w.close("}");
            });
        }
        DeadZone { start, end } => {
            let (s_l, e_l) = (f64_lit(*start), f64_lit(*end));
            for_elems(w, width, |w, idx| {
                let x = refs.in_cast(0, idx);
                w.open(format!("if ((double)({x}) < {s_l}) {{"));
                cov_branch(w, "0".into());
                w.line(format!(
                    "{} = {};",
                    refs.out(idx),
                    cast_f64_expr(&format!("((double)({x}) - {s_l})"), dt)
                ));
                w.close("}");
                w.open(format!("else if ((double)({x}) > {e_l}) {{"));
                cov_branch(w, "2".into());
                w.line(format!(
                    "{} = {};",
                    refs.out(idx),
                    cast_f64_expr(&format!("((double)({x}) - {e_l})"), dt)
                ));
                w.close("}");
                w.open("else {");
                cov_branch(w, "1".into());
                w.line(format!("{} = {};", refs.out(idx), Scalar::zero(dt).c_literal()));
                w.close("}");
            });
        }
        RateLimiter { rising, falling } => {
            let (r_l, f_l) = (f64_lit(*rising), f64_lit(*falling));
            for_elems(w, width, |w, idx| {
                let x = refs.in_cast(0, idx);
                let prev = elem_of(&format!("{key}_prev"), width, idx);
                w.line(format!(
                    "double delta = (double)({x}) - (double)({prev});"
                ));
                w.open(format!("if (delta > {r_l}) {{"));
                cov_branch(w, "2".into());
                w.line(format!(
                    "{} = {};",
                    refs.out(idx),
                    cast_f64_expr(&format!("((double)({prev}) + {r_l})"), dt)
                ));
                w.close("}");
                w.open(format!("else if (delta < {f_l}) {{"));
                cov_branch(w, "0".into());
                w.line(format!(
                    "{} = {};",
                    refs.out(idx),
                    cast_f64_expr(&format!("((double)({prev}) + {f_l})"), dt)
                ));
                w.close("}");
                w.open("else {");
                cov_branch(w, "1".into());
                w.line(format!("{} = {x};", refs.out(idx)));
                w.close("}");
                w.line(format!("{prev} = {};", refs.out(idx)));
            });
        }
        Quantizer { interval } => {
            let q = f64_lit(*interval);
            for_elems(w, width, |w, idx| {
                let x = refs.in_cast(0, idx);
                let val =
                    cast_f64_expr(&format!("({q} * round((double)({x}) / {q}))"), dt);
                w.line(format!("{} = {val};", refs.out(idx)));
            });
        }
        Relay { on_threshold, off_threshold, on_value, off_value } => {
            let x = refs.in_cast(0, "0");
            w.line(format!(
                "if ((double)({x}) >= {}) {key}_on = 1;",
                f64_lit(*on_threshold)
            ));
            w.line(format!(
                "else if ((double)({x}) <= {}) {key}_on = 0;",
                f64_lit(*off_threshold)
            ));
            cov_branch(w, format!("({key}_on ? 1 : 0)"));
            let on_v = cast_f64_expr(&f64_lit(*on_value), dt);
            let off_v = cast_f64_expr(&f64_lit(*off_value), dt);
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {key}_on ? {on_v} : {off_v};", refs.out(idx)));
            });
        }

        // ---- discrete state -------------------------------------------------
        UnitDelay { .. } | Memory { .. } => {
            for_elems(w, width, |w, idx| {
                let st = elem_of(&format!("{key}_state"), width, idx);
                w.line(format!("{} = {st};", refs.out(idx)));
            });
        }
        DiscreteIntegrator { .. } => {
            for_elems(w, width, |w, idx| {
                let st = elem_of(&format!("{key}_acc"), width, idx);
                w.line(format!("{} = {st};", refs.out(idx)));
            });
        }
        Delay { steps, .. } => {
            // Ring buffer: front element is at `pos`.
            for_elems(w, width, |w, idx| {
                let off = if width == 1 {
                    format!("{key}_pos")
                } else {
                    format!("{key}_pos * {width} + {idx}")
                };
                w.line(format!("{} = {key}_buf[{off}];", refs.out(idx)));
            });
            let _ = steps;
        }
        DiscreteDerivative => {
            // The previous-input state is advanced after the diagnostic
            // call (see emit_actor), which must observe the old value.
            for_elems(w, width, |w, idx| {
                let prev = elem_of(&format!("{key}_prev"), width, idx);
                let x = refs.in_cast(0, idx);
                w.line(format!("{} = ({t})({x} - {prev});", refs.out(idx)));
            });
        }
        ZeroOrderHold { sample } => {
            w.open(format!("if (accmos_step % {sample}ULL == 0) {{"));
            for_elems(w, width, |w, idx| {
                let held = elem_of(&format!("{key}_held"), width, idx);
                w.line(format!("{held} = {};", refs.in_cast(0, idx)));
            });
            w.close("}");
            for_elems(w, width, |w, idx| {
                let held = elem_of(&format!("{key}_held"), width, idx);
                w.line(format!("{} = {held};", refs.out(idx)));
            });
        }
        EdgeDetector { rising, falling } => {
            w.line(format!("uint8_t cur = (uint8_t)(({}) != 0);", refs.in_raw(0, "0")));
            let mut terms = Vec::new();
            if *rising {
                terms.push(format!("(cur && !{key}_prev)"));
            }
            if *falling {
                terms.push(format!("(!cur && {key}_prev)"));
            }
            let expr = if terms.is_empty() { "0".to_owned() } else { terms.join(" || ") };
            w.line(format!("{} = (uint8_t)({expr});", refs.out("0")));
            cov_decision(w, &refs.out("0"));
            w.line(format!("{key}_prev = cur;"));
        }

        // ---- routing ----------------------------------------------------------
        Mux { inputs } => {
            let mut offset = 0usize;
            for i in 0..*inputs {
                let iw = refs.in_width(i);
                for e in 0..iw {
                    let target = elem_of(refs.out_name(0), width, &(offset + e).to_string());
                    w.line(format!("{target} = {};", refs.in_cast(i, &e.to_string())));
                }
                offset += iw;
            }
        }
        Demux { outputs } => {
            let part = refs.in_width(0) / outputs;
            for p in 0..*outputs {
                let out_name = refs.out_name(p).to_owned();
                for e in 0..part {
                    let target = elem_of(&out_name, part, &e.to_string());
                    let src = refs.in_cast(0, &(p * part + e).to_string());
                    w.line(format!("{target} = {src};"));
                }
            }
        }
        Selector { indices, dynamic } => {
            if *dynamic {
                let n = refs.in_width(0);
                w.open("{");
                w.line(format!("accmos_wide sel = (accmos_wide)({});", refs.in_raw(1, "0")));
                w.line(format!(
                    "int pick = (sel < 1) ? 1 : ((sel > {n}) ? {n} : (int)sel);"
                ));
                w.line(format!("{} = {};", refs.out("0"), refs.in_cast(0, "pick - 1")));
                w.close("}");
            } else {
                for (k, src_idx) in indices.iter().enumerate() {
                    let target = elem_of(refs.out_name(0), width, &k.to_string());
                    w.line(format!(
                        "{target} = {};",
                        refs.in_cast(0, &format!("{key}_idx[{k}]"))
                    ));
                    let _ = src_idx;
                }
            }
        }
        DataTypeConversion { .. } => {
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {};", refs.out(idx), refs.in_cast(0, idx)));
            });
        }

        // ---- lookup -------------------------------------------------------------
        Lookup1D { breakpoints, method, .. } => {
            let n = breakpoints.len();
            let m = method_code(*method);
            for_elems(w, width, |w, idx| {
                let x = refs.in_raw(0, idx);
                let call = format!(
                    "accmos_lookup1d({key}_bps, {key}_tab, {n}, {m}, (double)({x}))"
                );
                w.line(format!("{} = {};", refs.out(idx), cast_f64_expr(&call, dt)));
            });
        }
        Lookup2D { row_bps, col_bps, method, .. } => {
            let (nr, nc) = (row_bps.len(), col_bps.len());
            let m = method_code(*method);
            let call = format!(
                "accmos_lookup2d({key}_rbps, {nr}, {key}_cbps, {nc}, {key}_tab, {m}, (double)({}), (double)({}))",
                refs.in_raw(0, "0"),
                refs.in_raw(1, "0")
            );
            let val = cast_f64_expr(&call, dt);
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {val};", refs.out(idx)));
            });
        }

        // ---- data store -----------------------------------------------------------
        DataStoreMemory { .. } => {
            w.comment("data store declaration; storage emitted globally");
        }
        DataStoreRead { store } => {
            let i = ctx.pre.flat.store_index(store).expect("validated store");
            let sdt = ctx.pre.flat.stores[i].dtype;
            let var = store_var(store);
            let val = cast_expr(&var, sdt, dt);
            for_elems(w, width, |w, idx| {
                w.line(format!("{} = {val};", refs.out(idx)));
            });
        }
        DataStoreWrite { store } => {
            let i = ctx.pre.flat.store_index(store).expect("validated store");
            let sdt = ctx.pre.flat.stores[i].dtype;
            let var = store_var(store);
            let val = cast_expr(&refs.in_raw(0, "0"), refs.in_dtype(0), sdt);
            w.line(format!("{var} = {val};"));
        }

        // ---- sinks ----------------------------------------------------------------
        Outport { .. } => {
            if !actor.outputs.is_empty() {
                for_elems(w, width, |w, idx| {
                    w.line(format!("{} = {};", refs.out(idx), refs.in_cast(0, idx)));
                });
            } else {
                w.comment("root outport; recorded by recordResult()");
            }
        }
        Scope | Display | ToWorkspace { .. } | Terminator => {
            w.comment("sink actor");
        }
    }
}

fn join_conds(n: usize, sep: &str, negate: bool) -> String {
    (0..n)
        .map(|i| if negate { format!("!c{i}") } else { format!("c{i}") })
        .collect::<Vec<_>>()
        .join(sep)
}

/// The masking condition under which input `i` independently determines a
/// gate's outcome (mirrors `accmos_interp::normal::mcdc_masked`).
fn mcdc_mask(op: LogicOp, n: usize, i: usize) -> String {
    let others: Vec<String> = (0..n).filter(|j| *j != i).map(|j| format!("c{j}")).collect();
    match op {
        LogicOp::And | LogicOp::Nand => {
            if others.is_empty() {
                "1".into()
            } else {
                others.join(" && ")
            }
        }
        LogicOp::Or | LogicOp::Nor => {
            if others.is_empty() {
                "1".into()
            } else {
                format!("!({})", others.join(" || "))
            }
        }
        LogicOp::Xor | LogicOp::Not => "1".into(),
    }
}

fn method_code(m: LookupMethod) -> usize {
    match m {
        LookupMethod::Interpolate => 0,
        LookupMethod::Nearest => 1,
        LookupMethod::Below => 2,
    }
}

/// Name of the global data-store variable.
pub(crate) fn store_var(store: &str) -> String {
    let sane: String =
        store.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    format!("accmos_store_{sane}")
}

fn unsigned_of(dt: DataType) -> &'static str {
    match dt {
        DataType::I8 | DataType::U8 => "uint8_t",
        DataType::I16 | DataType::U16 => "uint16_t",
        DataType::I32 | DataType::U32 => "uint32_t",
        _ => "uint64_t",
    }
}

/// Emit a checked division expression.
fn emit_div(dt: DataType, a: &str, b: &str) -> String {
    if dt.is_float() {
        let t = dt.c_name();
        format!("({t})({a} / {b})")
    } else {
        format!("accmos_{}_div({a}, {b})", dt.mnemonic())
    }
}

/// Emit a checked remainder expression.
fn emit_rem(dt: DataType, a: &str, b: &str) -> String {
    if dt.is_float() {
        let f = if dt == DataType::F32 { "fmodf" } else { "fmod" };
        format!("{f}({a}, {b})")
    } else {
        format!("accmos_{}_rem({a}, {b})", dt.mnemonic())
    }
}

fn emit_math(ctx: &EmitCtx<'_>, actor: &FlatActor, op: MathOp, w: &mut CodeBuf) {
    let refs = ActorRefs { ctx, actor };
    let dt = actor.dtype;
    let t = dt.c_name();
    let width = actor.width;
    for_elems(w, width, |w, idx| {
        let x = refs.in_cast(0, idx);
        let xd = format!("(double)({x})");
        let line = match op {
            MathOp::Exp => format!("{} = {};", refs.out(idx), cast_f64_expr(&format!("exp({xd})"), dt)),
            MathOp::Log => format!("{} = {};", refs.out(idx), cast_f64_expr(&format!("log({xd})"), dt)),
            MathOp::Log10 => {
                format!("{} = {};", refs.out(idx), cast_f64_expr(&format!("log10({xd})"), dt))
            }
            MathOp::Pow10 => {
                format!("{} = {};", refs.out(idx), cast_f64_expr(&format!("pow(10.0, {xd})"), dt))
            }
            MathOp::Square => format!("{} = ({t})({x} * {x});", refs.out(idx)),
            MathOp::Pow => {
                let y = refs.in_cast(1, idx);
                format!(
                    "{} = {};",
                    refs.out(idx),
                    cast_f64_expr(&format!("pow({xd}, (double)({y}))"), dt)
                )
            }
            MathOp::Reciprocal => {
                if dt.is_integer() {
                    format!("{} = {};", refs.out(idx), emit_div(dt, "1", &x))
                } else {
                    format!("{} = ({t})(1.0 / {xd});", refs.out(idx))
                }
            }
            MathOp::Mod => {
                let y = refs.in_cast(1, idx);
                if dt.is_integer() {
                    let r = emit_rem(dt, &x, &y);
                    format!(
                        "{t} mr = {r}; {} = (mr != 0 && ((mr < 0) != ({y} < 0))) ? ({t})(mr + {y}) : mr;",
                        refs.out(idx)
                    )
                } else {
                    let yd = format!("(double)({y})");
                    format!(
                        "double mr = fmod({xd}, {yd}); {} = {};",
                        refs.out(idx),
                        cast_f64_expr(
                            &format!("((mr != 0.0 && ((mr < 0.0) != ({yd} < 0.0))) ? (mr + {yd}) : mr)"),
                            dt
                        )
                    )
                }
            }
            MathOp::Rem => {
                let y = refs.in_cast(1, idx);
                if dt.is_integer() {
                    format!("{} = {};", refs.out(idx), emit_rem(dt, &x, &y))
                } else {
                    format!(
                        "{} = {};",
                        refs.out(idx),
                        cast_f64_expr(&format!("fmod({xd}, (double)({y}))"), dt)
                    )
                }
            }
            MathOp::Hypot => {
                let y = refs.in_cast(1, idx);
                format!(
                    "{} = {};",
                    refs.out(idx),
                    cast_f64_expr(&format!("hypot({xd}, (double)({y}))"), dt)
                )
            }
        };
        // Mod needs a small scope for its temporary.
        if matches!(op, MathOp::Mod) {
            w.open("{");
            for part in line.split("; ") {
                let part = part.trim_end_matches(';');
                if !part.is_empty() {
                    w.line(format!("{part};"));
                }
            }
            w.close("}");
        } else {
            w.line(line);
        }
    });
}

// For unsigned Mod the `mr < 0` test is always false and GCC warns; that
// is fine (matches the interpreter: remainder sign equals divisor sign
// trivially for unsigned).
// ---------------------------------------------------------------------------
// diagnosis template library (Figure 4 / genDiagnoseImpl)
// ---------------------------------------------------------------------------

/// Emit the diagnosis call statement and the function definition for one
/// actor, registering diagnostic sites on the way.
fn emit_diagnosis(
    ctx: &mut EmitCtx<'_>,
    actor: &FlatActor,
    plan: &[DiagnosticKind],
) -> (String, String) {
    let flat = &ctx.pre.flat;
    let key = actor.path.key();
    let dt = actor.dtype;

    // Parameters: the output (by value or pointer) then every raw input.
    let mut params: Vec<String> = Vec::new();
    let mut args: Vec<String> = Vec::new();
    let out_vec = actor.width > 1;
    if !actor.outputs.is_empty() {
        let out_sig = flat.signal(actor.outputs[0]);
        if out_vec {
            params.push(format!("const {}* out", dt.c_name()));
        } else {
            params.push(format!("{} out", dt.c_name()));
        }
        args.push(out_sig.name.clone());
    }
    for (i, input) in actor.inputs.iter().enumerate() {
        let sig = flat.signal(*input);
        if sig.width > 1 {
            params.push(format!("const {}* in{}", sig.dtype.c_name(), i + 1));
        } else {
            params.push(format!("{} in{}", sig.dtype.c_name(), i + 1));
        }
        args.push(sig.name.clone());
    }

    let call = format!("diagnose_{key}({});", args.join(", "));

    let mut w = CodeBuf::new();
    w.open(format!("static void diagnose_{key}({}) {{", params.join(", ")));

    // Per-element access helpers.
    let in_elem = |i: usize, idx: &str| -> String {
        let sig = flat.signal(actor.inputs[i]);
        if sig.width > 1 {
            format!("in{}[{idx}]", i + 1)
        } else {
            format!("in{}", i + 1)
        }
    };
    let in_elem_cast = |i: usize, idx: &str| -> String {
        let sig = flat.signal(actor.inputs[i]);
        cast_expr(&in_elem(i, idx), sig.dtype, dt)
    };
    let out_elem = |idx: &str| -> String {
        if out_vec {
            format!("out[{idx}]")
        } else {
            "out".to_owned()
        }
    };

    for kind in plan {
        let site = ctx.add_site(&key, *kind);
        match kind {
            DiagnosticKind::WrapOnOverflow => {
                if matches!(actor.kind, ActorKind::DiscreteIntegrator { .. }) {
                    ctx.update_sites.push((actor.id.0, site));
                    w.comment("overflow checked by the end-of-step update diagnosis");
                } else {
                    emit_overflow_check(&mut w, actor, flat, site, &in_elem_cast, &out_elem);
                }
            }
            DiagnosticKind::DivisionByZero => {
                w.comment("division by zero diagnosis");
                w.line("int divz = 0;");
                let zero_inputs = div_zero_ports(&actor.kind);
                for_elems(&mut w, actor.width, |w, idx| {
                    for port in &zero_inputs {
                        w.line(format!("if ({} == 0) divz = 1;", in_elem_cast(*port, idx)));
                    }
                });
                w.line(format!("if (divz) accmos_diag_hit({site});"));
            }
            DiagnosticKind::ArrayOutOfBounds => {
                w.comment("array out of bounds diagnosis");
                let (port, limit) = match &actor.kind {
                    ActorKind::MultiportSwitch { cases } => (0usize, *cases),
                    ActorKind::Selector { .. } => (1usize, flat.signal(actor.inputs[0]).width),
                    _ => (0, 1),
                };
                w.line(format!(
                    "accmos_wide sel = (accmos_wide)({});",
                    in_elem(port, "0")
                ));
                w.line(format!(
                    "if (sel < 1 || sel > {limit}) accmos_diag_hit({site});"
                ));
            }
            DiagnosticKind::DomainError => {
                w.comment("domain error diagnosis");
                w.line("int dom = 0;");
                let check: Box<dyn Fn(&str) -> String> = match &actor.kind {
                    ActorKind::Sqrt => Box::new(|x: &str| format!("if ((double)({x}) < 0.0) dom = 1;")),
                    ActorKind::Math { op: MathOp::Log | MathOp::Log10 } => {
                        Box::new(|x: &str| format!("if ((double)({x}) <= 0.0) dom = 1;"))
                    }
                    ActorKind::Trig { op: TrigOp::Asin | TrigOp::Acos } => {
                        Box::new(|x: &str| format!("if (fabs((double)({x})) > 1.0) dom = 1;"))
                    }
                    _ => Box::new(|_: &str| ";".to_owned()),
                };
                for_elems(&mut w, actor.width, |w, idx| {
                    w.line(check(&in_elem_cast(0, idx)));
                });
                w.line(format!("if (dom) accmos_diag_hit({site});"));
            }
            DiagnosticKind::Downcast => {
                // Paper Figure 4 line 4: a static width comparison that can
                // only ever fire; report it once, on first execution.
                w.comment("downcast diagnosis (sizeof(out) < sizeof(in))");
                w.line(format!("static int down_once_{site} = 0;"));
                w.line(format!(
                    "if (!down_once_{site}) {{ down_once_{site} = 1; accmos_diag_hit({site}); }}"
                ));
            }
            DiagnosticKind::PrecisionLoss => {
                w.comment("precision loss diagnosis (round-trip check)");
                w.line("int lossy = 0;");
                for (i, input) in actor.inputs.iter().enumerate() {
                    let sig = flat.signal(*input);
                    if !sig.dtype.precision_loss_to(dt) {
                        continue;
                    }
                    let width = sig.width;
                    for_elems(&mut w, width, |w, idx| {
                        let x = in_elem(i, idx);
                        let forward = cast_expr(&x, sig.dtype, dt);
                        let back = cast_expr(&forward, dt, sig.dtype);
                        w.line(format!("if ({back} != {x}) lossy = 1;"));
                    });
                }
                w.line(format!("if (lossy) accmos_diag_hit({site});"));
            }
        }
    }

    w.close("}");
    (call, w.finish())
}

fn div_zero_ports(kind: &ActorKind) -> Vec<usize> {
    match kind {
        ActorKind::Product { ops } => {
            ops.chars().enumerate().filter(|(_, c)| *c == '/').map(|(i, _)| i).collect()
        }
        ActorKind::Math { op: MathOp::Reciprocal } => vec![0],
        ActorKind::Math { op: MathOp::Mod | MathOp::Rem } => vec![1],
        _ => Vec::new(),
    }
}

/// Wrap-on-overflow checks. Binary signed `Sum` uses the sign predicates of
/// the paper's Figure 4; everything else recomputes exactly in `__int128`.
fn emit_overflow_check(
    w: &mut CodeBuf,
    actor: &FlatActor,
    flat: &accmos_graph::FlatModel,
    site: usize,
    in_elem_cast: &dyn Fn(usize, &str) -> String,
    out_elem: &dyn Fn(&str) -> String,
) {
    use ActorKind::*;
    let dt = actor.dtype;
    w.comment("wrap on overflow diagnosis");
    w.line("int ovf = 0;");

    match &actor.kind {
        Sum { signs } if signs.len() == 2 && dt.is_signed() && (signs == "++" || signs == "+-") => {
            // The exact predicates of the paper's Figure 4.
            for_elems(w, actor.width, |w, idx| {
                let (a, b, o) = (in_elem_cast(0, idx), in_elem_cast(1, idx), out_elem(idx));
                // Completed forms of the paper's Figure 4 predicates (the
                // `>=` closes the `in == 0` / `in == MIN` corner).
                if signs == "+-" {
                    w.line(format!(
                        "if (({a} >= 0 && {b} < 0 && {o} < 0) || ({a} < 0 && {b} >= 0 && {o} >= 0)) ovf = 1;"
                    ));
                } else {
                    w.line(format!(
                        "if (({a} >= 0 && {b} >= 0 && {o} < 0) || ({a} < 0 && {b} < 0 && {o} >= 0)) ovf = 1;"
                    ));
                }
            });
        }
        Sum { signs } => {
            for_elems(w, actor.width, |w, idx| {
                w.line("accmos_wide ex = 0;");
                for (i, sign) in signs.chars().enumerate() {
                    w.line(format!("ex = ex {sign} (accmos_wide)({});", in_elem_cast(i, idx)));
                }
                w.line(format!("if ((accmos_wide)({}) != ex) ovf = 1;", out_elem(idx)));
            });
        }
        Product { ops } => {
            for_elems(w, actor.width, |w, idx| {
                w.line("accmos_wide ex = 1;");
                for (i, op) in ops.chars().enumerate() {
                    let v = in_elem_cast(i, idx);
                    if op == '*' {
                        w.line(format!("ex = accmos_wide_satmul(ex, (accmos_wide)({v}));"));
                    } else {
                        w.line(format!(
                            "ex = ((accmos_wide)({v}) == 0) ? 0 : accmos_wide_wdiv(ex, (accmos_wide)({v}));"
                        ));
                    }
                }
                w.line(format!("if ((accmos_wide)({}) != ex) ovf = 1;", out_elem(idx)));
            });
        }
        Gain { gain } => {
            let g = gain.cast(dt).c_literal();
            for_elems(w, actor.width, |w, idx| {
                w.line(format!(
                    "if ((accmos_wide)({}) != (accmos_wide)({}) * (accmos_wide)({g})) ovf = 1;",
                    out_elem(idx),
                    in_elem_cast(0, idx)
                ));
            });
        }
        Bias { bias } => {
            let b = bias.cast(dt).c_literal();
            for_elems(w, actor.width, |w, idx| {
                w.line(format!(
                    "if ((accmos_wide)({}) != (accmos_wide)({}) + (accmos_wide)({b})) ovf = 1;",
                    out_elem(idx),
                    in_elem_cast(0, idx)
                ));
            });
        }
        Abs => {
            for_elems(w, actor.width, |w, idx| {
                let x = in_elem_cast(0, idx);
                w.line(format!(
                    "accmos_wide ex = ({x} < 0) ? -(accmos_wide)({x}) : (accmos_wide)({x});"
                ));
                w.line(format!("if ((accmos_wide)({}) != ex) ovf = 1;", out_elem(idx)));
            });
        }
        Math { op: MathOp::Square } => {
            for_elems(w, actor.width, |w, idx| {
                let x = in_elem_cast(0, idx);
                w.line(format!(
                    "if ((accmos_wide)({}) != (accmos_wide)({x}) * (accmos_wide)({x})) ovf = 1;",
                    out_elem(idx)
                ));
            });
        }
        Shift { dir: ShiftDir::Left, amount } => {
            for_elems(w, actor.width, |w, idx| {
                let x = in_elem_cast(0, idx);
                w.line(format!(
                    "if ((accmos_wide)({}) != ((accmos_wide)({x}) << {amount})) ovf = 1;",
                    out_elem(idx)
                ));
            });
        }
        DotProduct => {
            let n = flat.signal(actor.inputs[0]).width;
            w.line("accmos_wide ex = 0;");
            w.open(format!("for (int e = 0; e < {n}; e++) {{"));
            w.line(format!(
                "ex = ex + (accmos_wide)({}) * (accmos_wide)({});",
                in_elem_cast(0, "e"),
                in_elem_cast(1, "e")
            ));
            w.close("}");
            w.line(format!("if ((accmos_wide)({}) != ex) ovf = 1;", out_elem("0")));
        }
        SumOfElements => {
            let n = flat.signal(actor.inputs[0]).width;
            w.line("accmos_wide ex = 0;");
            w.open(format!("for (int e = 0; e < {n}; e++) {{"));
            w.line(format!("ex = ex + (accmos_wide)({});", in_elem_cast(0, "e")));
            w.close("}");
            w.line(format!("if ((accmos_wide)({}) != ex) ovf = 1;", out_elem("0")));
        }
        ProductOfElements => {
            let n = flat.signal(actor.inputs[0]).width;
            w.line("accmos_wide ex = 1;");
            w.open(format!("for (int e = 0; e < {n}; e++) {{"));
            w.line(format!(
                "ex = accmos_wide_satmul(ex, (accmos_wide)({}));",
                in_elem_cast(0, "e")
            ));
            w.close("}");
            w.line(format!("if ((accmos_wide)({}) != ex) ovf = 1;", out_elem("0")));
        }
        DiscreteDerivative => {
            // The template has not yet advanced the state, so the global
            // still holds the previous input.
            for_elems(w, actor.width, |w, idx| {
                let x = in_elem_cast(0, idx);
                let key = actor.path.key();
                let prev = elem_of(&format!("{key}_prev"), actor.width, idx);
                let o = out_elem(idx);
                w.line(format!(
                    "if ((accmos_wide)({o}) != (accmos_wide)({x}) - (accmos_wide)({prev})) ovf = 1;"
                ));
            });
        }
        _ => {
            w.line("(void)ovf;");
        }
    }
    w.line(format!("if (ovf) accmos_diag_hit({site});"));
}
