//! Simulation code synthesis (paper §3.3).
//!
//! Composes the instrumented actor code in execution order into the model
//! system function (`Model_Exe`, Figure 5 part 2), which runs it as calls
//! to bounded `noinline` chunks, adds the end-of-step state update, and
//! wraps everything in a main function implementing the simulation loop
//! with test-case import (`TestCase_Init` / `takeTestCase`),
//! `recordResult()` and `outputResult()` (Figure 5 part 1).

use crate::cwriter::CodeBuf;
use crate::gen::{
    cast_expr, cast_f64_expr, emit_actor, f64_lit, state_decls, store_var, DiagSite, EmitCtx,
};
use crate::options::CodegenOptions;
use crate::runtime::RUNTIME_HEADER;
use accmos_graph::PreprocessedModel;
use accmos_ir::{ActorKind, CoverageKind, DataType, SystemKind, SIGNAL_LOG_LIMIT};

/// A generated simulator: source files plus the site tables needed to
/// interpret its output.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedProgram {
    /// Model name.
    pub model: String,
    /// The main C translation unit (`<model>.c`).
    pub main_c: String,
    /// The fixed runtime support header (`accmos_rt.h`).
    pub runtime_h: String,
    /// Diagnostic sites, in site-id order.
    pub diag_sites: Vec<DiagSite>,
    /// Custom probe `(name, actor)` pairs, in site-id order.
    pub custom_sites: Vec<(String, String)>,
    /// Root input port data types (test-file column types).
    pub inport_dtypes: Vec<DataType>,
    /// Diagnosis checks dropped because the interval analysis proved they
    /// can never fire (`CodegenOptions::prune_proven_safe`).
    pub pruned_sites: usize,
    /// Wall-clock time the proven-safe interval analysis took during
    /// generation (zero when pruning is disabled). Surfaced so telemetry
    /// can report the analyze phase separately from synthesis proper.
    pub analyze_time: std::time::Duration,
    /// Always 0. Codegen emits every actor from its template: it folds
    /// no actor into literal stores. Kept only because the layered
    /// benchmark (`perfbench`) sums this field into its `proven_sites`
    /// metric; drop it together with that use.
    pub folded_actors: usize,
    /// Always 0: codegen elides no actor. Kept for `perfbench`'s
    /// `proven_sites`, like [`GeneratedProgram::folded_actors`].
    pub elided_actors: usize,
    /// Always 0: every branchy template keeps all its arms. Kept for
    /// `perfbench`'s `proven_sites`, like
    /// [`GeneratedProgram::folded_actors`].
    pub specialized_arms: usize,
}

impl GeneratedProgram {
    /// The generated files as `(file name, contents)` pairs.
    pub fn files(&self) -> Vec<(String, &str)> {
        vec![
            ("accmos_rt.h".to_owned(), self.runtime_h.as_str()),
            (format!("{}.c", sanitize(&self.model)), self.main_c.as_str()),
        ]
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Generate the complete simulation program for a preprocessed model.
pub fn generate(pre: &PreprocessedModel, opts: &CodegenOptions) -> GeneratedProgram {
    let mut ctx = EmitCtx::new(pre, opts);
    let flat = &pre.flat;
    let cov = opts.instrument && opts.coverage;

    // ---- per-actor code + diagnostic functions (Algorithm 1) ------------
    let mut actor_code = Vec::new();
    let mut diag_fns = Vec::new();
    for actor in flat.ordered_actors() {
        let emitted = emit_actor(&mut ctx, actor);
        if !emitted.diag_code.is_empty() {
            diag_fns.push(emitted.diag_code.clone());
        }
        actor_code.push(emitted);
    }

    // Self-profiling: one site per actor, in schedule order, named by
    // the actor's path key (the `ACCMOS:PROF actor=` field value).
    let prof_names: Vec<&str> = if opts.profile {
        actor_code.iter().map(|a| a.key.as_str()).collect()
    } else {
        Vec::new()
    };

    let mut w = CodeBuf::new();
    w.comment(format!(
        "AccMoS-RS generated simulation code for model `{}` ({} actors, {} signals)",
        flat.name,
        flat.actors.len(),
        flat.signals.len()
    ));
    w.line(format!("#define ACCMOS_ACTOR_BITS {}", pre.coverage.map.total(CoverageKind::Actor)));
    w.line(format!("#define ACCMOS_COND_BITS {}", pre.coverage.map.total(CoverageKind::Condition)));
    w.line(format!("#define ACCMOS_DEC_BITS {}", pre.coverage.map.total(CoverageKind::Decision)));
    w.line(format!("#define ACCMOS_MCDC_BITS {}", pre.coverage.map.total(CoverageKind::Mcdc)));
    w.line(format!("#define ACCMOS_DIAG_SITES {}", ctx.diag_sites.len()));
    w.line(format!("#define ACCMOS_CUSTOM_SITES {}", opts.custom.len()));
    let log_limit = if opts.instrument { SIGNAL_LOG_LIMIT } else { 0 };
    w.line(format!("#define ACCMOS_LOG_LIMIT {log_limit}"));
    let max_width = flat.signals.iter().map(|s| s.width).max().unwrap_or(1).max(1);
    w.line(format!("#define ACCMOS_MAX_WIDTH {max_width}"));
    w.line(format!("#define ACCMOS_TC_COLS {}", flat.root_inports.len()));
    w.line("#include \"accmos_rt.h\"");
    w.blank();

    // ---- saturating __int128 helpers used by overflow recomputation ------
    w.raw(WIDE_HELPERS);
    w.blank();

    // ---- signal variables -------------------------------------------------
    w.comment("signal variables (one per actor output port)");
    for sig in &flat.signals {
        let t = sig.dtype.c_name();
        if sig.width == 1 {
            w.line(format!("static {t} {};", sig.name));
        } else {
            w.line(format!("static {t} {}[{}];", sig.name, sig.width));
        }
    }
    w.blank();

    // ---- data stores --------------------------------------------------------
    if !flat.stores.is_empty() {
        w.comment("global data stores");
        for store in &flat.stores {
            let init = store.init.cast(store.dtype).c_literal();
            w.line(format!("static {} {} = {init};", store.dtype.c_name(), store_var(&store.name)));
        }
        w.blank();
    }

    // ---- actor state ----------------------------------------------------------
    w.comment("actor state");
    for actor in &flat.actors {
        for decl in state_decls(actor) {
            w.line(decl);
        }
    }
    w.blank();

    // ---- conditional-execution groups -------------------------------------------
    if !flat.groups.is_empty() {
        w.comment("conditional-execution groups (enabled/triggered subsystems)");
        for g in &flat.groups {
            w.line(format!("static uint8_t g{}_prev = 0;", g.id.0));
        }
        for g in &flat.groups {
            let ctrl = &flat.signal(g.control).name;
            let own = match g.kind {
                SystemKind::Enabled => format!("({ctrl} != 0)"),
                SystemKind::Triggered => format!("(({ctrl} != 0) && !g{}_prev)", g.id.0),
                SystemKind::Plain => "1".to_owned(),
            };
            let expr = match g.parent {
                Some(p) => format!("g{}_active() && {own}", p.0),
                None => own,
            };
            w.line(format!(
                "static inline int g{}_active(void) {{ return {expr}; }}",
                g.id.0
            ));
        }
        w.blank();
    }

    // ---- diagnostic site tables ----------------------------------------------------
    if !ctx.diag_sites.is_empty() {
        w.comment("diagnostic sites");
        let kinds: Vec<String> =
            ctx.diag_sites.iter().map(|s| format!("\"{}\"", s.kind.ident())).collect();
        let actors: Vec<String> =
            ctx.diag_sites.iter().map(|s| format!("\"{}\"", s.actor)).collect();
        w.line(format!(
            "static const char* const accmos_diag_kind_name[] = {{ {} }};",
            kinds.join(", ")
        ));
        w.line(format!(
            "static const char* const accmos_diag_actor_name[] = {{ {} }};",
            actors.join(", ")
        ));
        w.blank();
    }
    if !opts.custom.is_empty() {
        w.comment("custom signal diagnosis sites");
        let names: Vec<String> =
            opts.custom.iter().map(|p| format!("\"{}\"", p.name)).collect();
        let actors: Vec<String> =
            opts.custom.iter().map(|p| format!("\"{}\"", p.actor)).collect();
        w.line(format!(
            "static const char* const accmos_custom_name[] = {{ {} }};",
            names.join(", ")
        ));
        w.line(format!(
            "static const char* const accmos_custom_actor[] = {{ {} }};",
            actors.join(", ")
        ));
        w.blank();
    }

    // ---- self-profiling site tables ----------------------------------------------------
    if !prof_names.is_empty() {
        w.comment("self-profiling sites: every invocation counts, but the clock is");
        w.comment("only read on sampled steps — two monotonic reads per site per step");
        w.comment("cost more than a small actor's whole body, so full-rate timing");
        w.comment("would slow tiny-actor models by 50x+. The period is prime so the");
        w.comment("sample never aliases a power-of-two model cycle.");
        w.line(format!("#define ACCMOS_PROF_PERIOD {PROF_SAMPLE_PERIOD}"));
        w.line(format!("static uint64_t accmos_prof_ns[{}];", prof_names.len()));
        w.line(format!("static uint64_t accmos_prof_calls[{}];", prof_names.len()));
        w.line(format!("static uint64_t accmos_prof_timed[{}];", prof_names.len()));
        w.line("static int accmos_prof_on;");
        let names: Vec<String> = prof_names.iter().map(|n| format!("\"{n}\"")).collect();
        w.line(format!(
            "static const char* const accmos_prof_name[] = {{ {} }};",
            names.join(", ")
        ));
        w.blank();
    }

    // ---- dynamically generated diagnostic functions -----------------------------------
    if !diag_fns.is_empty() {
        w.comment("diagnostic function template instantiations (paper Figure 4)");
        for f in &diag_fns {
            w.raw(f);
            w.blank();
        }
    }

    // Integrator end-of-step update diagnostics.
    let update_sites = ctx.update_sites.clone();
    for (actor_idx, site) in &update_sites {
        let actor = &flat.actors[*actor_idx];
        let key = actor.path.key();
        let t = actor.dtype.c_name();
        if actor.width == 1 {
            w.open(format!(
                "static void diagnose_{key}_update({t} acc, {t} incr) {{"
            ));
            w.line(format!(
                "if ((accmos_wide)({t})(acc + incr) != (accmos_wide)acc + (accmos_wide)incr) accmos_diag_hit({site});"
            ));
            w.close("}");
        } else {
            w.open(format!(
                "static void diagnose_{key}_update(const {t}* acc, const {t}* incr) {{"
            ));
            w.line("int ovf = 0;");
            w.open(format!("for (int e = 0; e < {}; e++) {{", actor.width));
            w.line(format!(
                "if ((accmos_wide)({t})(acc[e] + incr[e]) != (accmos_wide)acc[e] + (accmos_wide)incr[e]) ovf = 1;"
            ));
            w.close("}");
            w.line(format!("if (ovf) accmos_diag_hit({site});"));
            w.close("}");
        }
        w.blank();
    }

    // ---- model system function (Figure 5 part 2) -----------------------------------------
    // Actor blocks go, in schedule order, into balanced `noinline`
    // chunks of at most EXE_CHUNK_ACTORS blocks, so that no one function
    // hands the whole schedule to GCC's per-function passes, which grow
    // faster than linearly with function size. Every block is
    // self-contained (a group member carries its own guard), so any
    // contiguous cut keeps the semantics.
    let n = actor_code.len();
    let chunks = n.div_ceil(EXE_CHUNK_ACTORS);
    for k in 0..chunks {
        w.open(format!("static __attribute__((noinline)) void accmos_exe_{k}(void) {{"));
        let sites = k * n / chunks..(k + 1) * n / chunks;
        for (site, emitted) in sites.clone().zip(&actor_code[sites]) {
            if prof_names.is_empty() {
                w.raw(indent_block(&emitted.code, 1));
            } else {
                w.open("{");
                w.line("uint64_t accmos_prof_t0 = accmos_prof_on ? accmos_now_ns() : 0;");
                w.raw(indent_block(&emitted.code, 2));
                emit_prof_close(&mut w, site);
                w.close("}");
            }
        }
        w.close("}");
        w.blank();
    }
    w.open("static void Model_Exe(void) {");
    if !prof_names.is_empty() {
        w.line("accmos_prof_on = (accmos_step % ACCMOS_PROF_PERIOD) == 0;");
    }
    for k in 0..chunks {
        w.line(format!("accmos_exe_{k}();"));
    }
    w.close("}");
    w.blank();

    // ---- end-of-step state update ------------------------------------------------------------
    w.open("static void Model_Update(void) {");
    for actor in flat.ordered_actors() {
        if !actor.kind.breaks_algebraic_loops() {
            continue;
        }
        let key = actor.path.key();
        let t = actor.dtype.c_name();
        let width = actor.width;
        let refs_in = |idx: &str| -> String {
            let sig = flat.signal(actor.inputs[0]);
            let raw = if sig.width == 1 { sig.name.clone() } else { format!("{}[{idx}]", sig.name) };
            cast_expr(&raw, sig.dtype, actor.dtype)
        };
        let guard = match actor.group {
            Some(g) => format!("g{}_active()", g.0),
            None => "1".to_owned(),
        };
        w.open(format!("if ({guard}) {{"));
        match &actor.kind {
            ActorKind::UnitDelay { .. } | ActorKind::Memory { .. } => {
                if width == 1 {
                    w.line(format!("{key}_state = {};", refs_in("0")));
                } else {
                    w.open(format!("for (int e = 0; e < {width}; e++) {{"));
                    w.line(format!("{key}_state[e] = {};", refs_in("e")));
                    w.close("}");
                }
            }
            ActorKind::Delay { steps, .. } => {
                if width == 1 {
                    w.line(format!("{key}_buf[{key}_pos] = {};", refs_in("0")));
                } else {
                    w.open(format!("for (int e = 0; e < {width}; e++) {{"));
                    w.line(format!("{key}_buf[{key}_pos * {width} + e] = {};", refs_in("e")));
                    w.close("}");
                }
                w.line(format!("{key}_pos = ({key}_pos + 1) % {steps};"));
            }
            ActorKind::DiscreteIntegrator { gain, .. } => {
                let site =
                    update_sites.iter().find(|(a, _)| *a == actor.id.0).map(|(_, s)| *s);
                let incr_expr = |idx: &str| -> String {
                    if *gain == 1.0 {
                        refs_in(idx)
                    } else {
                        cast_f64_expr(
                            &format!("({} * (double)({}))", f64_lit(*gain), refs_in(idx)),
                            actor.dtype,
                        )
                    }
                };
                if width == 1 {
                    w.line(format!("{t} incr = {};", incr_expr("0")));
                    if site.is_some() {
                        w.line(format!("diagnose_{key}_update({key}_acc, incr);"));
                    }
                    w.line(format!("{key}_acc = ({t})({key}_acc + incr);"));
                } else {
                    w.line(format!("{t} incr[{width}];"));
                    w.open(format!("for (int e = 0; e < {width}; e++) {{"));
                    w.line(format!("incr[e] = {};", incr_expr("e")));
                    w.close("}");
                    if site.is_some() {
                        w.line(format!("diagnose_{key}_update({key}_acc, incr);"));
                    }
                    w.open(format!("for (int e = 0; e < {width}; e++) {{"));
                    w.line(format!("{key}_acc[e] = ({t})({key}_acc[e] + incr[e]);"));
                    w.close("}");
                }
            }
            _ => {}
        }
        w.close("}");
    }
    for g in &flat.groups {
        let ctrl = &flat.signal(g.control).name;
        w.line(format!("g{}_prev = (uint8_t)({ctrl} != 0);", g.id.0));
    }
    w.close("}");
    w.blank();

    // ---- per-step group condition coverage --------------------------------------------------------
    if cov && !flat.groups.is_empty() {
        w.open("static void Coverage_Groups(void) {");
        for g in &flat.groups {
            let ctrl = &flat.signal(g.control).name;
            let own = match g.kind {
                SystemKind::Enabled => format!("({ctrl} != 0)"),
                SystemKind::Triggered => format!("(({ctrl} != 0) && !g{}_prev)", g.id.0),
                SystemKind::Plain => "1".to_owned(),
            };
            let (t_bit, _) = pre.coverage.group_bits(g.id);
            match g.parent {
                Some(p) => {
                    w.open(format!("if (g{}_active()) {{", p.0));
                    w.line(format!(
                        "ACCMOS_COV(accmos_cov_cond, {t_bit} + ({own} ? 0 : 1));"
                    ));
                    w.close("}");
                }
                None => {
                    w.line(format!(
                        "ACCMOS_COV(accmos_cov_cond, {t_bit} + ({own} ? 0 : 1));"
                    ));
                }
            }
        }
        w.close("}");
        w.blank();
    }

    // ---- recordResult: output digest + final values ------------------------------------------------
    w.comment("final root-output values");
    for (i, id) in flat.root_outports.iter().enumerate() {
        let actor = flat.actor(*id);
        w.line(format!(
            "static {} accmos_final_{i}[{}];",
            actor.dtype.c_name(),
            actor.width.max(1)
        ));
    }
    w.open("static void recordResult(void) {");
    for (i, id) in flat.root_outports.iter().enumerate() {
        let actor = flat.actor(*id);
        let sig = flat.signal(actor.inputs[0]);
        for e in 0..actor.width {
            let raw = if sig.width == 1 {
                sig.name.clone()
            } else {
                format!("{}[{e}]", sig.name)
            };
            let cast = cast_expr(&raw, sig.dtype, actor.dtype);
            w.line(format!("accmos_final_{i}[{e}] = {cast};"));
            w.line(format!(
                "accmos_digest_u64({});",
                bits_expr(&format!("accmos_final_{i}[{e}]"), actor.dtype)
            ));
        }
    }
    if opts.sabotage_digest {
        w.comment("TEST-ONLY sabotage: one extra digest fold, so this build");
        w.comment("diverges from the interpretive reference on every model");
        w.line("accmos_digest_u64(1u);");
    }
    w.close("}");
    w.blank();

    // ---- host exchange (Rapid Accelerator data transfer) ---------------------------------------------
    if opts.host_sync {
        let total: usize = flat.signals.iter().map(|s| s.width).sum();
        w.comment("host-side mirror: per-step data transfer with the modeling environment");
        w.line(format!("static uint64_t accmos_host_buf[{}];", total.max(1)));
        w.line("static int accmos_host_fd = -1;");
        w.line("static int accmos_host_rx = -1;");
        w.open("__attribute__((noinline)) static void accmos_host_exchange(void) {");
        let mut off = 0usize;
        for sig in &flat.signals {
            for e in 0..sig.width {
                let raw =
                    if sig.width == 1 { sig.name.clone() } else { format!("{}[{e}]", sig.name) };
                w.line(format!("accmos_host_buf[{off}] = {};", bits_expr(&raw, sig.dtype)));
                off += 1;
            }
        }
        w.comment("IPC boundary: bidirectional per-step exchange with the host");
        w.line(
            "if (accmos_host_fd >= 0) { ssize_t n = write(accmos_host_fd, accmos_host_buf, sizeof accmos_host_buf); (void)n; }",
        );
        w.line(
            "if (accmos_host_rx >= 0) { ssize_t n = read(accmos_host_rx, accmos_host_buf, sizeof accmos_host_buf); (void)n; }",
        );
        w.line("__asm__ volatile(\"\" : : \"r\"(accmos_host_buf) : \"memory\");");
        w.close("}");
        w.blank();
    }

    // ---- outputResult -------------------------------------------------------------------------------------
    // All records route through accmos_out, so the same translation unit
    // serves both the standalone executable (stdout) and the dylib host
    // (emit callback) with byte-identical record text.
    w.open("static void outputResult(uint64_t steps, uint64_t ns) {");
    w.line(format!("accmos_out(\"ACCMOS:MODEL {}\\n\");", flat.name));
    w.line("accmos_out(\"ACCMOS:STEPS %llu\\n\", (unsigned long long)steps);");
    w.line("accmos_out(\"ACCMOS:TIME_NS %llu\\n\", (unsigned long long)ns);");
    if !prof_names.is_empty() {
        w.open(format!("for (int s = 0; s < {}; s++) {{", prof_names.len()));
        w.line("accmos_out(\"ACCMOS:PROF actor=%s ns=%llu calls=%llu timed=%llu\\n\", accmos_prof_name[s], (unsigned long long)accmos_prof_ns[s], (unsigned long long)accmos_prof_calls[s], (unsigned long long)accmos_prof_timed[s]);");
        w.close("}");
    }
    if cov {
        for kind in CoverageKind::ALL {
            w.line(format!(
                "accmos_print_cov(\"{}\", accmos_cov_{}, {});",
                kind.ident(),
                kind.ident(),
                pre.coverage.map.total(kind)
            ));
        }
    }
    if !ctx.diag_sites.is_empty() {
        w.open(format!("for (int s = 0; s < {}; s++) {{", ctx.diag_sites.len()));
        w.open("if (accmos_diag_count[s]) {");
        w.line("accmos_out(\"ACCMOS:DIAG %s %s %llu %llu\\n\", accmos_diag_kind_name[s], accmos_diag_actor_name[s], (unsigned long long)accmos_diag_first[s], (unsigned long long)accmos_diag_count[s]);");
        w.close("}");
        w.close("}");
    }
    if !opts.custom.is_empty() {
        w.open(format!("for (int s = 0; s < {}; s++) {{", opts.custom.len()));
        w.open("if (accmos_custom_count[s]) {");
        w.line("accmos_out(\"ACCMOS:CUSTOM %s %s %llu %llu\\n\", accmos_custom_name[s], accmos_custom_actor[s], (unsigned long long)accmos_custom_first[s], (unsigned long long)accmos_custom_count[s]);");
        w.close("}");
        w.close("}");
    }
    if log_limit > 0 {
        w.open("for (int s = 0; s < accmos_log_len; s++) {");
        w.line("accmos_out(\"ACCMOS:SIGNAL %s %llu %s %d\", accmos_log[s].path, (unsigned long long)accmos_log[s].step, accmos_log[s].type, accmos_log[s].length);");
        w.open("for (int e = 0; e < accmos_log[s].length; e++) {");
        w.line("accmos_out(\" %llx\", (unsigned long long)accmos_log[s].bits[e]);");
        w.close("}");
        w.line("accmos_out(\"\\n\");");
        w.close("}");
    }
    for (i, id) in flat.root_outports.iter().enumerate() {
        let actor = flat.actor(*id);
        w.line(format!(
            "accmos_out(\"ACCMOS:OUT {} {} {}\");",
            actor.path.name(),
            actor.dtype.mnemonic(),
            actor.width
        ));
        for e in 0..actor.width {
            w.line(format!(
                "accmos_out(\" %llx\", (unsigned long long){});",
                bits_expr(&format!("accmos_final_{i}[{e}]"), actor.dtype)
            ));
        }
        w.line("accmos_out(\"\\n\");");
    }
    w.line("accmos_out(\"ACCMOS:DIGEST %016llx\\n\", (unsigned long long)accmos_digest);");
    w.line("accmos_out(\"ACCMOS:END\\n\");");
    w.close("}");
    w.blank();

    // ---- entry point + main (Figure 5 part 1) ----------------------------------------------------------------
    if !flat.root_inports.is_empty() {
        let codes: Vec<String> = flat
            .root_inports
            .iter()
            .map(|id| dtype_code(flat.actor(*id).dtype).to_string())
            .collect();
        w.line(format!(
            "static const int accmos_tc_want[] = {{ {} }};",
            codes.join(", ")
        ));
    }
    // The simulation driver is an exported, host-callable entry point and
    // `main` below is a thin argv parser over it: the standalone
    // executable and a dlopen'ing host run the identical driver, so the
    // two modes are digest-identical by construction. It runs one
    // stimulus (`tc_path[0]` when `tc_n > 0`); a lane run is one call
    // per lane. A nonzero `kill_ns` is the caller's kill deadline,
    // counted from the call. Returns: 0 = ok, 3 = stale instance (this
    // load's entry was already consumed; module-static state is
    // single-shot), 4 = canceled at the kill deadline (no records
    // emitted).
    w.open("int accmos_entry(uint64_t total_step, const char *const *tc_path, int tc_n, int stop_on_diag, uint64_t budget_ms, uint64_t kill_ns, accmos_emit_fn emit, void *emit_ctx) {");
    w.line("uint64_t t_in = accmos_now_ns();");
    w.line("static int accmos_entry_used = 0;");
    w.line("if (accmos_entry_used) return 3;");
    w.line("accmos_entry_used = 1;");
    w.line("accmos_emit_cb = emit;");
    w.line("accmos_emit_ctx = emit_ctx;");
    w.line("int canceled = 0;");
    if flat.root_inports.is_empty() {
        w.line("TestCase_Init(tc_n > 0 ? tc_path[0] : NULL, 0, NULL);");
    } else {
        w.line(format!(
            "TestCase_Init(tc_n > 0 ? tc_path[0] : NULL, {}, accmos_tc_want);",
            flat.root_inports.len()
        ));
    }
    if opts.host_sync {
        w.line("accmos_host_fd = open(\"/dev/null\", O_WRONLY);");
        w.line("accmos_host_rx = open(\"/dev/zero\", O_RDONLY);");
    }
    w.line("uint64_t executed = 0;");
    w.line("uint64_t t0 = accmos_now_ns();");
    // Budget and kill deadline share one sparse check (every 512 steps)
    // so neither perturbs the hot loop.
    w.comment("Simulation Loop of model");
    w.open("for (uint64_t step = 0; step < total_step; step++) {");
    w.open("if ((step & 511) == 0) {");
    w.line("if (budget_ms && accmos_now_ns() - t0 >= budget_ms * 1000000ULL) break;");
    w.line("if (kill_ns && accmos_now_ns() - t_in >= kill_ns) { canceled = 1; break; }");
    w.close("}");
    w.line("accmos_step = step;");
    w.line("Model_Exe();");
    if cov && !flat.groups.is_empty() {
        w.line("Coverage_Groups();");
    }
    w.line("recordResult();");
    w.line("Model_Update();");
    if opts.host_sync {
        w.line("accmos_host_exchange();");
    }
    w.line("executed = step + 1;");
    w.line("if (stop_on_diag && accmos_diag_total) break;");
    w.close("}");
    w.line("uint64_t ns = accmos_now_ns() - t0;");
    if opts.host_sync {
        w.line("if (accmos_host_fd >= 0) { close(accmos_host_fd); accmos_host_fd = -1; }");
        w.line("if (accmos_host_rx >= 0) { close(accmos_host_rx); accmos_host_rx = -1; }");
    }
    w.open("if (canceled) {");
    w.line("accmos_tc_free();");
    w.line("return 4;");
    w.close("}");
    w.line("outputResult(executed, ns);");
    w.line("accmos_tc_free();");
    w.line("return 0;");
    w.close("}");
    w.blank();
    w.open("int main(int argc, char* argv[]) {");
    w.line("uint64_t total_step = (argc > 1) ? strtoull(argv[1], NULL, 10) : 1;");
    w.line("const char* tc_path[1] = { NULL };");
    w.line("int tc_n = 0;");
    w.line("int stop_on_diag = 0;");
    w.line("uint64_t budget_ms = 0;");
    w.open("for (int a = 2; a < argc; a++) {");
    w.line("if (strcmp(argv[a], \"--tests\") == 0 && a + 1 < argc) { tc_path[0] = argv[++a]; tc_n = 1; }");
    w.line("else if (strcmp(argv[a], \"--stop-on-diag\") == 0) stop_on_diag = 1;");
    w.line("else if (strcmp(argv[a], \"--budget-ms\") == 0 && a + 1 < argc) budget_ms = strtoull(argv[++a], NULL, 10);");
    w.close("}");
    w.line("return accmos_entry(total_step, tc_path, tc_n, stop_on_diag, budget_ms, 0, NULL, NULL);");
    w.close("}");

    GeneratedProgram {
        model: flat.name.clone(),
        main_c: w.finish(),
        runtime_h: RUNTIME_HEADER.to_owned(),
        diag_sites: ctx.diag_sites,
        custom_sites: opts.custom.iter().map(|p| (p.name.clone(), p.actor.clone())).collect(),
        inport_dtypes: flat.root_inports.iter().map(|id| flat.actor(*id).dtype).collect(),
        pruned_sites: ctx.pruned_sites,
        analyze_time: ctx.analyze_time,
        folded_actors: 0,
        elided_actors: 0,
        specialized_arms: 0,
    }
}

/// Bit-pattern expression matching `Scalar::to_bits_u64`.
fn bits_expr(expr: &str, dt: DataType) -> String {
    match dt {
        DataType::F64 => format!("accmos_bits_f64({expr})"),
        DataType::F32 => format!("accmos_bits_f32({expr})"),
        DataType::Bool | DataType::U8 | DataType::U16 | DataType::U32 | DataType::U64 => {
            format!("(uint64_t)({expr})")
        }
        DataType::I8 => format!("(uint64_t)(uint8_t)({expr})"),
        DataType::I16 => format!("(uint64_t)(uint16_t)({expr})"),
        DataType::I32 => format!("(uint64_t)(uint32_t)({expr})"),
        DataType::I64 => format!("(uint64_t)({expr})"),
    }
}

fn dtype_code(dt: DataType) -> usize {
    DataType::ALL.iter().position(|t| *t == dt).expect("known dtype")
}

/// Most actor blocks in one `accmos_exe_<k>` chunk of `Model_Exe`. A
/// model of `n` actors gets `ceil(n / 64)` chunks whose sizes differ by
/// at most one. On the ten Table 1 models, chunks of 32, 64 and 128 cut
/// plain `cc -O3` time by 29, 27 and 24 % (geomean), for a few percent
/// of loop time (DESIGN §4.5).
const EXE_CHUNK_ACTORS: usize = 64;

/// Sampling period of the self-profiling clock, in steps. Invocation
/// counters run at full rate; the monotonic clock is only read on steps
/// where `accmos_step % PERIOD == 0`. Prime, so the sample pattern never
/// aliases a power-of-two cycle in the model's own behavior.
pub const PROF_SAMPLE_PERIOD: u64 = 61;

/// Close one profiling site: fold the elapsed time into the cumulative
/// counter on sampled steps, count the invocation unconditionally.
fn emit_prof_close(w: &mut CodeBuf, site: usize) {
    w.open("if (accmos_prof_on) {");
    w.line(format!("accmos_prof_ns[{site}] += accmos_now_ns() - accmos_prof_t0;"));
    w.line(format!("accmos_prof_timed[{site}]++;"));
    w.close("}");
    w.line(format!("accmos_prof_calls[{site}]++;"));
}

fn indent_block(code: &str, levels: usize) -> String {
    let pad = "    ".repeat(levels);
    code.lines()
        .map(|l| if l.is_empty() { String::from("\n") } else { format!("{pad}{l}\n") })
        .collect()
}

const WIDE_HELPERS: &str = r#"/* saturating / wrapping __int128 helpers (match i128 in accmos-interp) */
static inline accmos_wide accmos_wide_satmul(accmos_wide a, accmos_wide b) {
    accmos_wide r;
    if (__builtin_mul_overflow(a, b, &r)) {
        accmos_wide mx = (accmos_wide)(((unsigned __int128)-1) >> 1);
        return ((a < 0) ^ (b < 0)) ? -mx - 1 : mx;
    }
    return r;
}
static inline accmos_wide accmos_wide_wdiv(accmos_wide a, accmos_wide b) {
    if (b == -1) {
        return (accmos_wide)(0 - (unsigned __int128)a);
    }
    return a / b;
}
"#;
