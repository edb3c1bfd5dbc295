//! The local STG of a gate: the projected marked graph together with the
//! gate's pull-up/pull-down functions (thesis Sec. 5.2–5.3).

use std::collections::BTreeSet;
use std::sync::Arc;

use si_boolean::Gate;
use si_stg::{MgStg, SignalId, Stg, TransitionLabel};

use crate::error::CoreError;

/// The four arc kinds of a local STG (thesis Sec. 5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArcType {
    /// Type (1) `x* ⇒ a*`: an acknowledgement — always fulfilled.
    InputToOutput,
    /// Type (2) `a* ⇒ y*`: the environment answers the gate — always
    /// fulfilled.
    OutputToInput,
    /// Type (3) `x* ⇒ x*'`: ordering on one wire — never reversed by delay.
    SameSignal,
    /// Type (4) `x* ⇒ y*`, distinct input signals: relies on the isochronic
    /// fork; the relaxation targets exactly these.
    InputToInput,
}

/// A gate bound to the STG's signal table: covers plus the signal-id layout
/// needed to evaluate them on state-graph codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateContext {
    /// The gate (name-based covers).
    pub gate: Gate,
    /// Output signal id.
    pub output: SignalId,
    /// Fan-in signal ids (support minus the feedback literal).
    pub fanin: Vec<SignalId>,
    /// `var_map[i]` = signal id of cover variable `i`.
    pub var_map: Vec<SignalId>,
}

impl GateContext {
    /// Binds `gate` to `stg`'s signal table.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownSignal`] if the gate references an undeclared
    /// signal; [`CoreError::RedundantLiteral`] if the gate has a redundant
    /// literal (relaxation is unsound then, thesis Lemma 2).
    pub fn bind(gate: &Gate, stg: &Stg) -> Result<Self, CoreError> {
        let output = stg
            .signal_by_name(&gate.output)
            .ok_or_else(|| CoreError::UnknownSignal {
                gate: gate.output.clone(),
                name: gate.output.clone(),
            })?;
        let mut var_map = Vec::with_capacity(gate.vars.len());
        for v in &gate.vars {
            let id = stg
                .signal_by_name(v)
                .ok_or_else(|| CoreError::UnknownSignal {
                    gate: gate.output.clone(),
                    name: v.clone(),
                })?;
            var_map.push(id);
        }
        if gate.has_redundant_literal() {
            return Err(CoreError::RedundantLiteral {
                gate: gate.output.clone(),
            });
        }
        let fanin: Vec<SignalId> = var_map.iter().copied().filter(|&s| s != output).collect();
        Ok(Self {
            gate: gate.clone(),
            output,
            fanin,
            var_map,
        })
    }

    /// Packs a global state code into the gate's cover variable order.
    pub fn pack(&self, code: u64) -> u64 {
        let mut packed = 0u64;
        for (i, s) in self.var_map.iter().enumerate() {
            if code & (1u64 << s.0) != 0 {
                packed |= 1u64 << i;
            }
        }
        packed
    }

    /// Evaluates `f↑` on a global state code.
    pub fn eval_up(&self, code: u64) -> bool {
        self.gate.up.eval(self.pack(code))
    }

    /// Evaluates `f↓` on a global state code.
    pub fn eval_down(&self, code: u64) -> bool {
        self.gate.down.eval(self.pack(code))
    }
}

/// A local STG under relaxation: the marked graph, the gate context, and
/// the arcs whose ordering has already been guaranteed by an emitted
/// constraint (keyed by label pairs so they survive sub-STG cloning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalStg {
    /// The marked-graph STG being rewritten.
    pub mg: MgStg,
    /// The gate this local environment belongs to. Immutable through the
    /// whole relaxation, and the loop clones the `LocalStg` once per trial
    /// — shared so those clones skip the gate covers.
    pub ctx: Arc<GateContext>,
    /// Arcs marked "guaranteed already" by a case-4 constraint.
    pub guaranteed: BTreeSet<(TransitionLabel, TransitionLabel)>,
}

impl LocalStg {
    /// Builds the local STG of `ctx`'s gate from one MG component by
    /// projection (Algorithm 1).
    ///
    /// # Errors
    ///
    /// Propagates projection errors.
    pub fn project_from(component: &MgStg, ctx: &GateContext) -> Result<Self, CoreError> {
        let fanin: Vec<SignalId> = ctx.fanin.clone();
        let mg = component.project_on_gate(ctx.output, &fanin)?;
        Ok(Self {
            mg,
            ctx: Arc::new(ctx.clone()),
            guaranteed: BTreeSet::new(),
        })
    }

    /// Classifies an arc of the local STG (thesis Sec. 5.3.1).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is dead.
    pub fn arc_type(&self, src: usize, dst: usize) -> ArcType {
        let a = self.mg.label(src);
        let b = self.mg.label(dst);
        if a.signal == b.signal {
            ArcType::SameSignal
        } else if b.signal == self.ctx.output {
            ArcType::InputToOutput
        } else if a.signal == self.ctx.output {
            ArcType::OutputToInput
        } else {
            ArcType::InputToInput
        }
    }

    /// The type-4 arcs still relying on the isochronic fork: input-to-input
    /// arcs that are neither restriction arcs nor already guaranteed.
    pub fn relaxable_arcs(&self) -> Vec<(usize, usize)> {
        self.mg
            .arcs()
            .filter(|&((a, b), attr)| {
                !attr.restriction
                    && self.arc_type(a, b) == ArcType::InputToInput
                    && !self
                        .guaranteed
                        .contains(&(self.mg.label(a), self.mg.label(b)))
            })
            .map(|(k, _)| k)
            .collect()
    }

    /// All type-4 arcs regardless of status (the Keller-et-al. baseline
    /// constraint set is exactly these, taken before any relaxation).
    pub fn input_to_input_arcs(&self) -> Vec<(usize, usize)> {
        self.mg
            .arcs()
            .filter(|&((a, b), _)| self.arc_type(a, b) == ArcType::InputToInput)
            .map(|(k, _)| k)
            .collect()
    }

    /// Marks the ordering of `src ⇒ dst` as guaranteed by a constraint.
    pub fn mark_guaranteed(&mut self, src: usize, dst: usize) {
        self.guaranteed
            .insert((self.mg.label(src), self.mg.label(dst)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_boolean::{parse_eqn, GateLibrary};
    use si_stg::parse_astg;

    fn imec() -> (Stg, GateLibrary) {
        let stg = parse_astg(si_stg::IMEC_RAM_READ_SBUF_G).expect("valid");
        let netlist = parse_eqn(
            "i0 = precharged + wenin';
ack = i0' + map0';
i2 = csc0' * map0';
wsen = wsldin' * i2';
i4 = wenin + req;
prnot = i4* precharged + i4 * prnot + precharged * prnot;
wen = req * prnotin;
wsld = wenin' * csc0';
i8 = req' * prnotin;
csc0 = i8' *wsldin + i8' * csc0;
map0 = wsldin' * csc0;
",
        )
        .expect("valid");
        (stg, GateLibrary::from_netlist(&netlist))
    }

    #[test]
    fn binds_gate_to_signal_table() {
        let (stg, lib) = imec();
        let gate = lib.gate("prnot").expect("exists");
        let ctx = GateContext::bind(gate, &stg).expect("valid");
        assert_eq!(stg.signal_name(ctx.output), "prnot");
        assert_eq!(ctx.fanin.len(), 2); // i4, precharged (feedback excluded)
    }

    #[test]
    fn eval_on_global_codes() {
        let (stg, lib) = imec();
        let gate = lib.gate("wen").expect("exists"); // wen = req * prnotin
        let ctx = GateContext::bind(gate, &stg).expect("valid");
        let req = stg.signal_by_name("req").expect("declared");
        let prnotin = stg.signal_by_name("prnotin").expect("declared");
        let code = (1u64 << req.0) | (1u64 << prnotin.0);
        assert!(ctx.eval_up(code));
        assert!(!ctx.eval_up(1u64 << req.0));
        assert!(ctx.eval_down(0));
    }

    #[test]
    fn unknown_signal_is_rejected() {
        let (stg, _) = imec();
        let netlist = parse_eqn("zz = nonexistent;").expect("valid");
        let lib = GateLibrary::from_netlist(&netlist);
        assert!(matches!(
            GateContext::bind(&lib.gates[0], &stg),
            Err(CoreError::UnknownSignal { .. })
        ));
    }

    #[test]
    fn redundant_literal_is_rejected() {
        let (stg, _) = imec();
        let netlist = parse_eqn("wen = req*prnotin + req;").expect("valid");
        let lib = GateLibrary::from_netlist(&netlist);
        assert!(matches!(
            GateContext::bind(&lib.gates[0], &stg),
            Err(CoreError::RedundantLiteral { .. })
        ));
    }

    #[test]
    fn arc_classification_on_projected_gate() {
        let (stg, lib) = imec();
        let gate = lib.gate("i0").expect("exists"); // i0 = precharged + wenin'
        let ctx = GateContext::bind(gate, &stg).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("no choice places");
        let local = LocalStg::project_from(&mg, &ctx).expect("projects");
        assert!(local.mg.is_live());
        assert!(local.mg.is_safe());
        // The thesis "before" list for i0 has two type-4 arcs:
        // precharged+ < wenin+ and wenin- < precharged+.
        let t4 = local.input_to_input_arcs();
        let rendered: BTreeSet<String> = t4
            .iter()
            .map(|&(a, b)| {
                format!(
                    "{} < {}",
                    local.mg.label_string(a),
                    local.mg.label_string(b)
                )
            })
            .collect();
        assert!(
            rendered.contains("precharged+ < wenin+"),
            "got {rendered:?}"
        );
        assert!(
            rendered.contains("wenin- < precharged+"),
            "got {rendered:?}"
        );
        assert_eq!(t4.len(), 2, "got {rendered:?}");
    }

    #[test]
    fn guaranteed_arcs_leave_relaxable_set() {
        let (stg, lib) = imec();
        let gate = lib.gate("i0").expect("exists");
        let ctx = GateContext::bind(gate, &stg).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("no choice places");
        let mut local = LocalStg::project_from(&mg, &ctx).expect("projects");
        let arcs = local.relaxable_arcs();
        assert_eq!(arcs.len(), 2);
        local.mark_guaranteed(arcs[0].0, arcs[0].1);
        assert_eq!(local.relaxable_arcs(), arcs[1..]);
    }
}
