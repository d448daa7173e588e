//! Counterexample extraction and Fig. 5-style formatting.

use alive_ir::Transform;
use alive_smt::{eval, Assignment, BvVal, TermPool, Value};
use alive_vcgen::TransformEnc;
use std::collections::BTreeMap;
use std::fmt;

/// Which correctness condition failed (paper §3.1.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// Condition 1: the target is undefined for inputs where the source is
    /// defined.
    Definedness,
    /// Condition 2: the target produces poison where the source does not.
    Poison,
    /// Condition 3: values differ.
    ValueMismatch,
    /// Condition 4: final memory states differ.
    MemoryMismatch,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Definedness => {
                write!(
                    f,
                    "Domain of definedness of Target is smaller than Source's"
                )
            }
            FailureKind::Poison => {
                write!(f, "Target introduces poison values absent from the Source")
            }
            FailureKind::ValueMismatch => write!(f, "Mismatch in values"),
            FailureKind::MemoryMismatch => write!(f, "Mismatch in final memory states"),
        }
    }
}

/// A concrete counterexample to a transformation, in the style of the
/// paper's Fig. 5.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Which condition failed.
    pub kind: FailureKind,
    /// The root register name.
    pub root: String,
    /// Width of the root value.
    pub root_width: u32,
    /// Input and constant values, in display order.
    pub bindings: Vec<(String, BvVal)>,
    /// Bytes of the initial memory the templates read, (address, byte)
    /// by address.
    pub memory: Vec<(BvVal, BvVal)>,
    /// Intermediate source values (register, value), in template order.
    pub intermediates: Vec<(String, BvVal)>,
    /// Value computed by the source root (when evaluable).
    pub source_value: Option<BvVal>,
    /// Value computed by the target root (when evaluable).
    pub target_value: Option<BvVal>,
    /// Summary of the type assignment under which the bug manifests.
    pub typing_summary: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ERROR: {} of i{} %{}",
            self.kind, self.root_width, self.root
        )?;
        writeln!(f, "Example:")?;
        for (name, v) in &self.bindings {
            writeln!(f, "{} i{} = {}", name, v.width(), v)?;
        }
        for (addr, byte) in &self.memory {
            let digits = addr.width().div_ceil(4) as usize;
            writeln!(f, "m0[0x{:0digits$X}] i8 = {byte}", addr.to_unsigned())?;
        }
        for (name, v) in &self.intermediates {
            writeln!(f, "%{} i{} = {}", name, v.width(), v)?;
        }
        match (self.source_value, self.target_value) {
            (Some(s), Some(t)) => {
                writeln!(f, "Source value: {s}")?;
                writeln!(f, "Target value: {t}")?;
            }
            (Some(s), None) => {
                writeln!(f, "Source value: {s}")?;
                writeln!(f, "Target value: (undefined or poison)")?;
            }
            _ => {}
        }
        Ok(())
    }
}

/// Builds a [`Counterexample`] from a model of the negated VC.
///
/// `model` binds the existential variables (inputs, constants, analysis
/// booleans, initial-memory bytes, target undefs); source undef variables
/// are completed with zero, which is a valid instantiation because the
/// violated condition is universally quantified over them.
pub fn build_counterexample(
    pool: &TermPool,
    t: &Transform,
    enc: &TransformEnc,
    model: &Assignment,
    kind: FailureKind,
    typing_summary: String,
) -> Counterexample {
    // Complete the model: all source/target undefs and any unbound inputs
    // default to zero.
    let mut env = model.clone();
    for &u in enc.src.undefs.iter().chain(&enc.tgt.undefs) {
        if env.get(u).is_none() {
            env.set(u, BvVal::zero(pool.width(u)));
        }
    }
    let bytes = enc.base_mem.reads().iter().map(|(_, byte)| byte);
    for &v in enc.inputs.values().chain(enc.consts.values()).chain(bytes) {
        if env.get(v).is_none() {
            env.set(v, BvVal::zero(pool.width(v)));
        }
    }
    for &p in &enc.pre_aux {
        if env.get(p).is_none() {
            env.set(p, true);
        }
    }

    // Stable display order: inputs (as used), then constants.
    let mut bindings: Vec<(String, BvVal)> = Vec::new();
    let mut ordered: BTreeMap<String, BvVal> = BTreeMap::new();
    for (name, &term) in &enc.inputs {
        if let Some(Value::Bv(v)) = env.get(term) {
            ordered.insert(format!("%{name}"), v);
        }
    }
    for (name, &term) in &enc.consts {
        if let Some(Value::Bv(v)) = env.get(term) {
            ordered.insert(name.clone(), v);
        }
    }
    bindings.extend(ordered);

    // The initial memory at each address read; equal addresses hold equal
    // bytes (the consistency constraints), so one row per address.
    let mut memory: BTreeMap<u128, (BvVal, BvVal)> = BTreeMap::new();
    for &(addr, byte) in enc.base_mem.reads() {
        if let (Ok(Value::Bv(a)), Ok(Value::Bv(b))) =
            (eval(pool, addr, &env), eval(pool, byte, &env))
        {
            memory.entry(a.to_unsigned()).or_insert((a, b));
        }
    }

    // Intermediate source values in template order (excluding the root).
    let root = t.root().to_string();
    let mut intermediates = Vec::new();
    for stmt in &t.source {
        let Some(name) = &stmt.name else { continue };
        if *name == root {
            continue;
        }
        if let Some(&term) = enc.src.values.get(name) {
            if let Ok(Value::Bv(v)) = eval(pool, term, &env) {
                intermediates.push((name.clone(), v));
            }
        }
    }

    let source_value = enc
        .src
        .values
        .get(&root)
        .and_then(|&term| match eval(pool, term, &env) {
            Ok(Value::Bv(v)) => Some(v),
            _ => None,
        });
    let target_value = enc
        .tgt
        .values
        .get(&root)
        .and_then(|&term| match eval(pool, term, &env) {
            Ok(Value::Bv(v)) => Some(v),
            _ => None,
        });

    let root_width = source_value
        .map(|v| v.width())
        .or(target_value.map(|v| v.width()))
        .unwrap_or_else(|| {
            enc.src
                .values
                .get(&root)
                .map(|&t| pool.width(t))
                .unwrap_or(0)
        });

    Counterexample {
        kind,
        root,
        root_width,
        bindings,
        memory: memory.into_values().collect(),
        intermediates,
        source_value,
        target_value,
        typing_summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_figure5_shape() {
        let cex = Counterexample {
            kind: FailureKind::ValueMismatch,
            root: "r".into(),
            root_width: 4,
            bindings: vec![
                ("%X".into(), BvVal::new(4, 0xF)),
                ("C1".into(), BvVal::new(4, 0x3)),
                ("C2".into(), BvVal::new(4, 0x8)),
            ],
            memory: vec![(BvVal::new(64, 0x1_0000_0001), BvVal::new(8, 0x80))],
            intermediates: vec![("s".into(), BvVal::new(4, 0x8))],
            source_value: Some(BvVal::new(4, 0x1)),
            target_value: Some(BvVal::new(4, 0xF)),
            typing_summary: "%r:i4".into(),
        };
        let s = cex.to_string();
        assert!(s.contains("ERROR: Mismatch in values of i4 %r"), "{s}");
        assert!(s.contains("%X i4 = 0xF (15, -1)"), "{s}");
        assert!(s.contains("C1 i4 = 0x3 (3)"), "{s}");
        assert!(
            s.contains("m0[0x0000000100000001] i8 = 0x80 (128, -128)"),
            "{s}"
        );
        assert!(s.contains("%s i4 = 0x8 (8, -8)"), "{s}");
        assert!(s.contains("Source value: 0x1 (1)"), "{s}");
        assert!(s.contains("Target value: 0xF (15, -1)"), "{s}");
    }
}
