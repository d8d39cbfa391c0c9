//! Seeded corpus: the paper's Table 3 programs with two tracepoints and two
//! assertions each, their one-gate revision streams, and the per-workload
//! job plans built from them.
//!
//! Every program comes from a finite pool indexed by small integers, so the
//! expected verdict of every job can be pinned once (see `expected.json`);
//! the workload seed only chooses pool members and their order. Pool
//! members of one class share a width and a shape, so a class costs about
//! the same whichever members a seed picks.

use morph_qalgo::{inject_phase_bug, Benchmark};
use morph_qprog::{write_program, Circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The qubit that carries the program input (`--inputs 0`, `input_qubits: [0]`).
pub const INPUT_QUBIT: usize = 0;

/// The two assertions every program carries: the first is refuted when
/// `T 2` is a strict part of an entangled register, the second holds for
/// every program because `T 1` records the input before any gate acts.
pub const ASSERTIONS: [&str; 2] = [
    "assume is_pure(T1) guarantee is_pure(T2)",
    "guarantee equal(in, T1)",
];

/// Which qubits `T 2` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The last two qubits of the register.
    Pair,
    /// The whole register.
    Full,
}

/// One program class: a Table 3 benchmark at a fixed width and `T 2` scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    /// The benchmark program.
    pub bench: Benchmark,
    /// Register width.
    pub qubits: usize,
    /// `T 2` scope.
    pub scope: Scope,
}

impl Class {
    /// Short label, e.g. `XEB-16` or `QNN-7`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.bench.name(), self.qubits)
    }

    /// The uninstrumented program body of pool member `variant`. Members
    /// differ only in the benchmark's random parameters (QNN weights, XEB
    /// gates, lock key); deterministic benchmarks have one body.
    pub fn body(&self, variant: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 ^ variant);
        self.bench.circuit(self.qubits, &mut rng)
    }

    /// `body` with `T 1` on the input qubit before it and `T 2` after it.
    pub fn instrument(&self, body: &Circuit) -> Circuit {
        let n = body.n_qubits();
        let mut c = Circuit::with_cbits(n, body.n_cbits());
        c.tracepoint(1, &[INPUT_QUBIT]);
        c.extend_from(body);
        let tail: Vec<usize> = match self.scope {
            Scope::Pair => vec![n - 2, n - 1],
            Scope::Full => (0..n).collect(),
        };
        c.tracepoint(2, &tail);
        c
    }
}

/// Renders an instrumented circuit as program text with its `// assert`
/// lines.
///
/// # Panics
///
/// Panics if the circuit holds a gate the surface syntax cannot express
/// (no Table 3 benchmark does).
pub fn render(circuit: &Circuit) -> String {
    let mut text = write_program(circuit).expect("Table 3 programs are representable");
    for a in ASSERTIONS {
        text.push_str("// assert ");
        text.push_str(a);
        text.push('\n');
    }
    text
}

/// The program text of pool member `variant` of `class`, after `revision`
/// cumulative one-gate phase-bug edits (revision 0 is the clean program).
/// Edits land in the body, between the two tracepoints.
pub fn program(class: &Class, variant: u64, revision: usize) -> String {
    let mut body = class.body(variant);
    let mut rng = StdRng::seed_from_u64(0xed17_0000 ^ variant);
    for _ in 0..revision {
        body = inject_phase_bug(&body, &mut rng).0;
    }
    render(&class.instrument(&body))
}

/// A deterministic Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}
