//! The seeded synthetic circuit generator.
//!
//! A [`CorpusSpec`] describes a *family* of speed-independent control
//! circuits; [`generate`] maps `(spec, seed)` deterministically onto one
//! member: valid `.g` text plus the strict-parsed [`Stg`]. Circuits are
//! built from **bursts** — per-signal rising/falling transition pairs
//! arranged in fork–join stages on a single circulating token — so every
//! generated specification is live, 1-safe, consistent and free-choice
//! *by construction*:
//!
//! - each burst opens with a singleton guard transition `g+` and (when a
//!   clean exit is needed) closes with a singleton `x-`; consecutive
//!   stages are connected full-bipartite, so the token cloud rejoins
//!   before the next stage;
//! - with `choices > 0`, an explicit marked place `p0` fans out to
//!   `choices + 1` bursts over disjoint signal sets (the guards are
//!   inputs: the environment resolves the choice), each returning its
//!   token to `p0`;
//! - with `or_density > 0`, branch exits may instead route through a
//!   merge place into a shared *tail* burst (OR-causality: the tail fires
//!   after whichever branch ran), which returns the token to `p0`.
//!
//! In the default two-phase mode (`interleave = false`) every burst
//! raises all its signals before lowering any, with the guard signal
//! first in both phases — which additionally makes the circuit CSC-clean
//! (state codes inside a burst are distinct, and the all-zero codes at
//! the choice/merge places only ever excite input guards). With
//! `interleave = true` the rising and falling sequences are randomly
//! interleaved instead: still consistent, but CSC conflicts are allowed —
//! extra diversity for the differential fuzzer, where circuits that fail
//! synthesis are simply skipped.
//!
//! The guarantee tested in `tests/generator.rs`: every generated circuit
//! strict-parses ([`si_stg::parse_astg`]) and lints with **zero errors**.

use std::fmt;

use si_stg::{parse_astg, SignalKind, Stg};

use crate::rng::CorpusRng;

/// How the initial marking is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkingStyle {
    /// Tokens live on implicit closing arcs: `.marking { <x-,g+> }`.
    ImplicitArcs,
    /// One explicit marked place `p0` closes the cycle: `.marking { p0 }`.
    /// Forced whenever `choices > 0` (the choice place must be explicit).
    ExplicitPlace,
}

impl fmt::Display for MarkingStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MarkingStyle::ImplicitArcs => "arcs",
            MarkingStyle::ExplicitPlace => "place",
        })
    }
}

/// Parameters of one synthetic circuit family. See the module docs for
/// the construction; [`CorpusSpec::sanitized`] for the clamping rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Total signal count across all bursts (clamped to `2..=24`).
    pub signals: usize,
    /// Extra choice branches: `0` yields a pure marked graph, `k > 0`
    /// yields `k + 1` alternative bursts behind an explicit choice place
    /// (clamped to `0..=3`, and to `signals - 1`).
    pub choices: usize,
    /// Probability (percent) that a choice branch routes its token
    /// through the shared OR-causality tail instead of straight back to
    /// the choice place. Ignored when `choices == 0`.
    pub or_density: u8,
    /// Maximum concurrent transitions per fork stage (clamped to `1..=4`).
    pub max_fork: usize,
    /// `false`: two-phase bursts (rise-all-then-fall-all; CSC-clean).
    /// `true`: random rise/fall interleaving (consistent, CSC not
    /// guaranteed).
    pub interleave: bool,
    /// Marking style; forced to [`MarkingStyle::ExplicitPlace`] when
    /// `choices > 0`.
    pub marking: MarkingStyle,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            signals: 6,
            choices: 0,
            or_density: 0,
            max_fork: 2,
            interleave: false,
            marking: MarkingStyle::ImplicitArcs,
        }
    }
}

impl CorpusSpec {
    /// Clamps every field into the supported envelope; [`generate`]
    /// applies this first, so equal sanitized specs generate equal
    /// circuits.
    #[must_use]
    pub fn sanitized(&self) -> CorpusSpec {
        let signals = self.signals.clamp(2, 24);
        let choices = self.choices.min(3).min(signals - 1);
        let marking = if choices > 0 {
            MarkingStyle::ExplicitPlace
        } else {
            self.marking
        };
        CorpusSpec {
            signals,
            choices,
            or_density: self.or_density.min(100),
            max_fork: self.max_fork.clamp(1, 4),
            interleave: self.interleave,
            marking,
        }
    }

    /// The canonical seed → spec derivation used by `si_fuzz`, perfbench
    /// and `check_hazard --bench corpus:<seed>`: the spec itself is drawn
    /// from the seed (on a stream distinct from [`generate`]'s), biased
    /// towards pure marked graphs and two-phase bursts, with signal count
    /// in `2..=max_signals`.
    #[must_use]
    pub fn from_seed(seed: u64, max_signals: usize) -> CorpusSpec {
        let mut rng = CorpusRng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
        let hi = max_signals.clamp(2, 24);
        let signals = rng.range(2, hi);
        let choices = match rng.below(0, 8) {
            0..=3 => 0,
            4 | 5 => 1,
            6 => 2,
            _ => 3,
        };
        let or_density = [0, 0, 30, 60, 100][rng.range(0, 4)];
        let max_fork = rng.range(1, 3);
        let interleave = rng.chance(20);
        let marking = if rng.chance(50) {
            MarkingStyle::ImplicitArcs
        } else {
            MarkingStyle::ExplicitPlace
        };
        CorpusSpec {
            signals,
            choices,
            or_density,
            max_fork,
            interleave,
            marking,
        }
        .sanitized()
    }
}

/// A `(seed, spec)` pair, printed/parsed in the one-line reproducer
/// format `si_fuzz` emits on divergence:
///
/// ```text
/// seed=42 signals=7 choices=1 or=60 fork=3 interleave=0 marking=place
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reproducer {
    /// The generator seed.
    pub seed: u64,
    /// The (possibly minimized, hence explicit) spec.
    pub spec: CorpusSpec,
}

impl fmt::Display for Reproducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.spec;
        write!(
            f,
            "seed={} signals={} choices={} or={} fork={} interleave={} marking={}",
            self.seed,
            s.signals,
            s.choices,
            s.or_density,
            s.max_fork,
            u8::from(s.interleave),
            s.marking
        )
    }
}

impl std::str::FromStr for Reproducer {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut seed = None;
        let mut spec = CorpusSpec::default();
        for field in s.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{field}`"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("`{key}` expects a number, got `{value}`"))
            };
            match key {
                "seed" => seed = Some(num()?),
                "signals" => spec.signals = num()? as usize,
                "choices" => spec.choices = num()? as usize,
                "or" => spec.or_density = num()?.min(100) as u8,
                "fork" => spec.max_fork = num()? as usize,
                "interleave" => spec.interleave = num()? != 0,
                "marking" => {
                    spec.marking = match value {
                        "arcs" => MarkingStyle::ImplicitArcs,
                        "place" => MarkingStyle::ExplicitPlace,
                        other => return Err(format!("unknown marking style `{other}`")),
                    }
                }
                other => return Err(format!("unknown reproducer field `{other}`")),
            }
        }
        Ok(Reproducer {
            seed: seed.ok_or("reproducer is missing `seed=`")?,
            spec: spec.sanitized(),
        })
    }
}

/// One generated circuit: the `.g` source, its strict parse, and the
/// provenance needed to regenerate it.
#[derive(Debug, Clone)]
pub struct GeneratedCircuit {
    /// The circuit (and `.model`) name.
    pub name: String,
    /// The generator seed.
    pub seed: u64,
    /// The sanitized spec the circuit was drawn from.
    pub spec: CorpusSpec,
    /// The emitted `.g` text.
    pub g_text: String,
    /// `parse_astg(&g_text)` — generation fails loudly if the emitted
    /// text ever fails the strict parser.
    pub stg: Stg,
}

/// The default circuit name for a seed: `corpus-<seed in hex>`.
#[must_use]
pub fn corpus_name(seed: u64) -> String {
    format!("corpus-{seed:08x}")
}

/// Generates the circuit for `(spec, seed)` under the default name.
/// Deterministic: equal sanitized specs and seeds yield byte-identical
/// `.g` text on every platform.
#[must_use]
pub fn generate(spec: &CorpusSpec, seed: u64) -> GeneratedCircuit {
    generate_named(spec, seed, &corpus_name(seed))
}

/// One transition: signal index plus polarity (`true` = rising).
type Tr = (usize, bool);

/// [`generate`] under an explicit circuit name.
///
/// # Panics
///
/// Only on an internal generator bug (emitted text failing the strict
/// parser) — the property suite pins this never happening.
#[must_use]
pub fn generate_named(spec: &CorpusSpec, seed: u64, name: &str) -> GeneratedCircuit {
    let spec = spec.sanitized();
    let mut rng = CorpusRng::new(seed);
    let branches = spec.choices + 1;
    let choice_mode = spec.choices > 0;

    // OR-causality routing: each branch independently decides whether its
    // token returns via the shared tail burst. The tail burst exists (and
    // claims a signal) iff at least one branch routes through it.
    let mut via_tail = vec![false; branches];
    if choice_mode && spec.signals > branches {
        for flag in &mut via_tail {
            *flag = rng.chance(spec.or_density);
        }
    }
    let use_tail = via_tail.iter().any(|&f| f);
    let burst_count = branches + usize::from(use_tail);

    // Partition the signal indices into bursts, one guard each, spreading
    // the remainder uniformly.
    let mut sizes = vec![1usize; burst_count];
    for _ in 0..spec.signals - burst_count {
        let b = rng.range(0, burst_count - 1);
        sizes[b] += 1;
    }
    let mut bursts: Vec<Vec<usize>> = Vec::with_capacity(burst_count);
    let mut next = 0usize;
    for &size in &sizes {
        bursts.push((next..next + size).collect());
        next += size;
    }

    // Signal kinds: burst guards are inputs whenever a choice place is
    // involved (the environment resolves choices and triggers the
    // OR-caused tail — this is also what keeps the two-phase mode
    // CSC-clean across the all-zero-code place states). At least one
    // non-guard signal becomes an output so the circuit has a gate.
    let mut kinds = vec![SignalKind::Input; spec.signals];
    for burst in &bursts {
        for (j, &s) in burst.iter().enumerate() {
            kinds[s] = if j == 0 && choice_mode {
                SignalKind::Input
            } else {
                match rng.below(0, 100) {
                    0..=44 => SignalKind::Input,
                    45..=89 => SignalKind::Output,
                    _ => SignalKind::Internal,
                }
            };
        }
    }
    if !kinds.contains(&SignalKind::Output) {
        let guard_exempt = |s: usize| !choice_mode || bursts.iter().all(|b| b[0] != s);
        if let Some(s) = (0..spec.signals).rev().find(|&s| guard_exempt(s)) {
            kinds[s] = SignalKind::Output;
        }
    }

    // Names by kind, in index order: i0…, o0…, u0… (places are p0/p1).
    let mut names = Vec::with_capacity(spec.signals);
    let (mut ni, mut no, mut nu) = (0usize, 0usize, 0usize);
    for &kind in &kinds {
        names.push(match kind {
            SignalKind::Input => {
                ni += 1;
                format!("i{}", ni - 1)
            }
            SignalKind::Output => {
                no += 1;
                format!("o{}", no - 1)
            }
            SignalKind::Internal => {
                nu += 1;
                format!("u{}", nu - 1)
            }
        });
    }
    let tname = |(s, plus): Tr| format!("{}{}", names[s], if plus { '+' } else { '-' });

    // Bursts need a singleton exit transition whenever the token funnels
    // into an explicit place.
    let singleton_exit = choice_mode || spec.marking == MarkingStyle::ExplicitPlace;
    let mut entries: Vec<Tr> = Vec::with_capacity(burst_count);
    let mut exits: Vec<Vec<Tr>> = Vec::with_capacity(burst_count);

    // Arc lines in emission order: `src dst1 dst2 …`, one line per source.
    let mut lines: Vec<(String, Vec<String>)> = Vec::new();
    let add_arc = |lines: &mut Vec<(String, Vec<String>)>, src: String, dst: String| {
        if let Some((_, dsts)) = lines.iter_mut().rev().find(|(s, _)| *s == src) {
            dsts.push(dst);
        } else {
            lines.push((src, vec![dst]));
        }
    };

    for burst in &bursts {
        let stages = build_stages(burst, &spec, singleton_exit, &mut rng);
        for w in 0..stages.len() - 1 {
            for &t in &stages[w] {
                for &u in &stages[w + 1] {
                    add_arc(&mut lines, tname(t), tname(u));
                }
            }
        }
        entries.push(stages[0][0]);
        exits.push(stages.last().expect("at least two stages").clone());
    }

    // Close the cycle.
    let mut markings: Vec<String> = Vec::new();
    if choice_mode {
        for (b, &exit) in exits.iter().take(branches).map(|e| &e[0]).enumerate() {
            let place = if via_tail[b] { "p1" } else { "p0" };
            add_arc(&mut lines, tname(exit), place.to_string());
        }
        if use_tail {
            add_arc(&mut lines, tname(exits[branches][0]), "p0".to_string());
            add_arc(&mut lines, "p1".to_string(), tname(entries[branches]));
        }
        for &entry in entries.iter().take(branches) {
            add_arc(&mut lines, "p0".to_string(), tname(entry));
        }
        markings.push("p0".to_string());
    } else {
        let entry = entries[0];
        match spec.marking {
            MarkingStyle::ImplicitArcs => {
                for &exit in &exits[0] {
                    add_arc(&mut lines, tname(exit), tname(entry));
                    markings.push(format!("<{},{}>", tname(exit), tname(entry)));
                }
            }
            MarkingStyle::ExplicitPlace => {
                add_arc(&mut lines, tname(exits[0][0]), "p0".to_string());
                add_arc(&mut lines, "p0".to_string(), tname(entry));
                markings.push("p0".to_string());
            }
        }
    }

    // Emit.
    let mut text = String::new();
    text.push_str(&format!(".model {name}\n"));
    for (section, kind) in [
        (".inputs", SignalKind::Input),
        (".outputs", SignalKind::Output),
        (".internal", SignalKind::Internal),
    ] {
        let of_kind: Vec<&str> = (0..spec.signals)
            .filter(|&s| kinds[s] == kind)
            .map(|s| names[s].as_str())
            .collect();
        if !of_kind.is_empty() {
            text.push_str(&format!("{section} {}\n", of_kind.join(" ")));
        }
    }
    text.push_str(".graph\n");
    for (src, dsts) in &lines {
        text.push_str(&format!("{src} {}\n", dsts.join(" ")));
    }
    text.push_str(&format!(".marking {{ {} }}\n.end\n", markings.join(" ")));

    let stg = parse_astg(&text).unwrap_or_else(|e| {
        panic!(
            "si-corpus internal error: generated circuit failed the strict parser\n\
             reproducer: {}\nerror: {e}\n--- emitted .g ---\n{text}",
            Reproducer { seed, spec }
        )
    });
    GeneratedCircuit {
        name: name.to_string(),
        seed,
        spec,
        g_text: text,
        stg,
    }
}

/// Lays one burst's transitions out in fork–join stages. The first stage
/// is always the singleton guard `g+`; in two-phase mode all rising
/// stages precede all falling stages and `g-` opens the falling half; in
/// interleave mode rising and falling transitions are merged randomly
/// (each signal's `+` strictly before its `-`, never both in one stage).
/// With `singleton_exit` the last stage holds exactly one transition.
fn build_stages(
    burst: &[usize],
    spec: &CorpusSpec,
    singleton_exit: bool,
    rng: &mut CorpusRng,
) -> Vec<Vec<Tr>> {
    let guard = burst[0];
    let mut rising: Vec<usize> = burst[1..].to_vec();
    let mut falling: Vec<usize> = burst[1..].to_vec();
    rng.shuffle(&mut rising);
    rng.shuffle(&mut falling);

    if spec.interleave {
        // Merge the rising and falling orders; a signal may fall as soon
        // as it has risen. The guard rises first and some signal
        // necessarily falls last.
        let rising: Vec<usize> = std::iter::once(guard).chain(rising).collect();
        let falling: Vec<usize> = std::iter::once(guard).chain(falling).collect();
        let mut seq: Vec<Tr> = Vec::with_capacity(2 * rising.len());
        let mut risen = vec![false; spec.signals];
        let (mut ri, mut fi) = (0usize, 0usize);
        while ri < rising.len() || fi < falling.len() {
            let can_fall = fi < falling.len() && risen[falling[fi]];
            let can_rise = ri < rising.len();
            if can_rise && (!can_fall || rng.chance(55)) {
                risen[rising[ri]] = true;
                seq.push((rising[ri], true));
                ri += 1;
            } else {
                seq.push((falling[fi], false));
                fi += 1;
            }
        }
        let exit = seq.pop().expect("non-empty burst");
        let first = seq.remove(0);
        let mut stages = vec![vec![first]];
        stages.extend(partition(&seq, spec.max_fork, true, rng));
        stages.push(vec![exit]);
        stages
    } else {
        let mut stages = vec![vec![(guard, true)]];
        let rising: Vec<Tr> = rising.into_iter().map(|s| (s, true)).collect();
        stages.extend(partition(&rising, spec.max_fork, false, rng));
        stages.push(vec![(guard, false)]);
        let mut falling: Vec<Tr> = falling.into_iter().map(|s| (s, false)).collect();
        if singleton_exit && !falling.is_empty() {
            let exit = falling.pop().expect("non-empty");
            stages.extend(partition(&falling, spec.max_fork, false, rng));
            stages.push(vec![exit]);
        } else {
            stages.extend(partition(&falling, spec.max_fork, false, rng));
        }
        stages
    }
}

/// Greedily cuts `items` into stages of random width `1..=max_fork`; with
/// `split_signals` a stage never holds both polarities of one signal.
fn partition(
    items: &[Tr],
    max_fork: usize,
    split_signals: bool,
    rng: &mut CorpusRng,
) -> Vec<Vec<Tr>> {
    let mut stages = Vec::new();
    let mut i = 0;
    while i < items.len() {
        let width = rng.range(1, max_fork);
        let mut stage: Vec<Tr> = Vec::with_capacity(width);
        while stage.len() < width && i < items.len() {
            let t = items[i];
            if split_signals && stage.iter().any(|&(s, _)| s == t.0) {
                break;
            }
            stage.push(t);
            i += 1;
        }
        stages.push(stage);
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = CorpusSpec {
            signals: 9,
            choices: 2,
            or_density: 60,
            max_fork: 3,
            ..CorpusSpec::default()
        };
        let a = generate(&spec, 1234);
        let b = generate(&spec, 1234);
        assert_eq!(a.g_text, b.g_text);
        assert_eq!(a.stg, b.stg);
        // A different seed changes the circuit (with overwhelming
        // probability for this family).
        let c = generate(&spec, 1235);
        assert_ne!(a.g_text, c.g_text);
    }

    #[test]
    fn sanitization_clamps_and_forces_the_choice_place() {
        let wild = CorpusSpec {
            signals: 1000,
            choices: 99,
            or_density: 255,
            max_fork: 0,
            interleave: false,
            marking: MarkingStyle::ImplicitArcs,
        };
        let spec = wild.sanitized();
        assert_eq!(spec.signals, 24);
        assert_eq!(spec.choices, 3);
        assert_eq!(spec.or_density, 100);
        assert_eq!(spec.max_fork, 1);
        assert_eq!(spec.marking, MarkingStyle::ExplicitPlace);
    }

    #[test]
    fn reproducers_round_trip() {
        for seed in [0u64, 7, 0xdead_beef] {
            let spec = CorpusSpec::from_seed(seed, 12);
            let repro = Reproducer { seed, spec };
            let parsed: Reproducer = repro.to_string().parse().expect("parses");
            assert_eq!(parsed, repro);
        }
        assert!("signals=3".parse::<Reproducer>().is_err());
        assert!("seed=1 marking=banana".parse::<Reproducer>().is_err());
    }

    #[test]
    fn a_choice_circuit_has_the_explicit_choice_place() {
        let spec = CorpusSpec {
            signals: 8,
            choices: 1,
            ..CorpusSpec::default()
        };
        let c = generate(&spec, 5);
        assert!(c.g_text.contains("p0 "));
        assert!(c.g_text.contains(".marking { p0 }"));
    }
}
