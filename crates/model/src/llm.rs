//! The simulated language model (`SimLlm`).
//!
//! Replaces GPT-4o in every role the paper uses it for: ambiguity review,
//! keyword generation, text scoring, semantic critique, and repair hints.
//! All outputs are deterministic functions of the inputs and the seed; an
//! optional *fault plan* injects the systematic mistakes (e.g. a reversed
//! scoring direction) the critic/repair loops must catch (§4, §5).

use crate::{KnowledgeBase, TokenMeter};
use kath_vector::{cosine, fnv1a, Embedding, TextEmbedder};

/// A clarification question raised by the reviewer agent (§5).
#[derive(Debug, Clone, PartialEq)]
pub struct Clarification {
    /// The ambiguous/subjective term.
    pub term: String,
    /// The focused question shown to the user.
    pub question: String,
}

/// A critic verdict about a function's outputs (§4).
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Output plausibly matches the node description.
    Plausible,
    /// Output contradicts the description; hint tells the coder what to fix.
    Mismatch {
        /// Corrective hint returned to the coder.
        hint: String,
    },
}

/// Deliberate model faults, injectable for tests and benches.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Generate score functions with the direction reversed (the paper's
    /// example: recency scoring that favours *older* movies, §4).
    pub reversed_scores: bool,
    /// Assume one-to-one media↔row correspondence in joins (the paper's
    /// semantic-anomaly example, §5).
    pub assume_one_to_one: bool,
}

/// The simulated LLM.
#[derive(Debug, Clone)]
pub struct SimLlm {
    kb: KnowledgeBase,
    embedder: TextEmbedder,
    meter: TokenMeter,
    seed: u64,
    /// Injected systematic faults.
    pub faults: FaultPlan,
}

impl SimLlm {
    /// Builds a model over the standard knowledge base.
    pub fn new(seed: u64, meter: TokenMeter) -> Self {
        let kb = KnowledgeBase::new();
        let embedder = TextEmbedder::new(kb.lexicon().clone(), seed);
        Self {
            kb,
            embedder,
            meter,
            seed,
            faults: FaultPlan::default(),
        }
    }

    /// The knowledge base.
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The shared token meter.
    pub fn meter(&self) -> &TokenMeter {
        &self.meter
    }

    /// The text embedder (same lexicon as the knowledge base).
    pub fn embedder(&self) -> &TextEmbedder {
        &self.embedder
    }

    /// Seed (used to derive per-call determinism).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Reviewer-agent pass: "Look for ambiguous terms or subjective words…"
    /// (§5). Returns a focused question for the *first* unresolved
    /// subjective term, or `None` when the query maps to a single
    /// interpretation. `resolved` lists terms the user already clarified.
    pub fn detect_ambiguity(&self, query: &str, resolved: &[String]) -> Option<Clarification> {
        let found = self
            .kb
            .subjective_terms_in(query)
            .into_iter()
            .find(|t| !resolved.contains(t));
        let out = found.map(|term| {
            let question = format!("What does '{term}' mean in this context?");
            Clarification { term, question }
        });
        let completion = out
            .as_ref()
            .map(|c| c.question.clone())
            .unwrap_or_else(|| "no ambiguity detected".to_string());
        self.meter.charge(query, &completion);
        out
    }

    /// Expands a clarified concept into a keyword list (§6 step 4's
    /// "LLM generates the keyword list here").
    pub fn generate_keywords(&self, clarification: &str) -> Vec<String> {
        let kws = self.kb.keywords_for(clarification);
        self.meter.charge(clarification, &kws.join(" "));
        kws
    }

    /// Scores how strongly `text` evokes the concept captured by `keywords`
    /// using embedding similarity, in `[0,1]`. This is the body of
    /// `gen_excitement_score` (§6 step 4): embed keywords, embed text
    /// entities, aggregate similarity. Scoring many texts against the same
    /// keywords should go through one [`SimLlm::concept_scorer`].
    pub fn concept_score(&self, text: &str, keywords: &[String]) -> f64 {
        self.concept_scorer(keywords).score(text)
    }

    /// Prepares [`SimLlm::concept_score`] for one keyword list: the keywords
    /// are embedded once. Preparing charges nothing; each
    /// [`ConceptScorer::score`] charges the meter exactly as
    /// `concept_score` does.
    pub fn concept_scorer(&self, keywords: &[String]) -> ConceptScorer {
        ConceptScorer {
            keywords: keywords.iter().map(|k| self.embedder.embed(k)).collect(),
            embedder: self.embedder.clone(),
            meter: self.meter.clone(),
        }
    }

    /// Critic pass over a score column (§4): checks that the produced scores
    /// run in the direction the description asks for. `samples` are
    /// `(feature, score)` pairs, e.g. `(release_year, recency_score)`.
    pub fn critique_monotonic(&self, description: &str, samples: &[(f64, f64)]) -> Verdict {
        self.meter.charge(description, "verdict");
        if samples.len() < 2 {
            return Verdict::Plausible;
        }
        // Kendall-style concordance between feature and score.
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        for i in 0..samples.len() {
            for j in (i + 1)..samples.len() {
                let df = samples[i].0 - samples[j].0;
                let ds = samples[i].1 - samples[j].1;
                if df == 0.0 || ds == 0.0 {
                    continue;
                }
                if (df > 0.0) == (ds > 0.0) {
                    concordant += 1;
                } else {
                    discordant += 1;
                }
            }
        }
        let wants_increasing = !description.to_lowercase().contains("older")
            && !description.to_lowercase().contains("reverse");
        let increasing = concordant >= discordant;
        if increasing == wants_increasing {
            Verdict::Plausible
        } else {
            Verdict::Mismatch {
                hint: format!(
                    "scores run in the wrong direction for '{}': flip the scoring \
                     so that larger inputs get {} scores",
                    description.trim(),
                    if wants_increasing {
                        "larger"
                    } else {
                        "smaller"
                    }
                ),
            }
        }
    }

    /// Diagnoses a runtime exception and proposes a repair action (the
    /// reviewer half of the two-agent repair loop, §5). Deterministic
    /// pattern match over the stack-trace text, as an LLM prompt would be.
    pub fn diagnose_exception(&self, error_text: &str) -> String {
        self.meter.charge(error_text, "diagnosis");
        let lower = error_text.to_lowercase();
        if lower.contains("unsupported file format") || lower.contains("heic") {
            "input media is in an unsupported container format; add a conversion \
             step to a cv2-compatible format before decoding"
                .to_string()
        } else if lower.contains("division by zero") {
            "guard the denominator against zero before dividing".to_string()
        } else if lower.contains("unknown column") {
            "the function references a column missing from its input schema; \
             re-read the catalog schema and fix the column name"
                .to_string()
        } else {
            format!("inspect and handle: {error_text}")
        }
    }

    /// Explains a likely cause for a semantic anomaly (§5's example: a
    /// similarity join matching one poster to several movies).
    pub fn explain_anomaly(&self, anomaly: &str) -> String {
        self.meter.charge(anomaly, "explanation");
        if anomaly.contains("multiple") || anomaly.contains("fan-out") {
            "the model may have implicitly assumed a one-to-one correspondence \
             between poster images and tuples in the movie table, an assumption \
             that does not hold in practice and produces spurious matches"
                .to_string()
        } else {
            format!("possible mismatch with user intent: {anomaly}")
        }
    }

    /// Deterministic pseudo-randomness derived from the seed and a context
    /// string; lets callers add reproducible noise.
    pub fn noise(&self, context: &str) -> f64 {
        let h = fnv1a(context.as_bytes()) ^ self.seed;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// [`SimLlm::concept_score`] prepared for one keyword list (see
/// [`SimLlm::concept_scorer`]). Scores are bit-identical to scoring each
/// text on its own: the keyword embeddings are the ones `concept_score`
/// would compute for every text.
#[derive(Debug)]
pub struct ConceptScorer {
    embedder: TextEmbedder,
    meter: TokenMeter,
    keywords: Vec<Embedding>,
}

impl ConceptScorer {
    /// Scores `text` against the prepared keywords, in `[0,1]`, and charges
    /// one model call.
    pub fn score(&self, text: &str) -> f64 {
        if self.keywords.is_empty() || text.trim().is_empty() {
            self.meter.charge(text, "0");
            return 0.0;
        }
        // Per-sentence max similarity, averaged with a soft-max emphasis on
        // the strongest scenes, then squashed to [0,1].
        let mut best: f64 = 0.0;
        let mut sum: f64 = 0.0;
        let mut n = 0usize;
        for s in text.split(['.', '!', '?']).map(str::trim) {
            if s.is_empty() {
                continue;
            }
            let sv = self.embedder.embed(s);
            let m = self
                .keywords
                .iter()
                .map(|kv| cosine(&sv, kv) as f64)
                .fold(0.0f64, f64::max);
            best = best.max(m);
            sum += m;
            n += 1;
        }
        let mean = if n == 0 { 0.0 } else { sum / n as f64 };
        // 0.7·peak + 0.3·mean, clamped. Peaks matter: one gunfight makes a
        // plot exciting even if the rest is quiet.
        let score = (0.7 * best + 0.3 * mean).clamp(0.0, 1.0);
        self.meter.charge(text, "score");
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llm() -> SimLlm {
        SimLlm::new(42, TokenMeter::new())
    }

    #[test]
    fn detects_the_papers_ambiguity_and_respects_resolutions() {
        let m = llm();
        let q = "Sort the given films in the table by how exciting they are, \
                 but the poster should be 'boring'";
        let c = m.detect_ambiguity(q, &[]).unwrap();
        assert_eq!(c.term, "exciting");
        assert_eq!(c.question, "What does 'exciting' mean in this context?");
        // After resolving "exciting", the next subjective term surfaces.
        let c2 = m.detect_ambiguity(q, &["exciting".into()]).unwrap();
        assert_eq!(c2.term, "boring");
        assert!(m
            .detect_ambiguity(q, &["exciting".into(), "boring".into()])
            .is_none());
        // Unambiguous queries pass through.
        assert!(m.detect_ambiguity("sort films by year", &[]).is_none());
    }

    #[test]
    fn concept_score_separates_exciting_from_calm_plots() {
        let m = llm();
        let kws = m.generate_keywords("scenes that are uncommon in real life");
        let exciting = m.concept_score("A man jumped off a plane during a gun fight.", &kws);
        let calm = m.concept_score("They drank tea in a quiet garden.", &kws);
        assert!(
            exciting > calm + 0.2,
            "exciting={exciting} calm={calm} kws={kws:?}"
        );
        assert!((0.0..=1.0).contains(&exciting));
    }

    #[test]
    fn concept_score_edge_cases() {
        let m = llm();
        assert_eq!(m.concept_score("", &["gun".into()]), 0.0);
        assert_eq!(m.concept_score("anything", &[]), 0.0);
    }

    #[test]
    fn critic_catches_reversed_recency() {
        let m = llm();
        // Newer year should get higher score; these are reversed.
        let samples = [(1975.0, 0.9), (1988.0, 0.5), (1991.0, 0.1)];
        let v = m.critique_monotonic("assign a recency score based on release year", &samples);
        assert!(matches!(v, Verdict::Mismatch { .. }));
        let good = [(1975.0, 0.1), (1988.0, 0.5), (1991.0, 0.9)];
        assert_eq!(
            m.critique_monotonic("assign a recency score based on release year", &good),
            Verdict::Plausible
        );
    }

    #[test]
    fn critic_is_lenient_on_tiny_samples() {
        let m = llm();
        assert_eq!(
            m.critique_monotonic("recency", &[(1991.0, 0.1)]),
            Verdict::Plausible
        );
    }

    #[test]
    fn diagnosis_matches_paper_heic_example() {
        let m = llm();
        let d = m.diagnose_exception("unsupported file format: heic");
        assert!(d.contains("conversion"));
        let d2 = m.diagnose_exception("expression error: division by zero");
        assert!(d2.contains("denominator"));
    }

    #[test]
    fn anomaly_explanation_mentions_one_to_one_assumption() {
        let m = llm();
        let e = m.explain_anomaly("one poster image matched multiple movie rows (fan-out)");
        assert!(e.contains("one-to-one"));
    }

    #[test]
    fn token_meter_is_charged() {
        let meter = TokenMeter::new();
        let m = SimLlm::new(1, meter.clone());
        let _ = m.detect_ambiguity("an exciting query", &[]);
        let _ = m.generate_keywords("violent crime");
        assert_eq!(meter.usage().calls, 2);
        assert!(meter.usage().total() > 0);
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let m = llm();
        assert_eq!(m.noise("ctx"), m.noise("ctx"));
        assert_ne!(m.noise("a"), m.noise("b"));
        assert!((0.0..1.0).contains(&m.noise("x")));
    }
}
