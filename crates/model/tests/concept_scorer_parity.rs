//! Parity of the prepared concept scorer with the plain scoring formula.
//!
//! `ConceptScorer` embeds its keywords once for all the texts it scores,
//! over the embedder's prebuilt lexicon index. Neither may change a bit:
//! every score must equal, in `f64::to_bits`, the score computed afresh
//! for that text alone — per-sentence max cosine against freshly
//! embedded keywords, `0.7·peak + 0.3·mean`, with token embeddings from the
//! lexicon's linear `concept_of` scan and two freshly generated unit
//! vectors — and the token meter must be charged exactly as that formula
//! charges it. The reference is written out here in full and shares no
//! code with the scorer.

use kath_model::{SimLlm, TokenMeter};
use kath_vector::{fnv1a, Lexicon, DIM};
use proptest::prelude::*;

fn reference_unit_vector(seed: u64) -> Vec<f32> {
    let mut state = seed;
    let mut v: Vec<f32> = (0..DIM)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            let u1 = (z >> 11) as f64 / (1u64 << 53) as f64;
            (u1 - 0.5) as f32
        })
        .collect();
    reference_normalize(&mut v);
    v
}

fn reference_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

fn reference_cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    if !(dot.is_finite() && na.is_finite() && nb.is_finite()) {
        return f32::NAN;
    }
    let c = (dot / (na * nb)).clamp(-1.0, 1.0);
    if c == 0.0 {
        0.0
    } else {
        c
    }
}

fn reference_embed_token(lexicon: &Lexicon, seed: u64, token: &str) -> Vec<f32> {
    let t = token.to_lowercase();
    let noise = reference_unit_vector(seed ^ fnv1a(t.as_bytes()));
    match lexicon.concept_of(&t) {
        None => noise,
        Some(concept) => {
            let centroid = reference_unit_vector(seed ^ fnv1a(concept.as_bytes()) ^ 0xC0FFEE);
            let a = 0.85f32;
            let mut v: Vec<f32> = centroid
                .iter()
                .zip(&noise)
                .map(|(c, n)| a * c + (1.0 - a) * n)
                .collect();
            reference_normalize(&mut v);
            v
        }
    }
}

fn reference_embed(lexicon: &Lexicon, seed: u64, text: &str) -> Vec<f32> {
    let tokens: Vec<&str> = text
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .collect();
    if tokens.is_empty() {
        return vec![0.0; DIM];
    }
    let mut acc = vec![0.0f32; DIM];
    for t in &tokens {
        for (a, b) in acc.iter_mut().zip(reference_embed_token(lexicon, seed, t)) {
            *a += b;
        }
    }
    reference_normalize(&mut acc);
    acc
}

/// The scoring formula, charging `meter` as one model call.
fn reference_score(
    lexicon: &Lexicon,
    seed: u64,
    meter: &TokenMeter,
    text: &str,
    keywords: &[String],
) -> f64 {
    if keywords.is_empty() || text.trim().is_empty() {
        meter.charge(text, "0");
        return 0.0;
    }
    let kw_vecs: Vec<_> = keywords
        .iter()
        .map(|k| reference_embed(lexicon, seed, k))
        .collect();
    let sentences: Vec<&str> = text
        .split(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let mut best: f64 = 0.0;
    let mut sum: f64 = 0.0;
    let mut n = 0usize;
    for s in &sentences {
        let sv = reference_embed(lexicon, seed, s);
        let m = kw_vecs
            .iter()
            .map(|kv| reference_cosine(&sv, kv) as f64)
            .fold(0.0f64, f64::max);
        best = best.max(m);
        sum += m;
        n += 1;
    }
    let mean = if n == 0 { 0.0 } else { sum / n as f64 };
    let score = (0.7 * best + 0.3 * mean).clamp(0.0, 1.0);
    meter.charge(text, "score");
    score
}

/// Lexicon terms of several concepts, words outside the lexicon, digits,
/// and tokens whose lowercase changes length.
const WORDS: &[&str] = &[
    "gun",
    "murder",
    "shootout",
    "explosion",
    "jump",
    "plane",
    "cliff",
    "tea",
    "garden",
    "quiet",
    "love",
    "kiss",
    "the",
    "man",
    "a",
    "drank",
    "zxqw",
    "guns",
    "1991",
    "x9",
    "İ",
    "ẞ",
    "ΣΟΦΟΣ",
];
const SEPARATORS: &[&str] = &[" ", " ", ". ", "! ", "?", ", ", "-", "...", " \t", "\n"];

fn word(pick: u8, style: u8) -> String {
    let w = WORDS[pick as usize % WORDS.len()];
    match style % 4 {
        0 | 1 => w.to_string(),
        2 => w.to_uppercase(),
        _ => {
            let mut chars = w.chars();
            chars
                .next()
                .map(|c| c.to_uppercase().chain(chars).collect())
                .unwrap_or_default()
        }
    }
}

fn text(kind: u8, parts: &[(u8, u8)]) -> String {
    match kind % 10 {
        0 => String::new(),
        1 => " \t\n ".to_string(),
        2 => "?!. ..".to_string(),
        _ => parts
            .iter()
            .map(|&(pick, style)| {
                format!(
                    "{}{}",
                    word(pick, style),
                    SEPARATORS[(style / 4) as usize % SEPARATORS.len()]
                )
            })
            .collect(),
    }
}

proptest! {
    #[test]
    fn scorer_matches_the_plain_formula_bit_for_bit(
        seed in 0u64..1000,
        keyword_picks in prop::collection::vec((any::<u8>(), any::<u8>()), 0..6),
        texts in prop::collection::vec(
            (any::<u8>(), prop::collection::vec((any::<u8>(), any::<u8>()), 0..14)),
            1..16,
        ),
    ) {
        let keywords: Vec<String> = keyword_picks.iter().map(|&(p, s)| word(p, s)).collect();
        let llm = SimLlm::new(seed, TokenMeter::new());
        let lexicon = llm.embedder().lexicon().clone();
        let reference_meter = TokenMeter::new();
        let scorer = llm.concept_scorer(&keywords);
        let one_shot = SimLlm::new(seed, TokenMeter::new());
        for (kind, parts) in &texts {
            let t = text(*kind, parts);
            let want = reference_score(&lexicon, seed, &reference_meter, &t, &keywords);
            let got = scorer.score(&t);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "text {:?}", t);
            let once = one_shot.concept_score(&t, &keywords);
            prop_assert_eq!(once.to_bits(), want.to_bits(), "concept_score on {:?}", t);
        }
        prop_assert_eq!(llm.meter().usage(), reference_meter.usage());
        prop_assert_eq!(one_shot.meter().usage(), reference_meter.usage());
    }
}
