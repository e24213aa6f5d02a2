//! Deterministic text embeddings.
//!
//! The paper's excitement scorer "computes excitement scores by measuring
//! vector similarity between keywords (e.g., gun, murder, …) and all
//! extracted text entities" (§6). A hosted embedding model is replaced by a
//! *lexicon-clustered hash embedder*: every token gets a pseudo-random unit
//! vector from its hash, and tokens that belong to the same lexicon concept
//! are pulled toward that concept's centroid. The result preserves exactly
//! the property the pipeline needs — related words ("gun", "weapon",
//! "shootout") are mutually similar, unrelated words are not — while being
//! fully deterministic and offline.

use std::collections::HashMap;
use std::sync::Arc;

/// Embedding dimensionality.
pub const DIM: usize = 64;

/// A dense embedding vector.
pub type Embedding = Vec<f32>;

/// Deterministic 64-bit hash (FNV-1a); avoids `std` hasher instability
/// across runs/platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Generates a unit vector pseudo-randomly from a seed (splitmix64 stream).
pub fn seeded_unit_vector(seed: u64) -> Embedding {
    let mut v = vec![0.0; DIM];
    seeded_unit_vector_into(seed, &mut v);
    v
}

/// [`seeded_unit_vector`] written into `out` (which must hold [`DIM`]
/// components) without allocating.
fn seeded_unit_vector_into(seed: u64, out: &mut [f32]) {
    let mut state = seed;
    for x in out.iter_mut() {
        // splitmix64 step
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        // Map to roughly N(0,1) via sum of uniforms (CLT over 2 halves).
        let u1 = (z >> 11) as f64 / (1u64 << 53) as f64;
        *x = (u1 - 0.5) as f32;
    }
    normalize(out);
}

/// Normalizes a vector in place; leaves the zero vector untouched.
pub fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// A concept lexicon: concept name → member terms. Terms of one concept
/// embed near each other.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    concepts: Vec<(String, Vec<String>)>,
}

impl Lexicon {
    /// An empty lexicon (pure hash embeddings).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a concept with member terms (builder style).
    pub fn with_concept<S: Into<String>>(
        mut self,
        name: impl Into<String>,
        terms: impl IntoIterator<Item = S>,
    ) -> Self {
        self.concepts.push((
            name.into(),
            terms.into_iter().map(|t| t.into().to_lowercase()).collect(),
        ));
        self
    }

    /// The concept a term belongs to, if any.
    pub fn concept_of(&self, term: &str) -> Option<&str> {
        let t = term.to_lowercase();
        self.concepts
            .iter()
            .find(|(_, terms)| terms.contains(&t))
            .map(|(name, _)| name.as_str())
    }

    /// All concept names.
    pub fn concepts(&self) -> impl Iterator<Item = &str> {
        self.concepts.iter().map(|(n, _)| n.as_str())
    }

    /// Terms of a concept.
    pub fn terms_of(&self, concept: &str) -> Option<&[String]> {
        self.concepts
            .iter()
            .find(|(n, _)| n == concept)
            .map(|(_, t)| t.as_slice())
    }
}

/// The lexicon-clustered text embedder.
///
/// Cloning is cheap: the lexicon and its term embeddings are built once in
/// [`TextEmbedder::new`] and shared behind an `Arc`.
#[derive(Debug, Clone)]
pub struct TextEmbedder {
    prepared: Arc<PreparedLexicon>,
    /// Base seed separating unrelated embedder instances.
    seed: u64,
}

/// The lexicon with the embedding of each of its terms.
#[derive(Debug)]
struct PreparedLexicon {
    lexicon: Lexicon,
    /// Lowercase term → its embedding, pulled toward the centroid of the
    /// first concept listing it (the concept [`Lexicon::concept_of`]
    /// resolves).
    term_embeddings: HashMap<String, Embedding>,
}

/// How strongly lexicon terms are pulled to their concept centroid.
const CLUSTER_STRENGTH: f32 = 0.85;

impl TextEmbedder {
    /// Builds an embedder over `lexicon`.
    pub fn new(lexicon: Lexicon, seed: u64) -> Self {
        let mut term_embeddings = HashMap::new();
        for (name, terms) in &lexicon.concepts {
            let centroid = seeded_unit_vector(seed ^ fnv1a(name.as_bytes()) ^ 0xC0FFEE);
            for t in terms {
                term_embeddings.entry(t.clone()).or_insert_with(|| {
                    let a = CLUSTER_STRENGTH;
                    let mut v = seeded_unit_vector(seed ^ fnv1a(t.as_bytes()));
                    for (n, c) in v.iter_mut().zip(&centroid) {
                        *n = a * c + (1.0 - a) * *n;
                    }
                    normalize(&mut v);
                    v
                });
            }
        }
        Self {
            prepared: Arc::new(PreparedLexicon {
                lexicon,
                term_embeddings,
            }),
            seed,
        }
    }

    /// Embeds one token.
    pub fn embed_token(&self, token: &str) -> Embedding {
        let mut v = vec![0.0; DIM];
        self.embed_token_into(token, &mut v);
        v
    }

    /// [`TextEmbedder::embed_token`] written into `out` (which must hold
    /// [`DIM`] components) without allocating.
    fn embed_token_into(&self, token: &str, out: &mut [f32]) {
        // Lexicon terms are stored lowercase and lowercasing is idempotent,
        // so one lowercase serves both the lookup and the hash.
        let t = token.to_lowercase();
        match self.prepared.term_embeddings.get(&t) {
            Some(v) => out.copy_from_slice(v),
            None => seeded_unit_vector_into(self.seed ^ fnv1a(t.as_bytes()), out),
        }
    }

    /// Embeds a phrase as the normalized mean of token embeddings.
    /// Empty/whitespace input embeds to the zero vector.
    pub fn embed(&self, text: &str) -> Embedding {
        let mut acc = vec![0.0f32; DIM];
        let mut buf = [0.0f32; DIM];
        for t in text
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
        {
            self.embed_token_into(t, &mut buf);
            for (a, b) in acc.iter_mut().zip(&buf) {
                *a += b;
            }
        }
        // No tokens leaves `acc` zero, which `normalize` leaves untouched.
        normalize(&mut acc);
        acc
    }

    /// The lexicon in use.
    pub fn lexicon(&self) -> &Lexicon {
        &self.prepared.lexicon
    }
}

/// Seed of the canonical shared embedder behind [`embed_query`]. One fixed
/// seed means stored `EMBED(...)` blobs, `SIMILARITY(col, 'query')`
/// expressions, and the catalog's vector indexes all live in the same
/// embedding space.
pub const QUERY_EMBED_SEED: u64 = 7;

/// Embeds text with the canonical default-lexicon embedder — the single
/// embedding convention the SQL surface and the vector indexes share.
pub fn embed_query(text: &str) -> Embedding {
    use std::sync::OnceLock;
    static EMBEDDER: OnceLock<TextEmbedder> = OnceLock::new();
    EMBEDDER
        .get_or_init(|| TextEmbedder::new(default_lexicon(), QUERY_EMBED_SEED))
        .embed(text)
}

/// A small built-in lexicon for tests and the default pipeline: concepts the
/// flagship query needs ("excitement" keywords from §6 plus contrast sets).
pub fn default_lexicon() -> Lexicon {
    Lexicon::new()
        .with_concept(
            "violence",
            [
                "gun",
                "murder",
                "weapon",
                "shootout",
                "kill",
                "attack",
                "fight",
                "threat",
                "death",
                "knife",
                "explosion",
                "chase",
            ],
        )
        .with_concept(
            "danger",
            [
                "danger",
                "jump",
                "fall",
                "crash",
                "fire",
                "escape",
                "plane",
                "cliff",
                "motorcycle",
                "storm",
            ],
        )
        .with_concept(
            "calm",
            [
                "calm", "quiet", "peaceful", "garden", "tea", "walk", "routine", "plain",
                "ordinary", "mundane",
            ],
        )
        .with_concept(
            "romance",
            ["love", "romance", "kiss", "wedding", "heart", "date"],
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::cosine;

    fn embedder() -> TextEmbedder {
        TextEmbedder::new(default_lexicon(), 42)
    }

    #[test]
    fn embeddings_are_deterministic() {
        let e = embedder();
        assert_eq!(e.embed("gun fight"), e.embed("gun fight"));
        let e2 = TextEmbedder::new(default_lexicon(), 42);
        assert_eq!(e.embed("murder"), e2.embed("murder"));
    }

    #[test]
    fn same_concept_terms_are_similar() {
        let e = embedder();
        let sim_related = cosine(&e.embed("gun"), &e.embed("murder"));
        let sim_unrelated = cosine(&e.embed("gun"), &e.embed("tea"));
        assert!(
            sim_related > 0.5,
            "related terms should be similar, got {sim_related}"
        );
        assert!(
            sim_related > sim_unrelated + 0.3,
            "related {sim_related} vs unrelated {sim_unrelated}"
        );
    }

    #[test]
    fn case_insensitive() {
        let e = embedder();
        assert_eq!(e.embed("GUN"), e.embed("gun"));
    }

    #[test]
    fn unknown_words_are_stable_but_unclustered() {
        let e = embedder();
        let a = e.embed_token("zxqw");
        assert_eq!(a, e.embed_token("zxqw"));
        let b = e.embed_token("vbnm");
        assert!(cosine(&a, &b).abs() < 0.5);
    }

    #[test]
    fn phrase_embedding_is_unit_or_zero() {
        let e = embedder();
        let v = e.embed("a man jumped off a plane");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        let z = e.embed("   ");
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn lexicon_lookup() {
        let l = default_lexicon();
        assert_eq!(l.concept_of("Gun"), Some("violence"));
        assert_eq!(l.concept_of("unknown"), None);
        assert!(l
            .terms_of("violence")
            .unwrap()
            .contains(&"murder".to_string()));
        assert!(l.concepts().count() >= 4);
    }

    #[test]
    fn seeded_unit_vectors_differ_by_seed() {
        let a = seeded_unit_vector(1);
        let b = seeded_unit_vector(2);
        assert_ne!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }
}
