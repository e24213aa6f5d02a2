//! The embedder's prepared lexicon index must embed every token exactly as
//! the plain definition does: lowercase the token, find its concept with
//! [`Lexicon::concept_of`]'s linear scan, and pull the token's hash vector
//! toward that concept's centroid. The reference below is that definition,
//! written out with its own splitmix64 stream so it shares no code with the
//! index.

use kath_vector::{cosine, default_lexicon, fnv1a, Lexicon, TextEmbedder, DIM};

const SEED: u64 = 42;

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
    let mut acc = vec![0.0f32; DIM];
    for t in &tokens {
        for (a, b) in acc.iter_mut().zip(reference_embed_token(lexicon, seed, t)) {
            *a += b;
        }
    }
    reference_normalize(&mut acc);
    acc
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn term_under_two_concepts_embeds_toward_the_first() {
    let lexicon = Lexicon::new()
        .with_concept("first", ["shared", "alpha"])
        .with_concept("second", ["beta", "Shared"]);
    assert_eq!(lexicon.concept_of("shared"), Some("first"));
    let e = TextEmbedder::new(lexicon.clone(), SEED);
    let shared = e.embed_token("shared");
    assert_eq!(
        bits(&shared),
        bits(&reference_embed_token(&lexicon, SEED, "shared"))
    );
    let to_first = cosine(&shared, &e.embed_token("alpha"));
    let to_second = cosine(&shared, &e.embed_token("beta"));
    assert!(
        to_first > 0.5 && to_first > to_second + 0.3,
        "first {to_first} vs second {to_second}"
    );
}

#[test]
fn uppercase_token_embeds_as_its_lowercase() {
    let e = TextEmbedder::new(default_lexicon(), SEED);
    assert_eq!(bits(&e.embed_token("GUN")), bits(&e.embed_token("gun")));
    assert_eq!(bits(&e.embed_token("Gun")), bits(&e.embed_token("gun")));
}

#[test]
fn tokens_whose_lowercase_changes_length_embed_as_before() {
    // 'İ' (2 bytes) lowercases to "i̇" (3 bytes); 'ẞ' (3 bytes) to 'ß'
    // (2 bytes). One of each also sits in the lexicon.
    let lexicon = default_lexicon().with_concept("places", ["İstanbul", "Straẞe"]);
    assert_eq!(lexicon.concept_of("İSTANBUL"), Some("places"));
    let e = TextEmbedder::new(lexicon.clone(), SEED);
    for token in ["İ", "İSTANBUL", "istanbul", "STRAẞE", "ẞ", "ΣΟΦΟΣ", "ǅ"] {
        assert_eq!(
            bits(&e.embed_token(token)),
            bits(&reference_embed_token(&lexicon, SEED, token)),
            "token {token:?}"
        );
    }
    assert!(cosine(&e.embed_token("İSTANBUL"), &e.embed_token("straße")) > 0.5);
}

#[test]
fn phrases_embed_as_before() {
    let lexicon = default_lexicon();
    for seed in [0, 7, SEED, u64::MAX] {
        let e = TextEmbedder::new(lexicon.clone(), seed);
        for text in [
            "",
            "   ",
            "A GUN fight, then murder!",
            "tea... in a quiet garden",
            "zxqw 1991 Kiss-kiss İ",
        ] {
            assert_eq!(
                bits(&e.embed(text)),
                bits(&reference_embed(&lexicon, seed, text)),
                "seed {seed}, text {text:?}"
            );
        }
    }
}

/// The embedder lowercases a token once and looks the result up among
/// terms `with_concept` already lowercased, where `concept_of` lowercases
/// again. That is the same lookup because lowercasing a lowercase string
/// changes nothing: no character of any lowercase mapping lowercases
/// further (and the final-sigma rule only ever rewrites 'Σ').
#[test]
fn lowercasing_is_idempotent() {
    for c in (0..=char::MAX as u32).filter_map(char::from_u32) {
        for l in c.to_lowercase() {
            assert!(
                l.to_lowercase().eq(std::iter::once(l)),
                "{c:?} lowercases to {l:?}, which lowercases further"
            );
        }
    }
}
