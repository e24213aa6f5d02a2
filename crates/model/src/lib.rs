//! Simulated foundation models for KathDB.
//!
//! The paper invokes GPT-4o and vision models for parsing, keyword
//! generation, view population, critique, and repair. Per the reproduction
//! rules (DESIGN.md §1), this crate provides deterministic, seeded
//! simulators with an explicit knowledge base, plus per-call token
//! accounting so the optimizer's cost model has a realistic signal:
//!
//! - [`SimLlm`]: ambiguity review, keyword lists, concept scoring,
//!   monotonicity critique, exception diagnosis, anomaly explanation.
//! - [`SimVlm`] / [`SimOcr`] / [`VlmCascade`]: the alternative physical
//!   implementations of image analysis operators (§4).
//! - [`ner`]: rule-based entity extraction + coreference used to populate
//!   the text semantic graph (Table 2).

#![warn(missing_docs)]

mod channel;
mod knowledge;
mod llm;
pub mod ner;
mod token;
mod vision;

pub use channel::{
    ScriptedChannel, SilentChannel, StdioChannel, TranscriptChannel, TranscriptTurn, UserChannel,
};
pub use knowledge::{KnowledgeBase, SUBJECTIVE_TERMS};
pub use llm::{Clarification, ConceptScorer, FaultPlan, SimLlm, Verdict};
pub use token::{approx_tokens, TokenMeter, Usage};
pub use vision::{Detection, SimOcr, SimVlm, VlmCascade};
