//! Workloads, knowledge-base synthesis, preprocessing and concept discovery
//! for the HaTen2 reproduction.
//!
//! The paper's evaluation uses three data sources (Table V): random sparse
//! tensors (scalability sweeps), the NELL knowledge base, and the
//! Freebase-music RDF slice (discovery, Tables VI–VIII). The real dumps are
//! not redistributable, so this crate generates *synthetic equivalents with
//! planted structure*:
//!
//! * [`random`] — uniform random sparse tensors parameterized exactly like
//!   the paper's sweeps (dimensionality, nonzeros, density, core size).
//! * [`kb`] — synthetic knowledge bases: named subject/object/predicate
//!   vocabularies, planted latent concepts (blocks of co-occurring
//!   entities), power-law noise, and literal/name triples. Presets imitate
//!   Freebase-music and NELL.
//! * [`mod@preprocess`] — the paper's §IV-C pipeline: literal removal,
//!   predicate frequency filtering, and the TF-IDF-style reweighting
//!   `1 + log(α/links(z))`.
//! * [`discovery`] — factor normalization and top-k concept extraction for
//!   PARAFAC (Table VI) and Tucker (Tables VII/VIII), plus recovery scoring
//!   against the planted ground truth.
//! * [`temporal`] — 4-way (subject, object, predicate, time) synthesis with
//!   planted activity windows, for the N-way decompositions.
//! * [`datasets`] — the Table V registry mapping each paper dataset to its
//!   scaled stand-in.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod discovery;
pub mod kb;
pub mod preprocess;
pub mod random;
pub mod temporal;
pub mod triples;

pub use datasets::{DatasetSpec, TABLE_V};
pub use kb::{KbConfig, KnowledgeBase, PlantedConcept};
pub use preprocess::{preprocess, PreprocessConfig, PreprocessReport};
pub use random::{powerlaw_tensor, random_tensor, RandomTensorConfig};
pub use temporal::{TemporalConcept, TemporalKb};
pub use triples::{load_triples, parse_triples, TripleOrder};
