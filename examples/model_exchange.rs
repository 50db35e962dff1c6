//! Distributed deployment: exchange models, not data.
//!
//! The paper's phase III is explicitly designed so schemas never leave
//! their organizations — only the self-trained encoder-decoders
//! `M_k = {μ_k, PC_k, l_k}` are shared. This example simulates three
//! organizations: each trains its local model and publishes it as a
//! compact binary payload; the received payloads are rehydrated and every
//! organization's elements are assessed against them — reproducing the
//! exact decisions of a centralized run without any signature ever
//! crossing the wire.
//!
//! Run with: `cargo run --release --example model_exchange`

use collaborative_scoping::core::{assess::assess, ExecPolicy};
use collaborative_scoping::prelude::*;

fn main() {
    let dataset = oc3();
    let encoder = SignatureEncoder::default();
    let signatures = encode_catalog(&encoder, &dataset.catalog);
    let v = ExplainedVariance::new(0.8).expect("valid variance");

    // --- Each organization trains locally and publishes its model. -----
    let mut received = Vec::new();
    for k in 0..signatures.schema_count() {
        let model = LocalModel::train(k, signatures.schema(k), v).expect("non-empty schema");
        let envelope = ModelEnvelope::pack(&dataset.catalog.schema(k).name, &model);
        let payload = to_bytes(&envelope);
        println!(
            "{} publishes model: {} components, range {:.5}, payload {} bytes (JSON would be {})",
            envelope.schema_name,
            envelope.components.rows(),
            envelope.linkability_range,
            payload.len(),
            to_json(&envelope).expect("serializable").len(),
        );
        let envelope = from_bytes(&payload).expect("valid payload");
        received.push(to_model(&envelope).expect("valid model"));
    }

    // --- Assess every schema against the received foreign models. -----
    let distributed = assess(
        &signatures,
        received,
        CombinationRule::Any,
        &ExecPolicy::Global,
        "distributed",
    )
    .expect("one model per schema");
    println!();
    for k in 0..signatures.schema_count() {
        let name = &dataset.catalog.schema(k).name;
        let kept = distributed.outcome.kept_in_schema(k);
        println!(
            "{name} keeps {kept}/{} of its own elements",
            signatures.schema_len(k)
        );
    }

    // --- Cross-check against the centralized implementation. -----------
    let centralized = CollaborativeScoper::new(0.8)
        .run(&signatures)
        .expect("valid catalog");
    assert_eq!(
        distributed.outcome.decisions, centralized.outcome.decisions,
        "distributed and centralized runs must agree"
    );
    println!(
        "\ndistributed decisions ({} kept) match the centralized run — \
         no signature ever left its organization.",
        distributed.outcome.kept_count()
    );
}
