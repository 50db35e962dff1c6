//! Hermetic exchange-format guarantees, exercised end-to-end on a local
//! model trained on the paper's OC3 dataset: both codecs (JSON and binary)
//! round-trip exactly, reject non-finite payloads and non-orthonormal
//! components, and refuse versions
//! they do not understand — all on the in-workspace zero-dependency
//! implementations. A catalog assessed through received models decides
//! exactly like the centralized run.

use collaborative_scoping::core::{assess::assess, collaborative::CollaborativeRun, ExecPolicy};
use collaborative_scoping::prelude::*;

/// Trains phase-II local models on OC3 and packs the first schema's model.
fn trained_oc3_envelope() -> (ModelEnvelope, SchemaSignatures) {
    let dataset = oc3();
    let sigs = encode_catalog(&SignatureEncoder::default(), &dataset.catalog);
    let models = CollaborativeScoper::new(0.8).train_models(&sigs).unwrap();
    let envelope = ModelEnvelope::pack(dataset.catalog.schema(0).name.clone(), &models[0]);
    (envelope, sigs)
}

/// Raw bits of the reconstruction errors `foreign` gets under a received
/// envelope.
fn received_error_bits(envelope: &ModelEnvelope, foreign: &Matrix) -> Vec<u64> {
    bits(&to_model(envelope).unwrap().reconstruction_errors(foreign))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn json_roundtrip_on_trained_oc3_model() {
    let (envelope, sigs) = trained_oc3_envelope();
    let json = to_json(&envelope).unwrap();
    let back = from_json(&json).unwrap();
    // Bit-exact payload survival…
    assert_eq!(back.schema_name, envelope.schema_name);
    assert_eq!(back.schema_index, envelope.schema_index);
    assert_eq!(back.dim, envelope.dim);
    assert_eq!(back.mean, envelope.mean);
    assert_eq!(back.components, envelope.components);
    assert_eq!(
        back.linkability_range.to_bits(),
        envelope.linkability_range.to_bits()
    );
    // …and identical downstream scoring of a foreign schema.
    assert_eq!(
        received_error_bits(&back, sigs.schema(1)),
        received_error_bits(&envelope, sigs.schema(1))
    );
}

#[test]
fn binary_roundtrip_on_trained_oc3_model() {
    let (envelope, sigs) = trained_oc3_envelope();
    let bytes = to_bytes(&envelope);
    let back = from_bytes(&bytes).unwrap();
    assert_eq!(back.schema_name, envelope.schema_name);
    assert_eq!(back.mean, envelope.mean);
    assert_eq!(back.components, envelope.components);
    assert_eq!(
        back.linkability_range.to_bits(),
        envelope.linkability_range.to_bits()
    );
    assert_eq!(
        received_error_bits(&back, sigs.schema(2)),
        received_error_bits(&envelope, sigs.schema(2))
    );
}

#[test]
fn distributed_assessment_equals_centralized_bit_for_bit() {
    for dataset in [oc3(), oc3_fo()] {
        let sigs = encode_catalog(&SignatureEncoder::default(), &dataset.catalog);
        let centralized = CollaborativeScoper::new(0.8).run(&sigs).unwrap();
        // Each schema publishes its model over the binary wire format.
        let received: Vec<LocalModel> = centralized
            .models
            .iter()
            .enumerate()
            .map(|(k, model)| {
                let envelope = ModelEnvelope::pack(dataset.catalog.schema(k).name.clone(), model);
                to_model(&from_bytes(&to_bytes(&envelope)).unwrap()).unwrap()
            })
            .collect();
        let distributed = assess(
            &sigs,
            received,
            CombinationRule::Any,
            &ExecPolicy::Global,
            "distributed",
        )
        .unwrap();
        let digest = |run: &CollaborativeRun| {
            let votes = run.accept_votes.clone();
            (run.outcome.decisions.clone(), votes, bits(&run.best_margin))
        };
        assert_eq!(
            digest(&distributed),
            digest(&centralized),
            "{}",
            dataset.name
        );
    }
}

#[test]
fn serialization_is_deterministic_across_calls() {
    let (envelope, _) = trained_oc3_envelope();
    assert_eq!(to_json(&envelope).unwrap(), to_json(&envelope).unwrap());
    assert_eq!(to_bytes(&envelope), to_bytes(&envelope));
}

#[test]
fn non_finite_values_are_rejected_by_both_codecs() {
    let (clean, _) = trained_oc3_envelope();

    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        // Poisoned linkability range.
        let mut envelope = clean.clone();
        envelope.linkability_range = poison;
        assert!(
            matches!(
                from_bytes(&to_bytes(&envelope)),
                Err(ExchangeError::MalformedShape(_))
            ),
            "binary accepted range {poison}"
        );
        let json = to_json(&envelope).unwrap();
        assert!(from_json(&json).is_err(), "JSON accepted range {poison}");

        // Poisoned mean vector.
        let mut envelope = clean.clone();
        envelope.mean[3] = poison;
        assert!(
            matches!(
                from_bytes(&to_bytes(&envelope)),
                Err(ExchangeError::MalformedShape(_))
            ),
            "binary accepted mean {poison}"
        );
        let json = to_json(&envelope).unwrap();
        assert!(from_json(&json).is_err(), "JSON accepted mean {poison}");
    }
}

#[test]
fn non_orthonormal_components_are_rejected_by_both_codecs() {
    let (clean, _) = trained_oc3_envelope();
    for name in ["scaled", "duplicated"] {
        let mut envelope = clean.clone();
        let c = &mut envelope.components;
        for j in 0..c.cols() {
            match name {
                "scaled" => c[(0, j)] *= 2.0,
                _ => c[(1, j)] = c[(0, j)],
            }
        }
        assert!(
            matches!(
                from_bytes(&to_bytes(&envelope)),
                Err(ExchangeError::MalformedShape(_))
            ),
            "binary accepted a {name} row"
        );
        assert!(
            matches!(
                from_json(&to_json(&envelope).unwrap()),
                Err(ExchangeError::MalformedShape(_))
            ),
            "JSON accepted a {name} row"
        );
    }
}

#[test]
fn version_mismatch_is_a_typed_error_in_both_codecs() {
    let (envelope, _) = trained_oc3_envelope();

    // Binary: the u16 version lives right after the 4-byte magic.
    let mut bytes = to_bytes(&envelope);
    bytes[4] = 42;
    assert!(matches!(
        from_bytes(&bytes),
        Err(ExchangeError::UnsupportedVersion(42))
    ));

    // JSON: a future format_version must be refused, not guessed at.
    let json = to_json(&envelope).unwrap();
    let future = json.replacen("\"format_version\":1", "\"format_version\":9", 1);
    assert_ne!(future, json, "fixture must actually change the version");
    assert!(matches!(
        from_json(&future),
        Err(ExchangeError::UnsupportedVersion(9))
    ));
}

#[test]
fn truncated_binary_payloads_never_panic() {
    let (envelope, _) = trained_oc3_envelope();
    let bytes = to_bytes(&envelope);
    // Every strict prefix must fail cleanly.
    for cut in (0..bytes.len()).step_by(101) {
        assert!(from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
    }
}
