//! Model exchange: serialize local encoder–decoders for distribution.
//!
//! Collaborative scoping's deployment story (Section 3, phase III) is that
//! organizations exchange **models, not data**: each participant trains
//! `M_k = {μ_k, PC_k, l_k}` locally and publishes only that. This module
//! provides the wire formats for the exchange:
//!
//! - **JSON** ([`to_json`] / [`from_json`]) — human-auditable, the format
//!   an organization's review process would inspect before publishing.
//!   Documents carry a `format_version` field; absent means version 1.
//! - **binary** ([`to_bytes`] / [`from_bytes`]) — a compact versioned
//!   codec (magic `CSEX`, little-endian) for the actual transfer; a
//!   768-dimensional model with 20 components is ≈135 KB instead of
//!   ≈420 KB of JSON.
//!
//! Both codecs are implemented in-workspace (the JSON side on
//! [`crate::json`], the binary side on plain `Vec<u8>` framing) per the
//! hermetic dependency policy. Both validate on ingest: a corrupted or
//! truncated payload is a typed [`ExchangeError`], never a panic, because
//! the payload crosses a trust boundary.

use crate::assess::LocalAssessor;
use crate::json::{self, JsonValue};
use crate::local_model::LocalModel;
use cs_linalg::{Matrix, Pca};

/// Magic prefix of the binary format.
pub const MAGIC: &[u8; 4] = b"CSEX";
/// Current exchange format version (shared by the binary and JSON framings).
pub const VERSION: u16 = 1;

/// The largest `|C·Cᵀ − I|` a received model's component rows `C` may
/// show. Trained OC3 and OC3-FO models reach 2.4e-10 (the Gram route's
/// round-off on trailing components); this bound is ≈4000× that.
const ORTHONORMAL_TOLERANCE: f64 = 1e-6;

/// Errors raised while decoding an exchanged model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// The payload does not start with the `CSEX` magic.
    BadMagic,
    /// The payload's version is not supported.
    UnsupportedVersion(u16),
    /// The payload ended before the declared content.
    Truncated,
    /// A declared shape is internally inconsistent.
    MalformedShape(String),
    /// JSON (de)serialization failed.
    Json(String),
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::BadMagic => write!(f, "payload is not a CSEX model"),
            ExchangeError::UnsupportedVersion(v) => write!(f, "unsupported model version {v}"),
            ExchangeError::Truncated => write!(f, "payload truncated"),
            ExchangeError::MalformedShape(s) => write!(f, "malformed payload: {s}"),
            ExchangeError::Json(s) => write!(f, "JSON error: {s}"),
        }
    }
}

impl std::error::Error for ExchangeError {}

/// The exchanged form of a local model: exactly the paper's
/// `M_k = {μ_k, PC_k, l_k}` triple plus provenance.
#[derive(Debug, Clone)]
pub struct ModelEnvelope {
    /// Publishing schema's display name (provenance, not identity).
    pub schema_name: String,
    /// The publisher's schema index within the matching federation.
    pub schema_index: usize,
    /// Signature dimensionality the model expects.
    pub dim: usize,
    /// Local signature mean `μ_k`.
    pub mean: Vec<f64>,
    /// Principal components `PC_k` (rows).
    pub components: Matrix,
    /// Local linkability range `l_k`.
    pub linkability_range: f64,
}

impl ModelEnvelope {
    /// Packs a trained local model for exchange.
    pub fn pack(schema_name: impl Into<String>, model: &LocalModel) -> Self {
        Self {
            schema_name: schema_name.into(),
            schema_index: model.schema_index(),
            dim: model.pca().dim(),
            mean: model.pca().mean().to_vec(),
            components: model.pca().components().clone(),
            linkability_range: model.linkability_range(),
        }
    }

    /// Validates internal consistency (shapes, finiteness, orthonormal
    /// component rows).
    pub fn validate(&self) -> Result<(), ExchangeError> {
        if self.mean.len() != self.dim {
            return Err(ExchangeError::MalformedShape(format!(
                "mean length {} != dim {}",
                self.mean.len(),
                self.dim
            )));
        }
        if self.components.cols() != self.dim {
            return Err(ExchangeError::MalformedShape(format!(
                "component width {} != dim {}",
                self.components.cols(),
                self.dim
            )));
        }
        if self.components.rows() == 0 {
            return Err(ExchangeError::MalformedShape("no components".into()));
        }
        if !self.linkability_range.is_finite() || self.linkability_range < 0.0 {
            return Err(ExchangeError::MalformedShape(format!(
                "linkability range {} invalid",
                self.linkability_range
            )));
        }
        if self.mean.iter().any(|x| !x.is_finite()) || self.components.has_non_finite() {
            return Err(ExchangeError::MalformedShape("non-finite values".into()));
        }
        // A model scores through an identity that equals its decoded MSE
        // only for orthonormal rows, and more than `dim` rows never are:
        // they are refused before the `rows × rows` Gram matrix is formed.
        let rows = self.components.rows();
        if rows > self.dim {
            return Err(ExchangeError::MalformedShape(format!(
                "{rows} components exceed dim {}",
                self.dim
            )));
        }
        let gram = self.components.matmul_transposed(&self.components);
        let residue = gram
            .as_slice()
            .iter()
            .enumerate()
            .fold(0.0, |worst, (i, &g)| {
                let identity = if i % (rows + 1) == 0 { 1.0 } else { 0.0 };
                f64::max(worst, (g - identity).abs())
            });
        if residue > ORTHONORMAL_TOLERANCE {
            return Err(ExchangeError::MalformedShape(format!(
                "components are not orthonormal (max |C·Cᵀ − I| = {residue:e})"
            )));
        }
        Ok(())
    }
}

/// Serializes an envelope as a versioned JSON document.
pub fn to_json(envelope: &ModelEnvelope) -> Result<String, ExchangeError> {
    Ok(envelope_to_value(envelope).write())
}

fn envelope_to_value(envelope: &ModelEnvelope) -> JsonValue {
    JsonValue::object(vec![
        ("format_version", JsonValue::Number(VERSION as f64)),
        (
            "schema_name",
            JsonValue::String(envelope.schema_name.clone()),
        ),
        (
            "schema_index",
            JsonValue::Number(envelope.schema_index as f64),
        ),
        ("dim", JsonValue::Number(envelope.dim as f64)),
        ("mean", JsonValue::numbers(&envelope.mean)),
        (
            "components",
            JsonValue::object(vec![
                ("rows", JsonValue::Number(envelope.components.rows() as f64)),
                ("cols", JsonValue::Number(envelope.components.cols() as f64)),
                ("data", JsonValue::numbers(envelope.components.as_slice())),
            ]),
        ),
        (
            "linkability_range",
            JsonValue::Number(envelope.linkability_range),
        ),
    ])
}

/// Parses and validates an envelope from JSON.
pub fn from_json(input: &str) -> Result<ModelEnvelope, ExchangeError> {
    let doc = json::parse(input).map_err(|e| ExchangeError::Json(e.to_string()))?;
    // Version envelope: a missing field means version 1 (documents written
    // before the field existed); anything other than the current version is
    // an explicit error, not a guess.
    if let Some(v) = doc.get("format_version") {
        let v = v
            .as_usize()
            .ok_or_else(|| ExchangeError::Json("format_version is not an integer".into()))?;
        if v != VERSION as usize {
            return Err(ExchangeError::UnsupportedVersion(
                v.min(u16::MAX as usize) as u16
            ));
        }
    }
    let field = |k: &str| {
        doc.get(k)
            .ok_or_else(|| ExchangeError::Json(format!("missing field '{k}'")))
    };
    let bad = |k: &str| ExchangeError::Json(format!("field '{k}' has the wrong type"));

    let schema_name = field("schema_name")?
        .as_str()
        .ok_or_else(|| bad("schema_name"))?;
    let schema_index = field("schema_index")?
        .as_usize()
        .ok_or_else(|| bad("schema_index"))?;
    let dim = field("dim")?.as_usize().ok_or_else(|| bad("dim"))?;
    let mean = field("mean")?.as_f64_vec().ok_or_else(|| bad("mean"))?;
    let comp = field("components")?;
    let rows = comp
        .get("rows")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| bad("components.rows"))?;
    let cols = comp
        .get("cols")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| bad("components.cols"))?;
    let data = comp
        .get("data")
        .and_then(JsonValue::as_f64_vec)
        .ok_or_else(|| bad("components.data"))?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(ExchangeError::MalformedShape(format!(
            "components claim {rows}x{cols} but carry {} values",
            data.len()
        )));
    }
    let linkability_range = field("linkability_range")?
        .as_f64()
        .ok_or_else(|| bad("linkability_range"))?;

    let envelope = ModelEnvelope {
        schema_name: schema_name.to_string(),
        schema_index,
        dim,
        mean,
        components: Matrix::from_vec(rows, cols, data),
        linkability_range,
    };
    envelope.validate()?;
    Ok(envelope)
}

/// Encodes an envelope in the compact binary format (all integers and
/// floats little-endian).
pub fn to_bytes(envelope: &ModelEnvelope) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        64 + envelope.schema_name.len()
            + 8 * (envelope.mean.len() + envelope.components.as_slice().len()),
    );
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(envelope.schema_index as u32).to_le_bytes());
    buf.extend_from_slice(&envelope.linkability_range.to_le_bytes());
    buf.extend_from_slice(&(envelope.schema_name.len() as u32).to_le_bytes());
    buf.extend_from_slice(envelope.schema_name.as_bytes());
    buf.extend_from_slice(&(envelope.dim as u32).to_le_bytes());
    for &x in &envelope.mean {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf.extend_from_slice(&(envelope.components.rows() as u32).to_le_bytes());
    for &x in envelope.components.as_slice() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf
}

/// A bounds-checked little-endian reader over a byte slice; every read
/// reports [`ExchangeError::Truncated`] instead of panicking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ExchangeError> {
        let end = self.pos.checked_add(n).ok_or(ExchangeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ExchangeError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u16_le(&mut self) -> Result<u16, ExchangeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("length 2"),
        ))
    }

    fn u32_le(&mut self) -> Result<u32, ExchangeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("length 4"),
        ))
    }

    fn f64_le(&mut self) -> Result<f64, ExchangeError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("length 8"),
        ))
    }

    fn f64_vec(&mut self, len: usize) -> Result<Vec<f64>, ExchangeError> {
        // Validate the whole span up front so a huge declared length fails
        // before allocation.
        let raw = self.take(len.checked_mul(8).ok_or(ExchangeError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("length 8")))
            .collect())
    }
}

/// Decodes and validates an envelope from the binary format.
pub fn from_bytes(payload: &[u8]) -> Result<ModelEnvelope, ExchangeError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return Err(ExchangeError::BadMagic);
    }
    let version = r.u16_le()?;
    if version != VERSION {
        return Err(ExchangeError::UnsupportedVersion(version));
    }
    let schema_index = r.u32_le()? as usize;
    let linkability_range = r.f64_le()?;
    let name_len = r.u32_le()? as usize;
    let schema_name = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|_| ExchangeError::MalformedShape("schema name is not UTF-8".into()))?;
    let dim = r.u32_le()? as usize;
    let mean = r.f64_vec(dim)?;
    let n_components = r.u32_le()? as usize;
    let n_values = n_components
        .checked_mul(dim)
        .ok_or_else(|| ExchangeError::MalformedShape("component count overflow".into()))?;
    let data = r.f64_vec(n_values)?;
    let envelope = ModelEnvelope {
        schema_name,
        schema_index,
        dim,
        mean,
        components: Matrix::from_vec(n_components, dim, data),
        linkability_range,
    };
    envelope.validate()?;
    Ok(envelope)
}

/// Rehydrates a received envelope into a [`LocalModel`], so a received
/// model scores signatures exactly like the sender's copy (the same error
/// formula over the same bits) and plugs into [`crate::assess::assess`]
/// next to natively trained models.
///
/// Note the explained-variance bookkeeping is not transferred (it is not
/// part of the paper's `M_k`), so re-truncation is not possible on the
/// receiving side — by design: the publisher chose the generalization.
pub fn to_model(envelope: &ModelEnvelope) -> Result<LocalModel, ExchangeError> {
    envelope.validate()?;
    let n = envelope.components.rows();
    let pca = Pca::from_parts(
        envelope.mean.clone(),
        envelope.components.clone(),
        vec![0.0; n],
        vec![0.0; n],
    )
    .map_err(|e| ExchangeError::MalformedShape(e.to_string()))?;
    Ok(LocalModel::from_parts(
        envelope.schema_index,
        pca,
        envelope.linkability_range,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::pca::ExplainedVariance;
    use cs_linalg::Xoshiro256;

    /// Raw bits of the reconstruction errors of `data` under `model`.
    fn error_bits(model: &LocalModel, data: &Matrix) -> Vec<u64> {
        let errors = model.reconstruction_errors(data);
        errors.iter().map(|x| x.to_bits()).collect()
    }

    fn trained_model() -> (LocalModel, Matrix) {
        let mut rng = Xoshiro256::seed_from(11);
        let data = Matrix::from_fn(20, 12, |_, _| rng.next_gaussian());
        let model = LocalModel::train(2, &data, ExplainedVariance::new(0.8).unwrap()).unwrap();
        (model, data)
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let (model, data) = trained_model();
        let envelope = ModelEnvelope::pack("OC-HANA", &model);
        let bytes = to_bytes(&envelope);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.schema_name, "OC-HANA");
        assert_eq!(back.schema_index, 2);
        assert_eq!(back.dim, 12);
        assert_eq!(back.mean, envelope.mean);
        assert_eq!(back.components, envelope.components);
        assert_eq!(back.linkability_range, envelope.linkability_range);
        // The received model scores exactly like the native one.
        let received = to_model(&back).unwrap();
        assert_eq!(error_bits(&received, &data), error_bits(&model, &data));
    }

    #[test]
    fn json_roundtrip() {
        let (model, data) = trained_model();
        let envelope = ModelEnvelope::pack("OC-Oracle", &model);
        let json = to_json(&envelope).unwrap();
        let received = to_model(&from_json(&json).unwrap()).unwrap();
        assert_eq!(error_bits(&received, &data), error_bits(&model, &data));
    }

    #[test]
    fn json_roundtrip_is_bit_exact() {
        let (model, _) = trained_model();
        let envelope = ModelEnvelope::pack("OC-HANA", &model);
        let back = from_json(&to_json(&envelope).unwrap()).unwrap();
        assert_eq!(back.mean, envelope.mean);
        assert_eq!(back.components, envelope.components);
        assert_eq!(
            back.linkability_range.to_bits(),
            envelope.linkability_range.to_bits()
        );
    }

    #[test]
    fn json_without_format_version_is_accepted_as_v1() {
        let (model, _) = trained_model();
        let json = to_json(&ModelEnvelope::pack("X", &model)).unwrap();
        let legacy = json.replacen("\"format_version\":1,", "", 1);
        assert!(!legacy.contains("format_version"));
        assert!(from_json(&legacy).is_ok());
    }

    #[test]
    fn json_future_version_is_rejected() {
        let (model, _) = trained_model();
        let json = to_json(&ModelEnvelope::pack("X", &model)).unwrap();
        let future = json.replacen("\"format_version\":1", "\"format_version\":7", 1);
        assert!(matches!(
            from_json(&future),
            Err(ExchangeError::UnsupportedVersion(7))
        ));
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let (model, _) = trained_model();
        let envelope = ModelEnvelope::pack("X", &model);
        let bin = to_bytes(&envelope);
        let json = to_json(&envelope).unwrap();
        assert!(bin.len() < json.len(), "{} vs {}", bin.len(), json.len());
    }

    #[test]
    fn corrupted_magic_rejected() {
        let (model, _) = trained_model();
        let mut bytes = to_bytes(&ModelEnvelope::pack("X", &model));
        bytes[0] = b'Z';
        assert!(matches!(from_bytes(&bytes), Err(ExchangeError::BadMagic)));
    }

    #[test]
    fn unsupported_version_rejected() {
        let (model, _) = trained_model();
        let mut bytes = to_bytes(&ModelEnvelope::pack("X", &model));
        bytes[4] = 99;
        assert!(matches!(
            from_bytes(&bytes),
            Err(ExchangeError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_prefix() {
        let (model, _) = trained_model();
        let bytes = to_bytes(&ModelEnvelope::pack("SCHEMA", &model));
        for cut in [0, 3, 5, 10, 20, bytes.len() - 1] {
            let result = from_bytes(&bytes[..cut]);
            assert!(result.is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn tampered_range_rejected() {
        let (model, _) = trained_model();
        let mut envelope = ModelEnvelope::pack("X", &model);
        envelope.linkability_range = f64::NAN;
        assert!(matches!(
            from_bytes(&to_bytes(&envelope)),
            Err(ExchangeError::MalformedShape(_))
        ));
    }

    #[test]
    fn shape_mismatch_rejected_in_json() {
        let (model, _) = trained_model();
        let mut envelope = ModelEnvelope::pack("X", &model);
        envelope.dim = 99;
        let json = to_json(&envelope).unwrap();
        assert!(matches!(
            from_json(&json),
            Err(ExchangeError::MalformedShape(_))
        ));
    }

    #[test]
    fn more_rows_than_dim_and_zero_width_rejected() {
        let (model, _) = trained_model();
        let mut envelope = ModelEnvelope::pack("X", &model);
        envelope.components = Matrix::from_fn(13, 12, |i, j| f64::from(u8::from(i == j)));
        let zero_width = ModelEnvelope {
            dim: 0,
            mean: Vec::new(),
            components: Matrix::zeros(1, 0),
            ..envelope.clone()
        };
        for envelope in [envelope, zero_width] {
            assert!(matches!(
                from_bytes(&to_bytes(&envelope)),
                Err(ExchangeError::MalformedShape(_))
            ));
        }
    }

    #[test]
    fn to_model_assesses_identically() {
        let (model, data) = trained_model();
        let received = to_model(&ModelEnvelope::pack("X", &model)).unwrap();
        assert_eq!(received.schema_index(), model.schema_index());
        assert_eq!(received.n_components(), model.n_components());
        assert_eq!(
            received.linkability_range().to_bits(),
            model.linkability_range().to_bits()
        );
        assert_eq!(error_bits(&received, &data), error_bits(&model, &data));
        assert_eq!(received.assess(&data), model.assess(&data));
    }

    #[test]
    fn unicode_schema_names_survive() {
        let (model, _) = trained_model();
        let envelope = ModelEnvelope::pack("Bestellungen-Köln-北京", &model);
        let back = from_bytes(&to_bytes(&envelope)).unwrap();
        assert_eq!(back.schema_name, "Bestellungen-Köln-北京");
        let back_json = from_json(&to_json(&envelope).unwrap()).unwrap();
        assert_eq!(back_json.schema_name, "Bestellungen-Köln-北京");
    }
}
