//! Phase I: local signatures.
//!
//! [`SchemaSignatures`] holds one signature matrix per schema (row order =
//! the catalog's canonical element enumeration) plus the id bookkeeping
//! that maps matrix rows back to tables/attributes.

use std::sync::Arc;

use cs_embed::SignatureEncoder;
use cs_linalg::Matrix;
use cs_schema::serialize::serialize_schema_elements;
use cs_schema::{Catalog, ElementId, SerializeOptions};

/// The immutable signature data, shared by every clone of a catalog.
#[derive(Debug)]
struct Inner {
    per_schema: Vec<Matrix>,
    schema_names: Vec<String>,
    dim: usize,
}

/// Per-schema signature matrices for one catalog.
///
/// The matrices are immutable once built and held behind an [`Arc`], so
/// `Clone` is a reference-count bump — cheap enough to hand an owned
/// catalog to every closure the parallel runtime ([`crate::pool`])
/// dispatches, without copying signature data.
#[derive(Debug, Clone)]
pub struct SchemaSignatures {
    inner: Arc<Inner>,
}

impl SchemaSignatures {
    /// Builds from pre-computed per-schema matrices.
    ///
    /// # Panics
    /// If matrices disagree on dimensionality.
    pub fn from_matrices(per_schema: Vec<Matrix>, schema_names: Vec<String>) -> Self {
        assert_eq!(
            per_schema.len(),
            schema_names.len(),
            "name/matrix count mismatch"
        );
        let dim = per_schema
            .iter()
            .map(Matrix::cols)
            .find(|&c| c > 0)
            .unwrap_or(0);
        for m in &per_schema {
            assert!(
                m.cols() == dim || m.rows() == 0,
                "inconsistent signature dimensionality"
            );
        }
        Self {
            inner: Arc::new(Inner {
                per_schema,
                schema_names,
                dim,
            }),
        }
    }

    /// Number of schemas.
    pub fn schema_count(&self) -> usize {
        self.inner.per_schema.len()
    }

    /// Signature dimensionality.
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// Schema display names.
    pub fn schema_names(&self) -> &[String] {
        &self.inner.schema_names
    }

    /// Signature matrix of one schema (`|S_k| × dim`).
    pub fn schema(&self, k: usize) -> &Matrix {
        &self.inner.per_schema[k]
    }

    /// Number of elements in schema `k`.
    pub fn schema_len(&self, k: usize) -> usize {
        self.inner.per_schema[k].rows()
    }

    /// Total elements across schemas — `|S|`.
    pub fn total_len(&self) -> usize {
        self.inner.per_schema.iter().map(Matrix::rows).sum()
    }

    /// All signatures stacked into one matrix, schema by schema — the
    /// unified set `S^v⃗` global scoping operates on.
    pub fn unified(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        for m in &self.inner.per_schema {
            out = out.vstack(m);
        }
        if out.is_empty() && out.cols() == 0 {
            Matrix::zeros(0, self.inner.dim)
        } else {
            out
        }
    }

    /// Element ids in unified (stacked) row order.
    pub fn element_ids(&self) -> Vec<ElementId> {
        let mut out = Vec::with_capacity(self.total_len());
        for (k, m) in self.inner.per_schema.iter().enumerate() {
            for e in 0..m.rows() {
                out.push(ElementId::new(k, e));
            }
        }
        out
    }

    /// Unified row index of an element id.
    pub fn row_of(&self, id: ElementId) -> usize {
        let offset: usize = self.inner.per_schema[..id.schema]
            .iter()
            .map(Matrix::rows)
            .sum();
        offset + id.element
    }
}

/// Encodes every element of a catalog with the paper's default
/// serialization (phase I end-to-end).
pub fn encode_catalog(encoder: &SignatureEncoder, catalog: &Catalog) -> SchemaSignatures {
    encode_catalog_with(encoder, catalog, &SerializeOptions::default())
}

/// Encodes with explicit serialization options (signature ablation).
///
/// The whole catalog is one planned batch
/// ([`SignatureEncoder::encode_lists`]): each distinct token and label is
/// encoded once, and each schema's rows are pooled straight into its own
/// matrix.
pub fn encode_catalog_with(
    encoder: &SignatureEncoder,
    catalog: &Catalog,
    opts: &SerializeOptions,
) -> SchemaSignatures {
    let texts: Vec<Vec<String>> = (0..catalog.schema_count())
        .map(|k| serialize_schema_elements(catalog, k, opts))
        .collect();
    let lists: Vec<&[String]> = texts.iter().map(Vec::as_slice).collect();
    let per_schema = encoder.encode_lists(&lists);
    let names = (0..catalog.schema_count())
        .map(|k| catalog.schema(k).name.clone())
        .collect();
    SchemaSignatures::from_matrices(per_schema, names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_schema::{Attribute, DataType, Schema, Table};

    fn catalog() -> Catalog {
        Catalog::from_schemas(vec![
            Schema::new(
                "S1",
                vec![Table::new(
                    "CLIENT",
                    vec![
                        Attribute::plain("CID", DataType::Integer),
                        Attribute::plain("NAME", DataType::Varchar(None)),
                    ],
                )],
            ),
            Schema::new(
                "S2",
                vec![Table::new(
                    "CUSTOMER",
                    vec![Attribute::plain("ID", DataType::Integer)],
                )],
            ),
        ])
    }

    #[test]
    fn encode_catalog_shapes() {
        let enc = SignatureEncoder::default();
        let sigs = encode_catalog(&enc, &catalog());
        assert_eq!(sigs.schema_count(), 2);
        assert_eq!(sigs.dim(), 768);
        assert_eq!(sigs.schema_len(0), 3); // 2 attrs + 1 table
        assert_eq!(sigs.schema_len(1), 2);
        assert_eq!(sigs.total_len(), 5);
        assert_eq!(sigs.unified().shape(), (5, 768));
        assert_eq!(sigs.schema_names(), &["S1".to_string(), "S2".to_string()]);
    }

    #[test]
    fn element_ids_align_with_unified_rows() {
        let enc = SignatureEncoder::default();
        let c = catalog();
        let sigs = encode_catalog(&enc, &c);
        let ids = sigs.element_ids();
        assert_eq!(ids.len(), 5);
        let unified = sigs.unified();
        for (row, id) in ids.iter().enumerate() {
            assert_eq!(sigs.row_of(*id), row);
            assert_eq!(unified.row(row), sigs.schema(id.schema).row(id.element));
        }
    }

    #[test]
    fn signatures_match_direct_encoding() {
        let enc = SignatureEncoder::default();
        let c = catalog();
        let sigs = encode_catalog(&enc, &c);
        let expected = enc.encode("NAME CLIENT VARCHAR");
        let id = c.attribute_id("S1", "CLIENT", "NAME").unwrap();
        assert_eq!(sigs.schema(0).row(id.element), expected.as_slice());
    }

    #[test]
    fn catalog_equals_one_batch_per_schema() {
        let enc = SignatureEncoder::default();
        let ds = cs_datasets::oc3_fo();
        let sigs = encode_catalog(&enc, &ds.catalog);
        for k in 0..ds.catalog.schema_count() {
            let texts = serialize_schema_elements(&ds.catalog, k, &SerializeOptions::default());
            let alone = enc.encode_batch(&texts);
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(sigs.schema(k).shape(), alone.shape(), "schema {k}");
            assert_eq!(bits(sigs.schema(k)), bits(&alone), "schema {k}");
        }
    }

    #[test]
    fn empty_catalog() {
        let enc = SignatureEncoder::default();
        let sigs = encode_catalog(&enc, &Catalog::new());
        assert_eq!(sigs.schema_count(), 0);
        assert_eq!(sigs.total_len(), 0);
    }

    #[test]
    fn clone_shares_signature_data() {
        let enc = SignatureEncoder::default();
        let sigs = encode_catalog(&enc, &catalog());
        let cloned = sigs.clone();
        assert!(Arc::ptr_eq(&sigs.inner, &cloned.inner));
    }

    /// FNV-1a over the little-endian bits of every signature, schema by
    /// schema in row-major order.
    fn signature_digest(sigs: &SchemaSignatures) -> u64 {
        let bytes: Vec<u8> = (0..sigs.schema_count())
            .flat_map(|k| sigs.schema(k).as_slice().to_vec())
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect();
        cs_embed::hash::fnv1a(&bytes)
    }

    #[test]
    fn oc3_fo_signatures_are_pinned() {
        // The real DDL vocabulary (abbreviations, segmentation, type words)
        // that the generated catalogs behind the fault and fuzz digests do
        // not reach. Any encoder change that moves one bit moves this pin.
        let sigs = encode_catalog(&SignatureEncoder::default(), &cs_datasets::oc3_fo().catalog);
        assert_eq!(sigs.total_len(), 287);
        assert_eq!(
            format!("{:016x}", signature_digest(&sigs)),
            "c5c07fd03890bfae"
        );
    }

    #[test]
    #[should_panic(expected = "name/matrix count mismatch")]
    fn mismatched_names_panics() {
        SchemaSignatures::from_matrices(vec![Matrix::zeros(1, 4)], vec![]);
    }
}
