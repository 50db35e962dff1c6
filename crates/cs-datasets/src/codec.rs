//! Canonical binary encoding for a [`Dataset`] — the byte-identity
//! oracle behind the generator's determinism contract.
//!
//! Companion to the `cs_core::exchange` envelope codec (same LE
//! length-prefixed layout, different payload): where the exchange format
//! ships trained models between parties, this one flattens an entire
//! dataset — catalog structure, every attribute's name/type/constraint,
//! and the ground-truth linkage set — into one deterministic byte string.
//! Two datasets encode to the same bytes **iff** they are structurally
//! identical, so "same seed ⇒ byte-identical `Dataset`" becomes a plain
//! slice comparison, and [`dataset_digest`] folds the encoding into the
//! workspace-standard FNV-1a digest the fuzz driver compares across
//! thread counts.
//!
//! Encode-only by design: nothing in the workspace rehydrates a
//! `Dataset` from bytes, and an unused decoder would be dead weight the
//! API gate has to carry.

use cs_schema::LinkageKind;

use crate::Dataset;

/// Format magic, little-endian version tag follows.
pub const MAGIC: &[u8; 4] = b"CSDS";

/// Bump when the byte layout changes.
pub const VERSION: u32 = 1;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    buf.extend_from_slice(&(v as u64).to_le_bytes());
}

/// Serializes the dataset into the canonical byte layout: magic/version
/// header, name, schema → table → attribute tree (types and constraints
/// via their canonical `Debug` form), then the linkage set in its sorted
/// iteration order.
pub fn dataset_to_bytes(dataset: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_str(&mut buf, &dataset.name);
    put_usize(&mut buf, dataset.catalog.schema_count());
    for schema in dataset.catalog.schemas() {
        put_str(&mut buf, &schema.name);
        put_usize(&mut buf, schema.tables.len());
        for table in &schema.tables {
            put_str(&mut buf, &table.name);
            put_usize(&mut buf, table.attributes.len());
            for attr in &table.attributes {
                put_str(&mut buf, &attr.name);
                put_str(&mut buf, &format!("{:?}", attr.data_type));
                put_str(&mut buf, &format!("{:?}", attr.constraint));
            }
        }
    }
    put_usize(&mut buf, dataset.linkages.len());
    for pair in dataset.linkages.iter() {
        put_usize(&mut buf, pair.a.schema);
        put_usize(&mut buf, pair.a.element);
        put_usize(&mut buf, pair.b.schema);
        put_usize(&mut buf, pair.b.element);
        buf.push(match pair.kind {
            LinkageKind::InterIdentical => 0,
            LinkageKind::InterSubTyped => 1,
        });
    }
    buf
}

/// FNV-1a digest of [`dataset_to_bytes`] — the workspace-standard 64-bit
/// fold used by the fault matrix and the sanitizer reports.
pub fn dataset_digest(dataset: &Dataset) -> u64 {
    cs_linalg::fnv1a(&dataset_to_bytes(dataset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SyntheticConfig};

    #[test]
    fn encoding_is_deterministic_and_seed_sensitive() {
        let a = generate(&SyntheticConfig::default());
        let b = generate(&SyntheticConfig::default());
        assert_eq!(dataset_to_bytes(&a), dataset_to_bytes(&b));
        assert_eq!(dataset_digest(&a), dataset_digest(&b));
        let c = generate(&SyntheticConfig {
            seed: 7,
            ..Default::default()
        });
        assert_ne!(dataset_digest(&a), dataset_digest(&c));
    }

    #[test]
    fn encoding_distinguishes_names_types_and_linkages() {
        let base = generate(&SyntheticConfig::default());
        let mut renamed = base.clone();
        renamed.catalog = {
            let mut schemas = renamed.catalog.schemas().to_vec();
            schemas[0].tables[0].attributes[0].name.push('X');
            cs_schema::Catalog::from_schemas(schemas)
        };
        assert_ne!(dataset_digest(&base), dataset_digest(&renamed));

        let mut unlinked = base.clone();
        unlinked.linkages = cs_schema::LinkageSet::new();
        assert_ne!(dataset_digest(&base), dataset_digest(&unlinked));
    }

    #[test]
    fn header_is_pinned() {
        let bytes = dataset_to_bytes(&generate(&SyntheticConfig::default()));
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(bytes[4..8], VERSION.to_le_bytes());
    }
}
