//! Schema profiling and heterogeneity quantification.
//!
//! The paper characterizes multi-source scenarios as heterogeneous along
//! three axes (Section 2.4): **volume** (element counts), **design**
//! (normalization level / attribute atomicity), and **domain**
//! (vocabulary). This module computes per-schema profiles and pairwise /
//! catalog-level heterogeneity indices so scenarios can be compared
//! quantitatively — e.g. OC3 vs OC3-FO, or a user's own catalog against
//! the evaluation datasets.

use crate::catalog::Catalog;
use crate::model::Schema;
use crate::text::tokenize;
use std::collections::{BTreeMap, BTreeSet};

/// Per-schema structural profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaProfile {
    /// Schema name.
    pub name: String,
    /// Table count.
    pub tables: usize,
    /// Attribute count.
    pub attributes: usize,
    /// Mean attributes per table (0 for empty schemas).
    pub mean_table_width: f64,
    /// Widest table.
    pub max_table_width: usize,
    /// Histogram of canonical type words. Ordered so emitters can iterate
    /// it directly without hasher-dependent row order (DESIGN.md §8).
    pub type_histogram: BTreeMap<String, usize>,
    /// Number of key-constrained attributes (PK or FK).
    pub key_attributes: usize,
    /// The schema's name-token vocabulary ([`tokenize`] tokens of table
    /// and attribute names, all-digit tokens dropped); ordered for the
    /// same reason as the histogram.
    pub vocabulary: BTreeSet<String>,
}

impl SchemaProfile {
    /// Profiles one schema.
    pub fn of(schema: &Schema) -> Self {
        let tables = schema.table_count();
        let attributes = schema.attribute_count();
        let mut type_histogram: BTreeMap<String, usize> = BTreeMap::new();
        let mut key_attributes = 0;
        let mut vocabulary = BTreeSet::new();
        let mut max_table_width = 0;
        for table in &schema.tables {
            max_table_width = max_table_width.max(table.attributes.len());
            vocabulary.extend(vocabulary_tokens(&table.name));
            for attr in &table.attributes {
                *type_histogram
                    .entry(attr.data_type.canonical_word().to_string())
                    .or_default() += 1;
                if attr.constraint != crate::model::Constraint::None {
                    key_attributes += 1;
                }
                vocabulary.extend(vocabulary_tokens(&attr.name));
            }
        }
        Self {
            name: schema.name.clone(),
            tables,
            attributes,
            mean_table_width: if tables == 0 {
                0.0
            } else {
                attributes as f64 / tables as f64
            },
            max_table_width,
            type_histogram,
            key_attributes,
            vocabulary,
        }
    }
}

/// The name's [`tokenize`] tokens, all-digit tokens dropped (bare
/// numbers carry no vocabulary).
fn vocabulary_tokens(name: &str) -> impl Iterator<Item = String> {
    tokenize(name)
        .into_iter()
        .filter(|w| !w.chars().all(|c| c.is_ascii_digit()))
}

/// Catalog-level heterogeneity indices, all in `[0, 1]` (0 = homogeneous).
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneityReport {
    /// Per-schema profiles.
    pub profiles: Vec<SchemaProfile>,
    /// Volume heterogeneity: coefficient of variation of element counts,
    /// squashed to `[0, 1)` as `cv / (1 + cv)`.
    pub volume: f64,
    /// Design heterogeneity: relative spread of mean table widths
    /// (attribute atomicity / normalization proxy), squashed like volume.
    pub design: f64,
    /// Domain heterogeneity: `1 −` mean pairwise Jaccard similarity of
    /// the schemas' name vocabularies.
    pub domain: f64,
}

impl HeterogeneityReport {
    /// Profiles a catalog.
    ///
    /// # Panics
    /// If the catalog holds fewer than two schemas (pairwise indices are
    /// undefined).
    pub fn of(catalog: &Catalog) -> Self {
        assert!(
            catalog.schema_count() >= 2,
            "heterogeneity needs at least two schemas"
        );
        let profiles: Vec<SchemaProfile> =
            catalog.schemas().iter().map(SchemaProfile::of).collect();

        let volume = squash(coefficient_of_variation(
            &profiles
                .iter()
                .map(|p| (p.tables + p.attributes) as f64)
                .collect::<Vec<_>>(),
        ));
        let design = squash(coefficient_of_variation(
            &profiles
                .iter()
                .map(|p| p.mean_table_width)
                .collect::<Vec<_>>(),
        ));

        let mut jaccards = Vec::new();
        for i in 0..profiles.len() {
            for j in (i + 1)..profiles.len() {
                jaccards.push(jaccard(&profiles[i].vocabulary, &profiles[j].vocabulary));
            }
        }
        let mean_jaccard = jaccards.iter().sum::<f64>() / jaccards.len() as f64;
        let domain = 1.0 - mean_jaccard;

        Self {
            profiles,
            volume,
            design,
            domain,
        }
    }
}

fn coefficient_of_variation(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

fn squash(cv: f64) -> f64 {
    cv / (1.0 + cv)
}

fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Attribute, Constraint, DataType, Table};

    fn schema(name: &str, tables: &[(&str, &[&str])]) -> Schema {
        Schema::new(
            name,
            tables
                .iter()
                .map(|(tname, attrs)| {
                    Table::new(
                        *tname,
                        attrs
                            .iter()
                            .enumerate()
                            .map(|(i, a)| {
                                Attribute::new(
                                    *a,
                                    DataType::Integer,
                                    if i == 0 {
                                        Constraint::PrimaryKey
                                    } else {
                                        Constraint::None
                                    },
                                )
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn profile_counts() {
        let s = schema(
            "S",
            &[
                ("ORDERS", &["ORDER_ID", "ORDER_DATE"]),
                ("ITEMS", &["ITEM_ID"]),
            ],
        );
        let p = SchemaProfile::of(&s);
        assert_eq!(p.tables, 2);
        assert_eq!(p.attributes, 3);
        assert_eq!(p.max_table_width, 2);
        assert!((p.mean_table_width - 1.5).abs() < 1e-12);
        assert_eq!(p.key_attributes, 2);
        assert_eq!(p.type_histogram["INTEGER"], 3);
        assert!(p.vocabulary.contains("ORDER"));
        assert!(p.vocabulary.contains("ITEMS"));
    }

    #[test]
    fn identical_schemas_are_homogeneous() {
        let a = schema("A", &[("T", &["X_ID", "NAME"])]);
        let b = schema("B", &[("T", &["X_ID", "NAME"])]);
        let report = HeterogeneityReport::of(&Catalog::from_schemas(vec![a, b]));
        assert!(report.volume < 1e-12);
        assert!(report.design < 1e-12);
        assert!(report.domain < 1e-12);
    }

    #[test]
    fn disjoint_vocabulary_maxes_domain() {
        let a = schema("A", &[("CUSTOMER", &["NAME", "CITY"])]);
        let b = schema("B", &[("CIRCUIT", &["LAP", "SPEED"])]);
        let report = HeterogeneityReport::of(&Catalog::from_schemas(vec![a, b]));
        assert!((report.domain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn volume_spread_registers() {
        let small = schema("A", &[("T", &["A"])]);
        let big = schema(
            "B",
            &[
                ("T1", &["A", "B", "C", "D", "E"]),
                ("T2", &["F", "G", "H", "I", "J"]),
            ],
        );
        let report = HeterogeneityReport::of(&Catalog::from_schemas(vec![small, big]));
        assert!(report.volume > 0.3, "{}", report.volume);
    }

    #[test]
    fn indices_bounded() {
        let ds = Catalog::from_schemas(vec![
            schema("A", &[("X", &["A1", "A2"])]),
            schema("B", &[("Y", &["B1"]), ("Z", &["B2", "B3", "B4"])]),
            schema("C", &[("W", &["C1", "A1"])]),
        ]);
        let report = HeterogeneityReport::of(&ds);
        for idx in [report.volume, report.design, report.domain] {
            assert!((0.0..=1.0).contains(&idx), "{idx}");
        }
    }

    #[test]
    fn vocabulary_tokens_split_and_filter_digits() {
        let words = |name: &str| vocabulary_tokens(name).collect::<Vec<_>>();
        assert_eq!(words("ADDRESS_LINE1"), vec!["ADDRESS", "LINE"]);
        assert_eq!(words("q1_time"), vec!["Q", "TIME"]);
        assert!(words("123").is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two schemas")]
    fn single_schema_panics() {
        HeterogeneityReport::of(&Catalog::from_schemas(vec![schema("A", &[("T", &["A"])])]));
    }
}
