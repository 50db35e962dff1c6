//! Catalog adapters for the generated workloads.
//!
//! - [`respell`]: `cs_datasets::synthetic::generate` tells elements apart
//!   mostly by numbers (`X0_PRIVATE_3_123456`, `CUSTOMER_7`, `S2_T11`), but
//!   the signature encoder skips bare-number tokens, so most generated
//!   signatures collide. The adapter rewrites every digit run in a table or
//!   attribute name as letter syllables (`123` → `BAKEDI`), which the
//!   encoder keeps. A name that is one of the words the DDL reader takes
//!   for a table constraint at the start of a column (`CHECK`, `KEY`, …)
//!   gets a `_FIELD` suffix. Only names change; element positions, and
//!   with them the positional ground truth, stay as generated.
//! - [`to_ddl`]: a schema as the `CREATE TABLE` script a pass starts from.
//! - [`shuffle_tables`]: a seeded declaration order of each schema's
//!   tables, with the ground truth following its elements. The pipeline's
//!   decisions do not depend on declaration order, so this varies the input
//!   a run sees without changing the work it measures.

use cs_datasets::Dataset;
use cs_linalg::Xoshiro256;
use cs_schema::{Catalog, Constraint, DataType, ElementId, LinkagePair, LinkageSet, Schema};
use std::fmt::Write as _;

/// One consonant–vowel syllable per decimal digit.
const SYLLABLES: [&str; 10] = ["ZO", "BA", "KE", "DI", "FU", "GA", "HO", "JU", "LE", "MI"];

/// Words that open a table constraint when they start a column definition.
const CONSTRAINT_WORDS: [&str; 8] = [
    "PRIMARY",
    "FOREIGN",
    "CONSTRAINT",
    "UNIQUE",
    "CHECK",
    "INDEX",
    "KEY",
    "FULLTEXT",
];

/// `name` with each digit replaced by its syllable, and a constraint word
/// suffixed.
pub fn respell_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() * 2);
    for c in name.chars() {
        match c.to_digit(10) {
            Some(d) => out.push_str(SYLLABLES[d as usize]),
            None => out.push(c),
        }
    }
    if CONSTRAINT_WORDS
        .iter()
        .any(|w| w.eq_ignore_ascii_case(&out))
    {
        out.push_str("_FIELD");
    }
    out
}

/// `dataset` with every table and attribute name respelled; linkages are
/// carried over untouched.
pub fn respell(dataset: Dataset) -> Dataset {
    let mut schemas = dataset.catalog.schemas().to_vec();
    for table in schemas.iter_mut().flat_map(|s| s.tables.iter_mut()) {
        table.name = respell_name(&table.name);
        for attr in &mut table.attributes {
            attr.name = respell_name(&attr.name);
        }
    }
    Dataset {
        name: format!("{}+respelled", dataset.name),
        catalog: Catalog::from_schemas(schemas),
        linkages: dataset.linkages,
    }
}

/// `dataset` with each schema's tables in a seeded order. Element ids
/// move with their tables, and the linkages are remapped to match.
pub fn shuffle_tables(dataset: Dataset, seed: u64) -> Dataset {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut schemas = Vec::with_capacity(dataset.catalog.schema_count());
    // Per schema: old element index → new element index.
    let mut moved: Vec<Vec<usize>> = Vec::with_capacity(schemas.capacity());
    for schema in dataset.catalog.schemas() {
        let mut order: Vec<usize> = (0..schema.tables.len()).collect();
        rng.shuffle(&mut order);
        // Elements are all attributes table by table, then all tables.
        let mut new_table = vec![0; order.len()];
        let mut new_attr_start = vec![0; order.len()];
        let mut next_attr = 0;
        for (pos, &t) in order.iter().enumerate() {
            new_table[t] = pos;
            new_attr_start[t] = next_attr;
            next_attr += schema.tables[t].attributes.len();
        }
        let mut map: Vec<usize> = schema
            .tables
            .iter()
            .enumerate()
            .flat_map(|(t, table)| (0..table.attributes.len()).map(move |a| (t, a)))
            .map(|(t, a)| new_attr_start[t] + a)
            .collect();
        map.extend(new_table.iter().map(|&pos| next_attr + pos));
        moved.push(map);
        let tables = order.iter().map(|&t| schema.tables[t].clone()).collect();
        schemas.push(Schema::new(schema.name.clone(), tables));
    }
    let remap = |id: ElementId| ElementId::new(id.schema, moved[id.schema][id.element]);
    let linkages = LinkageSet::from_pairs(
        dataset
            .linkages
            .iter()
            .map(|p| LinkagePair::new(remap(p.a), remap(p.b), p.kind)),
    );
    Dataset {
        name: format!("{}+tables{seed}", dataset.name),
        catalog: Catalog::from_schemas(schemas),
        linkages,
    }
}

/// `schema` as one `CREATE TABLE` statement per table.
pub fn to_ddl(schema: &Schema) -> String {
    let mut out = String::new();
    for table in &schema.tables {
        let _ = writeln!(out, "CREATE TABLE {} (", table.name);
        for (i, attr) in table.attributes.iter().enumerate() {
            let ty = match &attr.data_type {
                DataType::Varchar(Some(n)) => format!("VARCHAR({n})"),
                DataType::Char(Some(n)) => format!("CHAR({n})"),
                DataType::Decimal => "DECIMAL(12, 2)".to_string(),
                other => other.canonical_word().to_string(),
            };
            let constraint = match attr.constraint {
                Constraint::PrimaryKey => " PRIMARY KEY".to_string(),
                Constraint::ForeignKey => format!(" REFERENCES {}({})", table.name, attr.name),
                _ => String::new(),
            };
            let sep = if i + 1 < table.attributes.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "  {} {ty}{constraint}{sep}", attr.name);
        }
        out.push_str(");\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{distinct_ratio, Kind};
    use cs_core::encode_catalog;

    #[test]
    fn digit_runs_become_syllables() {
        assert_eq!(
            respell_name("X0_PRIVATE_3_123456"),
            "XZO_PRIVATE_DI_BAKEDIFUGAHO"
        );
        assert_eq!(respell_name("S12_T7"), "SBAKE_TJU");
        assert_eq!(respell_name("CUSTOMER"), "CUSTOMER");
        assert_eq!(respell_name("CHECK"), "CHECK_FIELD");
    }

    #[test]
    fn respelling_keeps_counts_and_linkages() {
        for kind in [Kind::Gen768, Kind::Sweep10k] {
            let raw = kind.generated();
            let respelled = respell(raw.clone());
            assert_eq!(
                respelled.catalog.element_count(),
                raw.catalog.element_count()
            );
            for (a, b) in respelled
                .catalog
                .schemas()
                .iter()
                .zip(raw.catalog.schemas())
            {
                assert_eq!(a.table_count(), b.table_count());
                assert_eq!(a.attribute_count(), b.attribute_count());
            }
            assert_eq!(respelled.linkages, raw.linkages);
        }
    }

    #[test]
    fn respelled_signatures_are_all_distinct() {
        for kind in [Kind::Gen768, Kind::Sweep10k] {
            let raw = kind.generated();
            let encoder = kind.encoder();
            let before = distinct_ratio(&encode_catalog(&encoder, &raw.catalog));
            let after = distinct_ratio(&encode_catalog(&encoder, &respell(raw).catalog));
            assert!(
                (0.1..0.2).contains(&before),
                "{kind:?}: {before} distinct without the adapter"
            );
            assert_eq!(after, 1.0, "{kind:?}: {after} distinct with the adapter");
        }
    }

    #[test]
    fn generated_ddl_reads_back_to_the_catalog() {
        for kind in [Kind::Gen768, Kind::Sweep10k] {
            let ds = respell(kind.generated());
            for schema in ds.catalog.schemas() {
                let back = cs_schema::parse_schema(&schema.name, &to_ddl(schema)).unwrap();
                assert_eq!(&back, schema);
            }
        }
    }

    #[test]
    fn shuffled_linkages_name_the_same_elements() {
        let ds = respell(Kind::Gen768.generated());
        let shuffled = shuffle_tables(ds.clone(), 7);
        assert_ne!(shuffled.catalog, ds.catalog);
        assert_eq!(shuffled.linkages.len(), ds.linkages.len());
        let names = |d: &Dataset| {
            let mut v: Vec<(String, String)> = d
                .linkages
                .iter()
                .map(|p| {
                    (
                        d.catalog.info(p.a).qualified_name,
                        d.catalog.info(p.b).qualified_name,
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&shuffled), names(&ds));
    }
}
