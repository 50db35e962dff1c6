//! Metadata-to-text serialization — the paper's `T^a` and `T^t` functions
//! (Section 2.3).
//!
//! - `T^a(a)` = `"<attr name> <table name> <data type> [PRIMARY KEY|FOREIGN KEY]"`,
//!   e.g. `"CID CLIENT INTEGER PRIMARY KEY"`.
//! - `T^t(t)` = `"<table name> [<attr 1>, <attr 2>, …]"`,
//!   e.g. `"CLIENT [CID, NAME, ADDRESS, PHONE]"`.
//!
//! [`SerializeOptions`] lets the signature-composition ablation switch
//! individual metadata parts off (Section 5 of DESIGN.md).

use crate::catalog::{Catalog, ElementId};
use crate::model::{Attribute, ElementRef, Schema, Table};

/// Which metadata parts participate in the serialization. The default
/// matches the paper exactly (everything on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SerializeOptions {
    /// Include the owning table name in `T^a`.
    pub attribute_table_name: bool,
    /// Include the canonical data-type word in `T^a`.
    pub data_type: bool,
    /// Include `PRIMARY KEY` / `FOREIGN KEY` in `T^a`.
    pub constraint: bool,
    /// Include the bracketed attribute-name list in `T^t`.
    pub table_attribute_names: bool,
}

impl Default for SerializeOptions {
    fn default() -> Self {
        Self {
            attribute_table_name: true,
            data_type: true,
            constraint: true,
            table_attribute_names: true,
        }
    }
}

impl SerializeOptions {
    /// Name-only variant used by the signature ablation.
    pub fn names_only() -> Self {
        Self {
            attribute_table_name: false,
            data_type: false,
            constraint: false,
            table_attribute_names: false,
        }
    }
}

/// Serializes an attribute per `T^a`.
pub fn serialize_attribute(attr: &Attribute, table_name: &str, opts: &SerializeOptions) -> String {
    let mut parts: Vec<&str> = vec![&attr.name];
    if opts.attribute_table_name {
        parts.push(table_name);
    }
    let type_word;
    if opts.data_type {
        type_word = attr.data_type.canonical_word().to_string();
        parts.push(&type_word);
    }
    if opts.constraint {
        let c = attr.constraint.words();
        if !c.is_empty() {
            parts.push(c);
        }
    }
    parts.join(" ")
}

/// Serializes a table per `T^t`.
pub fn serialize_table(table: &Table, opts: &SerializeOptions) -> String {
    if !opts.table_attribute_names {
        return table.name.clone();
    }
    let names: Vec<&str> = table.attributes.iter().map(|a| a.name.as_str()).collect();
    format!("{} [{}]", table.name, names.join(", "))
}

/// Serializes one catalog element (dispatching on table vs attribute).
pub fn serialize_element(catalog: &Catalog, id: ElementId, opts: &SerializeOptions) -> String {
    serialize_ref(catalog.schema(id.schema), catalog.element_ref(id), opts)
}

fn serialize_ref(schema: &Schema, element: ElementRef, opts: &SerializeOptions) -> String {
    match element {
        ElementRef::Table { table } => serialize_table(&schema.tables[table], opts),
        ElementRef::Attribute { table, attribute } => {
            let t = &schema.tables[table];
            serialize_attribute(&t.attributes[attribute], &t.name, opts)
        }
    }
}

/// Serializes every element of one schema in canonical order — the paper's
/// `S_k^t` (Algorithm 1 line 1).
pub fn serialize_schema_elements(
    catalog: &Catalog,
    schema: usize,
    opts: &SerializeOptions,
) -> Vec<String> {
    // One enumeration of the schema, not one per element.
    let schema = catalog.schema(schema);
    schema
        .element_refs()
        .into_iter()
        .map(|r| serialize_ref(schema, r, opts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Constraint, DataType};

    fn client_table() -> Table {
        Table::new(
            "CLIENT",
            vec![
                Attribute::new("CID", DataType::Integer, Constraint::PrimaryKey),
                Attribute::plain("NAME", DataType::Varchar(Some(100))),
                Attribute::plain("ADDRESS", DataType::Varchar(None)),
                Attribute::new("REGION_ID", DataType::Integer, Constraint::ForeignKey),
            ],
        )
    }

    #[test]
    fn paper_example_attribute() {
        let t = client_table();
        let opts = SerializeOptions::default();
        // The paper's Figure-1 example: "CID CLIENT NUMBER PRIMARY KEY"
        // (our canonical type word is INTEGER).
        assert_eq!(
            serialize_attribute(&t.attributes[0], &t.name, &opts),
            "CID CLIENT INTEGER PRIMARY KEY"
        );
        assert_eq!(
            serialize_attribute(&t.attributes[1], &t.name, &opts),
            "NAME CLIENT VARCHAR"
        );
        assert_eq!(
            serialize_attribute(&t.attributes[3], &t.name, &opts),
            "REGION_ID CLIENT INTEGER FOREIGN KEY"
        );
    }

    #[test]
    fn paper_example_table() {
        let t = client_table();
        assert_eq!(
            serialize_table(&t, &SerializeOptions::default()),
            "CLIENT [CID, NAME, ADDRESS, REGION_ID]"
        );
    }

    #[test]
    fn names_only_options() {
        let t = client_table();
        let opts = SerializeOptions::names_only();
        assert_eq!(serialize_attribute(&t.attributes[0], &t.name, &opts), "CID");
        assert_eq!(serialize_table(&t, &opts), "CLIENT");
    }

    #[test]
    fn catalog_element_serialization_order() {
        let schema = Schema::new("S1", vec![client_table()]);
        let catalog = Catalog::from_schemas(vec![schema]);
        let texts = serialize_schema_elements(&catalog, 0, &SerializeOptions::default());
        assert_eq!(texts.len(), 5);
        assert!(texts[0].starts_with("CID CLIENT"));
        assert!(texts[4].starts_with("CLIENT ["));
        for (e, text) in texts.iter().enumerate() {
            let id = ElementId::new(0, e);
            assert_eq!(
                text,
                &serialize_element(&catalog, id, &SerializeOptions::default())
            );
        }
    }

    #[test]
    fn empty_table_serializes_empty_brackets() {
        let t = Table::new("EMPTY", vec![]);
        assert_eq!(
            serialize_table(&t, &SerializeOptions::default()),
            "EMPTY []"
        );
    }
}
