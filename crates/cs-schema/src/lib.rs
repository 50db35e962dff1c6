//! # cs-schema
//!
//! Relational-schema substrate: the data model every other crate consumes.
//!
//! - [`model`] — [`Schema`] / [`Table`] / [`Attribute`] metadata objects and
//!   the element addressing scheme ([`ElementId`], [`ElementRef`]),
//! - [`catalog`] — a [`Catalog`] of multiple schemas with a stable global
//!   element enumeration (the row order of every signature matrix),
//! - [`ddl`] — a SQL `CREATE TABLE` parser so datasets load from DDL text,
//! - [`serialize`] — the paper's `T^a` / `T^t` metadata-to-text functions,
//! - [`linkage`] — ground-truth [`LinkageSet`] with linkability labels
//!   (Definition 1) and unlinkable-overhead computation (Section 2.1),
//! - [`text`] — the identifier tokenizer and trigram shredder shared by
//!   the encoder, schema profiles and the lexical matcher.

pub mod catalog;
pub mod ddl;
pub mod linkage;
pub mod model;
pub mod profile;
pub mod serialize;
pub mod text;

pub use catalog::{Catalog, ElementId, ElementInfo};
pub use ddl::{parse_schema, DdlError};
pub use linkage::{LinkageKind, LinkagePair, LinkageSet};
pub use model::{Attribute, Constraint, DataType, ElementRef, Schema, Table};
pub use profile::{HeterogeneityReport, SchemaProfile};
pub use serialize::{serialize_attribute, serialize_table, SerializeOptions};
