//! Table schemas and the database catalog.

/// Column data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// Identifier of a table in the catalog (dense index).
pub type TableId = usize;

/// A table schema.
///
/// The *primary key* is a tuple of leading key columns; the *partitioning
/// key* is, as in H-Store, a single column whose value routes transactions.
/// For single-partition execution the partitioning column must be the first
/// primary-key component, so all rows of one logical entity co-locate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (unique in the catalog).
    pub name: String,
    /// Columns, in order.
    pub columns: Vec<Column>,
    /// Number of leading columns forming the primary key.
    pub key_columns: usize,
}

impl TableSchema {
    /// Creates a schema.
    ///
    /// # Panics
    /// Panics if there are no columns, no key columns, or more key columns
    /// than columns.
    pub fn new(name: impl Into<String>, columns: Vec<Column>, key_columns: usize) -> Self {
        let name = name.into();
        assert!(!columns.is_empty(), "table {name} needs columns");
        assert!(
            key_columns >= 1 && key_columns <= columns.len(),
            "table {name}: invalid key column count"
        );
        TableSchema {
            name,
            columns,
            key_columns,
        }
    }
}

/// The set of tables in the database.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    tables: Vec<TableSchema>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds a table, returning its id.
    ///
    /// # Panics
    /// Panics if a table with the same name exists.
    pub fn add_table(&mut self, schema: TableSchema) -> TableId {
        assert!(
            self.tables.iter().all(|t| t.name != schema.name),
            "duplicate table {}",
            schema.name
        );
        let id = self.tables.len();
        self.tables.push(schema);
        id
    }

    /// Schema by id.
    pub fn table(&self, id: TableId) -> &TableSchema {
        &self.tables[id]
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterator over `(id, schema)`.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &TableSchema)> {
        self.tables.iter().enumerate()
    }
}

/// Shorthand for building a column list.
pub fn columns(defs: &[(&str, ColumnType)]) -> Vec<Column> {
    defs.iter()
        .map(|(name, ty)| Column {
            name: (*name).to_string(),
            ty: *ty,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cart_schema() -> TableSchema {
        TableSchema::new(
            "CART",
            columns(&[
                ("cart_id", ColumnType::Str),
                ("customer_id", ColumnType::Str),
                ("total", ColumnType::Float),
            ]),
            1,
        )
    }

    #[test]
    fn catalog_round_trips_tables() {
        let mut cat = Catalog::new();
        let id = cat.add_table(cart_schema());
        assert_eq!(cat.table(id).name, "CART");
        assert_eq!(cat.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_table_rejected() {
        let mut cat = Catalog::new();
        cat.add_table(cart_schema());
        cat.add_table(cart_schema());
    }

    #[test]
    #[should_panic(expected = "invalid key column count")]
    fn zero_key_columns_rejected() {
        let _ = TableSchema::new("T", columns(&[("a", ColumnType::Int)]), 0);
    }
}
