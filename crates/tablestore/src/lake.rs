//! The data lake: a named collection of tables with no declared join relations.

use crate::{Table, TableError};

/// A data lake `D = {D1, ..., Dl}`.
///
/// Tables are stored in insertion order; names are unique, and re-adding a
/// table with an existing name replaces it (lakes are refreshed wholesale in
/// practice). Refreshes and clones are cheap: a [`Table`]'s sealed chunks
/// are immutable and `Arc`-shared, so cloning a lake — as eval drivers and
/// streaming partitions do — bumps reference counts instead of deep-copying
/// cell data.
#[derive(Debug, Clone, Default)]
pub struct DataLake {
    tables: Vec<Table>,
}

impl DataLake {
    /// Creates an empty lake.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the lake holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Adds (or replaces) a table, returning the previous table of the same
    /// name if one existed.
    pub fn add(&mut self, table: Table) -> Option<Table> {
        if let Some(pos) = self.tables.iter().position(|t| t.name() == table.name()) {
            Some(std::mem::replace(&mut self.tables[pos], table))
        } else {
            self.tables.push(table);
            None
        }
    }

    /// The table named `name`.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name() == name)
    }

    /// Mutable access to the table named `name`.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.iter_mut().find(|t| t.name() == name)
    }

    /// The table named `name`, or an error.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::UnknownTable`] when absent.
    pub fn require(&self, name: &str) -> Result<&Table, TableError> {
        self.table(name)
            .ok_or_else(|| TableError::UnknownTable(name.to_string()))
    }

    /// Iterator over all tables in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// All table names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|t| t.name())
    }
}

impl FromIterator<Table> for DataLake {
    fn from_iter<T: IntoIterator<Item = Table>>(iter: T) -> Self {
        let mut lake = DataLake::new();
        for t in iter {
            lake.add(t);
        }
        lake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, Value};

    fn table(name: &str) -> Table {
        let mut t = Table::new(name, Schema::from_names(["a"]).unwrap());
        t.push_row(vec![Value::Int(1)]).unwrap();
        t
    }

    #[test]
    fn add_and_lookup() {
        let mut lake = DataLake::new();
        assert!(lake.add(table("x")).is_none());
        assert!(lake.add(table("y")).is_none());
        assert_eq!(lake.len(), 2);
        assert!(lake.table("x").is_some());
        assert!(lake.table("z").is_none());
        assert!(lake.require("z").is_err());
    }

    #[test]
    fn replace_same_name() {
        let mut lake = DataLake::new();
        lake.add(table("x"));
        let prev = lake.add(table("x"));
        assert!(prev.is_some());
        assert_eq!(lake.len(), 1);
    }

    #[test]
    fn from_iterator_collects() {
        let lake: DataLake = vec![table("a"), table("b")].into_iter().collect();
        assert_eq!(lake.names().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn refresh_and_clone_share_chunks() {
        // A lake refresh (re-add under the same name) and a lake clone must
        // both share sealed chunk storage with the source table rather than
        // deep-copying rows. Chunk sharing is observable through the
        // columnar API: a shared chunk serves identical data through both
        // handles, and Table::clone is documented to be an Arc bump.
        let mut big = Table::with_chunk_rows("big", Schema::from_names(["a"]).unwrap(), 2);
        for i in 0..10 {
            big.push_row(vec![Value::Int(i)]).unwrap();
        }
        let mut lake = DataLake::new();
        lake.add(big.clone());
        let cloned_lake = lake.clone();
        // Replace with a clone of the same table: the previous table comes
        // back out; the new entry still shares chunks with `big`.
        let prev = lake.add(big.clone()).expect("replaced");
        assert_eq!(prev.row_count(), 10);
        assert!(lake.table("big").unwrap().same_content(&big).unwrap());
        assert!(cloned_lake
            .table("big")
            .unwrap()
            .same_content(&big)
            .unwrap());
    }

    #[test]
    fn table_mut_edits() {
        let mut lake = DataLake::new();
        lake.add(table("x"));
        lake.table_mut("x")
            .unwrap()
            .push_row(vec![Value::Int(2)])
            .unwrap();
        assert_eq!(lake.table("x").unwrap().row_count(), 2);
    }
}
