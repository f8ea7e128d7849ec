//! Schemas: ordered attribute lists.

use crate::TableError;

/// The declared type of a column.
///
/// Data-lake columns are rarely strictly typed; the declared type is a hint
/// used by statistics and generators, not an enforced constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataType {
    /// Free text (the default for messy lake data).
    #[default]
    Text,
    /// Integer.
    Int,
    /// Floating point.
    Float,
    /// Boolean.
    Bool,
}

/// One attribute of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    name: String,
    dtype: DataType,
}

impl Column {
    /// Creates a text column.
    pub fn new(name: impl Into<String>) -> Self {
        Column {
            name: name.into(),
            dtype: DataType::Text,
        }
    }

    /// Creates a column with an explicit type.
    pub fn typed(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
        }
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }
}

/// An ordered, duplicate-free list of attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema from columns.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::DuplicateAttribute`] if two columns share a name.
    pub fn new(columns: Vec<Column>) -> Result<Self, TableError> {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name().to_string()) {
                return Err(TableError::DuplicateAttribute(c.name().to_string()));
            }
        }
        Ok(Schema { columns })
    }

    /// Builds a schema of text columns from names.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::DuplicateAttribute`] on duplicate names.
    pub fn from_names<I, S>(names: I) -> Result<Self, TableError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Schema::new(names.into_iter().map(|n| Column::new(n.into())).collect())
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Attribute names in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &str> + Clone {
        self.columns.iter().map(|c| c.name())
    }

    /// Index of the attribute called `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name() == name)
    }

    /// True if the schema contains an attribute called `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Index of `name`, or an [`TableError::UnknownAttribute`] error.
    ///
    /// # Errors
    ///
    /// Returns an error when the attribute is absent.
    pub fn require(&self, name: &str) -> Result<usize, TableError> {
        self.index_of(name)
            .ok_or_else(|| TableError::UnknownAttribute(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_names_and_lookup() {
        let s = Schema::from_names(["city", "country", "timezone"]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("country"), Some(1));
        assert!(s.contains("timezone"));
        assert!(!s.contains("population"));
    }

    #[test]
    fn duplicate_rejected() {
        let err = Schema::from_names(["a", "b", "a"]).unwrap_err();
        assert_eq!(err, TableError::DuplicateAttribute("a".into()));
    }

    #[test]
    fn require_errors() {
        let s = Schema::from_names(["x"]).unwrap();
        assert_eq!(s.require("x").unwrap(), 0);
        assert!(matches!(
            s.require("y"),
            Err(TableError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn typed_columns() {
        let s = Schema::new(vec![
            Column::typed("age", DataType::Int),
            Column::new("name"),
        ])
        .unwrap();
        assert_eq!(s.columns()[0].dtype(), DataType::Int);
        assert_eq!(s.columns()[1].dtype(), DataType::Text);
    }

    #[test]
    fn empty_schema() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert_eq!(s.names().count(), 0);
    }
}
