//! Records: single tuples aligned with a schema.

use crate::{Schema, TableError, Value};

/// One tuple of a table, stored by position.
///
/// A `Record` does not own its schema; pair it with the table's [`Schema`]
/// for name-based access. This keeps rows compact while letting detached
/// records (samples, retrieved context) flow through the pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// Creates a record from values.
    pub fn new(values: Vec<Value>) -> Self {
        Record { values }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values by position.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consumes the record, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Value at `idx`, if in range.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Value of attribute `name` under `schema`.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::UnknownAttribute`] when the schema lacks `name`,
    /// and [`TableError::ArityMismatch`] when the record is shorter than the
    /// schema position.
    pub fn field<'a>(&'a self, schema: &Schema, name: &str) -> Result<&'a Value, TableError> {
        let idx = schema.require(name)?;
        self.values.get(idx).ok_or(TableError::ArityMismatch {
            got: self.values.len(),
            expected: schema.len(),
        })
    }

    /// Sets the value of attribute `name` under `schema`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Record::field`].
    pub fn set_field(
        &mut self,
        schema: &Schema,
        name: &str,
        value: Value,
    ) -> Result<(), TableError> {
        let idx = schema.require(name)?;
        if idx >= self.values.len() {
            return Err(TableError::ArityMismatch {
                got: self.values.len(),
                expected: schema.len(),
            });
        }
        self.values[idx] = value;
        Ok(())
    }

    /// Projects the record onto a subset of attributes, in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::UnknownAttribute`] for unknown names.
    pub fn project(&self, schema: &Schema, attrs: &[&str]) -> Result<Record, TableError> {
        let mut vals = Vec::with_capacity(attrs.len());
        for a in attrs {
            vals.push(self.field(schema, a)?.clone());
        }
        Ok(Record::new(vals))
    }

    /// Concatenation of all non-null fields as text, used for embeddings.
    pub fn text_blob(&self) -> String {
        let mut out = String::new();
        for v in &self.values {
            if !v.is_null() {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&v.as_text());
            }
        }
        out
    }
}

impl FromIterator<Value> for Record {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Record::new(iter.into_iter().collect())
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_names(["city", "country", "timezone"]).unwrap()
    }

    fn rec() -> Record {
        Record::new(vec![
            Value::text("Florence"),
            Value::text("Italy"),
            Value::text("Central European Time"),
        ])
    }

    #[test]
    fn field_access() {
        let s = schema();
        let r = rec();
        assert_eq!(r.field(&s, "country").unwrap(), &Value::text("Italy"));
        assert!(r.field(&s, "population").is_err());
    }

    #[test]
    fn set_field_updates() {
        let s = schema();
        let mut r = rec();
        r.set_field(&s, "timezone", Value::Null).unwrap();
        assert!(r.field(&s, "timezone").unwrap().is_null());
    }

    #[test]
    fn project_subset_order() {
        let s = schema();
        let p = rec().project(&s, &["timezone", "city"]).unwrap();
        assert_eq!(p.values()[0], Value::text("Central European Time"));
        assert_eq!(p.values()[1], Value::text("Florence"));
    }

    #[test]
    fn project_unknown_attr() {
        let s = schema();
        assert!(rec().project(&s, &["nope"]).is_err());
    }

    #[test]
    fn short_record_arity_error() {
        let s = schema();
        let r = Record::new(vec![Value::text("x")]);
        assert!(matches!(
            r.field(&s, "timezone"),
            Err(TableError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn text_blob_skips_nulls() {
        let r = Record::new(vec![Value::text("a"), Value::Null, Value::Int(3)]);
        assert_eq!(r.text_blob(), "a 3");
    }

    #[test]
    fn from_iterator() {
        let r: Record = vec![Value::Int(1), Value::Int(2)].into_iter().collect();
        assert_eq!(r.len(), 2);
    }
}
