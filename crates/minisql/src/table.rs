//! In-memory table storage with constraint enforcement.

use crate::ast::{ColType, ColumnDef};
use crate::error::Error;
use crate::value::SqlValue;
use std::collections::HashMap;

/// A table: schema + row store + unique indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column definitions, in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Row-major storage.
    pub rows: Vec<Vec<SqlValue>>,
    /// For each column with a UNIQUE/PRIMARY KEY constraint: `(column index,
    /// key → row index)`.
    unique: Vec<(usize, HashMap<String, usize>)>,
}

/// What a successful [`Table::insert`] did to the row store, so a
/// transaction can undo it.
#[derive(Debug, Clone, PartialEq)]
pub enum Inserted {
    /// The row was appended as the table's last row.
    Appended,
    /// An `OR REPLACE` overwrote row `row`; `old` holds its previous values.
    Replaced {
        /// Index of the overwritten row.
        row: usize,
        /// The row's values before the insert.
        old: Vec<SqlValue>,
    },
}

/// Encode a value as a hashable index key (`f64` is not `Hash`).
fn index_key(v: &SqlValue) -> String {
    match v {
        SqlValue::Null => "n".to_string(),
        SqlValue::Integer(i) => format!("i{i}"),
        SqlValue::Real(r) => {
            if r.fract() == 0.0 && r.abs() < 9.0e15 {
                // Integral reals collide with the equal integer, matching
                // `SqlValue::compare` equality.
                format!("i{}", *r as i64)
            } else {
                format!("r{}", r.to_bits())
            }
        }
        SqlValue::Text(s) => format!("t{s}"),
    }
}

impl Table {
    /// Create an empty table.
    pub fn new(name: String, columns: Vec<ColumnDef>) -> Table {
        let unique = columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique || c.primary_key)
            .map(|(i, _)| (i, HashMap::new()))
            .collect();
        Table {
            name,
            columns,
            rows: Vec::new(),
            unique,
        }
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Result<usize, Error> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::NoSuchColumn(name.to_string()))
    }

    /// Coerce a value to the column's declared type where loss-free (integer
    /// → real for REAL columns, integral real → integer for INTEGER columns).
    fn coerce(&self, col: usize, v: SqlValue) -> SqlValue {
        match (self.columns[col].ty, &v) {
            (ColType::Real, SqlValue::Integer(i)) => SqlValue::Real(*i as f64),
            (ColType::Integer, SqlValue::Real(r)) if r.fract() == 0.0 && r.abs() < 9.0e15 => {
                SqlValue::Integer(*r as i64)
            }
            _ => v,
        }
    }

    /// Validate constraints for a candidate row. Returns the conflicting row
    /// index if a unique constraint is violated (for INSERT OR REPLACE).
    fn check_row(&self, row: &[SqlValue]) -> Result<Option<usize>, Error> {
        for (i, col) in self.columns.iter().enumerate() {
            if col.not_null && row[i].is_null() {
                return Err(Error::NotNullViolation {
                    table: self.name.clone(),
                    column: col.name.clone(),
                });
            }
        }
        for (col_idx, index) in &self.unique {
            if row[*col_idx].is_null() {
                continue; // NULLs don't conflict (SQL semantics)
            }
            if let Some(&existing) = index.get(&index_key(&row[*col_idx])) {
                return Ok(Some(existing));
            }
        }
        Ok(None)
    }

    /// Insert a row; `or_replace` resolves unique conflicts by replacing the
    /// existing row in place. A failed insert changes nothing.
    pub fn insert(&mut self, mut row: Vec<SqlValue>, or_replace: bool) -> Result<Inserted, Error> {
        if row.len() != self.columns.len() {
            return Err(Error::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for i in 0..row.len() {
            let v = std::mem::replace(&mut row[i], SqlValue::Null);
            row[i] = self.coerce(i, v);
        }
        match self.check_row(&row)? {
            None => {
                let idx = self.rows.len();
                for (col_idx, index) in &mut self.unique {
                    if !row[*col_idx].is_null() {
                        index.insert(index_key(&row[*col_idx]), idx);
                    }
                }
                self.rows.push(row);
                Ok(Inserted::Appended)
            }
            Some(existing) if or_replace => {
                // Remove old index entries for the replaced row, then insert
                // the new values in place.
                let old = self.rows[existing].clone();
                for (col_idx, index) in &mut self.unique {
                    index.remove(&index_key(&old[*col_idx]));
                }
                // The new row may still conflict with *another* row on a
                // different unique column.
                if let Some(other) = self.check_row(&row)? {
                    // Restore old index entries before failing.
                    for (col_idx, index) in &mut self.unique {
                        if !old[*col_idx].is_null() {
                            index.insert(index_key(&old[*col_idx]), existing);
                        }
                    }
                    let col = self.unique.iter().find(|(c, idx)| {
                        !row[*c].is_null() && idx.get(&index_key(&row[*c])) == Some(&other)
                    });
                    return Err(Error::UniqueViolation {
                        table: self.name.clone(),
                        column: col
                            .map(|(c, _)| self.columns[*c].name.clone())
                            .unwrap_or_default(),
                    });
                }
                for (col_idx, index) in &mut self.unique {
                    if !row[*col_idx].is_null() {
                        index.insert(index_key(&row[*col_idx]), existing);
                    }
                }
                let old = std::mem::replace(&mut self.rows[existing], row);
                Ok(Inserted::Replaced { row: existing, old })
            }
            Some(existing) => {
                let col = self
                    .unique
                    .iter()
                    .find(|(c, idx)| {
                        !row[*c].is_null() && idx.get(&index_key(&row[*c])) == Some(&existing)
                    })
                    .map(|(c, _)| self.columns[*c].name.clone())
                    .unwrap_or_default();
                Err(Error::UniqueViolation {
                    table: self.name.clone(),
                    column: col,
                })
            }
        }
    }

    /// Overwrite column `col` of row `row_idx` (constraint-checked by the
    /// caller through [`Table::rebuild_indexes`]).
    pub fn set(&mut self, row_idx: usize, col: usize, v: SqlValue) {
        let v = self.coerce(col, v);
        self.rows[row_idx][col] = v;
    }

    /// Delete the rows at the given (sorted, deduplicated) indices,
    /// keeping the survivors in order. Returns the removed rows with their
    /// former indices, ascending — what [`Table::restore_rows`] puts back.
    pub fn delete_rows(&mut self, indices: &[usize]) -> Vec<(usize, Vec<SqlValue>)> {
        let mut removed = Vec::with_capacity(indices.len());
        if indices.is_empty() {
            return removed;
        }
        let mut del_iter = indices.iter().peekable();
        let all = std::mem::take(&mut self.rows);
        self.rows.reserve(all.len() - indices.len());
        for (i, row) in all.into_iter().enumerate() {
            if del_iter.peek() == Some(&&i) {
                del_iter.next();
                removed.push((i, row));
            } else {
                self.rows.push(row);
            }
        }
        self.rebuild_indexes()
            .expect("deleting rows cannot create conflicts");
        removed
    }

    /// Put rows removed by [`Table::delete_rows`] back at their former
    /// indices. Leaves the unique indexes to the caller
    /// ([`Table::rebuild_indexes`]).
    pub(crate) fn restore_rows(&mut self, removed: Vec<(usize, Vec<SqlValue>)>) {
        let kept = std::mem::take(&mut self.rows);
        self.rows.reserve(kept.len() + removed.len());
        let mut kept = kept.into_iter();
        for (idx, row) in removed {
            while self.rows.len() < idx {
                self.rows
                    .push(kept.next().expect("restored index within the table"));
            }
            self.rows.push(row);
        }
        self.rows.extend(kept);
    }

    /// Rebuild the unique indexes from the row store, failing on duplicates
    /// (used after UPDATE).
    pub fn rebuild_indexes(&mut self) -> Result<(), Error> {
        for (col_idx, index) in &mut self.unique {
            index.clear();
            for (row_idx, row) in self.rows.iter().enumerate() {
                if row[*col_idx].is_null() {
                    continue;
                }
                if index.insert(index_key(&row[*col_idx]), row_idx).is_some() {
                    return Err(Error::UniqueViolation {
                        table: self.name.clone(),
                        column: self.columns[*col_idx].name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether column `col` carries a unique index (usable for point
    /// lookups).
    pub fn lookup_unique_available(&self, col: usize) -> bool {
        self.unique.iter().any(|(c, _)| *c == col)
    }

    /// Fast lookup of a row by a unique column's value.
    pub fn lookup_unique(&self, col: usize, v: &SqlValue) -> Option<usize> {
        self.unique
            .iter()
            .find(|(c, _)| *c == col)
            .and_then(|(_, index)| index.get(&index_key(v)).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef {
                name: "id".into(),
                ty: ColType::Text,
                primary_key: true,
                not_null: true,
                unique: true,
                default: None,
            },
            ColumnDef {
                name: "n".into(),
                ty: ColType::Integer,
                primary_key: false,
                not_null: false,
                unique: false,
                default: None,
            },
        ]
    }

    #[test]
    fn insert_and_unique_violation() {
        let mut t = Table::new("t".into(), cols());
        t.insert(vec!["a".into(), 1i64.into()], false).unwrap();
        let err = t.insert(vec!["a".into(), 2i64.into()], false).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn insert_or_replace() {
        let mut t = Table::new("t".into(), cols());
        t.insert(vec!["a".into(), 1i64.into()], false).unwrap();
        t.insert(vec!["a".into(), 99i64.into()], true).unwrap();
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][1], SqlValue::Integer(99));
    }

    #[test]
    fn not_null_enforced() {
        let mut t = Table::new("t".into(), cols());
        let err = t
            .insert(vec![SqlValue::Null, 1i64.into()], false)
            .unwrap_err();
        assert!(matches!(err, Error::NotNullViolation { .. }));
    }

    #[test]
    fn delete_keeps_index_consistent() {
        let mut t = Table::new("t".into(), cols());
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            t.insert(vec![(*id).into(), (i as i64).into()], false)
                .unwrap();
        }
        t.delete_rows(&[1]);
        assert_eq!(t.rows.len(), 2);
        // `b` can be reinserted; `a` still conflicts.
        t.insert(vec!["b".into(), 9i64.into()], false).unwrap();
        assert!(t.insert(vec!["a".into(), 9i64.into()], false).is_err());
    }

    #[test]
    fn coercion() {
        let mut t = Table::new("t".into(), cols());
        t.insert(vec!["a".into(), SqlValue::Real(3.0)], false)
            .unwrap();
        assert_eq!(t.rows[0][1], SqlValue::Integer(3));
    }

    #[test]
    fn lookup_unique() {
        let mut t = Table::new("t".into(), cols());
        t.insert(vec!["a".into(), 1i64.into()], false).unwrap();
        t.insert(vec!["b".into(), 2i64.into()], false).unwrap();
        assert_eq!(t.lookup_unique(0, &"b".into()), Some(1));
        assert_eq!(t.lookup_unique(0, &"zz".into()), None);
        assert_eq!(t.lookup_unique(1, &1i64.into()), None); // not unique
    }
}
