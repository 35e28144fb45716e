//! A hash index over rows: maps a key (one or more column values) to the
//! positions of matching rows, for point lookups and hash-join probes.

use crate::relation::Row;
use crate::value::Value;
use std::collections::HashMap;

/// Composite index key.
pub type IndexKey = Vec<Value>;

/// Extracts the index key from a row given key column positions.
pub fn key_of(row: &Row, cols: &[usize]) -> IndexKey {
    cols.iter().map(|&i| row[i].clone()).collect()
}

/// Hash index for point lookups.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: HashMap<IndexKey, Vec<usize>>,
    cols: Vec<usize>,
}

impl HashIndex {
    /// New empty index over the given key column positions.
    pub fn new(cols: Vec<usize>) -> Self {
        HashIndex {
            map: HashMap::new(),
            cols,
        }
    }

    /// Inserts `row` at table position `pos`.
    pub fn insert(&mut self, row: &Row, pos: usize) {
        self.map.entry(key_of(row, &self.cols)).or_default().push(pos);
    }

    /// Row positions matching `key`.
    pub fn get(&self, key: &IndexKey) -> &[usize] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of distinct keys (selectivity input: `distinct_keys / rows`
    /// approximates the matching fraction of a point lookup).
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Rebuilds from scratch over all rows.
    pub fn rebuild(&mut self, rows: &[Row]) {
        self.map.clear();
        for (pos, row) in rows.iter().enumerate() {
            self.map.entry(key_of(row, &self.cols)).or_default().push(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(3), Value::text("c")],
            vec![Value::Int(1), Value::text("a")],
            vec![Value::Int(2), Value::text("b")],
            vec![Value::Int(1), Value::text("a2")],
        ]
    }

    #[test]
    fn hash_index_ops() {
        let mut idx = HashIndex::new(vec![1]);
        idx.rebuild(&rows());
        assert_eq!(idx.get(&vec![Value::text("b")]), &[2]);
        idx.insert(&vec![Value::Int(9), Value::text("b")], 4);
        assert_eq!(idx.get(&vec![Value::text("b")]), &[2, 4]);
    }
}
