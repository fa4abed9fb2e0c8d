//! A single primary-keyed table.

use std::collections::HashMap;

use crate::row::{Row, RowKey};

/// A hashed table mapping composite primary keys to rows. Every serving
/// read is a point lookup, so the index is a `HashMap` and holds no key
/// order: a prefix scan (Espresso's collection resources,
/// `/Music/Album/Cher/...` = keys starting `["Cher"]`) is a filtered pass
/// over every row, and the caller sorts what leaves the store.
#[derive(Debug, Clone, Default)]
pub struct Table {
    rows: HashMap<RowKey, Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Point lookup.
    pub fn get(&self, key: &RowKey) -> Option<&Row> {
        self.rows.get(key)
    }

    /// Inserts or replaces a row, returning the previous image.
    pub fn put(&mut self, key: RowKey, row: Row) -> Option<Row> {
        self.rows.insert(key, row)
    }

    /// Deletes a row, returning the previous image.
    pub fn delete(&mut self, key: &RowKey) -> Option<Row> {
        self.rows.remove(key)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows whose key begins with `prefix`, in no particular order. An
    /// empty prefix scans the whole table.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a RowKey,
    ) -> impl Iterator<Item = (&'a RowKey, &'a Row)> + 'a {
        self.rows.iter().filter(move |(k, _)| k.starts_with(prefix))
    }

    /// Iterates every row, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&RowKey, &Row)> {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn row(v: &str) -> Row {
        Row::new(Bytes::copy_from_slice(v.as_bytes()), 1)
    }

    #[test]
    fn put_get_delete() {
        let mut table = Table::new();
        let key = RowKey::new(["Akon", "Trouble"]);
        assert!(table.put(key.clone(), row("2004")).is_none());
        assert_eq!(table.get(&key).unwrap().value.as_ref(), b"2004");
        let old = table.put(key.clone(), row("2005")).unwrap();
        assert_eq!(old.value.as_ref(), b"2004");
        assert_eq!(table.delete(&key).unwrap().value.as_ref(), b"2005");
        assert!(table.get(&key).is_none());
        assert!(table.is_empty());
    }

    #[test]
    fn prefix_scan_selects_collection() {
        let mut table = Table::new();
        for (artist, album) in [
            ("Babyface", "Lovers"),
            ("Babyface", "A_Closer_Look"),
            ("Babyface", "Face2Face"),
            ("Akon", "Trouble"),
            ("Coolio", "Steal_Hear"),
        ] {
            table.put(RowKey::new([artist, album]), row(album));
        }
        let mut babyface: Vec<String> = table
            .scan_prefix(&RowKey::single("Babyface"))
            .map(|(k, _)| k.parts()[1].clone())
            .collect();
        babyface.sort();
        assert_eq!(babyface, vec!["A_Closer_Look", "Face2Face", "Lovers"]);
        // Prefix must match whole elements, not string prefixes.
        assert_eq!(table.scan_prefix(&RowKey::single("Baby")).count(), 0);
        // Empty prefix scans all.
        assert_eq!(table.scan_prefix(&RowKey::default()).count(), 5);
    }

    #[test]
    fn deeper_prefix_scan() {
        let mut table = Table::new();
        for (artist, album, song) in [
            ("Etta_James", "Gold", "At_Last"),
            ("Etta_James", "Gold", "Sunday_Kind_Of_Love"),
            ("Etta_James", "Her_Best", "At_Last"),
        ] {
            table.put(RowKey::new([artist, album, song]), row(song));
        }
        assert_eq!(
            table
                .scan_prefix(&RowKey::new(["Etta_James", "Gold"]))
                .count(),
            2
        );
        assert_eq!(table.scan_prefix(&RowKey::single("Etta_James")).count(), 3);
    }
}
