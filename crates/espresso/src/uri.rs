//! URI data model.
//!
//! "Documents in Espresso are identified by URIs in the following form:
//! `http://<host>[:<port>]/<database>/<table>/<resource_id>[/<subresource_id>…]`"
//! (§IV.A). The resource may be a singleton document, a collection (fewer
//! path elements than the table's key depth), and may carry a secondary-
//! index query (`?query=field:term`).

use crate::schema::EspressoError;
use li_sqlstore::RowKey;

/// A parsed Espresso resource path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourcePath {
    /// Database name.
    pub database: String,
    /// Table name (`*` in a transactional POST wildcard URI).
    pub table: String,
    /// Resource id plus any subresource ids.
    pub key: Vec<String>,
    /// Optional secondary-index query `(field, term)`.
    pub query: Option<(String, String)>,
}

impl ResourcePath {
    /// Parses a path like `/Music/Song/The_Beatles?query=lyrics:lucy`.
    pub fn parse(uri: &str) -> Result<Self, EspressoError> {
        let (path, query_string) = match uri.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (uri, None),
        };
        let segments: Vec<&str> = path
            .strip_prefix('/')
            .ok_or_else(|| EspressoError::BadRequest(format!("{uri}: must start with /")))?
            .split('/')
            .collect();
        if segments.len() < 2 || segments.iter().any(|s| s.is_empty()) {
            return Err(EspressoError::BadRequest(format!(
                "{uri}: need /<database>/<table>[/<resource_id>...]"
            )));
        }
        let query = match query_string {
            None => None,
            Some(q) => {
                let spec = q
                    .strip_prefix("query=")
                    .ok_or_else(|| EspressoError::BadRequest(format!("{uri}: bad query")))?;
                let (field, term) = spec.split_once(':').ok_or_else(|| {
                    EspressoError::BadRequest(format!("{uri}: query must be field:term"))
                })?;
                Some((field.to_string(), term.trim_matches('"').to_string()))
            }
        };
        Ok(ResourcePath {
            database: segments[0].to_string(),
            table: segments[1].to_string(),
            key: segments[2..].iter().map(|s| s.to_string()).collect(),
            query,
        })
    }

    /// The resource id (first key element), when present.
    pub fn resource_id(&self) -> Option<&str> {
        self.key.first().map(String::as_str)
    }

    /// The key as a storage row key.
    pub fn row_key(&self) -> RowKey {
        RowKey::new(self.key.iter().cloned())
    }
}

impl std::fmt::Display for ResourcePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "/{}/{}", self.database, self.table)?;
        for part in &self.key {
            write!(f, "/{part}")?;
        }
        if let Some((field, term)) = &self.query {
            write!(f, "?query={field}:{term}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_document_uri() {
        let p = ResourcePath::parse("/Music/Song/Etta_James/Gold/At_Last").unwrap();
        assert_eq!(p.database, "Music");
        assert_eq!(p.table, "Song");
        assert_eq!(p.key, vec!["Etta_James", "Gold", "At_Last"]);
        assert_eq!(p.resource_id(), Some("Etta_James"));
        assert!(p.query.is_none());
        assert_eq!(p.to_string(), "/Music/Song/Etta_James/Gold/At_Last");
    }

    #[test]
    fn parses_collection_uri() {
        let p = ResourcePath::parse("/Music/Album/Babyface").unwrap();
        assert_eq!(p.key, vec!["Babyface"]);
    }

    #[test]
    fn parses_query() {
        let p = ResourcePath::parse("/Music/Song/The_Beatles?query=lyrics:\"Lucy in the sky\"")
            .unwrap();
        assert_eq!(
            p.query,
            Some(("lyrics".to_string(), "Lucy in the sky".to_string()))
        );
    }

    #[test]
    fn parses_wildcard_table() {
        let p = ResourcePath::parse("/Music/*/Akon").unwrap();
        assert_eq!(p.table, "*");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "Music/Album",
            "/Music",
            "/",
            "",
            "/Music//x",
            "/Music/Album/x?bogus=1",
            "/Music/Album/x?query=noseparator",
        ] {
            assert!(
                matches!(ResourcePath::parse(bad), Err(EspressoError::BadRequest(_))),
                "{bad}"
            );
        }
    }
}
