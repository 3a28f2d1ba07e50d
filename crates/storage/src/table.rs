//! Tables: named collections of equal-length columns, in-memory or
//! disk-backed, with the selectivity-threshold read policy from §5.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use basilisk_types::{BasiliskError, Bitmap, DataType, Result, Value};

use crate::cache::LfuPageCache;
use crate::column::{Column, ColumnBuilder};
use crate::disk::DiskColumn;
use crate::encode::EncodedColumn;

/// Above this fraction of set bits, a bitmap read scans the whole column
/// sequentially and selects in memory; below it, only the relevant pages
/// are read (§5: "for all bitmaps with a selectivity above a certain
/// threshold, Basilisk instead reads the entire column sequentially").
/// The paper does not publish its threshold; 0.05 is a conventional pick
/// for ~1000-value pages where even 5% selectivity touches most pages.
pub const DEFAULT_SEQ_SCAN_THRESHOLD: f64 = 0.05;

/// A handle to one column's storage: resident, resident-encoded, or on
/// disk. Everything above this API is encoding-blind — an `Enc` handle
/// answers every method with the exact rows a `Mem` handle would.
#[derive(Clone)]
pub enum ColumnHandle {
    Mem(Arc<Column>),
    /// Compressed + zone-mapped (see [`EncodedColumn`]). Evaluators that
    /// know about encodings fetch the inner column and run code-space
    /// kernels; everyone else decodes through [`ColumnHandle::scan`].
    Enc(Arc<EncodedColumn>),
    Disk(Arc<DiskColumn>),
}

impl ColumnHandle {
    pub fn len(&self) -> usize {
        match self {
            ColumnHandle::Mem(c) => c.len(),
            ColumnHandle::Enc(e) => e.len(),
            ColumnHandle::Disk(d) => d.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnHandle::Mem(c) => c.data_type(),
            ColumnHandle::Enc(e) => e.data_type(),
            ColumnHandle::Disk(d) => d.data_type(),
        }
    }

    /// The encoded form, when this column has one.
    pub fn encoded(&self) -> Option<&Arc<EncodedColumn>> {
        match self {
            ColumnHandle::Enc(e) => Some(e),
            _ => None,
        }
    }

    /// Read the entire column.
    pub fn scan(&self) -> Result<Arc<Column>> {
        match self {
            ColumnHandle::Mem(c) => Ok(Arc::clone(c)),
            ColumnHandle::Enc(e) => Ok(Arc::new(e.decode())),
            ColumnHandle::Disk(d) => Ok(Arc::new(d.scan()?)),
        }
    }

    /// Materialize the values at `rows` (row ids into the base table, may
    /// repeat and be unsorted — this is how joins fetch key columns).
    pub fn gather(&self, rows: &[u32]) -> Result<Column> {
        match self {
            ColumnHandle::Mem(c) => Ok(c.gather(rows)),
            ColumnHandle::Enc(e) => Ok(e.gather(rows)),
            ColumnHandle::Disk(d) => d.gather(rows),
        }
    }

    /// [`Self::gather`] into pooled value buffers (see
    /// [`Column::gather_in`]). Disk columns gather through the page reads
    /// first and then re-land in pooled buffers (an extra in-memory copy
    /// the page I/O dwarfs) — so the returned column is *always* backed
    /// by checked-out pool buffers and [`Column::recycle`] keeps every
    /// arena's `outstanding()` accounting exact.
    pub fn gather_in(&self, rows: &[u32], arena: &basilisk_types::MaskArena) -> Result<Column> {
        match self {
            ColumnHandle::Mem(c) => Ok(c.gather_in(rows, arena)),
            ColumnHandle::Enc(e) => {
                // Like the disk path: decode the gathered subset fresh,
                // then re-land it in pooled buffers.
                let fresh = e.gather(rows);
                let mut identity = arena.indices();
                identity.extend(0..fresh.len() as u32);
                let pooled = fresh.gather_in(&identity, arena);
                arena.recycle_indices(identity);
                Ok(pooled)
            }
            ColumnHandle::Disk(d) => {
                let fresh = d.gather(rows)?;
                let mut identity = arena.indices();
                identity.extend(0..fresh.len() as u32);
                let pooled = fresh.gather_in(&identity, arena);
                arena.recycle_indices(identity);
                Ok(pooled)
            }
        }
    }

    /// Read the values selected by `bitmap`, in ascending row order,
    /// applying the sequential-vs-random policy for disk columns.
    pub fn read_selected(&self, bitmap: &Bitmap, threshold: f64) -> Result<Column> {
        match self {
            ColumnHandle::Mem(c) => Ok(c.gather(&bitmap.to_indices())),
            ColumnHandle::Enc(e) => Ok(e.gather(&bitmap.to_indices())),
            ColumnHandle::Disk(d) => {
                if bitmap.selectivity() > threshold {
                    Ok(d.scan()?.gather(&bitmap.to_indices()))
                } else {
                    d.read_selected(bitmap)
                }
            }
        }
    }
}

/// A named table.
#[derive(Clone)]
pub struct Table {
    name: String,
    columns: Vec<(String, ColumnHandle)>,
    by_name: HashMap<String, usize>,
    rows: usize,
}

impl Table {
    /// Build an in-memory table from columns (all must share a length).
    pub fn from_columns(name: impl Into<String>, columns: Vec<(String, Column)>) -> Result<Table> {
        let name = name.into();
        let rows = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
        let mut by_name = HashMap::with_capacity(columns.len());
        let mut cols = Vec::with_capacity(columns.len());
        for (i, (cname, col)) in columns.into_iter().enumerate() {
            if col.len() != rows {
                return Err(BasiliskError::Schema(format!(
                    "column {cname} has {} rows, table {name} has {rows}",
                    col.len()
                )));
            }
            if by_name.insert(cname.clone(), i).is_some() {
                return Err(BasiliskError::Schema(format!(
                    "duplicate column {cname} in table {name}"
                )));
            }
            cols.push((cname, ColumnHandle::Mem(Arc::new(col))));
        }
        Ok(Table {
            name,
            columns: cols,
            by_name,
            rows,
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, name: &str) -> Result<&ColumnHandle> {
        self.by_name
            .get(name)
            .map(|&i| &self.columns[i].1)
            .ok_or_else(|| {
                BasiliskError::Schema(format!("no column {name} in table {}", self.name))
            })
    }

    pub fn has_column(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    pub fn columns(&self) -> impl Iterator<Item = (&str, &ColumnHandle)> {
        self.columns.iter().map(|(n, h)| (n.as_str(), h))
    }

    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Persist the table to `dir` (one `.col` file per column plus a
    /// `schema.txt` manifest). Requires all columns to be in memory.
    pub fn save(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut manifest = String::new();
        manifest.push_str(&format!("table {}\n", self.name));
        for (cname, handle) in &self.columns {
            let col = handle.scan()?;
            DiskColumn::write(&dir.join(format!("{cname}.col")), &col)?;
            manifest.push_str(&format!("column {} {}\n", cname, col.data_type().name()));
        }
        std::fs::write(dir.join("schema.txt"), manifest)?;
        Ok(())
    }

    /// Open a table previously written by [`Table::save`], reading data
    /// pages through `cache`.
    pub fn load(dir: &Path, cache: Arc<LfuPageCache>) -> Result<Table> {
        let manifest = std::fs::read_to_string(dir.join("schema.txt"))?;
        let mut name = None;
        let mut columns = Vec::new();
        let mut by_name = HashMap::new();
        for line in manifest.lines() {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("table") => name = parts.next().map(str::to_owned),
                Some("column") => {
                    let cname = parts
                        .next()
                        .ok_or_else(|| {
                            BasiliskError::Corrupt("manifest missing column name".into())
                        })?
                        .to_owned();
                    let disk =
                        DiskColumn::open(&dir.join(format!("{cname}.col")), Arc::clone(&cache))?;
                    by_name.insert(cname.clone(), columns.len());
                    columns.push((cname, ColumnHandle::Disk(Arc::new(disk))));
                }
                _ => {}
            }
        }
        let name =
            name.ok_or_else(|| BasiliskError::Corrupt("manifest missing table name".into()))?;
        let rows = columns.first().map(|(_, h)| h.len()).unwrap_or(0);
        if columns.iter().any(|(_, h)| h.len() != rows) {
            return Err(BasiliskError::Corrupt(format!(
                "column lengths disagree in table {name}"
            )));
        }
        Ok(Table {
            name,
            columns,
            by_name,
            rows,
        })
    }

    /// The same table with every column re-encoded (dictionary /
    /// frame-of-reference, see [`EncodedColumn`]). Reads above the
    /// storage API are unchanged; encoding-aware evaluators gain zone
    /// maps and code-space kernels.
    pub fn encode(&self) -> Result<Table> {
        let mut columns = Vec::with_capacity(self.columns.len());
        for (cname, handle) in &self.columns {
            let col = handle.scan()?;
            columns.push((
                cname.clone(),
                ColumnHandle::Enc(Arc::new(EncodedColumn::encode(&col))),
            ));
        }
        Ok(Table {
            name: self.name.clone(),
            columns,
            by_name: self.by_name.clone(),
            rows: self.rows,
        })
    }
}

/// Row-at-a-time builder for in-memory tables (used by loaders, generators
/// and tests).
pub struct TableBuilder {
    name: String,
    columns: Vec<(String, ColumnBuilder)>,
    encode: bool,
}

impl TableBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder {
            name: name.into(),
            columns: Vec::new(),
            encode: false,
        }
    }

    pub fn column(mut self, name: impl Into<String>, dtype: DataType) -> Self {
        self.columns.push((name.into(), ColumnBuilder::new(dtype)));
        self
    }

    /// Finish into encoded columns ([`ColumnHandle::Enc`]) instead of
    /// plain in-memory ones. Invisible above the storage API.
    pub fn encoded(mut self) -> Self {
        self.encode = true;
        self
    }

    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(BasiliskError::Schema(format!(
                "row has {} values, table {} has {} columns",
                row.len(),
                self.name,
                self.columns.len()
            )));
        }
        for ((_, b), v) in self.columns.iter_mut().zip(row) {
            b.push(v)?;
        }
        Ok(())
    }

    pub fn finish(self) -> Result<Table> {
        let table = Table::from_columns(
            self.name,
            self.columns
                .into_iter()
                .map(|(n, b)| (n, b.finish()))
                .collect(),
        )?;
        if self.encode {
            table.encode()
        } else {
            Ok(table)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut b = TableBuilder::new("movies")
            .column("id", DataType::Int)
            .column("year", DataType::Int)
            .column("title", DataType::Str);
        for (id, year, title) in [
            (1, 2008, "The Dark Knight"),
            (2, 2001, "Evolution"),
            (3, 1994, "The Shawshank Redemption"),
            (4, 1994, "Pulp Fiction"),
        ] {
            b.push_row(vec![id.into(), year.into(), title.into()])
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn builder_and_access() {
        let t = sample_table();
        assert_eq!(t.name(), "movies");
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
        assert!(t.has_column("year"));
        assert!(!t.has_column("score"));
        let years = t.column("year").unwrap().scan().unwrap();
        assert_eq!(years.as_ints().unwrap(), &[2008, 2001, 1994, 1994]);
        assert!(t.column("nope").is_err());
        assert_eq!(t.column_names(), vec!["id", "year", "title"]);
    }

    #[test]
    fn builder_rejects_ragged_rows() {
        let mut b = TableBuilder::new("t").column("a", DataType::Int);
        assert!(b.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn from_columns_rejects_mismatched_lengths_and_dupes() {
        let r = Table::from_columns(
            "t",
            vec![
                ("a".into(), Column::from_ints(vec![1, 2])),
                ("b".into(), Column::from_ints(vec![1])),
            ],
        );
        assert!(r.is_err());
        let r = Table::from_columns(
            "t",
            vec![
                ("a".into(), Column::from_ints(vec![1])),
                ("a".into(), Column::from_ints(vec![2])),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn save_load_roundtrip() {
        let t = sample_table();
        let dir = std::env::temp_dir().join(format!("basilisk-table-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        t.save(&dir).unwrap();
        let cache = Arc::new(LfuPageCache::new(16));
        let loaded = Table::load(&dir, cache).unwrap();
        assert_eq!(loaded.name(), "movies");
        assert_eq!(loaded.num_rows(), 4);
        let titles = loaded.column("title").unwrap().scan().unwrap();
        assert_eq!(titles.value(3), Value::from("Pulp Fiction"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_selected_policies_agree() {
        // Build a large-ish disk table; verify the sparse (page) path and
        // the dense (sequential) path return identical data.
        let n = 4096i64;
        let col = Column::from_ints((0..n).collect());
        let t = Table::from_columns("t", vec![("a".into(), col)]).unwrap();
        let dir = std::env::temp_dir().join(format!("basilisk-selpol-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        t.save(&dir).unwrap();
        let cache = Arc::new(LfuPageCache::new(64));
        let loaded = Table::load(&dir, cache).unwrap();
        let h = loaded.column("a").unwrap();

        let sparse = Bitmap::from_indices(n as usize, [3usize, 2000, 4000]);
        let dense = Bitmap::from_indices(n as usize, (0..3000).step_by(2));

        let a = h
            .read_selected(&sparse, DEFAULT_SEQ_SCAN_THRESHOLD)
            .unwrap();
        let b = h.read_selected(&sparse, 1.1).unwrap(); // force page path
        assert_eq!(a, b);
        assert_eq!(a.as_ints().unwrap(), &[3, 2000, 4000]);

        let a = h.read_selected(&dense, DEFAULT_SEQ_SCAN_THRESHOLD).unwrap();
        let b = h.read_selected(&dense, 1.1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1500);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encoded_table_is_transparent() {
        let plain = sample_table();
        let mut b = TableBuilder::new("movies")
            .column("id", DataType::Int)
            .column("year", DataType::Int)
            .column("title", DataType::Str)
            .encoded();
        for (id, year, title) in [
            (1, 2008, "The Dark Knight"),
            (2, 2001, "Evolution"),
            (3, 1994, "The Shawshank Redemption"),
            (4, 1994, "Pulp Fiction"),
        ] {
            b.push_row(vec![id.into(), year.into(), title.into()])
                .unwrap();
        }
        let mut enc = b.finish().unwrap();
        for (name, handle) in enc.columns() {
            assert!(handle.encoded().is_some(), "column {name} is encoded");
            let p = plain.column(name).unwrap();
            assert_eq!(*handle.scan().unwrap(), *p.scan().unwrap());
            assert_eq!(
                handle.gather(&[3, 1, 1]).unwrap(),
                p.gather(&[3, 1, 1]).unwrap()
            );
            let sel = Bitmap::from_indices(4, [0usize, 2]);
            assert_eq!(
                handle
                    .read_selected(&sel, DEFAULT_SEQ_SCAN_THRESHOLD)
                    .unwrap(),
                p.read_selected(&sel, DEFAULT_SEQ_SCAN_THRESHOLD).unwrap()
            );
        }
        // Re-encoding an already materialized table works too.
        enc = plain.encode().unwrap();
        assert!(enc.column("year").unwrap().encoded().is_some());
        assert_eq!(
            *enc.column("year").unwrap().scan().unwrap(),
            *plain.column("year").unwrap().scan().unwrap()
        );
    }

    #[test]
    fn mem_handle_ops() {
        let t = sample_table();
        let h = t.column("id").unwrap();
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
        assert_eq!(h.data_type(), DataType::Int);
        let g = h.gather(&[3, 0]).unwrap();
        assert_eq!(g.as_ints().unwrap(), &[4, 1]);
        let sel = Bitmap::from_indices(4, [1usize, 2]);
        let s = h.read_selected(&sel, DEFAULT_SEQ_SCAN_THRESHOLD).unwrap();
        assert_eq!(s.as_ints().unwrap(), &[2, 3]);
    }
}
