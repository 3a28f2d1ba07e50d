// Fixture: public `_par` / `_traced` / `_with` twins of one operator.
pub struct Pool;

pub fn filter_par(rows: usize, pool: &Pool) -> usize {
    let _ = pool;
    rows
}
pub(crate) fn execute_traced(rows: usize) -> usize {
    rows
}
impl Pool {
    pub fn execute_with(&self, rows: usize) -> usize {
        rows
    }
}
// A private helper may carry the suffix; so may a name that only
// contains it: pub fn would_be_par(), "pub fn quoted_par()".
fn probe_par(rows: usize) -> usize {
    rows
}
pub fn partition(rows: usize) -> usize {
    probe_par(rows)
}
