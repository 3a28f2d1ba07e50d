// Fixture: one function per operator; serial vs parallel and traced vs
// untraced are fields of the context it takes.
pub struct Ctx<'a> {
    pub pool: Option<&'a str>,
    pub tracer: Option<&'a str>,
}

pub fn filter(cx: &Ctx<'_>, rows: usize) -> usize {
    match (cx.pool, cx.tracer) {
        (None, None) => rows,
        _ => rows + 1,
    }
}

pub fn with_parent(rows: usize) -> usize {
    rows
}
