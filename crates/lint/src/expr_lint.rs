//! Expression-level lints over a single table spec: unknown columns
//! (CCL001), out-of-domain comparisons (CCL002), unreachable ternary
//! branches (CCL003), assignments forcing a column outside its own
//! table (CCL004), and all-branches-NULL outputs (CCL005).
//!
//! The reachability analysis (CCL003) ranges over the assignments of
//! the columns appearing in ternary *conditions* only — for rule-chain
//! constraints those are the controller's input columns, a small finite
//! product — and records, per ternary node, whether its then/else branch
//! is taken on some assignment that *reaches* the node. The tree is
//! evaluated once over the whole product, set-at-a-time: a boolean node
//! is a pair of bitmasks (where it is true, where it is false; unknown
//! is neither), combined word by word with Kleene rules, and comparing a
//! condition column with constants is a union of per-(column, value)
//! masks. A ternary with reach `R` and condition masks `T`/`F` marks its
//! then-branch taken if `R&T ≠ 0`, its else-branch if `R&F ≠ 0` and its
//! condition unknown if `R&!T&!F ≠ 0`, and hands its arms reach `R&!F`
//! and `R&!T`. `and`/`or` do not narrow reach, so a ternary nested under
//! either operand is reached wherever its parent is; only ternary arms
//! narrow it, which is exactly the path sensitivity the check needs: a
//! branch shadowed by an identical outer condition has empty reach and
//! is reported even though its condition is satisfiable in isolation.
//! Shapes that yield values rather than booleans (a value-valued
//! ternary, `col = col`) fall back to one entry per assignment, so the
//! marks equal those of a per-assignment three-valued walk (kept as the
//! test oracle).

use crate::diag::{codes, Diagnostic, LintReport, Severity};
use ccsql_relalg::expr::EvalContext;
use ccsql_relalg::solver::{ColumnRole, TableSpec};
use ccsql_relalg::{Expr, Span, Sym, Value};
use std::collections::HashMap;

/// Assignment budget for the per-constraint reachability enumeration.
/// Above this the check is skipped with a CCL019 note.
const REACH_BUDGET: u64 = 1 << 19;

/// Run all expression-level lints for `spec`. `span_of` maps a column
/// name to the source span of its constraint ([`Span::UNKNOWN`] for
/// built-in specs).
pub fn lint_exprs(
    spec: &TableSpec,
    ctx: &dyn EvalContext,
    span_of: &dyn Fn(&str) -> Span,
    report: &mut LintReport,
) {
    let is_column = |s: Sym| spec.columns.iter().any(|c| c.name == s);
    let table_of: HashMap<Sym, &[Value]> = spec
        .columns
        .iter()
        .map(|c| (c.name, c.values.as_slice()))
        .collect();

    // Reachability marks are cached per condition skeleton: in a rule
    // chain every output column shares the same guard sequence, so the
    // enumeration runs once per table, not once per column.
    let mut reach_cache: HashMap<String, Option<Vec<Mark>>> = HashMap::new();

    for col in &spec.columns {
        if col.constraint.is_true() {
            continue;
        }
        let name = col.name.as_str();
        let at = span_of(name);
        let e = col.constraint.resolve_idents(&is_column);

        check_comparisons(spec, &table_of, col.name, &e, name, at, report);
        if col.role == ColumnRole::Output {
            check_all_null(col.name, &col.values, &e, &spec.name, name, at, report);
        }
        check_reachability(spec, &table_of, ctx, &e, name, at, &mut reach_cache, report);
    }
}

/// CCL001 / CCL002 / CCL004: walk every comparison node.
fn check_comparisons(
    spec: &TableSpec,
    table_of: &HashMap<Sym, &[Value]>,
    own: Sym,
    e: &Expr,
    col_name: &str,
    at: Span,
    report: &mut LintReport,
) {
    let visit = |e: &Expr, report: &mut LintReport| match e {
        Expr::Eq(a, b) | Expr::Ne(a, b) => {
            let (col, lit) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => (Some(*c), Some(*v)),
                (Expr::Lit(v), Expr::Col(c)) => (Some(*c), Some(*v)),
                (Expr::Col(_), Expr::Col(_)) => (None, None),
                (x, y) => {
                    // Neither side is a column: a comparison between two
                    // constants, almost certainly a mistyped column name.
                    report.push(
                        Diagnostic::new(
                            codes::UNKNOWN_COLUMN,
                            Severity::Error,
                            &spec.name,
                            col_name,
                            format!(
                                "comparison `{x} {} {y}` references no declared column \
                                 (mistyped column name?)",
                                if matches!(e, Expr::Eq(..)) { "=" } else { "!=" }
                            ),
                        )
                        .at(at),
                    );
                    (None, None)
                }
            };
            if let (Some(c), Some(v)) = (col, lit) {
                if let Some(dom) = table_of.get(&c) {
                    if !dom.contains(&v) {
                        if c == own && matches!(e, Expr::Eq(..)) {
                            report.push(
                                Diagnostic::new(
                                    codes::FORCED_OUT_OF_DOMAIN,
                                    Severity::Error,
                                    &spec.name,
                                    col_name,
                                    format!(
                                        "constraint assigns `{col_name} = {}`, which is \
                                         outside the column table",
                                        Expr::Lit(v)
                                    ),
                                )
                                .at(at),
                            );
                        } else {
                            report.push(
                                Diagnostic::new(
                                    codes::VALUE_NOT_IN_DOMAIN,
                                    Severity::Error,
                                    &spec.name,
                                    col_name,
                                    format!(
                                        "`{c}` is compared against {}, which is not in \
                                         its column table",
                                        Expr::Lit(v)
                                    ),
                                )
                                .at(at),
                            );
                        }
                    }
                }
            }
        }
        Expr::In(lhs, vs) => match lhs.as_ref() {
            Expr::Col(c) => {
                if let Some(dom) = table_of.get(c) {
                    for v in vs {
                        if !dom.contains(v) {
                            report.push(
                                Diagnostic::new(
                                    codes::VALUE_NOT_IN_DOMAIN,
                                    Severity::Error,
                                    &spec.name,
                                    col_name,
                                    format!(
                                        "`{c} in (…)` lists {}, which is not in its \
                                         column table",
                                        Expr::Lit(*v)
                                    ),
                                )
                                .at(at),
                            );
                        }
                    }
                }
            }
            other => {
                report.push(
                    Diagnostic::new(
                        codes::UNKNOWN_COLUMN,
                        Severity::Error,
                        &spec.name,
                        col_name,
                        format!(
                            "`{other} in (…)` references no declared column \
                             (mistyped column name?)"
                        ),
                    )
                    .at(at),
                );
            }
        },
        _ => {}
    };
    walk(e, &mut |n, r| visit(n, r), report);
}

/// Pre-order traversal calling `f` on every node.
fn walk(e: &Expr, f: &mut dyn FnMut(&Expr, &mut LintReport), report: &mut LintReport) {
    f(e, report);
    match e {
        Expr::Eq(a, b) | Expr::Ne(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            walk(a, f, report);
            walk(b, f, report);
        }
        Expr::In(x, _) | Expr::Not(x) | Expr::Call(_, x) => walk(x, f, report),
        Expr::Ternary(c, t, x) => {
            walk(c, f, report);
            walk(t, f, report);
            walk(x, f, report);
        }
        _ => {}
    }
}

/// CCL005: an output constraint whose every assignment leaf is
/// `col = NULL` describes a transition that can never do anything.
fn check_all_null(
    own: Sym,
    values: &[Value],
    e: &Expr,
    table: &str,
    col_name: &str,
    at: Span,
    report: &mut LintReport,
) {
    if !values.iter().any(|v| *v != Value::Null) {
        return; // a NULL-only table is all this column can hold
    }
    let mut leaves = 0usize;
    let mut null_leaves = 0usize;
    let mut other_admission = false;
    let mut visit = |n: &Expr, _: &mut LintReport| match n {
        Expr::Eq(a, b) => {
            let lit = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) if *c == own => Some(v),
                (Expr::Lit(v), Expr::Col(c)) if *c == own => Some(v),
                _ => None,
            };
            if let Some(v) = lit {
                leaves += 1;
                if *v == Value::Null {
                    null_leaves += 1;
                }
            }
        }
        Expr::Ne(a, b)
            if matches!(a.as_ref(), Expr::Col(c) if *c == own)
                || matches!(b.as_ref(), Expr::Col(c) if *c == own) =>
        {
            other_admission = true;
        }
        Expr::In(lhs, _) => {
            if matches!(lhs.as_ref(), Expr::Col(c) if *c == own) {
                other_admission = true;
            }
        }
        _ => {}
    };
    walk(e, &mut visit, report);
    if leaves > 0 && leaves == null_leaves && !other_admission {
        report.push(
            Diagnostic::new(
                codes::ALL_BRANCHES_NULL,
                Severity::Warn,
                table,
                col_name,
                format!(
                    "every branch assigns `{col_name} = NULL`: this output can never \
                     do anything"
                ),
            )
            .at(at),
        );
    }
}

/// Per-ternary reachability marks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Mark {
    then_taken: bool,
    else_taken: bool,
    cond_unknown: bool,
}

/// CCL003 (+ CCL019 over budget): branch reachability over the product
/// of the condition columns' domains.
#[allow(clippy::too_many_arguments)]
fn check_reachability(
    spec: &TableSpec,
    table_of: &HashMap<Sym, &[Value]>,
    ctx: &dyn EvalContext,
    e: &Expr,
    col_name: &str,
    at: Span,
    cache: &mut HashMap<String, Option<Vec<Mark>>>,
    report: &mut LintReport,
) {
    // Collect ternary conditions (pre-order, with whether the else-arm
    // carries nested logic) and the columns they use.
    let mut conds: Vec<(&Expr, bool)> = Vec::new();
    collect_conds(e, &mut conds);
    if conds.is_empty() {
        return;
    }
    let cond_cols = condition_columns(&conds, table_of);

    let key = skeleton(e);
    let marks = cache.entry(key).or_insert_with(|| {
        let doms: Vec<&[Value]> = cond_cols.iter().map(|c| table_of[c]).collect();
        let product: u64 = doms
            .iter()
            .map(|d| d.len() as u64)
            .try_fold(1u64, |a, b| a.checked_mul(b))
            .unwrap_or(u64::MAX);
        if product > REACH_BUDGET {
            return None;
        }
        Some(reach_marks(e, &cond_cols, &doms, ctx))
    });

    match marks {
        None => report.push(
            Diagnostic::new(
                codes::ANALYSIS_SKIPPED,
                Severity::Info,
                &spec.name,
                col_name,
                format!(
                    "branch reachability skipped: condition domain exceeds {REACH_BUDGET} \
                     assignments"
                ),
            )
            .at(at),
        ),
        Some(marks) => {
            for (i, m) in marks.iter().enumerate() {
                if m.cond_unknown {
                    continue;
                }
                if !m.then_taken {
                    report.push(
                        Diagnostic::new(
                            codes::UNREACHABLE_BRANCH,
                            Severity::Warn,
                            &spec.name,
                            col_name,
                            format!(
                                "then-branch of `{} ? … : …` is unreachable: the condition \
                                 never holds on any path that reaches it",
                                conds[i].0
                            ),
                        )
                        .at(at),
                    );
                }
                // An always-true condition whose else-arm is a terminal
                // assignment is the rule-chain idiom: the final rule of
                // an exhaustive chain makes the trailing default leaf
                // dead by construction. Only report a dead else-arm when
                // it skips real nested logic.
                if !m.else_taken && conds[i].1 {
                    report.push(
                        Diagnostic::new(
                            codes::UNREACHABLE_BRANCH,
                            Severity::Warn,
                            &spec.name,
                            col_name,
                            format!(
                                "else-branch of `{} ? … : …` is unreachable: the condition \
                                 always holds where it is reached",
                                conds[i].0
                            ),
                        )
                        .at(at),
                    );
                }
            }
        }
    }
}

/// Pre-order list of (ternary condition, else-arm-has-nested-ternary)
/// pairs (the node numbering [`reach_marks`] reproduces).
fn collect_conds<'a>(e: &'a Expr, out: &mut Vec<(&'a Expr, bool)>) {
    match e {
        Expr::Ternary(c, t, f) => {
            out.push((c, has_ternary(f)));
            collect_conds(c, out);
            collect_conds(t, out);
            collect_conds(f, out);
        }
        Expr::Eq(a, b) | Expr::Ne(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            collect_conds(a, out);
            collect_conds(b, out);
        }
        Expr::In(x, _) | Expr::Not(x) | Expr::Call(_, x) => collect_conds(x, out),
        _ => {}
    }
}

/// The declared columns the ternary conditions read, sorted: the axes
/// of the assignment product.
fn condition_columns(conds: &[(&Expr, bool)], table_of: &HashMap<Sym, &[Value]>) -> Vec<Sym> {
    let mut cols: Vec<Sym> = Vec::new();
    for (c, _) in conds {
        for s in c.columns() {
            if table_of.contains_key(&s) && !cols.contains(&s) {
                cols.push(s);
            }
        }
    }
    cols.sort();
    cols
}

/// Does `e` contain a ternary node?
fn has_ternary(e: &Expr) -> bool {
    match e {
        Expr::Ternary(..) => true,
        Expr::Eq(a, b) | Expr::Ne(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            has_ternary(a) || has_ternary(b)
        }
        Expr::In(x, _) | Expr::Not(x) | Expr::Call(_, x) => has_ternary(x),
        _ => false,
    }
}

/// Structural cache key: ternary nesting with conditions spelled out and
/// ternary-free arms collapsed to `_` (assignment leaves differ between
/// the output columns of one rule chain; the guards do not).
fn skeleton(e: &Expr) -> String {
    fn go(e: &Expr, out: &mut String) {
        if !has_ternary(e) {
            out.push('_');
            return;
        }
        match e {
            Expr::Ternary(c, t, f) => {
                out.push('(');
                out.push_str(&c.to_string());
                out.push('?');
                go(t, out);
                out.push(':');
                go(f, out);
                out.push(')');
            }
            Expr::And(a, b) => {
                out.push_str("&(");
                go(a, out);
                out.push(',');
                go(b, out);
                out.push(')');
            }
            Expr::Or(a, b) => {
                out.push_str("|(");
                go(a, out);
                out.push(',');
                go(b, out);
                out.push(')');
            }
            Expr::Not(x) => {
                out.push('!');
                go(x, out);
            }
            Expr::Eq(a, b) => {
                out.push_str("=(");
                go(a, out);
                out.push(',');
                go(b, out);
                out.push(')');
            }
            Expr::Ne(a, b) => {
                out.push_str("#(");
                go(a, out);
                out.push(',');
                go(b, out);
                out.push(')');
            }
            Expr::In(x, _) | Expr::Call(_, x) => {
                out.push_str("f(");
                go(x, out);
                out.push(')');
            }
            _ => out.push('_'),
        }
    }
    let mut s = String::new();
    go(e, &mut s);
    s
}

/// Reachability marks of every ternary in `e` (pre-order, as
/// [`collect_conds`] numbers them) over all assignments of `cols`,
/// whose domains are `doms`.
fn reach_marks(e: &Expr, cols: &[Sym], doms: &[&[Value]], ctx: &dyn EvalContext) -> Vec<Mark> {
    let mut r = Reach::new(cols, doms, ctx);
    let all = r.full.clone();
    r.eval(e, &all);
    r.marks
}

/// A set of assignments: bit `a` stands for assignment number `a`.
type Mask = Vec<u64>;

fn bit(m: &[u64], a: usize) -> bool {
    m[a / 64] >> (a % 64) & 1 != 0
}

fn set_bit(m: &mut [u64], a: usize) {
    m[a / 64] |= 1 << (a % 64);
}

fn and(a: &[u64], b: &[u64]) -> Mask {
    a.iter().zip(b).map(|(x, y)| x & y).collect()
}

fn or(a: &[u64], b: &[u64]) -> Mask {
    a.iter().zip(b).map(|(x, y)| x | y).collect()
}

fn and_not(a: &[u64], b: &[u64]) -> Mask {
    a.iter().zip(b).map(|(x, y)| x & !y).collect()
}

fn or_into(a: &mut [u64], b: &[u64]) {
    a.iter_mut().zip(b).for_each(|(x, y)| *x |= y);
}

fn meets(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Three-valued evaluation result at one assignment.
#[derive(Clone, Copy)]
enum K {
    Val(Value),
    Bool(bool),
    Unknown,
}

/// A node's value at every assignment at once.
enum Av {
    /// Boolean: the assignments where it is true and where it is
    /// false; unknown at the rest.
    Tri(Mask, Mask),
    /// The same value at every assignment.
    Val(Value),
    /// The value of condition column `i`.
    Col(usize),
    /// Any other shape (a value-valued ternary, a comparison between
    /// two non-constant operands), one entry per assignment.
    Each(Vec<K>),
}

/// The set-at-a-time evaluator. Assignments are numbered mixed-radix,
/// the first condition column most significant; every node is
/// evaluated once over all of them, and the reach mask handed down the
/// tree narrows only at ternary arms.
struct Reach<'a> {
    cols: &'a [Sym],
    doms: &'a [&'a [Value]],
    strides: Vec<usize>,
    n: usize,
    /// Every assignment.
    full: Mask,
    /// `digit[i][j]`: the assignments giving column `i` its `j`-th
    /// value, built on first use.
    digit: Vec<Vec<Option<Mask>>>,
    ctx: &'a dyn EvalContext,
    marks: Vec<Mark>,
}

impl<'a> Reach<'a> {
    fn new(cols: &'a [Sym], doms: &'a [&'a [Value]], ctx: &'a dyn EvalContext) -> Reach<'a> {
        let n: usize = doms.iter().map(|d| d.len()).product();
        let mut strides = vec![1; doms.len()];
        for i in (1..doms.len()).rev() {
            strides[i - 1] = strides[i] * doms[i].len();
        }
        let mut full = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            full[n / 64] = (1 << (n % 64)) - 1;
        }
        Reach {
            cols,
            doms,
            strides,
            n,
            full,
            digit: doms.iter().map(|d| vec![None; d.len()]).collect(),
            ctx,
            marks: Vec::new(),
        }
    }

    fn zeros(&self) -> Mask {
        vec![0; self.full.len()]
    }

    fn unknown(&self) -> (Mask, Mask) {
        (self.zeros(), self.zeros())
    }

    fn constant(&self, b: bool) -> (Mask, Mask) {
        if b {
            (self.full.clone(), self.zeros())
        } else {
            (self.zeros(), self.full.clone())
        }
    }

    fn digit_mask(&mut self, i: usize, j: usize) -> &Mask {
        let (stride, period, n) = (
            self.strides[i],
            self.strides[i] * self.doms[i].len(),
            self.n,
        );
        let zeros = self.zeros();
        self.digit[i][j].get_or_insert_with(|| {
            // Column `i` holds its `j`-th value on runs of `stride`
            // consecutive assignments, one run per period. (An empty
            // product has zero strides but no assignments to visit.)
            let mut m = zeros;
            for start in (j * stride..n).step_by(period.max(1)) {
                (start..start + stride).for_each(|a| set_bit(&mut m, a));
            }
            m
        })
    }

    /// The assignments where column `i` holds a value whose entry in
    /// `verdicts` (one per domain value) is `want`.
    fn digits_where(&mut self, i: usize, verdicts: &[Option<bool>], want: Option<bool>) -> Mask {
        let mut m = self.zeros();
        for j in (0..verdicts.len()).filter(|&j| verdicts[j] == want) {
            or_into(&mut m, self.digit_mask(i, j));
        }
        m
    }

    /// The value of `v` at assignment `a`.
    fn at(&self, v: &Av, a: usize) -> K {
        match v {
            Av::Tri(t, _) if bit(t, a) => K::Bool(true),
            Av::Tri(_, f) if bit(f, a) => K::Bool(false),
            Av::Tri(..) => K::Unknown,
            Av::Val(x) => K::Val(*x),
            Av::Col(i) => K::Val(self.doms[*i][a / self.strides[*i] % self.doms[*i].len()]),
            Av::Each(ks) => ks[a],
        }
    }

    /// Masks of a boolean given one assignment at a time.
    fn masks(&self, at: impl Fn(usize) -> Option<bool>) -> (Mask, Mask) {
        let (mut t, mut f) = self.unknown();
        for a in 0..self.n {
            match at(a) {
                Some(true) => set_bit(&mut t, a),
                Some(false) => set_bit(&mut f, a),
                None => {}
            }
        }
        (t, f)
    }

    /// `v` read as a boolean: a value is never one, so it is unknown.
    fn tri(&self, v: Av) -> (Mask, Mask) {
        match v {
            Av::Tri(t, f) => (t, f),
            Av::Val(_) | Av::Col(_) => self.unknown(),
            Av::Each(ks) => self.masks(|a| match ks[a] {
                K::Bool(b) => Some(b),
                _ => None,
            }),
        }
    }

    fn eval_tri(&mut self, e: &Expr, reach: &Mask) -> (Mask, Mask) {
        let v = self.eval(e, reach);
        self.tri(v)
    }

    /// A predicate of one value (`None`: unknown), lifted to `v`.
    fn test(&mut self, v: Av, pred: impl Fn(Value) -> Option<bool>) -> (Mask, Mask) {
        match v {
            Av::Tri(..) => self.unknown(),
            Av::Val(x) => match pred(x) {
                Some(b) => self.constant(b),
                None => self.unknown(),
            },
            Av::Col(i) => {
                let verdicts: Vec<Option<bool>> = self.doms[i].iter().map(|&x| pred(x)).collect();
                let t = self.digits_where(i, &verdicts, Some(true));
                let f = if verdicts.contains(&None) {
                    self.digits_where(i, &verdicts, Some(false))
                } else {
                    and_not(&self.full, &t)
                };
                (t, f)
            }
            Av::Each(ks) => self.masks(|a| match ks[a] {
                K::Val(x) => pred(x),
                _ => None,
            }),
        }
    }

    /// Equality of two values: true/false where both are values.
    fn eq(&mut self, x: Av, y: Av) -> (Mask, Mask) {
        match (x, y) {
            (Av::Val(c), v) | (v, Av::Val(c)) => self.test(v, |x| Some(x == c)),
            (x, y) => self.masks(|a| match (self.at(&x, a), self.at(&y, a)) {
                (K::Val(p), K::Val(q)) => Some(p == q),
                _ => None,
            }),
        }
    }

    fn eval(&mut self, e: &Expr, reach: &Mask) -> Av {
        match e {
            Expr::Col(c) => match self.cols.iter().position(|x| x == c) {
                Some(i) => Av::Col(i),
                None => {
                    let (t, f) = self.unknown();
                    Av::Tri(t, f)
                }
            },
            Expr::Ident(c) => Av::Val(Value::Sym(*c)),
            Expr::Lit(v) => Av::Val(*v),
            Expr::True | Expr::False => {
                let (t, f) = self.constant(matches!(e, Expr::True));
                Av::Tri(t, f)
            }
            Expr::Eq(a, b) | Expr::Ne(a, b) => {
                let x = self.eval(a, reach);
                let y = self.eval(b, reach);
                let (t, f) = self.eq(x, y);
                if matches!(e, Expr::Eq(..)) {
                    Av::Tri(t, f)
                } else {
                    Av::Tri(f, t)
                }
            }
            Expr::In(x, vs) => {
                let x = self.eval(x, reach);
                let (t, f) = self.test(x, |v| Some(vs.contains(&v)));
                Av::Tri(t, f)
            }
            Expr::Call(name, x) => {
                let x = self.eval(x, reach);
                let ctx = self.ctx;
                let (t, f) = self.test(x, |v| ctx.set_contains(*name, v).ok());
                Av::Tri(t, f)
            }
            // Kleene, no short-circuit: both sides always visited.
            Expr::And(a, b) => {
                let (ta, fa) = self.eval_tri(a, reach);
                let (tb, fb) = self.eval_tri(b, reach);
                Av::Tri(and(&ta, &tb), or(&fa, &fb))
            }
            Expr::Or(a, b) => {
                let (ta, fa) = self.eval_tri(a, reach);
                let (tb, fb) = self.eval_tri(b, reach);
                Av::Tri(or(&ta, &tb), and(&fa, &fb))
            }
            Expr::Not(x) => {
                let (t, f) = self.eval_tri(x, reach);
                Av::Tri(f, t)
            }
            Expr::Ternary(c, t, f) => {
                let id = self.marks.len();
                self.marks.push(Mark::default());
                let (tc, fc) = self.eval_tri(c, reach);
                self.marks[id] = Mark {
                    then_taken: meets(reach, &tc),
                    else_taken: meets(reach, &fc),
                    cond_unknown: reach
                        .iter()
                        .zip(&tc)
                        .zip(&fc)
                        .any(|((r, t), f)| r & !t & !f != 0),
                };
                // An unknown condition reaches both arms: the safe
                // direction for this check.
                let x = self.eval(t, &and_not(reach, &fc));
                let y = self.eval(f, &and_not(reach, &tc));
                match (x, y) {
                    (Av::Tri(tx, fx), Av::Tri(ty, fy)) => Av::Tri(
                        or(&and(&tc, &tx), &and(&fc, &ty)),
                        or(&and(&tc, &fx), &and(&fc, &fy)),
                    ),
                    (x, y) => Av::Each(
                        (0..self.n)
                            .map(|a| {
                                if bit(&tc, a) {
                                    self.at(&x, a)
                                } else if bit(&fc, a) {
                                    self.at(&y, a)
                                } else {
                                    K::Unknown
                                }
                            })
                            .collect(),
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsql_obs::rng::SplitMix64;
    use ccsql_relalg::{Error, Result};

    /// The per-assignment reference evaluator: enumerate every
    /// assignment of `cols` and walk the tree once per assignment.
    fn reference_marks(
        e: &Expr,
        cols: &[Sym],
        doms: &[&[Value]],
        ctx: &dyn EvalContext,
    ) -> Vec<Mark> {
        let mut conds = Vec::new();
        collect_conds(e, &mut conds);
        let mut marks = vec![Mark::default(); conds.len()];
        enumerate(cols, doms, &mut HashMap::new(), &mut |env| {
            eval_marked(e, env, ctx, &mut 0, &mut marks);
        });
        marks
    }

    fn enumerate(
        cols: &[Sym],
        doms: &[&[Value]],
        env: &mut HashMap<Sym, Value>,
        f: &mut dyn FnMut(&HashMap<Sym, Value>),
    ) {
        match cols.split_first() {
            None => f(env),
            Some((c, rest)) => {
                for v in doms[0] {
                    env.insert(*c, *v);
                    enumerate(rest, &doms[1..], env, f);
                }
            }
        }
    }

    /// `idx` walks the pre-order ternary numbering of [`collect_conds`];
    /// untaken arms advance it by their ternary count unevaluated.
    fn eval_marked(
        e: &Expr,
        env: &HashMap<Sym, Value>,
        ctx: &dyn EvalContext,
        idx: &mut usize,
        marks: &mut [Mark],
    ) -> K {
        match e {
            Expr::Col(c) => env.get(c).map_or(K::Unknown, |v| K::Val(*v)),
            Expr::Ident(c) => K::Val(Value::Sym(*c)),
            Expr::Lit(v) => K::Val(*v),
            Expr::True => K::Bool(true),
            Expr::False => K::Bool(false),
            Expr::Eq(a, b) | Expr::Ne(a, b) => {
                let ka = eval_marked(a, env, ctx, idx, marks);
                match (ka, eval_marked(b, env, ctx, idx, marks)) {
                    (K::Val(x), K::Val(y)) => K::Bool((x == y) == matches!(e, Expr::Eq(..))),
                    _ => K::Unknown,
                }
            }
            Expr::In(x, vs) => match eval_marked(x, env, ctx, idx, marks) {
                K::Val(v) => K::Bool(vs.contains(&v)),
                _ => K::Unknown,
            },
            Expr::And(a, b) => {
                let ka = eval_marked(a, env, ctx, idx, marks);
                match (ka, eval_marked(b, env, ctx, idx, marks)) {
                    (K::Bool(false), _) | (_, K::Bool(false)) => K::Bool(false),
                    (K::Bool(true), K::Bool(true)) => K::Bool(true),
                    _ => K::Unknown,
                }
            }
            Expr::Or(a, b) => {
                let ka = eval_marked(a, env, ctx, idx, marks);
                match (ka, eval_marked(b, env, ctx, idx, marks)) {
                    (K::Bool(true), _) | (_, K::Bool(true)) => K::Bool(true),
                    (K::Bool(false), K::Bool(false)) => K::Bool(false),
                    _ => K::Unknown,
                }
            }
            Expr::Not(x) => match eval_marked(x, env, ctx, idx, marks) {
                K::Bool(b) => K::Bool(!b),
                _ => K::Unknown,
            },
            Expr::Call(name, x) => match eval_marked(x, env, ctx, idx, marks) {
                K::Val(v) => ctx.set_contains(*name, v).map_or(K::Unknown, K::Bool),
                _ => K::Unknown,
            },
            Expr::Ternary(c, t, f) => {
                let my = *idx;
                *idx += 1;
                match eval_marked(c, env, ctx, idx, marks) {
                    K::Bool(true) => {
                        marks[my].then_taken = true;
                        let r = eval_marked(t, env, ctx, idx, marks);
                        *idx += count_ternaries(f);
                        r
                    }
                    K::Bool(false) => {
                        marks[my].else_taken = true;
                        *idx += count_ternaries(t);
                        eval_marked(f, env, ctx, idx, marks)
                    }
                    _ => {
                        marks[my].cond_unknown = true;
                        eval_marked(t, env, ctx, idx, marks);
                        eval_marked(f, env, ctx, idx, marks);
                        K::Unknown
                    }
                }
            }
        }
    }

    fn count_ternaries(e: &Expr) -> usize {
        let mut conds = Vec::new();
        collect_conds(e, &mut conds);
        conds.len()
    }

    /// Named sets for the random specs: `known` holds the symbols of
    /// even length; `opaque` cannot be tested.
    struct Sets;

    impl EvalContext for Sets {
        fn set_contains(&self, name: Sym, v: Value) -> Result<bool> {
            match name.as_str() {
                "known" => Ok(matches!(v, Value::Sym(s) if s.as_str().len() % 2 == 0)),
                other => Err(Error::NoSuchSet(other.to_string())),
            }
        }
    }

    /// Random constraints over condition columns `a`, `b`, `c`, the
    /// arm-only column `o` and the undeclared column `ghost`.
    struct Gen(SplitMix64);

    const VALUES: [&str; 4] = ["x", "yy", "z", "ww"];

    impl Gen {
        fn pick(&mut self, n: usize) -> usize {
            self.0.gen_range_u64(n as u64) as usize
        }

        fn value(&mut self) -> Value {
            match self.pick(6) {
                0 => Value::Null,
                1 => Value::Int(1),
                _ => Value::Sym(Sym::intern(VALUES[self.pick(VALUES.len())])),
            }
        }

        fn domain(&mut self) -> Vec<Value> {
            let mut d: Vec<Value> = Vec::new();
            for _ in 0..self.pick(4) + usize::from(self.pick(8) != 0) {
                let v = self.value();
                if !d.contains(&v) {
                    d.push(v);
                }
            }
            d
        }

        fn column(&mut self, arm: bool) -> Expr {
            let names = ["a", "b", "c", "ghost", "o"];
            Expr::col(names[self.pick(if arm { 5 } else { 4 })])
        }

        /// A value-position expression.
        fn val(&mut self, depth: u32, arm: bool) -> Expr {
            match self.pick(if depth == 0 { 4 } else { 7 }) {
                0 | 1 => self.column(arm),
                2 => Expr::Lit(self.value()),
                3 => Expr::Ident(Sym::intern(VALUES[self.pick(VALUES.len())])),
                4 => self.cond(depth - 1),
                _ => Expr::Ternary(
                    Box::new(self.cond(depth - 1)),
                    Box::new(self.val(depth - 1, arm)),
                    Box::new(self.val(depth - 1, arm)),
                ),
            }
        }

        /// A condition-position expression.
        fn cond(&mut self, depth: u32) -> Expr {
            let b = |e: Expr| Box::new(e);
            match self.pick(if depth == 0 { 7 } else { 12 }) {
                0 => Expr::Eq(b(self.column(false)), b(Expr::Lit(self.value()))),
                1 => Expr::Ne(b(Expr::Lit(self.value())), b(self.column(false))),
                2 => Expr::In(b(self.column(false)), vec![self.value(), self.value()]),
                3 => {
                    let set = ["known", "opaque"][self.pick(2)];
                    Expr::Call(Sym::intern(set), b(self.column(false)))
                }
                4 => [Expr::True, Expr::False][self.pick(2)].clone(),
                5 => Expr::Eq(b(self.column(false)), b(self.column(false))),
                6 => self.column(false),
                7 => Expr::And(b(self.cond(depth - 1)), b(self.cond(depth - 1))),
                8 => Expr::Or(b(self.cond(depth - 1)), b(self.cond(depth - 1))),
                9 => Expr::Not(b(self.cond(depth - 1))),
                10 => Expr::Eq(b(self.val(depth, false)), b(self.val(depth - 1, false))),
                _ => Expr::Ternary(
                    b(self.cond(depth - 1)),
                    b(self.cond(depth - 1)),
                    b(self.cond(depth - 1)),
                ),
            }
        }

        /// A rule-chain-like arm: assignments to `o`, nested ternaries,
        /// conjunctions of both.
        fn arm(&mut self, depth: u32) -> Expr {
            let b = |e: Expr| Box::new(e);
            match self.pick(if depth == 0 { 2 } else { 5 }) {
                0 => Expr::Eq(b(Expr::col("o")), b(Expr::Lit(self.value()))),
                1 => Expr::Eq(b(self.val(depth, true)), b(self.val(0, true))),
                2 => Expr::And(b(self.arm(depth - 1)), b(self.arm(depth - 1))),
                _ => Expr::Ternary(
                    b(self.cond(depth - 1)),
                    b(self.arm(depth - 1)),
                    b(self.arm(depth - 1)),
                ),
            }
        }
    }

    /// Every `Expr` variant the generator must reach.
    const VARIANTS: [&str; 13] = [
        "Col", "Ident", "Lit", "Eq", "Ne", "In", "And", "Or", "Not", "Call", "Ternary", "True",
        "False",
    ];

    fn variant(e: &Expr) -> &'static str {
        match e {
            Expr::Col(_) => "Col",
            Expr::Ident(_) => "Ident",
            Expr::Lit(_) => "Lit",
            Expr::Eq(..) => "Eq",
            Expr::Ne(..) => "Ne",
            Expr::In(..) => "In",
            Expr::And(..) => "And",
            Expr::Or(..) => "Or",
            Expr::Not(_) => "Not",
            Expr::Call(..) => "Call",
            Expr::Ternary(..) => "Ternary",
            Expr::True => "True",
            Expr::False => "False",
        }
    }

    #[test]
    fn set_evaluator_matches_per_assignment_reference() {
        const CASES: usize = 3000;
        let mut seeds = SplitMix64::new(0xcc13_5e75);
        let mut seen: Vec<&str> = Vec::new();
        let (mut unknown, mut dead) = (0, 0);
        for case in 0..CASES {
            let seed = seeds.next_u64();
            let mut g = Gen(SplitMix64::new(seed));
            let doms: Vec<(Sym, Vec<Value>)> = ["a", "b", "c", "o"]
                .iter()
                .map(|c| (Sym::intern(c), g.domain()))
                .collect();
            let e = Expr::Ternary(Box::new(g.cond(3)), Box::new(g.arm(3)), Box::new(g.arm(3)));
            let table_of: HashMap<Sym, &[Value]> =
                doms.iter().map(|(c, d)| (*c, d.as_slice())).collect();
            let mut conds = Vec::new();
            collect_conds(&e, &mut conds);
            let cols = condition_columns(&conds, &table_of);
            let col_doms: Vec<&[Value]> = cols.iter().map(|c| table_of[c]).collect();
            let got = reach_marks(&e, &cols, &col_doms, &Sets);
            let want = reference_marks(&e, &cols, &col_doms, &Sets);
            assert_eq!(
                got, want,
                "case {case} (seed {seed:#x}): marks differ for {e} over {doms:?}"
            );
            walk(
                &e,
                &mut |n, _| {
                    let v = variant(n);
                    if !seen.contains(&v) {
                        seen.push(v);
                    }
                },
                &mut LintReport::new(),
            );
            unknown += got.iter().filter(|m| m.cond_unknown).count();
            dead += got
                .iter()
                .filter(|m| !m.then_taken || !m.else_taken)
                .count();
        }
        for v in VARIANTS {
            assert!(seen.contains(&v), "generator never produced Expr::{v}");
        }
        assert!(unknown > 0 && dead > 0, "unknown={unknown} dead={dead}");
    }

    /// Lint a one-table spec whose single constraint plants a shadowed
    /// then-branch over `a` (`na` values) × `b` (`nb` values).
    fn lint_planted(na: usize, nb: usize) -> LintReport {
        let values = |p: &str, n: usize| {
            (0..n)
                .map(|i| format!("{p}{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let src = format!(
            "table T\n\
             input a = {}\n\
             input b = {}\n\
             output o = p, q, NULL\n\
             constrain o: a = a0 ? (a = a1 ? o = p : o = q) : (b = b0 ? o = p : o = NULL)\n",
            values("a", na),
            values("b", nb)
        );
        let f = ccsql_relalg::parse_specfile(&src).expect("spec parses");
        crate::lint_specfiles(&[&f], &ccsql_relalg::expr::NoContext)
    }

    #[test]
    fn reachability_runs_at_exactly_the_budget_and_skips_past_it() {
        let skipped = |r: &LintReport| {
            r.diagnostics().iter().any(|d| {
                d.code == codes::ANALYSIS_SKIPPED
                    && d.message.starts_with("branch reachability skipped")
            })
        };
        let shadowed = |r: &LintReport| {
            r.diagnostics()
                .iter()
                .filter(|d| d.code == codes::UNREACHABLE_BRANCH)
                .map(|d| d.message.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(512 * 1024, REACH_BUDGET);
        let at = lint_planted(512, 1024);
        assert!(!skipped(&at), "{}", at.render_human());
        assert_eq!(
            shadowed(&at),
            vec![
                "then-branch of `a = \"a1\" ? … : …` is unreachable: the condition never holds \
                  on any path that reaches it"
                    .to_string()
            ],
            "{}",
            at.render_human()
        );
        let over = lint_planted(513, 1024);
        assert!(skipped(&over), "{}", over.render_human());
        assert!(shadowed(&over).is_empty(), "{}", over.render_human());
    }
}
