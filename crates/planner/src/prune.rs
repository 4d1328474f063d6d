//! Column pruning: one top-down pass that asks every node only for the
//! columns its parent reads.
//!
//! [`prune`] walks the plan from the root — which needs everything, so
//! the result's schema, rows and order cannot change — handing each node
//! the set of its output columns somebody above reads. The node adds
//! what it reads itself, asks its input for the union, and renumbers its
//! own ordinals against the columns the input kept (it may keep more: a
//! filter's predicate column travels up to the next node that emits
//! exactly what is needed). Narrowing lands where a column drops for
//! free: a scan's output list ([`ScanSpec::cols`] — never decoded) and a
//! join's emit list ([`JoinSpec::emit`] — never gathered). The per-node
//! rule table, and why a join asks its *right* side for every column for
//! now, are in `docs/ARCHITECTURE.md` ("Column pruning").
//!
//! The pass is total: a plan it cannot follow — a missing table, an
//! ordinal out of range, a column list out of order — comes back
//! unchanged, and running it reports the error it always did.

use smooth_executor::sort::SortKey;
use smooth_executor::JoinType;

use crate::catalog::Catalog;
use crate::plan::{JoinSpec, LogicalPlan, ScanSpec};

/// `plan` with every scan and join narrowed to the columns the plan
/// reads: same result, column for column and row for row. Idempotent.
pub fn prune(catalog: &Catalog, plan: &LogicalPlan) -> LogicalPlan {
    let all = width(catalog, plan).map(|w| (0..w).collect::<Vec<_>>());
    let pruned = all.and_then(|all| narrow(catalog, plan, &all));
    pruned.map_or_else(|| plan.clone(), |(plan, _)| plan)
}

/// How many columns `plan` emits.
fn width(catalog: &Catalog, plan: &LogicalPlan) -> Option<usize> {
    Some(match plan {
        LogicalPlan::Scan(spec) => match &spec.cols {
            Some(cols) => cols.len(),
            None => catalog.get(&spec.table).ok()?.heap.schema().len(),
        },
        LogicalPlan::Join(spec) => match (&spec.emit, spec.ty) {
            (Some(emit), _) => emit.len(),
            (None, JoinType::LeftSemi) => width(catalog, &spec.left)?,
            (None, JoinType::Inner) => width(catalog, &spec.left)? + width(catalog, &spec.right)?,
        },
        LogicalPlan::Aggregate { group_cols, aggs, .. } => group_cols.len() + aggs.len(),
        LogicalPlan::Project { cols, .. } => cols.len(),
        LogicalPlan::Sort { input, .. } | LogicalPlan::Filter { input, .. } => {
            width(catalog, input)?
        }
    })
}

/// `a ∪ b`, ascending.
fn union(a: &[usize], b: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut all: Vec<usize> = a.iter().copied().chain(b).collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// The new ordinal of old column `col`, given the old ordinals `kept`
/// (ascending) a narrowed node still emits.
fn at(kept: &[usize], col: usize) -> Option<usize> {
    kept.binary_search(&col).ok()
}

/// A column list a plan may carry: strictly ascending, below `bound`.
fn well_formed(list: &[usize], bound: usize) -> bool {
    list.windows(2).all(|w| w[0] < w[1]) && list.last().is_none_or(|&c| c < bound)
}

/// Narrow `plan` to (at least) its output columns `need` (ascending).
/// Returns the rewritten node and the old ordinals of the columns it
/// now emits, ascending — a superset of `need`; `None` when the plan is
/// not one the pass can follow.
fn narrow(
    catalog: &Catalog,
    plan: &LogicalPlan,
    need: &[usize],
) -> Option<(LogicalPlan, Vec<usize>)> {
    Some(match plan {
        LogicalPlan::Scan(spec) => {
            let table = catalog.get(&spec.table).ok()?.heap.schema().len();
            let emitted = spec.cols.clone().unwrap_or_else(|| (0..table).collect());
            if !well_formed(&emitted, table) {
                return None;
            }
            let key = match spec.predicate.split_index_range() {
                Some((col, ..)) if spec.ordered => Some(spec.output_col(col)?),
                _ => None,
            };
            let kept = union(need, key);
            let cols: Vec<usize> =
                kept.iter().map(|&c| emitted.get(c).copied()).collect::<Option<_>>()?;
            let cols = (cols.len() < table).then_some(cols);
            (LogicalPlan::Scan(ScanSpec { cols, ..spec.clone() }), kept)
        }
        LogicalPlan::Filter { input, predicate } => {
            let read = predicate.referenced_columns();
            let (input, kept) = narrow(catalog, input, &union(need, read))?;
            let predicate = predicate.remap(&mut |c| at(&kept, c))?;
            (LogicalPlan::Filter { input: Box::new(input), predicate }, kept)
        }
        LogicalPlan::Sort { input, keys } => {
            let read = keys.iter().map(|k| k.column);
            let (input, kept) = narrow(catalog, input, &union(need, read))?;
            let key = |k: &SortKey| Some(SortKey { column: at(&kept, k.column)?, ..*k });
            let keys = keys.iter().map(key).collect::<Option<_>>()?;
            (LogicalPlan::Sort { input: Box::new(input), keys }, kept)
        }
        LogicalPlan::Project { input, cols } => {
            let read: Vec<usize> =
                need.iter().map(|&i| cols.get(i).copied()).collect::<Option<_>>()?;
            let (input, kept) = narrow(catalog, input, &union(&[], read.iter().copied()))?;
            let cols = read.iter().map(|&c| at(&kept, c)).collect::<Option<_>>()?;
            (LogicalPlan::Project { input: Box::new(input), cols }, need.to_vec())
        }
        LogicalPlan::Aggregate { input, group_cols, aggs } => {
            let mut read = group_cols.clone();
            for agg in aggs {
                agg.remap(&mut |c| {
                    read.push(c);
                    Some(c)
                });
            }
            let (input, kept) = narrow(catalog, input, &union(&[], read))?;
            let group_cols: Vec<usize> =
                group_cols.iter().map(|&g| at(&kept, g)).collect::<Option<_>>()?;
            let aggs: Vec<_> =
                aggs.iter().map(|a| a.remap(&mut |c| at(&kept, c))).collect::<Option<_>>()?;
            let outputs = (0..group_cols.len() + aggs.len()).collect();
            (LogicalPlan::Aggregate { input: Box::new(input), group_cols, aggs }, outputs)
        }
        LogicalPlan::Join(spec) => {
            let (lw, rw) = (width(catalog, &spec.left)?, width(catalog, &spec.right)?);
            let joined = lw + if spec.ty == JoinType::Inner { rw } else { 0 };
            // The needed outputs, as ordinals of `left ++ right`.
            let read: Vec<usize> = match &spec.emit {
                Some(emit) if !well_formed(emit, joined) => return None,
                Some(emit) => need.iter().map(|&i| emit.get(i).copied()).collect::<Option<_>>()?,
                None => need.to_vec(),
            };
            if !well_formed(&read, joined) {
                return None;
            }
            let (from_left, from_right) = read.split_at(read.partition_point(|&c| c < lw));
            let (left, lkept) = narrow(catalog, &spec.left, &union(from_left, [spec.left_col]))?;
            // The staged exception: the right side keeps every column. Its
            // own rule is `union(from_right − lw, [spec.right_col])`.
            let (right, rkept) = narrow(catalog, &spec.right, &(0..rw).collect::<Vec<_>>())?;
            let right_at = |c: &usize| Some(lkept.len() + at(&rkept, c - lw)?);
            let emit: Vec<usize> = (from_left.iter().map(|&c| at(&lkept, c)))
                .chain(from_right.iter().map(right_at))
                .collect::<Option<_>>()?;
            let kept = lkept.len() + if spec.ty == JoinType::Inner { rkept.len() } else { 0 };
            let spec = JoinSpec {
                left_col: at(&lkept, spec.left_col)?,
                right_col: at(&rkept, spec.right_col)?,
                emit: (emit.len() < kept).then_some(emit),
                left,
                right,
                ty: spec.ty,
                strategy: spec.strategy,
            };
            (LogicalPlan::Join(Box::new(spec)), need.to_vec())
        }
    })
}
