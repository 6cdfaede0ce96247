//! Exact counting and bounded enumeration of valid configurations.
//!
//! Counting uses a dynamic program over the feature tree. Groups are handled
//! with a subset-size polynomial: each member `m` contributes a factor
//! `(1 + count(m)·x)`; the group's contribution is the sum of coefficients of
//! `x^k` for `k` within the group bounds. Cross-tree constraints are handled
//! by *splitting*: the features mentioned in constraints are enumerated over
//! all constraint-consistent true/false assignments, and the tree DP is run
//! with those features forced. This is exact and fast as long as the number
//! of constraint-involved features is modest (it is small in every SQL
//! diagram of this product line; the implementation caps it at
//! [`MAX_SPLIT_FEATURES`]).

use crate::config::Configuration;
use crate::model::{Constraint, FeatureId, FeatureModel};
use crate::validate::validate;
use std::collections::BTreeSet;

/// Upper bound on distinct features referenced by constraints before
/// [`count_configurations`] refuses to split (2^n assignments).
pub const MAX_SPLIT_FEATURES: usize = 24;

/// Tri-state forcing for the DP.
type Forced = Vec<Option<bool>>;

/// Number of valid subtree configurations of `f`, **given `f` is selected**,
/// honoring `forced`.
fn count_subtree(model: &FeatureModel, f: FeatureId, forced: &Forced) -> u128 {
    if forced[f.index()] == Some(false) {
        return 0;
    }
    let feat = model.feature(f);
    let mut total: u128 = 1;

    // Solitary children.
    for &child in &feat.children {
        let c = model.feature(child);
        if c.group.is_some() {
            continue;
        }
        let child_count = count_subtree(model, child, forced);
        let factor = if c.optionality.is_mandatory() {
            child_count
        } else {
            match forced[child.index()] {
                Some(true) => child_count,
                Some(false) => 1,
                None => 1 + child_count,
            }
        };
        total = total.saturating_mul(factor);
        if total == 0 {
            return 0;
        }
    }

    // Groups owned by this feature.
    for group in model.groups().iter().filter(|g| g.parent == f) {
        // poly[k] = number of ways to select exactly k members (with their
        // subtrees configured).
        let mut poly: Vec<u128> = vec![1];
        for &m in &group.members {
            let m_count = count_subtree(model, m, forced);
            let (can_skip, can_take) = match forced[m.index()] {
                Some(true) => (false, true),
                Some(false) => (true, false),
                None => (true, true),
            };
            let mut next = vec![0u128; poly.len() + 1];
            for (k, &ways) in poly.iter().enumerate() {
                if can_skip {
                    next[k] = next[k].saturating_add(ways);
                }
                if can_take {
                    next[k + 1] = next[k + 1].saturating_add(ways.saturating_mul(m_count));
                }
            }
            poly = next;
        }
        let (min, max) = group.kind.bounds(group.members.len());
        let mut group_ways: u128 = 0;
        for (k, &ways) in poly.iter().enumerate() {
            if k as u32 >= min && k as u32 <= max {
                group_ways = group_ways.saturating_add(ways);
            }
        }
        total = total.saturating_mul(group_ways);
        if total == 0 {
            return 0;
        }
    }
    total
}

/// `true` if the assignment is internally consistent with every one of
/// `constraints` whose endpoints are both assigned.
fn assignment_consistent(constraints: &[Constraint], forced: &Forced) -> bool {
    constraints.iter().all(|&c| match c {
        Constraint::Requires(a, b) => {
            !(forced[a.index()] == Some(true) && forced[b.index()] == Some(false))
        }
        Constraint::Excludes(a, b) => {
            !(forced[a.index()] == Some(true) && forced[b.index()] == Some(true))
        }
    })
}

/// Exact number of valid configurations of `model`.
///
/// Saturates at `u128::MAX` on (astronomically) large models. Panics if more
/// than [`MAX_SPLIT_FEATURES`] distinct features appear in constraints; use
/// [`try_count_configurations`] to handle that case gracefully.
pub fn count_configurations(model: &FeatureModel) -> u128 {
    try_count_configurations(model, MAX_SPLIT_FEATURES).unwrap_or_else(|| {
        panic!(
            "model `{}` has too many constraint-involved features; counting would need 2^n splits beyond the cap",
            model.name()
        )
    })
}

/// Exact counting with an explicit split cap: returns `None` when more than
/// `max_split` distinct features appear in constraints (2^n assignments
/// would be required).
pub fn try_count_configurations(model: &FeatureModel, max_split: usize) -> Option<u128> {
    count_with_splitting(model, model.constraints(), &[], max_split)
}

/// Exact counting with extra forced feature assignments (e.g. "feature `a`
/// selected, feature `b` deselected"), splitting over constraint-involved
/// features as [`try_count_configurations`] does.
///
/// `Some(0)` is a *proof* that no valid configuration satisfies the
/// assignment; `Some(n > 0)` proves `n` do. Returns `None` when counting
/// would need more than `max_split` splits.
pub fn try_count_with_forced(
    model: &FeatureModel,
    assignments: &[(FeatureId, bool)],
    max_split: usize,
) -> Option<u128> {
    count_with_splitting(model, model.constraints(), assignments, max_split)
}

/// Shared core of every exact count: configurations of the tree honoring
/// only `constraints` (the model's own, or a subset of them when an
/// analysis drops one) with `assignments` forced. Closes the assignment
/// upward, then splits over the constraint-involved features it leaves
/// free. `None` when more than `max_split` (at most
/// [`MAX_SPLIT_FEATURES`]) would need splitting.
pub(crate) fn count_with_splitting(
    model: &FeatureModel,
    constraints: &[Constraint],
    assignments: &[(FeatureId, bool)],
    max_split: usize,
) -> Option<u128> {
    let mut base: Forced = vec![None; model.len()];
    for &(f, v) in assignments {
        match base[f.index()] {
            Some(old) if old != v => return Some(0),
            _ => base[f.index()] = Some(v),
        }
    }
    if !propagate_selected_up(model, &mut base) {
        return Some(0);
    }

    let involved: BTreeSet<FeatureId> = constraints
        .iter()
        .flat_map(|c| {
            let (a, b) = c.endpoints();
            [a, b]
        })
        .collect();
    let involved: Vec<FeatureId> = involved
        .into_iter()
        .filter(|f| base[f.index()].is_none())
        .collect();
    if involved.len() > max_split.min(MAX_SPLIT_FEATURES) {
        return None;
    }

    if involved.is_empty() {
        if !assignment_consistent(constraints, &base) {
            return Some(0);
        }
        return Some(count_subtree(model, FeatureId::ROOT, &base));
    }

    let mut total: u128 = 0;
    for mask in 0u64..(1u64 << involved.len()) {
        let mut forced: Forced = base.clone();
        for (bit, &fid) in involved.iter().enumerate() {
            forced[fid.index()] = Some(mask & (1 << bit) != 0);
        }
        if !propagate_selected_up(model, &mut forced) {
            continue;
        }
        if !assignment_consistent(constraints, &forced) {
            continue;
        }
        total = total.saturating_add(count_subtree(model, FeatureId::ROOT, &forced));
    }
    Some(total)
}

/// Force the ancestors of every forced-true feature to true (a selected
/// feature implies its whole ancestor chain). Returns `false` on
/// contradiction (an ancestor already forced false).
///
/// Without this closure the tree DP would count the "parent absent" branch
/// of an optional ancestor as compatible with a forced-true descendant,
/// double-counting those configurations across split assignments.
fn propagate_selected_up(model: &FeatureModel, forced: &mut Forced) -> bool {
    for (id, _) in model.iter() {
        if forced[id.index()] != Some(true) {
            continue;
        }
        let mut cur = id;
        while let Some(parent) = model.feature(cur).parent {
            match forced[parent.index()] {
                Some(false) => return false,
                Some(true) => break,
                None => forced[parent.index()] = Some(true),
            }
            cur = parent;
        }
    }
    true
}

/// Enumerate valid configurations, stopping after `limit` results.
///
/// # Limit semantics
///
/// The tree's choice points (optional solitary features and group member
/// subsets) are explored in a fixed depth-first order — children in
/// declaration order, "taken" before "skipped", group subsets in ascending
/// bitmask order — and every structurally complete selection is filtered by
/// full validation (which applies cross-tree constraints). Exploration
/// stops as soon as `limit` valid configurations have been found, so cost
/// is proportional to the part of the space actually visited rather than
/// its total size: a model with 2^200 configurations and `limit = 3`
/// returns promptly.
///
/// # Guarantees
///
/// The result is deterministic, free of duplicates, and **sorted** by each
/// configuration's canonical rendering. Whenever
/// `count_configurations(model) <= limit` the result is exactly the whole
/// configuration space (the enumeration's length equals the count), making
/// this a complete family enumeration for small models.
pub fn enumerate_configurations(model: &FeatureModel, limit: usize) -> Vec<Configuration> {
    let mut out: Vec<Configuration> = Vec::new();
    if limit > 0 {
        let mut selected = vec![false; model.len()];
        selected[FeatureId::ROOT.index()] = true;
        let mut emit = |model: &FeatureModel, sel: &mut Vec<bool>| {
            let config = Configuration::of(
                model
                    .iter()
                    .filter(|(id, _)| sel[id.index()])
                    .map(|(_, feat)| feat.name.clone()),
            );
            if validate(model, &config).is_ok() {
                out.push(config);
            }
            out.len() < limit
        };
        expand_feature_children(model, FeatureId::ROOT, &mut selected, &mut emit);
    }
    out.sort_by_key(|c| c.to_string());
    out
}

/// Explore every completion of `f`'s children (`f` itself must already be
/// marked selected), invoking `k` at each structurally complete point.
/// `k` returns `false` to stop the whole exploration; the stop propagates
/// through the return value.
fn expand_feature_children(
    model: &FeatureModel,
    f: FeatureId,
    selected: &mut Vec<bool>,
    k: &mut dyn FnMut(&FeatureModel, &mut Vec<bool>) -> bool,
) -> bool {
    let feat = model.feature(f);
    let solitary: Vec<FeatureId> = feat
        .children
        .iter()
        .copied()
        .filter(|&c| model.feature(c).group.is_none())
        .collect();
    let groups: Vec<usize> = model
        .groups()
        .iter()
        .enumerate()
        .filter(|(_, g)| g.parent == f)
        .map(|(i, _)| i)
        .collect();
    expand_children(model, &solitary, &groups, 0, 0, selected, k)
}

/// Expand choice points of one feature: first solitary children (index
/// `si`), then groups (index `gi`). When both are exhausted, the current
/// `selected` is one completion and `k` is invoked on it.
fn expand_children(
    model: &FeatureModel,
    solitary: &[FeatureId],
    groups: &[usize],
    si: usize,
    gi: usize,
    selected: &mut Vec<bool>,
    k: &mut dyn FnMut(&FeatureModel, &mut Vec<bool>) -> bool,
) -> bool {
    if si < solitary.len() {
        let child = solitary[si];
        let mandatory = model.feature(child).optionality.is_mandatory();
        // Take the child: expand its own subtree, and at each of its
        // completion points, continue with the remaining siblings.
        {
            let kk = &mut *k;
            let mut cont = |model: &FeatureModel, selected: &mut Vec<bool>| {
                expand_children(model, solitary, groups, si + 1, gi, selected, kk)
            };
            if !with_child_taken(model, child, selected, &mut cont) {
                return false;
            }
        }
        // Skip the child if optional.
        if !mandatory {
            return expand_children(model, solitary, groups, si + 1, gi, selected, k);
        }
        return true;
    }
    if gi < groups.len() {
        let g = &model.groups()[groups[gi]];
        let members = g.members.clone();
        let (min, max) = g.kind.bounds(members.len());
        for mask in 0u64..(1u64 << members.len()) {
            let count = mask.count_ones();
            if count < min || count > max {
                continue;
            }
            let kk = &mut *k;
            let mut cont = |model: &FeatureModel, selected: &mut Vec<bool>| {
                expand_children(model, solitary, groups, si, gi + 1, selected, kk)
            };
            if !take_masked_members(model, &members, mask, 0, selected, &mut cont) {
                return false;
            }
        }
        return true;
    }
    k(model, selected)
}

/// Mark `child` selected, expand its subtree (invoking `k` at each
/// completion point), then clear its mark again. Descendant marks are
/// cleared by their own expansion frames on unwind.
fn with_child_taken(
    model: &FeatureModel,
    child: FeatureId,
    selected: &mut Vec<bool>,
    k: &mut dyn FnMut(&FeatureModel, &mut Vec<bool>) -> bool,
) -> bool {
    selected[child.index()] = true;
    let go = expand_feature_children(model, child, selected, k);
    selected[child.index()] = false;
    go
}

/// Take exactly the members of `members` whose bit is set in `mask`
/// (expanding each taken member's subtree), then invoke `k`.
fn take_masked_members(
    model: &FeatureModel,
    members: &[FeatureId],
    mask: u64,
    i: usize,
    selected: &mut Vec<bool>,
    k: &mut dyn FnMut(&FeatureModel, &mut Vec<bool>) -> bool,
) -> bool {
    if i == members.len() {
        return k(model, selected);
    }
    if mask & (1 << i) != 0 {
        let kk = &mut *k;
        let mut cont = |model: &FeatureModel, selected: &mut Vec<bool>| {
            take_masked_members(model, members, mask, i + 1, selected, kk)
        };
        with_child_taken(model, members[i], selected, &mut cont)
    } else {
        take_masked_members(model, members, mask, i + 1, selected, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelBuilder;

    /// Figure 2: from mandatory; where/group_by/having/window optional,
    /// having requires group_by.
    fn table_expression() -> FeatureModel {
        let mut b = ModelBuilder::new("table_expression");
        let root = b.root();
        b.mandatory(root, "from");
        b.optional(root, "where");
        b.optional(root, "group_by");
        b.optional(root, "having");
        b.optional(root, "window");
        b.requires("having", "group_by");
        b.build().unwrap()
    }

    #[test]
    fn count_simple_optionals() {
        // root + 3 optionals, no constraints: 2^3 = 8.
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.optional(r, "a");
        b.optional(r, "b");
        b.optional(r, "x");
        let m = b.build().unwrap();
        assert_eq!(count_configurations(&m), 8);
    }

    #[test]
    fn count_mandatory_is_neutral() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.mandatory(r, "m");
        b.optional(r, "o");
        let m = b.build().unwrap();
        assert_eq!(count_configurations(&m), 2);
    }

    #[test]
    fn count_xor_group() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.xor(r, &["a", "b", "x"]);
        let m = b.build().unwrap();
        assert_eq!(count_configurations(&m), 3);
    }

    #[test]
    fn count_or_group() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.or(r, &["a", "b", "x"]);
        let m = b.build().unwrap();
        assert_eq!(count_configurations(&m), 7); // 2^3 - 1
    }

    #[test]
    fn count_card_group() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.group(r, crate::GroupKind::Card { min: 2, max: Some(2) }, &["a", "b", "x"]);
        let m = b.build().unwrap();
        assert_eq!(count_configurations(&m), 3); // C(3,2)
    }

    #[test]
    fn count_with_requires() {
        // where: 2 choices; window: 2; (group_by, having): having requires
        // group_by -> 3 combos (00, 10, 11). Total 2*2*3 = 12.
        let m = table_expression();
        assert_eq!(count_configurations(&m), 12);
    }

    #[test]
    fn count_with_excludes() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.optional(r, "a");
        b.optional(r, "b");
        b.excludes("a", "b");
        let m = b.build().unwrap();
        assert_eq!(count_configurations(&m), 3); // {}, {a}, {b}
    }

    #[test]
    fn count_nested_optional_subtree() {
        // optional parent with an XOR group: 1 (absent) + 2 (present w/ choice).
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        let sq = b.optional(r, "set_quantifier");
        b.xor(sq, &["all", "distinct"]);
        let m = b.build().unwrap();
        assert_eq!(count_configurations(&m), 3);
    }

    #[test]
    fn enumeration_matches_count() {
        let m = table_expression();
        let configs = enumerate_configurations(&m, 1000);
        assert_eq!(configs.len() as u128, count_configurations(&m));
        // all distinct and valid
        for c in &configs {
            assert!(m.validate(c).is_ok(), "invalid enumerated config {c}");
        }
        let set: std::collections::BTreeSet<String> =
            configs.iter().map(|c| c.to_string()).collect();
        assert_eq!(set.len(), configs.len());
    }

    #[test]
    fn enumeration_respects_limit() {
        let m = table_expression();
        let configs = enumerate_configurations(&m, 5);
        assert_eq!(configs.len(), 5);
    }

    #[test]
    fn enumeration_with_nested_groups_matches_count() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        let sq = b.optional(r, "q");
        b.xor(sq, &["all", "distinct"]);
        let sl = b.mandatory(r, "sl");
        b.or(sl, &["col", "star"]);
        b.optional(r, "w");
        let m = b.build().unwrap();
        // q: 1+2=3; sl: 3 (or of 2); w: 2 => 18
        assert_eq!(count_configurations(&m), 18);
        assert_eq!(enumerate_configurations(&m, 10_000).len(), 18);
    }

    #[test]
    fn enumeration_is_sorted_and_deterministic() {
        let m = table_expression();
        let configs = enumerate_configurations(&m, 1000);
        let mut rendered: Vec<String> = configs.iter().map(|c| c.to_string()).collect();
        let mut sorted = rendered.clone();
        sorted.sort();
        assert_eq!(rendered, sorted, "enumeration must come back sorted");
        rendered.dedup();
        assert_eq!(rendered.len(), configs.len());
        assert_eq!(configs, enumerate_configurations(&m, 1000));
    }

    /// 160 independent optionals: 2^160 configurations. The count saturates
    /// instead of overflowing, and enumeration with a small limit must
    /// early-terminate rather than materialize the space.
    #[test]
    fn count_saturates_and_enumeration_early_terminates_on_huge_models() {
        let mut b = ModelBuilder::new("huge");
        let r = b.root();
        for i in 0..160 {
            b.optional(r, &format!("f{i:03}"));
        }
        let m = b.build().unwrap();
        assert_eq!(count_configurations(&m), u128::MAX, "count must saturate");
        let configs = enumerate_configurations(&m, 3);
        assert_eq!(configs.len(), 3);
        for c in &configs {
            assert!(m.validate(c).is_ok());
        }
    }

    /// Regression: constraint features under an *optional* parent. The
    /// split over constraint assignments must force the ancestor chain of
    /// each forced-true feature, or the "parent absent" DP branch is
    /// counted once per assignment (6 instead of 4 here).
    #[test]
    fn split_counting_forces_ancestors_of_constraint_features() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        let p = b.optional(r, "p");
        b.optional(p, "a");
        b.optional(p, "b");
        b.requires("a", "b");
        let m = b.build().unwrap();
        // Valid: {}, {p}, {p,b}, {p,a,b}.
        assert_eq!(count_configurations(&m), 4);
        assert_eq!(enumerate_configurations(&m, 100).len(), 4);
    }

    #[test]
    fn forced_counting_proves_pair_validity() {
        let m = table_expression();
        let id = |n: &str| m.id_of(n).unwrap();
        // having without group_by is impossible...
        assert_eq!(
            try_count_with_forced(&m, &[(id("having"), true), (id("group_by"), false)], 24),
            Some(0)
        );
        // ...but co-selecting them leaves where/window free: 4 configs.
        assert_eq!(
            try_count_with_forced(&m, &[(id("having"), true), (id("group_by"), true)], 24),
            Some(4)
        );
        // Contradictory assignment is proven empty outright.
        assert_eq!(
            try_count_with_forced(&m, &[(id("where"), true), (id("where"), false)], 24),
            Some(0)
        );
        // Unconstrained call agrees with the plain count.
        assert_eq!(try_count_with_forced(&m, &[], 24), Some(12));
    }

    #[test]
    fn deep_nesting_count() {
        // chain of optional features 5 deep: each level present only if the
        // previous is. counts: 1 + 1*(1 + (1 + (1 + (1 + 1)))) telescoping:
        // f(leaf)=1; each optional wrap: 1+f. depth 5 -> 6.
        let mut b = ModelBuilder::new("c");
        let mut cur = b.root();
        for i in 0..5 {
            cur = b.optional(cur, &format!("lvl{i}"));
        }
        let m = b.build().unwrap();
        assert_eq!(count_configurations(&m), 6);
        assert_eq!(enumerate_configurations(&m, 100).len(), 6);
    }
}
