//! Whole-model analyses: void models, dead features, core features, and
//! census statistics (used to regenerate the paper's "40 diagrams, >500
//! features" claim).

use crate::count::{
    count_configurations, count_with_splitting, try_count_configurations, try_count_with_forced,
    MAX_SPLIT_FEATURES,
};
use crate::model::{Constraint, FeatureId, FeatureModel, GroupKind, Optionality};

/// Result of [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelAnalysis {
    /// Exact number of valid configurations.
    pub configurations: u128,
    /// `true` if the model admits no valid configuration at all.
    pub void: bool,
    /// Features that appear in *no* valid configuration.
    pub dead: Vec<FeatureId>,
    /// Features that appear in *every* valid configuration.
    pub core: Vec<FeatureId>,
}

/// Compute configuration count, voidness, dead features and core features.
///
/// Dead/core detection runs one forced count per feature; cost is
/// `O(features · count)` which is fine for per-diagram SQL models.
pub fn analyze(model: &FeatureModel) -> ModelAnalysis {
    let total = count_configurations(model);
    let mut dead = Vec::new();
    let mut core = Vec::new();
    for (id, _) in model.iter() {
        // Forcing a feature only shrinks the set of free constraint
        // features, so this stays under the cap the total count passed.
        let with = try_count_with_forced(model, &[(id, true)], MAX_SPLIT_FEATURES)
            .expect("forcing a feature never adds split features");
        if with == 0 {
            dead.push(id);
        }
        if with == total && total > 0 {
            core.push(id);
        }
    }
    ModelAnalysis {
        configurations: total,
        void: total == 0,
        dead,
        core,
    }
}

impl ModelAnalysis {
    /// Features declared variable (optional solitary or group member) that
    /// nonetheless appear in **every** valid configuration — the modeling
    /// smell usually called *false-optional*: the diagram promises a choice
    /// the constraints have already made.
    pub fn false_optional(&self, model: &FeatureModel) -> Vec<FeatureId> {
        self.core
            .iter()
            .copied()
            .filter(|&f| {
                let feat = model.feature(f);
                feat.parent.is_some()
                    && (feat.is_grouped() || !feat.optionality.is_mandatory())
            })
            .collect()
    }
}

/// What is wrong with a cross-tree constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintDefect {
    /// Together with the rest of the model, the constraint forbids its own
    /// source feature: no valid configuration selects it, though some would
    /// without this constraint.
    Contradictory,
    /// Removing the constraint changes nothing — it is already implied by
    /// the tree structure and the remaining constraints.
    Redundant,
}

/// A defective cross-tree constraint found by [`try_analyze_constraints`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintFinding {
    /// Index into [`FeatureModel::constraints`].
    pub index: usize,
    /// The constraint itself.
    pub constraint: Constraint,
    /// Why it was flagged.
    pub defect: ConstraintDefect,
}

impl ConstraintFinding {
    /// Human-readable rendering naming both endpoint features.
    pub fn describe(&self, model: &FeatureModel) -> String {
        let (a, b) = self.constraint.endpoints();
        let rel = match self.constraint {
            Constraint::Requires(..) => "requires",
            Constraint::Excludes(..) => "excludes",
        };
        let what = match self.defect {
            ConstraintDefect::Contradictory => "contradictory",
            ConstraintDefect::Redundant => "redundant",
        };
        format!(
            "{what} constraint: `{}` {rel} `{}`",
            model.feature(a).name,
            model.feature(b).name
        )
    }
}

/// Check every cross-tree constraint for contradiction and redundancy by
/// exact counting with the constraint removed. Returns `None` when more
/// than `max_split` distinct features appear in constraints (the split
/// enumeration would need `2^n` assignments).
pub fn try_analyze_constraints(
    model: &FeatureModel,
    max_split: usize,
) -> Option<Vec<ConstraintFinding>> {
    let all = model.constraints();
    if all.is_empty() {
        return Some(Vec::new());
    }
    let total = count_with_splitting(model, all, &[], max_split)?;
    let mut findings = Vec::new();
    for (index, &constraint) in all.iter().enumerate() {
        let rest: Vec<Constraint> = all
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != index)
            .map(|(_, &c)| c)
            .collect();
        let without = count_with_splitting(model, &rest, &[], max_split)?;
        if without == total {
            findings.push(ConstraintFinding {
                index,
                constraint,
                defect: ConstraintDefect::Redundant,
            });
            continue;
        }
        // The constraint does prune configurations; contradictory if it
        // prunes *all* configurations selecting its source feature.
        let (source, _) = constraint.endpoints();
        let with_source = count_with_splitting(model, all, &[(source, true)], max_split)?;
        let without_source = count_with_splitting(model, &rest, &[(source, true)], max_split)?;
        if with_source == 0 && without_source > 0 {
            findings.push(ConstraintFinding {
                index,
                constraint,
                defect: ConstraintDefect::Contradictory,
            });
        }
    }
    Some(findings)
}

/// Per-diagram statistics for the census table (Experiment T1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Census {
    /// Diagram (root concept) name.
    pub diagram: String,
    /// Total features including the root.
    pub features: usize,
    /// Count of mandatory solitary features.
    pub mandatory: usize,
    /// Count of optional solitary features.
    pub optional: usize,
    /// Count of grouped features.
    pub grouped: usize,
    /// Number of OR groups.
    pub or_groups: usize,
    /// Number of XOR (alternative) groups.
    pub xor_groups: usize,
    /// Number of cross-tree constraints.
    pub constraints: usize,
    /// Maximum tree depth.
    pub depth: usize,
    /// Number of valid configurations (`None` when the model's constraint
    /// graph is too large for exact splitting).
    pub configurations: Option<u128>,
}

/// Compute the census row for one diagram.
pub fn census(model: &FeatureModel) -> Census {
    let mut mandatory = 0;
    let mut optional = 0;
    let mut grouped = 0;
    let mut depth = 0;
    for (id, f) in model.iter() {
        if f.is_grouped() {
            grouped += 1;
        } else if f.parent.is_some() {
            match f.optionality {
                Optionality::Mandatory => mandatory += 1,
                Optionality::Optional => optional += 1,
            }
        }
        depth = depth.max(model.depth(id));
    }
    let or_groups = model
        .groups()
        .iter()
        .filter(|g| g.kind == GroupKind::Or)
        .count();
    let xor_groups = model
        .groups()
        .iter()
        .filter(|g| g.kind == GroupKind::Xor)
        .count();
    Census {
        diagram: model.name().to_string(),
        features: model.len(),
        mandatory,
        optional,
        grouped,
        or_groups,
        xor_groups,
        constraints: model.constraints().len(),
        depth,
        configurations: try_count_configurations(model, 20),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelBuilder;

    #[test]
    fn healthy_model_has_no_dead_features() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.mandatory(r, "m");
        b.optional(r, "o");
        b.xor(r, &["a", "b"]);
        let m = b.build().unwrap();
        let a = analyze(&m);
        assert!(!a.void);
        assert!(a.dead.is_empty());
        // root and mandatory child are core
        let core_names: Vec<_> = a.core.iter().map(|&f| m.feature(f).name.as_str()).collect();
        assert!(core_names.contains(&"c"));
        assert!(core_names.contains(&"m"));
        assert!(!core_names.contains(&"o"));
    }

    /// Regression: `m` is mandatory under the optional `p`, so it is in
    /// every configuration with `p` but not in every configuration. The
    /// forced count must close `m`'s ancestors, or the "`p` absent" branch
    /// is counted once per constraint split and `m` looks core.
    #[test]
    fn mandatory_child_of_an_optional_parent_is_not_core() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        let p = b.optional(r, "p");
        b.mandatory(p, "m");
        b.optional(r, "x");
        b.optional(r, "y");
        b.requires("x", "y");
        let m = b.build().unwrap();
        let core: Vec<_> = analyze(&m).core.iter().map(|&f| m.feature(f).name.as_str()).collect();
        assert_eq!(core, ["c"]);
    }

    #[test]
    fn contradictory_constraints_make_dead_features() {
        // a requires b, a excludes b => a is dead.
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.optional(r, "a");
        b.optional(r, "b");
        b.requires("a", "b");
        b.excludes("a", "b");
        let m = b.build().unwrap();
        let analysis = analyze(&m);
        assert!(!analysis.void); // configs without `a` still exist
        let dead: Vec<_> = analysis
            .dead
            .iter()
            .map(|&f| m.feature(f).name.as_str())
            .collect();
        assert_eq!(dead, ["a"]);
    }

    #[test]
    fn void_model_detected() {
        // mandatory child `a` excluded by mandatory child `b` => void.
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.mandatory(r, "a");
        b.mandatory(r, "b");
        b.excludes("a", "b");
        let m = b.build().unwrap();
        let analysis = analyze(&m);
        assert!(analysis.void);
        assert_eq!(analysis.configurations, 0);
    }

    #[test]
    fn census_counts() {
        let mut b = ModelBuilder::new("query_specification");
        let r = b.root();
        let sq = b.optional(r, "set_quantifier");
        b.xor(sq, &["all", "distinct"]);
        let sl = b.mandatory(r, "select_list");
        b.or(sl, &["select_sublist", "asterisk"]);
        b.mandatory(r, "table_expression");
        b.requires("distinct", "select_list");
        let m = b.build().unwrap();
        let c = census(&m);
        assert_eq!(c.features, 8);
        assert_eq!(c.mandatory, 2);
        assert_eq!(c.optional, 1);
        assert_eq!(c.grouped, 4);
        assert_eq!(c.or_groups, 1);
        assert_eq!(c.xor_groups, 1);
        assert_eq!(c.constraints, 1);
        assert_eq!(c.depth, 2);
        assert!(c.configurations.unwrap() > 0);
    }

    #[test]
    fn false_optional_feature_detected() {
        // `b` is optional but `a` is mandatory and requires it: b is in
        // every valid configuration.
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.mandatory(r, "a");
        b.optional(r, "b");
        b.requires("a", "b");
        let m = b.build().unwrap();
        let analysis = analyze(&m);
        let fo: Vec<_> = analysis
            .false_optional(&m)
            .iter()
            .map(|&f| m.feature(f).name.as_str())
            .collect();
        assert_eq!(fo, ["b"]);
    }

    #[test]
    fn redundant_constraint_detected() {
        // b is mandatory, so `a requires b` prunes nothing.
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.optional(r, "a");
        b.mandatory(r, "b");
        b.requires("a", "b");
        let m = b.build().unwrap();
        let findings = try_analyze_constraints(&m, 20).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].defect, ConstraintDefect::Redundant);
        assert!(findings[0].describe(&m).contains("`a` requires `b`"));
    }

    #[test]
    fn contradictory_constraints_detected() {
        // a requires b AND a excludes b: each one, given the other, makes
        // `a` unselectable.
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.optional(r, "a");
        b.optional(r, "b");
        b.requires("a", "b");
        b.excludes("a", "b");
        let m = b.build().unwrap();
        let findings = try_analyze_constraints(&m, 20).unwrap();
        assert_eq!(findings.len(), 2);
        assert!(findings
            .iter()
            .all(|f| f.defect == ConstraintDefect::Contradictory));
    }

    #[test]
    fn healthy_constraints_not_flagged() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.optional(r, "a");
        b.optional(r, "b");
        b.requires("a", "b");
        let m = b.build().unwrap();
        assert!(try_analyze_constraints(&m, 20).unwrap().is_empty());
    }

    #[test]
    fn constraint_analysis_respects_split_cap() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.optional(r, "a");
        b.optional(r, "b");
        b.requires("a", "b");
        let m = b.build().unwrap();
        assert!(try_analyze_constraints(&m, 1).is_none());
    }

    #[test]
    fn forced_count_partitions_total() {
        let mut b = ModelBuilder::new("c");
        let r = b.root();
        b.optional(r, "a");
        b.optional(r, "b");
        b.requires("a", "b");
        let m = b.build().unwrap();
        let total = count_configurations(&m);
        let a = m.id_of("a").unwrap();
        let forced = |v| try_count_with_forced(&m, &[(a, v)], 20).unwrap();
        assert_eq!(forced(true) + forced(false), total);
    }
}
