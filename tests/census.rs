//! Experiment T1 — the paper's Section 3.1 census claim:
//! "Overall 40 feature diagrams are obtained for SQL Foundation with more
//! than 500 features."
//!
//! The census counts features per diagram and sums across diagrams (nested
//! diagrams share features with their parents, exactly as the paper's
//! Figure 1 contains the Table Expression node that is also Figure 2's
//! concept). The per-diagram table is printed for EXPERIMENTS.md.

use sqlweave::feature_model::analysis::{
    analyze, census, try_analyze_constraints, ConstraintDefect,
};
use sqlweave::feature_model::count::{enumerate_configurations, try_count_configurations};
use sqlweave::feature_model::FeatureId;
use sqlweave::sql::{catalog, DIAGRAMS};

#[test]
fn forty_diagrams_five_hundred_features() {
    let cat = catalog();
    let diagrams = cat.diagrams();
    assert!(
        diagrams.len() >= 40,
        "paper claims 40 diagrams; we have {}",
        diagrams.len()
    );

    let mut total_features = 0usize;
    println!(
        "{:<28} {:>8} {:>9} {:>8} {:>8} {:>6} {:>11} {:>14}",
        "diagram", "features", "mandatory", "optional", "grouped", "depth", "constraints", "configurations"
    );
    for model in &diagrams {
        let c = census(model);
        total_features += c.features;
        let configs = c
            .configurations
            .map(|n| n.to_string())
            .unwrap_or_else(|| "(huge)".to_string());
        println!(
            "{:<28} {:>8} {:>9} {:>8} {:>8} {:>6} {:>11} {:>14}",
            c.diagram,
            c.features,
            c.mandatory,
            c.optional,
            c.grouped,
            c.depth,
            c.constraints,
            configs
        );
    }
    println!("TOTAL across {} diagrams: {} features", diagrams.len(), total_features);
    assert!(
        total_features > 500,
        "paper claims >500 features; we count {total_features}"
    );
}

#[test]
fn merged_model_is_healthy() {
    let cat = catalog();
    let model = cat.model();
    // Merged model holds a substantial unique-feature count too.
    assert!(model.len() >= 200, "unique features: {}", model.len());
    // No duplicate diagram roots.
    let mut names: Vec<&str> = DIAGRAMS.to_vec();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), DIAGRAMS.len());
}

#[test]
fn every_diagram_admits_configurations() {
    let cat = catalog();
    for model in cat.diagrams() {
        // The whole-model diagram has too many cross-tree constraints for
        // exact counting; skip those.
        let Some(count) = sqlweave::feature_model::count::try_count_configurations(&model, 20)
        else {
            continue;
        };
        assert!(
            count > 0,
            "diagram `{}` is void ({} features)",
            model.name(),
            model.len()
        );
    }
}

#[test]
fn registry_covers_syntax_features() {
    // Every feature with a sub-grammar parses and has consistent tokens —
    // already enforced at registration; here we assert coverage breadth.
    let cat = catalog();
    let with_grammar = cat
        .model()
        .iter()
        .filter(|(_, f)| {
            cat.registry()
                .get(&f.name)
                .is_some_and(|a| a.grammar.is_some())
        })
        .count();
    assert!(
        with_grammar >= 120,
        "only {with_grammar} features carry sub-grammars"
    );
}

#[test]
fn dead_and_core_features_match_brute_force_enumeration() {
    const LIMIT: usize = 5_000;
    let mut checked = 0;
    for model in catalog().diagrams() {
        let Some(count) = try_count_configurations(&model, 20) else {
            continue;
        };
        if count > LIMIT as u128 {
            continue;
        }
        let configs = enumerate_configurations(&model, LIMIT);
        assert_eq!(configs.len() as u128, count, "diagram `{}`", model.name());
        let in_configs = |id: FeatureId| {
            let name = &model.feature(id).name;
            configs.iter().filter(|c| c.contains(name)).count()
        };
        let ids: Vec<FeatureId> = model.iter().map(|(id, _)| id).collect();
        let dead: Vec<FeatureId> = ids.iter().copied().filter(|&f| in_configs(f) == 0).collect();
        let core: Vec<FeatureId> = ids
            .iter()
            .copied()
            .filter(|&f| in_configs(f) == configs.len())
            .collect();
        let a = analyze(&model);
        assert_eq!(a.configurations, count, "diagram `{}`", model.name());
        assert_eq!(a.dead, dead, "dead features of `{}`", model.name());
        assert_eq!(a.core, core, "core features of `{}`", model.name());
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} diagrams are small enough to enumerate");
}

#[test]
fn constraint_analysis_keeps_constraints_that_prune() {
    let cat = catalog();
    // `window_order requires order_by`: dropping `order_by` from a valid
    // configuration that has `window_order` violates only this constraint,
    // so it prunes configurations and is not redundant.
    let qe = cat.diagram("query_expression").unwrap();
    let findings = try_analyze_constraints(&qe, 20).unwrap();
    assert!(
        findings.iter().all(|f| f.index != 3),
        "{:?}",
        findings.iter().map(|f| f.describe(&qe)).collect::<Vec<_>>()
    );
    // `quantified_comparison requires comparison_predicate` is implied by
    // the tree and stays a redundancy note.
    let predicates = cat.diagram("predicates").unwrap();
    let findings = try_analyze_constraints(&predicates, 20).unwrap();
    assert!(
        findings
            .iter()
            .any(|f| f.index == 0 && f.defect == ConstraintDefect::Redundant),
        "{:?}",
        findings.iter().map(|f| f.describe(&predicates)).collect::<Vec<_>>()
    );
}
