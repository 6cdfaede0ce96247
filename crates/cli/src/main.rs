//! `sqlweave` — command-line interface to the SQL parser product line.
//!
//! This is the interactive tooling the paper leaves as future work ("we are
//! creating an implementation model and a user interface presenting various
//! SQL statements and their features"): list and render feature diagrams,
//! compose dialects from feature selections, parse statements against a
//! dialect, and emit generated parser source.
//!
//! ```text
//! sqlweave features [DIAGRAM]          list diagrams / render one as ASCII
//! sqlweave census                      per-diagram feature census
//! sqlweave compose FEATURE...          compose features, print the grammar
//! sqlweave parse --dialect NAME SQL    parse a statement (CST + AST)
//! sqlweave parse --recover ... SQL     parse with error recovery (multi-error)
//! sqlweave check --dialect NAME SQL    accept/reject only (exit code)
//! sqlweave lex --dialect NAME SQL      dump the token stream (kind, span, text)
//! sqlweave format --dialect NAME SQL   reformat a script via the AST
//! sqlweave generate FEATURE...         emit standalone Rust parser source
//! sqlweave dialects                    list preset dialects with sizes
//! sqlweave lint [TARGET...]            static analysis with diagnostic codes
//! sqlweave lint --sql 'SQL'            semantic lint (name resolution rules)
//! sqlweave lineage --dialect NAME SQL  table/column lineage for a script
//! sqlweave analyze [--all-dialects]    LL(k) conflict classification report
//! sqlweave certify [--dialect-model N] family-based product-line certification
//! sqlweave bench [--json]              corpus throughput per dialect × engine
//! ```
//!
//! Every subcommand declares its flags as a [`Spec`] and returns a
//! [`CmdResult`]; `main` reports errors and picks the exit code.

mod args;

use args::{compose_features, read_file, write_doc, Args, CliError, CmdResult, Flag, Spec};
use sqlweave_dialects::Dialect;
use sqlweave_feature_model::analysis::census;
use sqlweave_feature_model::render;
use sqlweave_grammar::lookahead::{analyze_lookahead, LookaheadAnalysis, Outcome, K_MAX};
use sqlweave_sql_features::{catalog, DIAGRAMS};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         sqlweave features [DIAGRAM] [--format text|json]\n  \
         sqlweave census\n  \
         sqlweave dialects [--format text|json]\n  \
         sqlweave compose FEATURE...\n  \
         sqlweave parse [--recover] [--format text|json] --dialect NAME 'SQL'\n  \
         sqlweave parse --stdin [--recover] [--format text|json] [--dialect NAME]\n  \
         sqlweave check --dialect NAME 'SQL'\n  \
         sqlweave lex [--format text|json] --dialect NAME 'SQL'\n  \
         sqlweave format --dialect NAME 'SQL'\n  \
         sqlweave generate FEATURE...\n  \
         sqlweave lint [--format text|json] --all-dialects\n  \
         sqlweave lint [--format text|json] --dialect NAME\n  \
         sqlweave lint [--format text|json] --grammar FILE [--tokens FILE]\n  \
         sqlweave lint [--format text|json] FEATURE...\n  \
         sqlweave lint [--dialect NAME] [--schema FILE] --sql 'SQL'\n  \
         sqlweave lint --codes [CODE,...]\n  \
         sqlweave lineage [--dialect NAME] [--schema FILE] [--format text|json] 'SQL'\n  \
         sqlweave lineage [--format text|json] [--check FILE] [--write FILE]\n  \
         sqlweave analyze [--dialect NAME | --all-dialects] [--lookahead K]\n  \
         sqlweave analyze ... [--format text|json] [--check FILE] [--write FILE]\n  \
         sqlweave certify [--dialect-model NAME] [--limit N] [--sample pairwise]\n  \
         sqlweave certify ... [--format text|json] [--check FILE] [--write FILE]\n  \
         sqlweave bench [--json] [--recover] [--dialect NAME] [--iters N] [--lookahead K]\n  \
         sqlweave bench ... [--corpus-mb N] [--edits N] [--out FILE]\n  \
         sqlweave bench ... [--baseline FILE] [--tolerance-pct N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd {
        "features" => cmd_features(rest),
        "census" => cmd_census(rest),
        "dialects" => cmd_dialects(rest),
        "compose" => cmd_compose(rest),
        "parse" => cmd_parse(rest, true),
        "check" => cmd_parse(rest, false),
        "lex" => cmd_lex(rest),
        "format" => cmd_format(rest),
        "generate" => cmd_generate(rest),
        "lint" => cmd_lint(rest),
        "lineage" => cmd_lineage(rest),
        "analyze" => cmd_analyze(rest),
        "certify" => cmd_certify(rest),
        "bench" => cmd_bench(rest),
        _ => Err(CliError::Usage),
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage) => usage(),
        Err(CliError::Failed(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Fatal(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Only positional arguments: a feature selection.
const FEATURE_LIST: Spec = Spec {
    flags: &[],
    format: false,
    max_positionals: usize::MAX,
};

/// `--dialect NAME` (default `full`) and the SQL positional.
fn dialect_and_sql(a: &Args) -> Result<(Dialect, &str), CliError> {
    let dialect = a.dialect()?.unwrap_or(Dialect::Full);
    Ok((dialect, a.positional().ok_or(CliError::Usage)?))
}

/// Resolve a `--codes` filter list against the catalog. Unknown or
/// misspelled codes are a usage error (exit 2) with the valid codes
/// listed — silently filtering everything away hides typos.
fn parse_code_filter(list: &str) -> Result<Vec<sqlweave_lint::Code>, String> {
    let mut out = Vec::new();
    for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match sqlweave_lint::Code::ALL
            .iter()
            .find(|c| c.id().eq_ignore_ascii_case(item))
        {
            Some(&c) => out.push(c),
            None => {
                let valid: Vec<&str> =
                    sqlweave_lint::Code::ALL.iter().map(|c| c.id()).collect();
                return Err(format!(
                    "unknown diagnostic code `{item}`; valid codes: {}",
                    valid.join(", ")
                ));
            }
        }
    }
    if out.is_empty() {
        return Err("`--codes` filter selects no codes".to_string());
    }
    Ok(out)
}

/// Apply a `--codes` filter to each report, keeping only the named codes.
fn filter_reports(
    reports: Vec<sqlweave_lint::LintReport>,
    keep: &[sqlweave_lint::Code],
) -> Vec<sqlweave_lint::LintReport> {
    reports
        .into_iter()
        .map(|r| {
            let mut out = sqlweave_lint::LintReport::new(&r.subject);
            out.extend(
                r.diagnostics
                    .into_iter()
                    .filter(|d| keep.contains(&d.code)),
            );
            out
        })
        .collect()
}

/// Render reports in the selected format and turn findings into an exit
/// code: 0 clean (notes/warnings allowed), 1 if any error-level diagnostic.
fn emit_lint_reports(reports: &[sqlweave_lint::LintReport], json: bool) -> ExitCode {
    if json {
        println!("{}", sqlweave_lint::json::reports(reports));
    } else {
        for r in reports {
            print!("{r}");
        }
    }
    let errors: usize = reports
        .iter()
        .map(|r| r.count(sqlweave_lint::Severity::Error))
        .sum();
    if errors > 0 {
        if !json {
            eprintln!("lint failed: {errors} error(s)");
        }
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Name resolution over one script for `lint --sql` and `lineage`: the
/// `--dialect` (default `full`) and the optional `--schema` catalog
/// (`sqlweave-schema/v1`).
fn analyze_sql(a: &Args, sql: &str) -> Result<(Dialect, sqlweave_sema::Analysis), CliError> {
    let dialect = a.dialect()?.unwrap_or(Dialect::Full);
    let schema = match a.value("--schema") {
        Some(path) => Some(
            sqlweave_sema::SchemaCatalog::from_json(&read_file(path)?)
                .map_err(|e| format!("cannot parse schema `{path}`: {e}"))?,
        ),
        None => None,
    };
    let caps = sqlweave_sema::ResolverCaps::for_dialect(dialect);
    let analysis = sqlweave_sema::analyze(sql, dialect, &caps, schema.as_ref())
        .map_err(|e| format!("rejected by `{}`: {e}", dialect.name()))?;
    Ok((dialect, analysis))
}

const LINT: Spec = Spec {
    flags: &[
        ("--all-dialects", Flag::Switch),
        ("--codes", Flag::OptionalValue),
        ("--dialect", Flag::Value),
        ("--grammar", Flag::Value),
        ("--tokens", Flag::Value),
        ("--schema", Flag::Value),
        ("--sql", Flag::Value),
    ],
    format: true,
    max_positionals: usize::MAX,
};

fn cmd_lint(args: &[String]) -> CmdResult {
    let a = LINT.scan(args)?;
    if a.has("--codes") {
        println!("{:<6} {:<8} {:<14} description", "code", "severity", "layer");
        for c in sqlweave_lint::Code::ALL {
            println!(
                "{:<6} {:<8} {:<14} {}",
                c.id(),
                c.severity().as_str(),
                c.layer().as_str(),
                c.title()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    let filter = a
        .value("--codes")
        .map(parse_code_filter)
        .transpose()
        .map_err(CliError::Fatal)?;
    let composition_failed = |e: sqlweave_core::PipelineError| format!("composition failed: {e}");

    let reports = if let Some(sql) = a.value("--sql") {
        let (dialect, analysis) = analyze_sql(&a, sql)?;
        let mut report = sqlweave_lint::LintReport::new(format!("{}:script", dialect.name()));
        report.extend(analysis.diagnostics);
        vec![report]
    } else if a.has("--all-dialects") {
        sqlweave_lint::lint_all_dialects().map_err(composition_failed)?
    } else if let Some(gfile) = a.value("--grammar") {
        let grammar = sqlweave_grammar::dsl::parse_grammar(&read_file(gfile)?)
            .map_err(|e| format!("cannot parse grammar `{gfile}`: {e}"))?;
        vec![match a.value("--tokens") {
            Some(tfile) => {
                let tokens = sqlweave_grammar::dsl::parse_tokens(&read_file(tfile)?)
                    .map_err(|e| format!("cannot parse tokens `{tfile}`: {e}"))?;
                sqlweave_lint::lint_pair(gfile, &grammar, &tokens)
            }
            None => sqlweave_lint::lint_grammar(gfile, &grammar),
        }]
    } else if let Some(dialect) = a.dialect()? {
        vec![sqlweave_lint::lint_dialect(dialect).map_err(composition_failed)?]
    } else {
        vec![sqlweave_lint::lint_composed(&compose_features(&a.positionals)?)]
    };
    let reports = match &filter {
        Some(keep) => filter_reports(reports, keep),
        None => reports,
    };
    Ok(emit_lint_reports(&reports, a.json))
}

const LINEAGE: Spec = Spec {
    flags: &[
        ("--dialect", Flag::Value),
        ("--schema", Flag::Value),
        ("--check", Flag::Value),
        ("--write", Flag::Value),
    ],
    format: true,
    max_positionals: 1,
};

/// Name resolution + lineage over a script (`sqlweave lineage`). With a
/// SQL argument: analyze it under one dialect and print the
/// `sqlweave-lineage/v1` document (or the text rendering). Without one:
/// sweep the per-dialect fixture scripts into the golden inventory that
/// `--write` refreshes and `--check` gates CI on — the same workflow as
/// `analyze --check`.
fn cmd_lineage(args: &[String]) -> CmdResult {
    let a = LINEAGE.scan(args)?;
    let golden = a.golden();
    if let Some(sql) = a.positional() {
        if !golden.is_off() {
            return Err(CliError::Usage);
        }
        let (dialect, analysis) = analyze_sql(&a, sql)?;
        if a.json {
            println!("{}", sqlweave_sema::lineage_json(dialect.name(), &analysis));
        } else {
            print!("{}", sqlweave_sema::lineage_text(dialect.name(), &analysis));
            for d in &analysis.diagnostics {
                println!("  {d}");
            }
        }
        return Ok(ExitCode::SUCCESS);
    }
    if golden.is_off() || a.value("--dialect").is_some() || a.value("--schema").is_some() {
        return Err(CliError::Usage);
    }
    // Inventory mode: every dialect's fixture script, resolved under that
    // dialect's own capabilities, no external catalog (the fixtures carry
    // their DDL).
    let mut entries: Vec<(String, sqlweave_sema::Analysis)> = Vec::new();
    for (dialect, script) in sqlweave_sema::fixtures::all() {
        let caps = sqlweave_sema::ResolverCaps::for_dialect(dialect);
        let analysis = sqlweave_sema::analyze(script, dialect, &caps, None)
            .map_err(|e| format!("{}: fixture rejected: {e}", dialect.name()))?;
        entries.push((dialect.name().to_string(), analysis));
    }
    let doc = sqlweave_sema::inventory_json(&entries);
    golden.write(&doc)?;
    if a.json {
        println!("{doc}");
    }
    golden.check(&doc, "lineage")?;
    Ok(ExitCode::SUCCESS)
}

/// Run the static LL(k) lookahead pass on one dialect's composed grammar.
fn analyze_one(dialect: Dialect, k: usize) -> Result<LookaheadAnalysis, String> {
    let composed = dialect
        .composed()
        .map_err(|e| format!("composition failed: {e}"))?;
    let analysis = sqlweave_grammar::analysis::analyze(&composed.grammar)
        .map_err(|e| format!("grammar analysis failed: {e:?}"))?;
    Ok(analyze_lookahead(&analysis, k))
}

/// The `sqlweave-lookahead/v1` document: the per-dialect conflict
/// inventory that CI pins as a golden file (`--check`).
fn lookahead_json(k: usize, dialects: &[(String, LookaheadAnalysis)]) -> String {
    use sqlweave_lint::json::escape;
    let mut s = String::new();
    s.push_str("{\"schema\":\"sqlweave-lookahead/v1\",");
    s.push_str(&format!("\"k\":{k},\"dialects\":["));
    for (di, (name, la)) in dialects.iter().enumerate() {
        if di > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"dialect\":\"{}\",\"resolved\":{},\"residual\":{},\"saturated\":{},\"decisions\":[",
            escape(name),
            la.resolved(),
            la.residual(),
            la.saturated()
        ));
        for (i, d) in la.decisions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let toks: Vec<String> = d
                .conflict_tokens
                .iter()
                .map(|t| format!("\"{}\"", escape(t)))
                .collect();
            s.push_str(&format!(
                "{{\"production\":\"{}\",\"synthetic\":{},\"conflict_tokens\":[{}],",
                escape(&d.production),
                d.synthetic,
                toks.join(",")
            ));
            match &d.outcome {
                Outcome::Resolved { k, entries } => {
                    s.push_str(&format!(
                        "\"status\":\"resolved\",\"k\":{k},\"entries\":{}}}",
                        entries.len()
                    ));
                }
                Outcome::Residual {
                    alternatives: (a, b),
                    witness,
                    witness_eof,
                } => {
                    s.push_str(&format!(
                        "\"status\":\"residual\",\"alternatives\":[{a},{b}],\"witness\":\"{}\"}}",
                        escape(&sqlweave_grammar::lookahead::witness_display(
                            witness,
                            *witness_eof
                        ))
                    ));
                }
                Outcome::Saturated => s.push_str("\"status\":\"saturated\"}"),
            }
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

fn lookahead_text(k: usize, dialects: &[(String, LookaheadAnalysis)]) -> String {
    let mut s = format!("lookahead analysis (k={k})\n");
    let (mut resolved, mut residual, mut saturated) = (0, 0, 0);
    for (name, la) in dialects {
        resolved += la.resolved();
        residual += la.residual();
        saturated += la.saturated();
        if la.decisions.is_empty() {
            s.push_str(&format!("dialect `{name}`: no LL(1) conflicts\n"));
            continue;
        }
        s.push_str(&format!(
            "dialect `{name}`: {} decision(s): {} resolved, {} residual, {} saturated\n",
            la.decisions.len(),
            la.resolved(),
            la.residual(),
            la.saturated()
        ));
        for d in &la.decisions {
            s.push_str(&format!("  `{}`: {}\n", d.production, d.summary()));
        }
    }
    s.push_str(&format!(
        "TOTAL: {resolved} resolved, {residual} residual, {saturated} saturated\n"
    ));
    s
}

const ANALYZE: Spec = Spec {
    flags: &[
        ("--all-dialects", Flag::Switch),
        ("--dialect", Flag::Value),
        ("--lookahead", Flag::Value),
        ("--check", Flag::Value),
        ("--write", Flag::Value),
    ],
    format: true,
    max_positionals: 0,
};

/// Static LL(k) conflict classification over dialect grammars: a human
/// report, the `sqlweave-lookahead/v1` JSON document, and the golden-file
/// workflow (`--write` refreshes the inventory, `--check` gates CI on it).
fn cmd_analyze(args: &[String]) -> CmdResult {
    let a = ANALYZE.scan(args)?;
    let k = a.parsed("--lookahead", |&k: &usize| k > 0)?.unwrap_or(K_MAX);
    if a.has("--all-dialects") && a.value("--dialect").is_some() {
        return Err(CliError::Usage);
    }
    let targets = match a.dialect()? {
        Some(d) => vec![d],
        None => Dialect::ALL.to_vec(),
    };
    let mut results: Vec<(String, LookaheadAnalysis)> = Vec::new();
    for d in targets {
        let la = analyze_one(d, k).map_err(|e| format!("{}: {e}", d.name()))?;
        results.push((d.name().to_string(), la));
    }
    let doc = lookahead_json(k.min(K_MAX), &results);
    let golden = a.golden();
    golden.write(&doc)?;
    if a.json {
        println!("{doc}");
    } else {
        print!("{}", lookahead_text(k.min(K_MAX), &results));
    }
    golden.check(&doc, "conflict")?;
    Ok(ExitCode::SUCCESS)
}

/// Build the diagram listing, or report the first name in `names` that
/// the catalog cannot resolve. `DIAGRAMS` and the catalog are maintained
/// separately, so a missing entry is a registration bug — the caller
/// turns it into a diagnostic instead of a mid-listing panic.
fn features_listing(
    cat: &sqlweave_sql_features::Catalog,
    names: &[&str],
) -> Result<String, String> {
    let mut out = format!("{} feature diagrams:\n", names.len());
    for d in names {
        let model = cat.diagram(d).ok_or_else(|| (*d).to_string())?;
        out.push_str(&format!("  {:<28} {:>4} features\n", d, model.len()));
    }
    Ok(out)
}

fn unknown_diagram(name: &str) -> CliError {
    format!("unknown diagram `{name}`; run `sqlweave features` for the list").into()
}

const CERTIFY: Spec = Spec {
    flags: &[
        ("--dialect-model", Flag::Value),
        ("--limit", Flag::Value),
        ("--sample", Flag::Value),
        ("--check", Flag::Value),
        ("--write", Flag::Value),
    ],
    format: true,
    max_positionals: 0,
};

fn cmd_certify(args: &[String]) -> CmdResult {
    use sqlweave_lint::certify;

    let a = CERTIFY.scan(args)?;
    let opts = certify::CertifyOptions {
        limit: a
            .parsed("--limit", |&n: &usize| n > 0)?
            .unwrap_or(certify::DEFAULT_LIMIT),
        force_sample: a
            .parsed("--sample", |s: &String| s == "pairwise")?
            .is_some(),
    };
    let certs = if a.value("--dialect-model").is_none() {
        certify::certify_default(&opts)
    } else {
        a.values("--dialect-model")
            .map(|name| {
                certify::certify_catalog_model(name, &opts).ok_or_else(|| unknown_diagram(name))
            })
            .collect::<Result<Vec<_>, _>>()?
    };

    let doc = certify::certification_json(&certs, opts.limit);
    if a.json {
        println!("{doc}");
    } else {
        for c in &certs {
            print!("{}", c.render_text());
        }
    }
    let golden = a.golden();
    golden.write(&doc)?;
    golden.check(&doc, "certification")?;
    // Outside golden-gating, error-severity findings fail the run — that is
    // the certification verdict.
    if golden.is_off() && certs.iter().any(|c| c.has_errors()) {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Schema identifier for `sqlweave features --format json`.
const FEATURES_SCHEMA: &str = "sqlweave-features/v1";
/// Schema identifier for `sqlweave dialects --format json`.
const DIALECTS_SCHEMA: &str = "sqlweave-dialects/v1";

fn json_str(s: &str) -> String {
    format!("\"{}\"", sqlweave_lint::json::escape(s))
}

/// The diagram census as a `sqlweave-features/v1` document. Exact
/// configuration counts are serialized as decimal strings (they are u128);
/// uncountable spaces are null. `Err` carries the name of a registered
/// diagram that is missing from the catalog (a build-time invariant, but
/// surfaced as a diagnostic rather than a panic).
fn features_json(
    cat: &sqlweave_sql_features::Catalog,
    names: &[&str],
) -> Result<String, String> {
    let mut diagrams = Vec::new();
    for d in names {
        let Some(model) = cat.diagram(d) else {
            return Err((*d).to_string());
        };
        let c = census(&model);
        let configurations = c
            .configurations
            .map(|n| json_str(&n.to_string()))
            .unwrap_or_else(|| "null".into());
        diagrams.push(format!(
            "{{\"name\":{},\"features\":{},\"depth\":{},\"constraints\":{},\"configurations\":{}}}",
            json_str(&c.diagram),
            c.features,
            c.depth,
            c.constraints,
            configurations
        ));
    }
    Ok(format!(
        "{{\"schema\":{},\"diagrams\":[{}]}}",
        json_str(FEATURES_SCHEMA),
        diagrams.join(",")
    ))
}

/// One diagram's tree as a `sqlweave-features/v1` document.
fn diagram_json(model: &sqlweave_feature_model::FeatureModel) -> String {
    let features: Vec<String> = model
        .iter()
        .map(|(_, f)| {
            let parent = f
                .parent
                .map(|p| json_str(&model.feature(p).name))
                .unwrap_or_else(|| "null".into());
            let optionality = if f.optionality.is_mandatory() {
                "mandatory"
            } else {
                "optional"
            };
            format!(
                "{{\"name\":{},\"parent\":{},\"optionality\":{},\"grouped\":{}}}",
                json_str(&f.name),
                parent,
                json_str(optionality),
                f.is_grouped()
            )
        })
        .collect();
    format!(
        "{{\"schema\":{},\"diagram\":{},\"features\":[{}]}}",
        json_str(FEATURES_SCHEMA),
        json_str(model.name()),
        features.join(",")
    )
}

fn cmd_features(args: &[String]) -> CmdResult {
    let a = Spec {
        flags: &[],
        format: true,
        max_positionals: 1,
    }
    .scan(args)?;
    let cat = catalog();
    let unregistered = |missing: String| {
        CliError::Fatal(format!(
            "internal error: diagram `{missing}` is registered in DIAGRAMS \
             but missing from the catalog"
        ))
    };
    match a.positional() {
        None if a.json => println!("{}", features_json(cat, DIAGRAMS).map_err(unregistered)?),
        None => print!("{}", features_listing(cat, DIAGRAMS).map_err(unregistered)?),
        Some(name) => {
            let model = cat.diagram(name).ok_or_else(|| unknown_diagram(name))?;
            if a.json {
                println!("{}", diagram_json(&model));
            } else {
                print!("{}", render::ascii(&model));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_census(args: &[String]) -> CmdResult {
    Spec {
        flags: &[],
        format: false,
        max_positionals: 0,
    }
    .scan(args)?;
    let cat = catalog();
    let mut total = 0usize;
    println!("{:<28} {:>8} {:>6} {:>11} {:>15}", "diagram", "features", "depth", "constraints", "configurations");
    for model in cat.diagrams() {
        let c = census(&model);
        total += c.features;
        println!(
            "{:<28} {:>8} {:>6} {:>11} {:>15}",
            c.diagram,
            c.features,
            c.depth,
            c.constraints,
            c.configurations
                .map(|n| n.to_string())
                .unwrap_or_else(|| "(huge)".into())
        );
    }
    println!("TOTAL: {} diagrams, {total} features", DIAGRAMS.len());
    Ok(ExitCode::SUCCESS)
}

/// Preset dialect statistics as a `sqlweave-dialects/v1` document.
fn dialects_json() -> Result<String, String> {
    let mut rows = Vec::new();
    for d in Dialect::ALL {
        let p = d.parser().map_err(|e| format!("{}: {e}", d.name()))?;
        let s = p.stats();
        rows.push(format!(
            "{{\"dialect\":{},\"features\":{},\"productions\":{},\"tokens\":{},\"dfa_states\":{},\"byte_classes\":{}}}",
            json_str(d.name()),
            d.configuration().len(),
            s.productions,
            s.token_rules,
            s.dfa_states,
            s.byte_classes
        ));
    }
    Ok(format!(
        "{{\"schema\":{},\"dialects\":[{}]}}",
        json_str(DIALECTS_SCHEMA),
        rows.join(",")
    ))
}

fn cmd_dialects(args: &[String]) -> CmdResult {
    let a = Spec {
        flags: &[],
        format: true,
        max_positionals: 0,
    }
    .scan(args)?;
    if a.json {
        println!("{}", dialects_json()?);
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "{:<10} {:>9} {:>12} {:>8} {:>11} {:>13}",
        "dialect", "features", "productions", "tokens", "DFA states", "byte classes"
    );
    for d in Dialect::ALL {
        let p = d.parser().map_err(|e| format!("{}: {e}", d.name()))?;
        let s = p.stats();
        println!(
            "{:<10} {:>9} {:>12} {:>8} {:>11} {:>13}",
            d.name(),
            d.configuration().len(),
            s.productions,
            s.token_rules,
            s.dfa_states,
            s.byte_classes
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compose(args: &[String]) -> CmdResult {
    let composed = compose_features(&FEATURE_LIST.scan(args)?.positionals)?;
    eprintln!(
        "-- {} features composed in sequence; {} productions, {} tokens",
        composed.sequence.len(),
        composed.grammar.productions().len(),
        composed.tokens.len()
    );
    print!("{}", sqlweave_grammar::print::to_dsl(&composed.grammar));
    Ok(ExitCode::SUCCESS)
}

/// The `sqlweave-diagnostics/v1` document: every diagnostic from a
/// resilient parse, in source order, with enough structure for editors
/// and CI annotators (byte offset, line/column, kind, expected set).
fn diagnostics_json(
    dialect: &str,
    errors: &[sqlweave_parser_rt::ParseError],
) -> String {
    use sqlweave_lint::json::escape;
    let entries: Vec<String> = errors
        .iter()
        .map(|e| {
            let expected: Vec<String> =
                e.expected.iter().map(|t| format!("\"{}\"", escape(t))).collect();
            let found = match &e.found {
                Some((kind, text)) => {
                    format!("{{\"kind\":\"{}\",\"text\":\"{}\"}}", escape(kind), escape(text))
                }
                None => "null".to_string(),
            };
            let kind = if e.lexical.is_some() { "lexical" } else { "syntax" };
            format!(
                "{{\"message\":\"{}\",\"kind\":\"{kind}\",\"at\":{},\"line\":{},\"column\":{},\
                 \"expected\":[{}],\"found\":{found}}}",
                escape(&e.to_string()),
                e.at,
                e.line,
                e.column,
                expected.join(",")
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"sqlweave-diagnostics/v1\",\"dialect\":\"{}\",\"count\":{},\
         \"diagnostics\":[{}]}}",
        escape(dialect),
        errors.len(),
        entries.join(",")
    )
}

/// `parse --recover`: panic-mode recovery over the whole script. Text
/// mode prints the full-coverage tree then one rustc-style block per
/// diagnostic; `--format json` emits the `sqlweave-diagnostics/v1`
/// document. Exit 0 when clean, 1 when any diagnostic was reported.
fn cmd_parse_recover(dialect: Dialect, sql: &str, format_json: bool) -> CmdResult {
    let parser = dialect.parser().map_err(|e| e.to_string())?;
    let mut session = parser.session();
    let outcome = session.parse_resilient(sql);
    if format_json {
        println!("{}", diagnostics_json(dialect.name(), &outcome.errors));
    } else {
        println!("-- concrete syntax tree --");
        print!("{}", outcome.tree.pretty());
        if !outcome.errors.is_empty() {
            println!("-- {} diagnostic(s) --", outcome.errors.len());
            for e in &outcome.errors {
                print!("{}", e.render(sql));
            }
        }
    }
    Ok(if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Batch mode for `parse --stdin`: every non-empty line of stdin is one
/// statement, and all of them run through ONE recycled [`ParseSession`] —
/// the buffer-reuse path the library documents, exercised end-to-end by
/// the CLI instead of paying a fresh process (and parser build) per
/// statement. `--recover` routes each line through the *incremental*
/// session: the document is opened once and every line replaces it via the
/// fallible [`ParseSession::try_apply_edit`], reading diagnostics straight
/// off the lazy [`sqlweave_parser_rt::EditOutcome`] without ever
/// materializing a tree (`--format json` then emits one
/// `sqlweave-diagnostics/v1` document per line). A structured
/// [`sqlweave_parser_rt::EditError`] — a CLI bug, since the CLI computes
/// the ranges — is reported as a diagnostic with exit code 2 instead of a
/// panic. The default is the strict accept/reject contract.
fn cmd_parse_stdin(dialect: Dialect, recover: bool, format_json: bool) -> CmdResult {
    use std::io::Read as _;
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| format!("cannot read stdin: {e}"))?;
    let parser = dialect.parser().map_err(|e| e.to_string())?;
    let mut session = parser.session();
    if recover {
        session.open_document("");
    }
    let mut doc_len = 0usize;
    let mut total = 0usize;
    let mut rejected = 0usize;
    for (lineno, line) in input.lines().enumerate() {
        let sql = line.trim();
        if sql.is_empty() {
            continue;
        }
        total += 1;
        if recover {
            let outcome = session.try_apply_edit(0..doc_len, sql).map_err(|e| {
                CliError::Fatal(format!(
                    "internal error applying line {} as an edit: {e}",
                    lineno + 1
                ))
            })?;
            doc_len = sql.len();
            if !outcome.errors.is_empty() {
                rejected += 1;
            }
            if format_json {
                println!("{}", diagnostics_json(dialect.name(), &outcome.errors));
            } else if outcome.errors.is_empty() {
                println!("line {}: ok", lineno + 1);
            } else {
                println!("line {}: {} diagnostic(s)", lineno + 1, outcome.errors.len());
                for e in outcome.errors.iter() {
                    print!("{}", e.render(sql));
                }
            }
        } else {
            match session.parse_tree(sql) {
                Ok(tree) => {
                    println!("line {}: ok ({} tokens)", lineno + 1, tree.tokens().len())
                }
                Err(e) => {
                    rejected += 1;
                    println!("line {}: rejected: {e}", lineno + 1);
                }
            }
        }
    }
    eprintln!("{total} statement(s) through one session, {rejected} rejected");
    Ok(if rejected == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

const PARSE: Spec = Spec {
    flags: &[
        ("--dialect", Flag::Value),
        ("--recover", Flag::Switch),
        ("--stdin", Flag::Switch),
    ],
    format: true,
    max_positionals: 1,
};

fn cmd_parse(args: &[String], verbose: bool) -> CmdResult {
    let a = PARSE.scan(args)?;
    let (recover, stdin_batch) = (a.has("--recover"), a.has("--stdin"));
    // `--recover`, `--format json`, and `--stdin` belong to `parse`;
    // `check` keeps its strict accept/reject contract.
    if (recover || a.json || stdin_batch) && !verbose {
        return Err(CliError::Usage);
    }
    let dialect = a.dialect()?.unwrap_or(Dialect::Full);
    // `--format json` renders recovery diagnostics: without `--recover`
    // there is nothing to format.
    if a.json && !recover {
        return Err(CliError::Usage);
    }
    if stdin_batch {
        // Batch mode reads statements from stdin, not from arguments.
        if !a.positionals.is_empty() {
            return Err(CliError::Usage);
        }
        return cmd_parse_stdin(dialect, recover, a.json);
    }
    let sql = a.positional().ok_or(CliError::Usage)?;
    if recover {
        return cmd_parse_recover(dialect, sql, a.json);
    }
    let parser = dialect.parser().map_err(|e| e.to_string())?;
    let mut session = parser.session();
    let tree = session
        .parse_tree(sql)
        .map_err(|e| format!("rejected by `{}`: {e}", dialect.name()))?;
    if verbose {
        println!("-- concrete syntax tree --");
        print!("{}", tree.pretty());
        match sqlweave_sql_ast::lower::lower_script(&tree) {
            Ok(stmts) => {
                println!("-- printed from the AST --");
                for s in &stmts {
                    println!("{}", sqlweave_sql_ast::print::statement(s));
                }
            }
            Err(e) => eprintln!("(lowering failed: {e})"),
        }
    } else {
        println!("accepted by `{}`", dialect.name());
    }
    Ok(ExitCode::SUCCESS)
}

/// Dump a statement's token stream exactly as the dialect's compiled
/// scanner produces it — the lexical ground truth the differential suites
/// assert against, exposed for debugging token-rule composition. Skip
/// tokens (whitespace, comments) are consumed, not shown, matching what
/// the parser sees. `--format json` emits the `sqlweave-lex/v1` document.
fn cmd_lex(args: &[String]) -> CmdResult {
    let a = Spec {
        flags: &[("--dialect", Flag::Value)],
        format: true,
        max_positionals: 1,
    }
    .scan(args)?;
    let (dialect, sql) = dialect_and_sql(&a)?;
    let parser = dialect.parser().map_err(|e| e.to_string())?;
    let scanner = parser.scanner();
    let toks = scanner
        .scan(sql)
        .map_err(|e| format!("rejected by `{}`: {e}", dialect.name()))?;
    if a.json {
        use sqlweave_lint::json::escape;
        let entries: Vec<String> = toks
            .iter()
            .map(|t| {
                format!(
                    "{{\"kind\":\"{}\",\"start\":{},\"end\":{},\"text\":\"{}\"}}",
                    escape(scanner.name(t.kind)),
                    t.start,
                    t.end,
                    escape(t.text(sql))
                )
            })
            .collect();
        println!(
            "{{\"schema\":\"sqlweave-lex/v1\",\"dialect\":\"{}\",\"tokens\":[{}]}}",
            escape(dialect.name()),
            entries.join(",")
        );
    } else {
        println!("{:<16} {:>5} {:>5}  text", "kind", "start", "end");
        for t in &toks {
            println!(
                "{:<16} {:>5} {:>5}  {}",
                scanner.name(t.kind),
                t.start,
                t.end,
                t.text(sql)
            );
        }
        println!(
            "{} token(s) via {} byte classes ({} DFA states)",
            toks.len(),
            scanner.byte_classes(),
            scanner.dfa_states()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The "SQL:2003 preprocessor" use of the product line: parse a script with
/// a dialect and print it back normalized from the AST.
fn cmd_format(args: &[String]) -> CmdResult {
    let a = Spec {
        flags: &[("--dialect", Flag::Value)],
        format: false,
        max_positionals: 1,
    }
    .scan(args)?;
    let (dialect, sql) = dialect_and_sql(&a)?;
    let parser = dialect.parser().map_err(|e| e.to_string())?;
    let mut session = parser.session();
    let tree = session
        .parse_tree(sql)
        .map_err(|e| format!("rejected by `{}`: {e}", dialect.name()))?;
    let stmts = sqlweave_sql_ast::lower::lower_script(&tree)
        .map_err(|e| format!("lowering failed: {e}"))?;
    for s in &stmts {
        println!("{};", sqlweave_sql_ast::print::statement(s));
    }
    Ok(ExitCode::SUCCESS)
}

const BENCH: Spec = Spec {
    flags: &[
        ("--json", Flag::Switch),
        ("--recover", Flag::Switch),
        ("--lookahead", Flag::Value),
        ("--iters", Flag::Value),
        ("--corpus-mb", Flag::Value),
        ("--edits", Flag::Value),
        ("--dialect", Flag::Value),
        ("--out", Flag::Value),
        ("--baseline", Flag::Value),
        ("--tolerance-pct", Flag::Value),
    ],
    format: false,
    max_positionals: 0,
};

/// Corpus throughput sweep over dialect × engine × parse API. `--json`
/// emits the `sqlweave-bench-parser/v8` document (already validated by the
/// runner); the default is a human-readable table with the backtrack-rate
/// column plus one lex-stage block per dialect (the B6/B9 scanner
/// ablation) and one `sema` row per pair (the B8 parse + name-resolution
/// pipeline). `--lookahead K` caps the runtime dispatch depth (the B5
/// ablation knob; `1` reproduces the seed backtracking engine, and plain
/// LL(1) in the predictive mode).
/// `--recover` adds the B7 recovery rows (faulty-script throughput,
/// diagnostic counts, clean-input overhead) to the text table; the JSON
/// document always carries them. `--corpus-mb N` additionally lexes an
/// N-MiB script generated from each dialect's own grammar weights with
/// the vector/compiled/interval substrates — the steady-state throughput
/// sweep of Experiment B9 (`corpus_lex` in the JSON document).
/// `--edits N` runs the B11 keystroke-latency ablation: N single-token
/// edits applied through one incremental `ParseSession` on a generated
/// script (`--corpus-mb` sizes it, default 4 MiB), reporting p50/p99
/// apply latency — plus the median cost of materializing the tree after
/// an edit, which the lazy outcome keeps off the keystroke path —
/// against the from-scratch reparse of the same document
/// (`incremental` in the JSON document).
/// `--baseline FILE` (JSON mode, needs `--corpus-mb` or `--edits`) gates
/// the fresh document against a checked-in one: the CI tripwire fails the
/// run when the compiled or vector scanner loses more than
/// `--tolerance-pct` (default 25) of the baseline's corpus throughput,
/// when the vector-over-compiled speedup flattens by the same margin, or
/// when the incremental `speedup_p50`, tail apply latency, or tree
/// materialization cost collapses toward full-reparse cost.
fn cmd_bench(args: &[String]) -> CmdResult {
    let a = BENCH.scan(args)?;
    let any = |_: &usize| true;
    let (json, recover) = (a.has("--json"), a.has("--recover"));
    let lookahead = a.parsed("--lookahead", any)?;
    let iters = a.parsed("--iters", any)?.unwrap_or(200);
    let corpus_mb = a.parsed("--corpus-mb", any)?.unwrap_or(0);
    let edits = a.parsed("--edits", any)?.unwrap_or(0);
    let tolerance_pct = a.parsed("--tolerance-pct", |_: &f64| true)?.unwrap_or(25.0);
    let baseline = a.value("--baseline");
    let dialects = match a.dialect()? {
        Some(d) => vec![d],
        None => Dialect::ALL.to_vec(),
    };
    if iters == 0 {
        return Err("--iters must be at least 1".to_string().into());
    }
    if baseline.is_some() && (!json || (corpus_mb == 0 && edits == 0)) {
        return Err(
            "--baseline requires --json and --corpus-mb N or --edits N (it compares corpus_lex rates and incremental speedups)"
                .to_string()
                .into(),
        );
    }
    if json {
        let doc =
            sqlweave_bench::runner::run_full(&dialects, iters, lookahead, corpus_mb, edits);
        match a.value("--out") {
            Some(path) => write_doc(path, &doc)?,
            None => println!("{doc}"),
        }
        if let Some(path) = baseline {
            let base = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline `{path}`: {e}"))?;
            let regressions =
                sqlweave_bench::runner::compare_with_baseline(&doc, &base, tolerance_pct)
                    .map_err(|e| format!("baseline check failed: {e}"))?;
            if !regressions.is_empty() {
                for r in &regressions {
                    eprintln!("regression: {r}");
                }
                return Ok(ExitCode::FAILURE);
            }
            eprintln!("baseline check passed (tolerance {tolerance_pct:.0}%)");
        }
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "{:<10} {:<13} {:<11} {:>11} {:>13} {:>8} {:>8}",
        "dialect", "engine", "api", "stmts/sec", "tokens/sec", "vs seed", "bt-rate"
    );
    for &d in &dialects {
        for mode in [
            sqlweave_parser_rt::EngineMode::Backtracking,
            sqlweave_parser_rt::EngineMode::Ll1Table,
        ] {
            let r = match lookahead {
                Some(k) => sqlweave_bench::runner::bench_pair_with_lookahead(d, mode, iters, k),
                None => sqlweave_bench::runner::bench_pair(d, mode, iters),
            };
            for a in &r.apis {
                println!(
                    "{:<10} {:<13} {:<11} {:>11.0} {:>13.0} {:>7.2}x {:>8.4}",
                    r.dialect,
                    r.engine,
                    a.api,
                    a.statements_per_sec,
                    a.tokens_per_sec,
                    a.speedup_vs_seed,
                    r.backtrack_rate
                );
            }
            for l in &r.lex {
                println!(
                    "{:<10} {:<13} {:<11} {:>11} {:>13.0} {:>7.2}x {:>8}",
                    r.dialect,
                    "lex",
                    l.scanner,
                    format!("{:.1} MB/s", l.mbytes_per_sec),
                    l.tokens_per_sec,
                    l.speedup_vs_interval,
                    format!("bc={}", r.byte_classes)
                );
            }
            // The B8 row: parse + name-resolution throughput and its cost
            // relative to the bare `event_tree` parse.
            println!(
                "{:<10} {:<13} {:<11} {:>11.0} {:>13} {:>7.2}x {:>8}",
                r.dialect,
                r.engine,
                "sema",
                r.sema.statements_per_sec,
                format!("{} edges", r.sema.column_edges),
                r.sema.overhead_vs_parse,
                "resolve"
            );
            if recover {
                // The B7 row: faulty-script throughput, total diagnostics
                // over the error-density corpus, and the clean-input
                // overhead of the resilient driver vs `event_tree`.
                println!(
                    "{:<10} {:<13} {:<11} {:>11.0} {:>13} {:>7.2}x {:>8}",
                    r.dialect,
                    r.engine,
                    "recover",
                    r.recovery.scripts_per_sec,
                    format!("{} errors", r.recovery.errors),
                    r.recovery.clean_overhead,
                    format!("n={}", r.recovery.scripts)
                );
            }
        }
    }
    // The B9 steady-state rows: scanner throughput over a generated
    // multi-MiB script, per dialect (no engine column — lexing is
    // engine-independent).
    if corpus_mb > 0 {
        for &d in &dialects {
            let c = sqlweave_bench::runner::bench_lex_corpus(d, corpus_mb, 5);
            for l in &c.scanners {
                println!(
                    "{:<10} {:<13} {:<11} {:>11} {:>13.0} {:>7.2}x {:>8}",
                    c.dialect,
                    format!("corpus-{}mb", c.mebibytes),
                    l.scanner,
                    format!("{:.1} MB/s", l.mbytes_per_sec),
                    l.tokens_per_sec,
                    l.speedup_vs_interval,
                    c.simd_level
                );
            }
        }
    }
    // The B11 keystroke-latency rows: single-token edits through one
    // incremental session per dialect × engine pair vs a from-scratch
    // reparse of the same script.
    if edits > 0 {
        let mb = if corpus_mb > 0 { corpus_mb } else { 4 };
        for &d in &dialects {
            for mode in
                [sqlweave_parser_rt::EngineMode::Backtracking, sqlweave_parser_rt::EngineMode::Ll1Table]
            {
                let r = sqlweave_bench::runner::bench_incremental(d, mode, mb, edits);
                println!(
                    "{:<10} {:<13} {:<11} {:>11} {:>13} {:>13} {:>7.0}x {:>8}",
                    r.dialect,
                    r.engine,
                    format!("edit-{mb}mb"),
                    format!("{:.0} us p50", r.apply_edit_us_p50),
                    format!("{:.0} us p99", r.apply_edit_us_p99),
                    format!("{:.0} us mat", r.materialize_us_p50),
                    r.speedup_p50,
                    format!("n={}", r.edits)
                );
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_generate(args: &[String]) -> CmdResult {
    let composed = compose_features(&FEATURE_LIST.scan(args)?.positionals)?;
    let src = sqlweave_parser_rt::codegen::generate(&composed.grammar, &composed.tokens)
        .map_err(|e| format!("codegen failed: {e}"))?;
    print!("{src}");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_json_round_trips_with_schema_and_counts() {
        let doc = features_json(catalog(), DIAGRAMS).expect("all registered diagrams resolve");
        let v = sqlweave_lint::json::parse(&doc).expect("valid json");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(FEATURES_SCHEMA)
        );
        let diagrams = v.get("diagrams").and_then(|d| d.as_arr()).unwrap();
        assert_eq!(diagrams.len(), DIAGRAMS.len());
        let first = &diagrams[0];
        assert_eq!(first.get("name").and_then(|s| s.as_str()), Some("sql_2003"));
        // The full model's space is uncountable under the split cap: null,
        // while countable diagrams carry the exact count as a string.
        assert!(first.get("configurations").is_some());
        let countable = diagrams.iter().find(|d| {
            d.get("name").and_then(|s| s.as_str()) == Some("order_by")
        });
        assert_eq!(
            countable
                .and_then(|d| d.get("configurations"))
                .and_then(|c| c.as_str()),
            Some("4")
        );
    }

    #[test]
    fn diagram_json_lists_the_tree_with_parents() {
        let model = catalog().diagram("order_by").unwrap();
        let doc = diagram_json(&model);
        let v = sqlweave_lint::json::parse(&doc).expect("valid json");
        assert_eq!(
            v.get("diagram").and_then(|s| s.as_str()),
            Some("order_by")
        );
        let features = v.get("features").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(features.len(), model.len());
        let root = &features[0];
        assert!(root.get("parent").and_then(|p| p.as_str()).is_none());
    }

    #[test]
    fn dialects_json_covers_every_preset() {
        let doc = dialects_json().expect("presets build");
        let v = sqlweave_lint::json::parse(&doc).expect("valid json");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(DIALECTS_SCHEMA)
        );
        let dialects = v.get("dialects").and_then(|d| d.as_arr()).unwrap();
        assert_eq!(dialects.len(), Dialect::ALL.len());
        for (row, d) in dialects.iter().zip(Dialect::ALL) {
            assert_eq!(
                row.get("dialect").and_then(|s| s.as_str()),
                Some(d.name())
            );
            assert!(row.get("productions").and_then(|n| n.as_num()).unwrap() > 0.0);
        }
    }

    #[test]
    fn certify_args_parse_and_reject() {
        let scan = |v: &[&str]| CERTIFY.scan(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = scan(&[
            "--dialect-model",
            "group_by",
            "--limit",
            "16",
            "--sample",
            "pairwise",
            "--format",
            "json",
        ])
        .ok()
        .unwrap();
        assert_eq!(a.values("--dialect-model").collect::<Vec<_>>(), ["group_by"]);
        assert_eq!(a.parsed("--limit", |&n: &usize| n > 0).ok().unwrap(), Some(16));
        assert!(a.json);
        let a = scan(&["--limit", "0", "--sample", "random"]).ok().unwrap();
        assert!(a.parsed("--limit", |&n: &usize| n > 0).is_err());
        assert!(a.parsed("--sample", |s: &String| s == "pairwise").is_err());
        assert!(scan(&["group_by"]).is_err());
    }

    #[test]
    fn features_listing_covers_every_registered_diagram() {
        let listing = features_listing(catalog(), DIAGRAMS).unwrap();
        assert!(listing.starts_with(&format!("{} feature diagrams:", DIAGRAMS.len())));
        for d in DIAGRAMS {
            assert!(listing.contains(d), "{d} missing from listing");
        }
    }

    #[test]
    fn features_listing_reports_unregistered_diagram_instead_of_panicking() {
        let err = features_listing(catalog(), &["query_specification", "not_a_diagram"])
            .unwrap_err();
        assert_eq!(err, "not_a_diagram");
    }

    #[test]
    fn diagnostics_json_is_well_formed_and_typed() {
        let p = Dialect::Pico.parser().unwrap();
        let mut s = p.session();
        // `~` is unlexable in pico (skipping it leaves statement 1
        // well-formed); statement 2 is a pure syntax error.
        let outcome = s.parse_resilient("SELECT a ~ FROM t; SELECT FROM u");
        let doc = diagnostics_json("pico", &outcome.errors);
        let v = sqlweave_lint::json::parse(&doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(sqlweave_lint::json::Value::as_str),
            Some("sqlweave-diagnostics/v1")
        );
        let diags = v.get("diagnostics").and_then(sqlweave_lint::json::Value::as_arr).unwrap();
        assert_eq!(diags.len() as f64, v.get("count").unwrap().as_num().unwrap());
        let kinds: Vec<&str> = diags
            .iter()
            .map(|d| d.get("kind").and_then(sqlweave_lint::json::Value::as_str).unwrap())
            .collect();
        assert_eq!(kinds, ["lexical", "syntax"], "{doc}");
        for d in diags {
            assert!(d.get("message").is_some() && d.get("line").is_some());
            assert!(d.get("at").unwrap().as_num().is_some());
        }
    }

    #[test]
    fn diagnostics_json_empty_on_clean_input() {
        let doc = diagnostics_json("core", &[]);
        assert!(doc.contains("\"count\":0"), "{doc}");
        assert!(doc.contains("\"diagnostics\":[]"), "{doc}");
    }
}
