//! Static LL(k) lookahead analysis over the flattened grammar.
//!
//! The seed pipeline computes FIRST/FOLLOW at k=1 ([`crate::analysis`]) and
//! leaves every LL(1) prediction conflict to the backtracking engine. This
//! module closes the gap with the paper's LL(k) parser-generation model:
//! for each conflicted decision point it computes capped FIRST_k/FOLLOW_k
//! *sequence* sets (k ≤ [`K_MAX`]) and classifies the conflict as
//!
//! * [`Outcome::Resolved`] — some k' ≤ k makes the alternatives' lookahead
//!   sets pairwise disjoint; a k'-token dispatch table is emitted (filtered
//!   so a table hit can never diverge from the engine's ordered-PEG
//!   semantics, see below);
//! * [`Outcome::Residual`] — the alternatives still intersect at k; the
//!   shortest shared token sequence is emitted as a concrete witness;
//! * [`Outcome::Saturated`] — a set overflowed its cap and no witness was
//!   found among the retained words, so neither claim can be certified.
//!
//! # Words
//!
//! A *word* is a sequence of ≤ k token ids packed into a `u64`
//! (`len << 48 | t0 << 32 | t1 << 16 | t2`). Words shorter than the set's
//! depth mean the input *ends* there (EOF inside the window), so no
//! explicit end marker is needed, and the natural `u64` order is exactly
//! (length, lexicographic) — the minimum of an intersection is the
//! shortest witness. Sets under-approximate when capped (`complete`
//! false): word *presence* is always a real derivation, word *absence* is
//! only trustworthy when the set is complete.
//!
//! # PEG safety
//!
//! The backtracking engine commits to the first alternative that locally
//! succeeds; a dispatch hit on alternative `i` may only skip the probes of
//! `j < i` if none of them could have succeeded. Full-window matches are
//! excluded by lookahead-set disjointness; the remaining hazard is a `j`
//! that succeeds consuming *fewer* than k' tokens. [`analyze_lookahead`]
//! therefore drops any entry `(w → i)` for which some earlier alternative
//! has a complete FIRST word shorter than k' that prefixes `w`.

use crate::analysis::{GrammarAnalysis, EOF};
use crate::ir::Term;
use crate::lower::is_synthetic;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Deepest lookahead the packed word representation supports.
pub const K_MAX: usize = 3;

/// Per-set word cap. When a set reaches the cap the largest word is
/// dropped and the set is marked incomplete; keeping the smallest words
/// preserves the shortest-witness property under saturation.
const CAP: usize = 20_000;

type Word = u64;
const EPSILON: Word = 0;

fn w_len(w: Word) -> usize {
    (w >> 48) as usize
}

fn w_tok(w: Word, i: usize) -> u16 {
    (w >> (32 - 16 * i)) as u16
}

fn w_push(w: Word, t: u16) -> Word {
    let l = w_len(w);
    debug_assert!(l < K_MAX);
    (((l + 1) as u64) << 48) | (w & 0x0000_FFFF_FFFF_FFFF) | ((t as u64) << (32 - 16 * l))
}

/// Append `v`'s tokens to `u`, truncating at length `j`.
fn w_concat(j: usize, u: Word, v: Word) -> Word {
    let mut out = u;
    for i in 0..w_len(v) {
        if w_len(out) == j {
            break;
        }
        out = w_push(out, w_tok(v, i));
    }
    out
}

fn w_trunc(j: usize, w: Word) -> Word {
    if w_len(w) <= j {
        return w;
    }
    let mut out = EPSILON;
    for i in 0..j {
        out = w_push(out, w_tok(w, i));
    }
    out
}

fn w_prefix(v: Word, w: Word) -> bool {
    w_len(v) <= w_len(w) && (0..w_len(v)).all(|i| w_tok(v, i) == w_tok(w, i))
}

/// A capped set of packed words, sorted ascending without duplicates,
/// plus a completeness flag.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SeqSet {
    words: Vec<Word>,
    complete: bool,
}

impl SeqSet {
    fn new() -> Self {
        SeqSet {
            words: Vec::new(),
            complete: true,
        }
    }

    /// Normalize a word list into a set: sort, deduplicate, and keep the
    /// smallest [`CAP`] words, marking the set incomplete if any were
    /// dropped. The result depends only on the distinct words given, so
    /// any order of insertion yields the same set.
    fn from_words(mut words: Vec<Word>, complete: bool) -> Self {
        words.sort_unstable();
        words.dedup();
        let complete = complete && words.len() <= CAP;
        words.truncate(CAP);
        words.shrink_to_fit();
        SeqSet { words, complete }
    }

    /// The smallest word in both sets — the shortest shared witness.
    fn first_common(&self, other: &SeqSet) -> Option<Word> {
        let (mut i, mut j) = (0, 0);
        while i < self.words.len() && j < other.words.len() {
            match self.words[i].cmp(&other.words[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return Some(self.words[i]),
            }
        }
        None
    }
}

/// One compiled dispatch-table entry: observing `word` as the next tokens
/// selects alternative `alt` directly. A word shorter than the decision's
/// k means the input must end right after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchEntry {
    /// Token names, in input order; length ≤ the decision's k.
    pub word: Vec<String>,
    /// The alternative index (into the flat production) the word selects.
    pub alt: usize,
}

/// Classification of one conflicted decision point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Disjoint at `k` tokens of lookahead; `entries` is the (PEG-safety
    /// filtered) dispatch table.
    Resolved {
        /// Minimal lookahead depth that separates the alternatives.
        k: usize,
        /// Dispatch entries, sorted shortest-word-first.
        entries: Vec<DispatchEntry>,
    },
    /// Still ambiguous at the analysis depth: `alternatives` share the
    /// lookahead sequence `witness`.
    Residual {
        /// The first alternative pair (by index) sharing the witness.
        alternatives: (usize, usize),
        /// Shortest shared token sequence.
        witness: Vec<String>,
        /// `true` if the witness requires the input to end after it.
        witness_eof: bool,
    },
    /// A lookahead set overflowed its cap and no witness survived among
    /// the retained words — neither resolution nor ambiguity is provable.
    Saturated,
}

/// One conflicted decision point and its classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Flat production name (may be a synthetic `owner__optN` etc.).
    pub production: String,
    /// `true` if the production was introduced by EBNF lowering.
    pub synthetic: bool,
    /// The LL(1) conflict tokens at this production, sorted (may include
    /// [`EOF`] when a nullable alternative conflicts at end of input).
    pub conflict_tokens: Vec<String>,
    /// How the conflict classifies at the analysis depth.
    pub outcome: Outcome,
}

impl Decision {
    /// One-line human rendering used by the linter and the CLI report.
    pub fn summary(&self) -> String {
        let toks = self.conflict_tokens.join(", ");
        match &self.outcome {
            Outcome::Resolved { k, entries } => format!(
                "LL(1) conflict on {toks} is resolvable with k={k} lookahead ({} dispatch entries)",
                entries.len()
            ),
            Outcome::Residual {
                alternatives: (i, j),
                witness,
                witness_eof,
            } => format!(
                "residual ambiguity on {toks}: alternatives {i} and {j} share lookahead `{}`",
                witness_display(witness, *witness_eof)
            ),
            Outcome::Saturated => format!(
                "lookahead analysis saturated on {toks} (set cap reached); treated as ambiguous"
            ),
        }
    }
}

/// Render a witness with a trailing `$` when it requires end of input.
pub fn witness_display(witness: &[String], eof: bool) -> String {
    let mut s = witness.join(" ");
    if eof {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push('$');
    }
    s
}

/// Result of [`analyze_lookahead`]: one [`Decision`] per conflicted flat
/// production, in first-conflict order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookaheadAnalysis {
    /// The depth the analysis ran at (clamped to 1..=[`K_MAX`]).
    pub k: usize,
    /// Per-production classifications.
    pub decisions: Vec<Decision>,
}

impl LookaheadAnalysis {
    /// Number of decisions resolved at some k' ≤ k.
    pub fn resolved(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Resolved { .. }))
            .count()
    }

    /// Number of residual (witnessed) ambiguities.
    pub fn residual(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Residual { .. }))
            .count()
    }

    /// Number of saturated decisions.
    pub fn saturated(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Saturated))
            .count()
    }
}

/// A flat-grammar symbol resolved to dense ids.
#[derive(Clone, Copy)]
enum Sym {
    Tok(u16),
    /// Production index into `a.flat.productions()`.
    Nt(usize),
}

struct La<'a> {
    a: &'a GrammarAnalysis,
    k: usize,
    tok_ids: HashMap<&'a str, u16>,
    tok_names: Vec<&'a str>,
    prod_ids: HashMap<&'a str, usize>,
    /// Flat productions by index, each alternative as a symbol sequence.
    prods: Vec<Vec<Vec<Sym>>>,
    nullable: Vec<bool>,
    /// Nonterminal occurrences: production → (production, alt, position).
    occ: Vec<Vec<(usize, usize, usize)>>,
    /// `first[j][p]` / `follow[j][p]` are valid for j in 1..=k; index 0
    /// unused. Level 1 is populated for every production (derived from the
    /// k=1 analysis); deeper levels only for demanded ones.
    first: Vec<Vec<Option<SeqSet>>>,
    follow: Vec<Vec<Option<SeqSet>>>,
}

/// Demanded `(production, level)` pairs for levels ≥ 2, with the
/// worklist of pairs whose own demands are not yet registered.
struct Demand {
    seen: Vec<Vec<bool>>,
    work: Vec<(usize, usize)>,
}

impl Demand {
    fn new(k: usize, prods: usize) -> Self {
        Demand {
            seen: vec![vec![false; prods]; k + 1],
            work: Vec::new(),
        }
    }

    fn add(&mut self, p: usize, j: usize) {
        if !self.seen[j][p] {
            self.seen[j][p] = true;
            self.work.push((p, j));
        }
    }

    /// The demanded productions of every level, in index order.
    fn levels(&self) -> Vec<Vec<usize>> {
        self.seen
            .iter()
            .map(|level| (0..level.len()).filter(|&p| level[p]).collect())
            .collect()
    }
}

/// Strongly connected components of the digraph `succ` reachable from
/// `roots`, by Tarjan's algorithm (iterative). Components come out in
/// reverse topological order: each after every component it reaches.
fn sccs(roots: &[usize], succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; succ.len()];
    let mut low = vec![0; succ.len()];
    let mut on_stack = vec![false; succ.len()];
    let mut stack = Vec::new();
    let mut calls: Vec<(usize, usize)> = Vec::new();
    let mut out = Vec::new();
    let mut next = 0;
    for &root in roots {
        if index[root] != UNSEEN {
            continue;
        }
        calls.push((root, 0));
        while let Some(&(v, edge)) = calls.last() {
            if edge == 0 && index[v] == UNSEEN {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(edge) {
                calls.last_mut().expect("non-empty").1 += 1;
                if index[w] == UNSEEN {
                    calls.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(u, _)) = calls.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                out.push(comp);
            }
        }
    }
    out
}

impl<'a> La<'a> {
    fn new(a: &'a GrammarAnalysis, k: usize) -> Self {
        let flat = a.flat.productions();
        let prod_ids: HashMap<&'a str, usize> = flat
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), i))
            .collect();
        let mut tok_ids: HashMap<&'a str, u16> = HashMap::new();
        let mut tok_names: Vec<&'a str> = Vec::new();
        let mut occ = vec![Vec::new(); flat.len()];
        let mut prods = Vec::with_capacity(flat.len());
        for (pi, p) in flat.iter().enumerate() {
            let mut alts = Vec::with_capacity(p.alternatives.len());
            for (ai, alt) in p.alternatives.iter().enumerate() {
                let mut seq = Vec::with_capacity(alt.seq.len());
                for (pos, term) in alt.seq.iter().enumerate() {
                    seq.push(match term {
                        Term::Token(t) => {
                            Sym::Tok(*tok_ids.entry(t.as_str()).or_insert_with(|| {
                                tok_names.push(t.as_str());
                                (tok_names.len() - 1) as u16
                            }))
                        }
                        Term::NonTerminal(n) => {
                            let m = prod_ids[n.as_str()];
                            occ[m].push((pi, ai, pos));
                            Sym::Nt(m)
                        }
                        _ => unreachable!("lookahead runs on flattened grammars"),
                    });
                }
                alts.push(seq);
            }
            prods.push(alts);
        }

        let nullable: Vec<bool> = flat.iter().map(|p| a.nullable.contains(&p.name)).collect();
        let mut first = vec![vec![None; flat.len()]; k + 1];
        let mut follow = vec![vec![None; flat.len()]; k + 1];
        for (pi, p) in flat.iter().enumerate() {
            let name = p.name.as_str();
            let mut words: Vec<Word> = a.first[name]
                .iter()
                .map(|t| w_push(EPSILON, tok_ids[t.as_str()]))
                .collect();
            if nullable[pi] {
                words.push(EPSILON);
            }
            first[1][pi] = Some(SeqSet::from_words(words, true));
            let words = a.follow[name]
                .iter()
                .map(|t| {
                    if t == EOF {
                        EPSILON
                    } else {
                        w_push(EPSILON, tok_ids[t.as_str()])
                    }
                })
                .collect();
            follow[1][pi] = Some(SeqSet::from_words(words, true));
        }

        La {
            a,
            k,
            tok_ids,
            tok_names,
            prod_ids,
            prods,
            nullable,
            occ,
            first,
            follow,
        }
    }

    fn min_len(&self, p: usize) -> usize {
        usize::from(!self.nullable[p])
    }

    /// FIRST_j ⊕-fold of a flat sequence, starting from {ε}.
    fn fold_seq(&self, j: usize, seq: &[Sym]) -> SeqSet {
        let mut acc = SeqSet {
            words: vec![EPSILON],
            complete: true,
        };
        for &sym in seq {
            // Words sort shortest first; if even the smallest is full,
            // nothing can be extended any further.
            if acc.words.first().is_none_or(|&w| w_len(w) == j) {
                break;
            }
            let mut complete = acc.complete;
            let mut next = Vec::with_capacity(acc.words.len());
            match sym {
                Sym::Tok(t) => {
                    next.extend(
                        acc.words
                            .iter()
                            .map(|&u| if w_len(u) == j { u } else { w_push(u, t) }),
                    )
                }
                Sym::Nt(n) => {
                    for &u in &acc.words {
                        let l = w_len(u);
                        if l == j {
                            next.push(u);
                            continue;
                        }
                        match &self.first[j - l][n] {
                            Some(src) => {
                                complete &= src.complete;
                                next.extend(src.words.iter().map(|&v| w_concat(j, u, v)));
                            }
                            // Not demanded — should not happen; treat as
                            // unknown (sound: empty + incomplete).
                            None => complete = false,
                        }
                    }
                }
            }
            acc = SeqSet::from_words(next, complete);
        }
        acc
    }

    /// FIRST_j of production `p`: the union of its alternatives' folds.
    fn first_of(&self, j: usize, p: usize) -> SeqSet {
        let mut words = Vec::new();
        let mut complete = true;
        for alt in &self.prods[p] {
            let s = self.fold_seq(j, alt);
            complete &= s.complete;
            words.extend(s.words);
        }
        SeqSet::from_words(words, complete)
    }

    /// Register FIRST demands for every symbol contributing to the first
    /// `budget` tokens of `seq`.
    fn walk_demand(&self, seq: &[Sym], budget: usize, first: &mut Demand) {
        let mut budget = budget;
        for &sym in seq {
            if budget == 0 {
                break;
            }
            match sym {
                Sym::Tok(_) => budget -= 1,
                Sym::Nt(n) => {
                    for jj in 2..=budget {
                        first.add(n, jj);
                    }
                    budget -= self.min_len(n);
                }
            }
        }
    }

    /// Demand closure of the deep FIRST/FOLLOW tables needed to classify
    /// `conflicted` at depth `self.k`. Seeds every demanded entry as
    /// empty-but-complete and returns the demanded productions per level,
    /// FIRST then FOLLOW.
    fn demand(&mut self, conflicted: &[usize]) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let k = self.k;
        let mut first = Demand::new(k, self.prods.len());
        let mut follow = Demand::new(k, self.prods.len());
        for &p in conflicted {
            for alt in &self.prods[p] {
                self.walk_demand(alt, k, &mut first);
            }
            for jj in 2..=k {
                follow.add(p, jj);
            }
        }
        loop {
            if let Some((p, j)) = first.work.pop() {
                for alt in &self.prods[p] {
                    self.walk_demand(alt, j, &mut first);
                }
                continue;
            }
            if let Some((n, j)) = follow.work.pop() {
                for &(p, ai, pos) in &self.occ[n] {
                    let rest = &self.prods[p][ai][pos + 1..];
                    self.walk_demand(rest, j, &mut first);
                    let restmin: usize = rest
                        .iter()
                        .map(|&s| match s {
                            Sym::Tok(_) => 1,
                            Sym::Nt(m) => self.min_len(m),
                        })
                        .sum();
                    for jj in 2..=j.saturating_sub(restmin) {
                        follow.add(p, jj);
                    }
                }
                continue;
            }
            break;
        }
        let (first, follow) = (first.levels(), follow.levels());
        for j in 2..=k {
            for &p in &first[j] {
                self.first[j][p] = Some(SeqSet::new());
            }
            for &p in &follow[j] {
                self.follow[j][p] = Some(SeqSet::new());
            }
        }
        (first, follow)
    }

    /// Compute the deep FIRST/FOLLOW tables needed to classify
    /// `conflicted`, level by level (level j only reads levels < j and
    /// itself).
    fn compute(&mut self, conflicted: &[usize]) {
        let (first, follow) = self.demand(conflicted);
        for (j, names) in first.iter().enumerate().skip(2) {
            self.solve_first(j, names);
        }
        for (j, names) in follow.iter().enumerate().skip(2) {
            self.solve_follow(j, names);
        }
    }

    /// FIRST_j of the demanded productions `names`, by dependency
    /// worklist. The only same-level reads are FIRST_j(M) for an M
    /// reached through a nullable prefix, so a production is recomputed
    /// only when such a set changed. The worklist starts in Tarjan order
    /// (dependencies first), so acyclic parts are computed once.
    fn solve_first(&mut self, j: usize, names: &[usize]) {
        let mut reads = vec![Vec::new(); self.prods.len()];
        let mut readers = vec![Vec::new(); self.prods.len()];
        for &p in names {
            for alt in &self.prods[p] {
                for &sym in alt {
                    let Sym::Nt(m) = sym else { break };
                    reads[p].push(m);
                    readers[m].push(p);
                    if !self.nullable[m] {
                        break;
                    }
                }
            }
        }
        let mut queue: VecDeque<usize> = sccs(names, &reads).into_iter().flatten().collect();
        let mut queued = vec![false; self.prods.len()];
        for &p in &queue {
            queued[p] = true;
        }
        while let Some(p) = queue.pop_front() {
            queued[p] = false;
            let set = self.first_of(j, p);
            if self.first[j][p].as_ref() != Some(&set) {
                self.first[j][p] = Some(set);
                for &r in &readers[p] {
                    if !queued[r] {
                        queued[r] = true;
                        queue.push_back(r);
                    }
                }
            }
        }
    }

    /// FOLLOW_j of the demanded productions `names`. Every occurrence
    /// `P → α N β` contributes FIRST_j(β) ⊕ FOLLOW_{j-l}(P) for the words
    /// of length l < j, and only l = 0 (β derives ε) reads level j itself,
    /// as the inclusion FOLLOW_j(N) ⊇ FOLLOW_j(P). So FOLLOW_j is an
    /// inclusion digraph over constant parts — the shape DeRemer and
    /// Pennello solve for LALR lookaheads: each production's constant part
    /// is computed once, then unioned along the edges once per strongly
    /// connected component, successors first.
    fn solve_follow(&mut self, j: usize, names: &[usize]) {
        let n = self.prods.len();
        let start = self.prod_ids[self.a.flat.start()];
        let mut base: Vec<(Vec<Word>, bool)> = vec![(Vec::new(), true); n];
        let mut up: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &name in names {
            let (words, complete) = &mut base[name];
            if name == start {
                words.push(EPSILON);
            }
            for &(p, ai, pos) in &self.occ[name] {
                let folded = self.fold_seq(j, &self.prods[p][ai][pos + 1..]);
                *complete &= folded.complete;
                for &w in &folded.words {
                    let l = w_len(w);
                    if l == j {
                        words.push(w);
                    } else if l == 0 {
                        match self.follow[j][p] {
                            Some(_) => up[name].push(p),
                            None => *complete = false,
                        }
                    } else {
                        match &self.follow[j - l][p] {
                            Some(fs) => {
                                *complete &= fs.complete;
                                words.extend(fs.words.iter().map(|&v| w_concat(j, w, v)));
                            }
                            None => *complete = false,
                        }
                    }
                }
            }
        }
        let mut comp = vec![usize::MAX; n];
        for (c, members) in sccs(names, &up).into_iter().enumerate() {
            for &m in &members {
                comp[m] = c;
            }
            let mut words = Vec::new();
            let mut complete = true;
            let mut merged: Vec<usize> = Vec::new();
            for &m in &members {
                let (own, own_complete) = std::mem::take(&mut base[m]);
                words.extend(own);
                complete &= own_complete;
                for &p in &up[m] {
                    if comp[p] == c || merged.contains(&comp[p]) {
                        continue;
                    }
                    merged.push(comp[p]);
                    let s = self.follow[j][p]
                        .as_ref()
                        .expect("successors are solved first");
                    complete &= s.complete;
                    words.extend_from_slice(&s.words);
                }
            }
            let set = SeqSet::from_words(words, complete);
            for &m in &members {
                self.follow[j][m] = Some(set.clone());
            }
        }
    }

    fn names_of(&self, w: Word) -> Vec<String> {
        (0..w_len(w))
            .map(|i| self.tok_names[w_tok(w, i) as usize].to_string())
            .collect()
    }

    fn classify(&self, p: usize, conflict: &BTreeSet<&str>) -> Decision {
        let name = self.a.flat.productions()[p].name.as_str();
        let conflict_eof = conflict.contains(EOF);
        let mut conflict_tok = vec![false; self.tok_names.len()];
        for t in conflict.iter().filter(|t| **t != EOF) {
            conflict_tok[self.tok_ids[t] as usize] = true;
        }
        let in_conflict = |w: Word| -> bool {
            if w_len(w) == 0 {
                conflict_eof
            } else {
                conflict_tok[w_tok(w, 0) as usize]
            }
        };

        // Per alternative: (full FIRST_k fold, conflict-restricted la set).
        let per_alt: Vec<(SeqSet, SeqSet)> = self.prods[p]
            .iter()
            .map(|alt| {
                let f = self.fold_seq(self.k, alt);
                let mut complete = f.complete;
                let mut words = Vec::new();
                for &w in &f.words {
                    let l = w_len(w);
                    if l == self.k {
                        if in_conflict(w) {
                            words.push(w);
                        }
                    } else {
                        match &self.follow[self.k - l][p] {
                            Some(fs) => {
                                complete &= fs.complete;
                                words.extend(
                                    fs.words
                                        .iter()
                                        .map(|&v| w_concat(self.k, w, v))
                                        .filter(|&w2| in_conflict(w2)),
                                );
                            }
                            None => complete = false,
                        }
                    }
                }
                let lac = SeqSet::from_words(words, complete);
                (f, lac)
            })
            .collect();

        let decision = |outcome| Decision {
            production: name.to_string(),
            synthetic: is_synthetic(name),
            conflict_tokens: conflict.iter().map(|t| t.to_string()).collect(),
            outcome,
        };

        for k2 in 2..=self.k {
            let tr: Vec<SeqSet> = per_alt
                .iter()
                .map(|(_, lac)| {
                    let words = lac.words.iter().map(|&w| w_trunc(k2, w)).collect();
                    SeqSet::from_words(words, lac.complete)
                })
                .collect();
            if tr.iter().any(|s| !s.complete) {
                continue;
            }
            let disjoint = (0..tr.len())
                .all(|i| (i + 1..tr.len()).all(|j| tr[i].first_common(&tr[j]).is_none()));
            if !disjoint {
                continue;
            }
            // PEG-safety filter: drop entries an earlier alternative could
            // pre-empt by locally succeeding on fewer than k2 tokens.
            let mut entries = Vec::new();
            for (i, s) in tr.iter().enumerate() {
                'word: for &w in &s.words {
                    for (fj, _) in per_alt.iter().take(i) {
                        for &v in &fj.words {
                            if w_len(v) >= k2 {
                                break;
                            }
                            if w_prefix(v, w) {
                                continue 'word;
                            }
                        }
                    }
                    entries.push((w, i));
                }
            }
            entries.sort_by_key(|&(w, _)| w);
            let entries = entries
                .into_iter()
                .map(|(w, alt)| DispatchEntry {
                    word: self.names_of(w),
                    alt,
                })
                .collect();
            return decision(Outcome::Resolved { k: k2, entries });
        }

        // Residual: shortest word shared by any pair, first pair wins ties.
        let mut best: Option<(Word, (usize, usize))> = None;
        for i in 0..per_alt.len() {
            for j in i + 1..per_alt.len() {
                if let Some(w) = per_alt[i].1.first_common(&per_alt[j].1) {
                    if best.is_none_or(|(bw, _)| w < bw) {
                        best = Some((w, (i, j)));
                    }
                }
            }
        }
        match best {
            Some((w, pair)) => decision(Outcome::Residual {
                alternatives: pair,
                witness: self.names_of(w),
                witness_eof: w_len(w) < self.k,
            }),
            None => decision(Outcome::Saturated),
        }
    }
}

/// Run the LL(k) analysis at depth `k` (clamped to 1..=[`K_MAX`]) over a
/// completed k=1 analysis. Returns one [`Decision`] per conflicted flat
/// production, in first-conflict order; an LL(1) grammar yields no
/// decisions. Left-recursive grammars are handled (the k-bounded
/// fixpoints terminate) but their classifications are not meaningful for
/// parsing — callers gate on `analysis.left_recursion` being empty.
pub fn analyze_lookahead(a: &GrammarAnalysis, k: usize) -> LookaheadAnalysis {
    analyze_with(a, k, La::compute)
}

/// [`analyze_lookahead`] with the FIRST/FOLLOW solver as a parameter, so
/// tests can run the reference fixpoint through the same classification.
fn analyze_with<'a>(
    a: &'a GrammarAnalysis,
    k: usize,
    solve: impl FnOnce(&mut La<'a>, &[usize]),
) -> LookaheadAnalysis {
    let k = k.clamp(1, K_MAX);
    if a.conflicts.is_empty() {
        return LookaheadAnalysis {
            k,
            decisions: Vec::new(),
        };
    }
    let mut order: Vec<&str> = Vec::new();
    let mut tokens_by: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    for c in &a.conflicts {
        if !tokens_by.contains_key(c.nonterminal.as_str()) {
            order.push(&c.nonterminal);
        }
        tokens_by
            .entry(&c.nonterminal)
            .or_default()
            .insert(&c.token);
    }
    let mut la = La::new(a, k);
    let order: Vec<(usize, &str)> = order.into_iter().map(|n| (la.prod_ids[n], n)).collect();
    let conflicted: Vec<usize> = order.iter().map(|&(p, _)| p).collect();
    solve(&mut la, &conflicted);
    let decisions = order
        .iter()
        .map(|&(p, name)| la.classify(p, &tokens_by[name]))
        .collect();
    LookaheadAnalysis { k, decisions }
}

/// Derive the top-level synchronization set for panic-mode error
/// recovery: the union of FOLLOW over every nonterminal referenced from
/// the start production's (flat) alternatives, plus [`EOF`].
///
/// The intuition mirrors the classic panic-mode rule-of-thumb
/// ("synchronize on tokens that can follow the construct being parsed"),
/// specialized to the script skeleton this generator composes: for
/// `sql_script : sql_statement (SEMI sql_statement)* SEMI?` the flat
/// start alternatives reference the statement nonterminals, whose FOLLOW
/// is exactly `{SEMI, $}` — so a failed statement skips to the next
/// statement boundary. The derivation is fully generic: any grammar's
/// recovery points fall out of its own FOLLOW sets, with no SQL-specific
/// token names wired in.
pub fn recovery_sync_set(a: &GrammarAnalysis) -> BTreeSet<String> {
    let mut sync = BTreeSet::new();
    sync.insert(EOF.to_string());
    let mut pending: Vec<&str> = vec![a.flat.start()];
    let mut seen: BTreeSet<&str> = pending.iter().copied().collect();
    while let Some(name) = pending.pop() {
        let Some(prod) = a.flat.production(name) else {
            continue;
        };
        for alt in &prod.alternatives {
            for term in &alt.seq {
                match term {
                    Term::Token(t) => {
                        sync.insert(t.clone());
                    }
                    Term::NonTerminal(n) => {
                        if let Some(follow) = a.follow.get(n) {
                            sync.extend(follow.iter().cloned());
                        }
                        // Synthetic helpers introduced by EBNF lowering
                        // (the `(SEMI sql_statement)*` loop body) are part
                        // of the start skeleton, not user constructs —
                        // recurse through them so the tokens they mention
                        // still count as statement boundaries.
                        if is_synthetic(n) && seen.insert(n) {
                            pending.push(n);
                        }
                    }
                    // Flat grammars carry only tokens and nonterminals.
                    _ => {}
                }
            }
        }
    }
    sync
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::dsl::parse_grammar;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run(src: &str, k: usize) -> LookaheadAnalysis {
        analyze_lookahead(&analyze(&parse_grammar(src).unwrap()).unwrap(), k)
    }

    fn entry(word: &[&str], alt: usize) -> DispatchEntry {
        DispatchEntry {
            word: word.iter().map(|s| s.to_string()).collect(),
            alt,
        }
    }

    /// Reference solver: the round-robin fixpoint the worklist (FIRST)
    /// and inclusion-digraph (FOLLOW) solvers replaced. Every demanded set
    /// is recomputed from scratch, level by level, until a whole pass
    /// changes nothing.
    impl La<'_> {
        fn compute_round_robin(&mut self, conflicted: &[usize]) {
            let (firsts, follows) = self.demand(conflicted);
            for (j, names) in firsts.iter().enumerate().skip(2) {
                loop {
                    let mut changed = false;
                    for &p in names {
                        let set = self.first_of(j, p);
                        if self.first[j][p].as_ref() != Some(&set) {
                            self.first[j][p] = Some(set);
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }
            let start = self.prod_ids[self.a.flat.start()];
            for (j, names) in follows.iter().enumerate().skip(2) {
                loop {
                    let mut changed = false;
                    for &name in names {
                        let mut words = Vec::new();
                        let mut complete = true;
                        if name == start {
                            words.push(EPSILON);
                        }
                        for &(p, ai, pos) in &self.occ[name] {
                            let folded = self.fold_seq(j, &self.prods[p][ai][pos + 1..]);
                            complete &= folded.complete;
                            for &w in &folded.words {
                                let l = w_len(w);
                                if l == j {
                                    words.push(w);
                                    continue;
                                }
                                match &self.follow[j - l][p] {
                                    Some(fs) => {
                                        complete &= fs.complete;
                                        words.extend(fs.words.iter().map(|&v| w_concat(j, w, v)));
                                    }
                                    None => complete = false,
                                }
                            }
                        }
                        let set = SeqSet::from_words(words, complete);
                        if self.follow[j][name].as_ref() != Some(&set) {
                            self.follow[j][name] = Some(set);
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }
        }
    }

    /// A random flat-ish grammar over nonterminals `p0..pN` and tokens
    /// `A..E`: empty alternatives (nullable chains), nonterminals in tail
    /// position (FOLLOW inclusion cycles) and mutual recursion are all
    /// common at these sizes.
    fn random_grammar(rng: &mut StdRng) -> String {
        let n = rng.gen_range(2..7usize);
        let mut src = String::from("grammar g; start p0;");
        for p in 0..n {
            src.push_str(&format!(" p{p} :"));
            for a in 0..rng.gen_range(1..4usize) {
                if a > 0 {
                    src.push_str(" |");
                }
                for _ in 0..rng.gen_range(0..4usize) {
                    if rng.gen_bool(0.55) {
                        src.push_str(&format!(" p{}", rng.gen_range(0..n)));
                    } else {
                        src.push_str(&format!(
                            " {}",
                            ["A", "B", "C", "D", "E"][rng.gen_range(0..5usize)]
                        ));
                    }
                }
            }
            src.push_str(" ;");
        }
        src
    }

    /// Solve the tables for every production with both solvers.
    fn both_solvers(a: &GrammarAnalysis, k: usize) -> (La<'_>, La<'_>) {
        let all: Vec<usize> = (0..a.flat.productions().len()).collect();
        let mut fast = La::new(a, k);
        fast.compute(&all);
        let mut oracle = La::new(a, k);
        oracle.compute_round_robin(&all);
        (fast, oracle)
    }

    #[test]
    fn solvers_agree_with_round_robin_oracle_on_random_grammars() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut cyclic, mut eof_words, mut nullable_chains, mut decisions) = (0, 0, 0, 0);
        for case in 0..400 {
            let src = random_grammar(&mut rng);
            let a = analyze(&parse_grammar(&src).unwrap()).unwrap();
            for k in 2..=K_MAX {
                let (fast, oracle) = both_solvers(&a, k);
                assert_eq!(fast.first, oracle.first, "FIRST, case {case}, k={k}: {src}");
                assert_eq!(
                    fast.follow, oracle.follow,
                    "FOLLOW, case {case}, k={k}: {src}"
                );
                let la = analyze_lookahead(&a, k);
                let reference = analyze_with(&a, k, La::compute_round_robin);
                assert_eq!(la, reference, "decisions, case {case}, k={k}: {src}");
                decisions += la.decisions.len();
                if k == K_MAX {
                    // Coverage of the shapes the solvers must get right.
                    let mut up = vec![Vec::new(); fast.prods.len()];
                    for (name, occs) in fast.occ.iter().enumerate() {
                        for &(p, ai, pos) in occs {
                            if fast
                                .fold_seq(k, &fast.prods[p][ai][pos + 1..])
                                .words
                                .first()
                                == Some(&EPSILON)
                            {
                                up[name].push(p);
                            }
                        }
                    }
                    let all: Vec<usize> = (0..up.len()).collect();
                    if sccs(&all, &up).iter().any(|c| c.len() > 1) {
                        cyclic += 1;
                    }
                    let follows = fast.follow[k].iter().flatten();
                    if follows
                        .flat_map(|s| &s.words)
                        .any(|&w| (1..k).contains(&w_len(w)))
                    {
                        eof_words += 1;
                    }
                    if a.nullable.iter().any(|n| {
                        let p = fast.prod_ids[n.as_str()];
                        fast.prods[p]
                            .iter()
                            .flatten()
                            .any(|s| matches!(s, Sym::Nt(m) if fast.nullable[*m]))
                    }) {
                        nullable_chains += 1;
                    }
                }
            }
        }
        assert!(cyclic >= 40, "only {cyclic} grammars with a FOLLOW cycle");
        assert!(
            eof_words >= 40,
            "only {eof_words} grammars with EOF-ending words"
        );
        assert!(
            nullable_chains >= 40,
            "only {nullable_chains} grammars with nullable chains"
        );
        assert!(decisions >= 100, "only {decisions} decisions classified");
    }

    #[test]
    fn cap_overflow_stays_incomplete_and_unresolved() {
        // FOLLOW_3(a) ⊇ FIRST_3(x x x) has 30³ = 27,000 words > CAP.
        let toks: Vec<String> = (0..30).map(|i| format!("T{i}")).collect();
        let src = format!(
            "grammar g; start s; s : a x x x Q | a x x x R ; a : T0 | ; x : {} ;",
            toks.join(" | ")
        );
        let a = analyze(&parse_grammar(&src).unwrap()).unwrap();
        let (fast, oracle) = both_solvers(&a, 3);
        let pa = fast.prod_ids["a"];
        let follow = fast.follow[3][pa].as_ref().unwrap();
        assert!(!follow.complete);
        assert_eq!(follow.words.len(), CAP);
        // The smallest words are the ones kept: T0 T0 T0 first.
        let t0 = fast.tok_ids["T0"];
        assert_eq!(follow.words[0], w_push(w_push(w_push(EPSILON, t0), t0), t0));
        assert_eq!(fast.follow, oracle.follow);
        let la = analyze_lookahead(&a, 3);
        assert_eq!(la, analyze_with(&a, 3, La::compute_round_robin));
        for name in ["a", "s"] {
            let d = la
                .decisions
                .iter()
                .find(|d| d.production == name)
                .expect(name);
            match &d.outcome {
                Outcome::Residual { witness, .. } => assert_eq!(witness, &["T0", "T0", "T0"]),
                Outcome::Saturated => {}
                o => panic!("{name}: an incomplete set must not resolve, got {o:?}"),
            }
        }
    }

    #[test]
    fn packed_word_roundtrip_and_order() {
        let w = w_push(w_push(EPSILON, 7), 3);
        assert_eq!(w_len(w), 2);
        assert_eq!(w_tok(w, 0), 7);
        assert_eq!(w_tok(w, 1), 3);
        // (length, lex) order: shorter sorts first, then position 0 major.
        assert!(w_push(EPSILON, 9) < w);
        assert!(w < w_push(w_push(EPSILON, 8), 0));
        assert!(w_prefix(w_push(EPSILON, 7), w));
        assert!(!w_prefix(w_push(EPSILON, 3), w));
        assert_eq!(w_trunc(1, w), w_push(EPSILON, 7));
        assert_eq!(w_concat(3, w, w_push(EPSILON, 5)), w_push(w, 5));
        assert_eq!(w_concat(2, w, w_push(EPSILON, 5)), w);
    }

    #[test]
    fn seqset_cap_keeps_smallest_and_flags_incomplete() {
        let words: Vec<Word> = (0..CAP as u64 + 5)
            .map(|t| (1 << 48) | ((t % 60_000) << 32))
            .collect();
        let s = SeqSet::from_words(words.iter().rev().copied().collect(), true);
        assert!(!s.complete);
        assert_eq!(s.words.len(), CAP);
        // The smallest words survive, sorted.
        assert_eq!(s.words, words[..CAP]);
        // Duplicates do not count against the cap.
        let s = SeqSet::from_words([&words[..CAP], &words[..10]].concat(), true);
        assert!(s.complete);
        assert_eq!(s.words.len(), CAP);
    }

    #[test]
    fn no_conflicts_no_decisions() {
        let la = run("grammar g; s : A b ; b : B | C ;", 3);
        assert!(la.decisions.is_empty());
        assert_eq!(la.k, 3);
    }

    #[test]
    fn common_prefix_resolved_at_k2() {
        let la = run("grammar g; s : A B | A C ;", 3);
        assert_eq!(la.decisions.len(), 1);
        let d = &la.decisions[0];
        assert_eq!(d.production, "s");
        assert!(!d.synthetic);
        assert_eq!(d.conflict_tokens, ["A"]);
        match &d.outcome {
            Outcome::Resolved { k, entries } => {
                assert_eq!(*k, 2);
                assert_eq!(entries, &[entry(&["A", "B"], 0), entry(&["A", "C"], 1)]);
            }
            o => panic!("expected Resolved, got {o:?}"),
        }
        assert_eq!(la.resolved(), 1);
        assert_eq!(la.residual() + la.saturated(), 0);
    }

    #[test]
    fn deeper_prefix_needs_k3() {
        let la = run("grammar g; s : A A B | A A C ;", 3);
        match &la.decisions[0].outcome {
            Outcome::Resolved { k, entries } => {
                assert_eq!(*k, 3);
                assert_eq!(entries, &[entry(&["A", "A", "B"], 0), entry(&["A", "A", "C"], 1)]);
            }
            o => panic!("expected Resolved at 3, got {o:?}"),
        }
        // At k=2 the same grammar is residual with the shared prefix.
        let la = run("grammar g; s : A A B | A A C ;", 2);
        match &la.decisions[0].outcome {
            Outcome::Residual { witness, witness_eof, alternatives } => {
                assert_eq!(witness, &["A", "A"]);
                assert!(!witness_eof);
                assert_eq!(*alternatives, (0, 1));
            }
            o => panic!("expected Residual at 2, got {o:?}"),
        }
    }

    #[test]
    fn star_exit_resolved_through_follow() {
        // Pico-style script: trailing SEMI conflicts the star's continue
        // (SEMI stmt …) with its exit (SEMI? then EOF).
        let la = run(
            "grammar g; start script; script : stmt (SEMI stmt)* SEMI? ; stmt : A ;",
            3,
        );
        let d = la
            .decisions
            .iter()
            .find(|d| d.production.contains("__star"))
            .expect("star decision");
        assert!(d.synthetic);
        assert_eq!(d.conflict_tokens, ["SEMI"]);
        match &d.outcome {
            Outcome::Resolved { k, entries } => {
                assert_eq!(*k, 2);
                // Exit entry: SEMI then end of input (word shorter than k).
                assert!(entries.contains(&entry(&["SEMI"], 1)), "{entries:?}");
                // Continue entry: SEMI then another statement.
                assert!(entries.contains(&entry(&["SEMI", "A"], 0)), "{entries:?}");
            }
            o => panic!("expected Resolved, got {o:?}"),
        }
    }

    #[test]
    fn unbounded_common_prefix_is_residual_with_witness() {
        let la = run("grammar g; s : a B | a C ; a : A | A a ;", 3);
        match &la.decisions[0].outcome {
            Outcome::Residual { witness, witness_eof, .. } => {
                assert_eq!(witness, &["A", "A", "A"]);
                assert!(!witness_eof);
            }
            o => panic!("expected Residual, got {o:?}"),
        }
        assert_eq!(la.residual(), 1);
    }

    #[test]
    fn k1_reports_conflicts_as_residual_single_token() {
        let la = run("grammar g; s : A B | A C ;", 1);
        assert_eq!(la.k, 1);
        match &la.decisions[0].outcome {
            Outcome::Residual { witness, .. } => assert_eq!(witness, &["A"]),
            o => panic!("expected Residual at k=1, got {o:?}"),
        }
    }

    #[test]
    fn peg_safety_filter_drops_preemptable_entries() {
        // `p : A | A B` — the first alternative locally succeeds on `A`
        // alone, so the engine commits to it and never parses `A B` via
        // alternative 1 ("A B" as a whole statement is rejected by PEG
        // semantics even though the CFG accepts it). The dispatch table
        // must not "fix" that, or trees would diverge from the oracle.
        let la = run("grammar g; start s; s : p X ; p : A | A B ;", 3);
        match &la.decisions[0].outcome {
            Outcome::Resolved { k, entries } => {
                assert_eq!(*k, 2);
                assert_eq!(entries, &[entry(&["A", "X"], 0)], "A B entry must be filtered");
            }
            o => panic!("expected Resolved, got {o:?}"),
        }
    }

    #[test]
    fn nullable_alternative_resolved_against_eof() {
        // `a : X | ε` inside `s : a X` — the ε-alternative is predicted on
        // FOLLOW; at k=2 "X then EOF" would pick ε, but the PEG filter
        // drops it because alternative 0 completes on a bare `X`.
        let la = run("grammar g; start s; s : a X ; a : X | ;", 2);
        let d = &la.decisions[0];
        assert_eq!(d.production, "a");
        match &d.outcome {
            Outcome::Resolved { k, entries } => {
                assert_eq!(*k, 2);
                assert_eq!(entries, &[entry(&["X", "X"], 0)], "short EOF entry must be filtered");
            }
            o => panic!("expected Resolved, got {o:?}"),
        }
    }

    #[test]
    fn conflict_token_list_aggregates_and_sorts() {
        let la = run("grammar g; s : A B | A C | D | D E ;", 3);
        assert_eq!(la.decisions.len(), 1);
        assert_eq!(la.decisions[0].conflict_tokens, ["A", "D"]);
        match &la.decisions[0].outcome {
            Outcome::Resolved { entries, .. } => {
                // Entry for the D/D-E conflict: bare `D` (EOF) → alt 2 is
                // kept (no earlier alternative can pre-empt it), `D E` → 3
                // is dropped by the PEG filter (alt 2 completes on `D`).
                assert!(entries.contains(&entry(&["D"], 2)), "{entries:?}");
                assert!(!entries.iter().any(|e| e.alt == 3), "{entries:?}");
            }
            o => panic!("expected Resolved, got {o:?}"),
        }
    }

    #[test]
    fn summary_lines_render() {
        let la = run("grammar g; s : A B | A C ;", 3);
        let s = la.decisions[0].summary();
        assert!(s.contains("k=2"), "{s}");
        let la = run("grammar g; s : a B | a C ; a : A | A a ;", 3);
        let s = la.decisions[0].summary();
        assert!(s.contains("`A A A`"), "{s}");
        assert_eq!(witness_display(&["A".into()], true), "A $");
        assert_eq!(witness_display(&[], true), "$");
    }

    #[test]
    fn recovery_sync_set_of_script_skeleton_is_semi_and_eof() {
        // The composed sql_script skeleton every dialect shares.
        let a = analyze(
            &parse_grammar(
                "grammar g; start script; script : stmt (SEMI stmt)* SEMI? ; stmt : SELECT IDENT ;",
            )
            .unwrap(),
        )
        .unwrap();
        let sync = recovery_sync_set(&a);
        let sync: Vec<&str> = sync.iter().map(|s| s.as_str()).collect();
        assert_eq!(sync, [EOF, "SEMI"]);
    }

    #[test]
    fn recovery_sync_set_uses_follow_of_start_level_nonterminals() {
        let a = analyze(
            &parse_grammar("grammar g; start s; s : a END ; a : X | Y a ;").unwrap(),
        )
        .unwrap();
        let sync = recovery_sync_set(&a);
        let sync: Vec<&str> = sync.iter().map(|s| s.as_str()).collect();
        // FOLLOW(a) = {END}, plus the literal END token and EOF itself.
        assert_eq!(sync, [EOF, "END"]);
    }

    #[test]
    fn recovery_sync_set_always_contains_eof() {
        let a = analyze(&parse_grammar("grammar g; start s; s : X ;").unwrap()).unwrap();
        assert!(recovery_sync_set(&a).contains(EOF));
    }
}
