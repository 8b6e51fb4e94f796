//! The workspace call graph and the P2 panic-reachability analysis.
//!
//! Resolution is deliberately *over-approximate* (CHA-lite): a method
//! call `.name(…)` edges to every workspace method named `name` that is
//! defined in a crate the caller can see (the caller's crate plus its
//! transitive [`crate::layering::ALLOWED_DEPS`] closure — a crate
//! cannot call into a crate it does not depend on). Path calls resolve
//! through the file's `use` declarations, `Self`, `crate::` prefixes
//! and the crate-ident map. Unresolvable paths (`std::…`, foreign
//! types) produce no edge. Over-approximation means P2 can flag a fn
//! that never panics in practice — that is what the per-fn
//! `allow(P2, reason)` annotation and the `panic_reach.toml` baseline
//! are for — but it cannot *miss* a workspace-internal panic path whose
//! callee names resolve.

use crate::layering;
use crate::parser::Vis;
use crate::rules::FileKind;
use crate::symbols::SymbolTable;
use std::collections::BTreeSet;

/// The graph: one node per [`SymbolTable`] fn, edges by call-site
/// resolution.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `edges[caller] = sorted, deduplicated callee ids`.
    pub edges: Vec<Vec<usize>>,
    /// Per-node direct panic sites, rendered (`"unwrap" at line 42`).
    pub own_sites: Vec<Vec<String>>,
}

/// Panic-reachability per node.
#[derive(Debug, Default)]
pub struct Reachability {
    /// Call-edge distance to the nearest fn with a direct panic site:
    /// `0` = panics itself, `1+` = transitively reaches one, `None` =
    /// cannot reach a panic site.
    pub dist: Vec<Option<u32>>,
    /// Deterministic next hop towards the nearest panic site.
    pub next: Vec<Option<usize>>,
}

impl CallGraph {
    /// Builds the graph over the table, resolving every call site.
    pub fn build(table: &SymbolTable) -> CallGraph {
        let all_crates: BTreeSet<&str> = table.fns.iter().map(|f| f.crate_name.as_str()).collect();
        let mut graph = CallGraph {
            edges: Vec::with_capacity(table.fns.len()),
            own_sites: Vec::with_capacity(table.fns.len()),
        };
        for id in 0..table.fns.len() {
            let mut callees: BTreeSet<usize> = BTreeSet::new();
            let mut sites: Vec<String> = Vec::new();
            if let (Some(sym), Some(def)) = (table.fns.get(id), table.def_of(id)) {
                let visible: BTreeSet<&str> = match layering::visible_crates(&sym.crate_name) {
                    Some(v) => v,
                    None => all_crates.clone(),
                };
                let uses = table.uses_of(id);
                for call in &def.body.calls {
                    for target in resolve_call(table, id, &visible, uses, call) {
                        if target != id {
                            callees.insert(target);
                        }
                    }
                }
                if sym.kind == FileKind::Library && !sym.cfg_test {
                    for p in &def.body.panics {
                        sites.push(format!("`{}` at line {}", p.what, p.line));
                    }
                }
            }
            graph.edges.push(callees.into_iter().collect());
            graph.own_sites.push(sites);
        }
        graph
    }

    /// Multi-source reverse BFS from every fn with a direct panic site.
    /// Deterministic: sources and reverse edges are visited in id
    /// order, so `next` (and therefore every evidence path) is stable.
    pub fn reach(&self) -> Reachability {
        let n = self.edges.len();
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (caller, callees) in self.edges.iter().enumerate() {
            for &callee in callees {
                if let Some(r) = rev.get_mut(callee) {
                    r.push(caller);
                }
            }
        }
        let mut dist: Vec<Option<u32>> = vec![None; n];
        let mut next: Vec<Option<usize>> = vec![None; n];
        let mut frontier: Vec<usize> = Vec::new();
        for (id, sites) in self.own_sites.iter().enumerate() {
            if !sites.is_empty() {
                dist[id] = Some(0);
                frontier.push(id);
            }
        }
        let mut d = 0u32;
        while !frontier.is_empty() {
            d += 1;
            let mut nxt: Vec<usize> = Vec::new();
            for &node in &frontier {
                for &caller in rev.get(node).map(Vec::as_slice).unwrap_or(&[]) {
                    if let Some(slot) = dist.get_mut(caller) {
                        if slot.is_none() {
                            *slot = Some(d);
                            next[caller] = Some(node);
                            nxt.push(caller);
                        }
                    }
                }
            }
            nxt.sort_unstable();
            frontier = nxt;
        }
        Reachability { dist, next }
    }

    /// The evidence chain for a flagged fn: the deterministic shortest
    /// path of fn keys ending at the fn whose own panic site is
    /// reached, plus that site's description. Long chains elide the
    /// middle.
    pub fn evidence(&self, table: &SymbolTable, reach: &Reachability, id: usize) -> String {
        let mut hops: Vec<&str> = Vec::new();
        let mut cur = id;
        let mut guard = 0usize;
        loop {
            hops.push(
                table
                    .fns
                    .get(cur)
                    .map(|f| f.key.as_str())
                    .unwrap_or("<unknown>"),
            );
            match reach.next.get(cur).copied().flatten() {
                Some(nxt) if guard < self.edges.len() => {
                    cur = nxt;
                    guard += 1;
                }
                _ => break,
            }
        }
        let site = self
            .own_sites
            .get(cur)
            .and_then(|s| s.first())
            .map(String::as_str)
            .unwrap_or("a panic site");
        let chain = if hops.len() > 6 {
            let head = hops.get(..3).unwrap_or(&[]).join(" -> ");
            let tail = hops.get(hops.len() - 2..).unwrap_or(&[]).join(" -> ");
            format!("{head} -> ... -> {tail} ({} hops)", hops.len() - 1)
        } else {
            hops.join(" -> ")
        };
        format!("{chain}, which hits {site}")
    }

    /// Renders the graph as deterministic pretty JSON: nodes in id
    /// order with their key, location, visibility, panic distance and
    /// own sites; edges as key pairs. CI byte-compares two runs.
    pub fn render_json(&self, table: &SymbolTable, reach: &Reachability) -> String {
        let nodes: Vec<serde_json::Value> = table
            .fns
            .iter()
            .enumerate()
            .map(|(id, sym)| {
                serde_json::json!({
                    "key": sym.key,
                    "crate": sym.crate_name,
                    "path": sym.rel,
                    "line": sym.line,
                    "pub": sym.vis == Vis::Pub,
                    "panic_distance": reach.dist.get(id).copied().flatten(),
                    "own_sites": self.own_sites.get(id).cloned().unwrap_or_default(),
                })
            })
            .collect();
        let edges: Vec<serde_json::Value> = self
            .edges
            .iter()
            .enumerate()
            .flat_map(|(caller, callees)| callees.iter().map(move |&callee| (caller, callee)))
            .map(|(caller, callee)| {
                serde_json::json!([key_of(table, caller), key_of(table, callee)])
            })
            .collect();
        let doc = serde_json::json!({
            "tool": "demt-lint",
            "report": "callgraph",
            "version": 1,
            "fns": nodes.len(),
            "edges": edges.len(),
            "panic_reachable_pub_fns": table
                .fns
                .iter()
                .enumerate()
                .filter(|(id, sym)| {
                    sym.vis == Vis::Pub
                        && sym.kind == FileKind::Library
                        && matches!(reach.dist.get(*id).copied().flatten(), Some(d) if d >= 1)
                })
                .count(),
            "nodes": nodes,
            "edge_list": edges,
        });
        serde_json::to_string_pretty(&doc).unwrap_or_else(|_| String::from("{}"))
    }
}

fn key_of(table: &SymbolTable, id: usize) -> &str {
    table.fns.get(id).map(|f| f.key.as_str()).unwrap_or("")
}

/// Resolves one call site to candidate symbol ids. Over-approximate
/// by design; returns an empty vec for paths that leave the workspace.
fn resolve_call(
    table: &SymbolTable,
    caller: usize,
    visible: &BTreeSet<&str>,
    uses: &[crate::parser::UseDecl],
    call: &crate::parser::CallSite,
) -> Vec<usize> {
    let Some(caller_sym) = table.fns.get(caller) else {
        return Vec::new();
    };
    let Some(name) = call.path.last() else {
        return Vec::new();
    };
    if call.method {
        // `.name(…)`: every visible method with that name.
        return table
            .by_method
            .get(name.as_str())
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| {
                        table
                            .fns
                            .get(id)
                            .map(|f| visible.contains(f.crate_name.as_str()))
                            .unwrap_or(false)
                    })
                    .collect()
            })
            .unwrap_or_default();
    }
    if call.path.len() == 1 {
        // Bare `name(…)`: a use-imported fn, else same-crate free fns.
        if let Some(u) = uses.iter().find(|u| &u.local == name) {
            return resolve_path(table, caller_sym, visible, &u.path);
        }
        return table
            .by_crate_free
            .get(&(caller_sym.crate_name.clone(), name.clone()))
            .cloned()
            .unwrap_or_default();
    }
    // Qualified `a::b::name(…)`: expand the head through `use`, then
    // resolve the full path.
    let head = call.path.first().map(String::as_str).unwrap_or("");
    if head == "Self" {
        if let Some(owner) = &caller_sym.owner {
            return owner_lookup(table, visible, owner, name, Some(&caller_sym.crate_name));
        }
        return Vec::new();
    }
    let expanded: Vec<String> = match uses.iter().find(|u| u.local == head) {
        Some(u) => u
            .path
            .iter()
            .chain(call.path.iter().skip(1))
            .cloned()
            .collect(),
        None => call.path.clone(),
    };
    resolve_path(table, caller_sym, visible, &expanded)
}

/// Resolves a full (use-expanded) path: determine the target crate from
/// the head segments, then look up by owner type or by name.
fn resolve_path(
    table: &SymbolTable,
    caller: &crate::symbols::FnSymbol,
    visible: &BTreeSet<&str>,
    path: &[String],
) -> Vec<usize> {
    let mut segs: Vec<&str> = path.iter().map(String::as_str).collect();
    let mut target_crate: Option<String> = None;
    while let Some(&head) = segs.first() {
        match head {
            "crate" | "self" | "super" => {
                target_crate = Some(caller.crate_name.clone());
                segs.remove(0);
            }
            _ => {
                if target_crate.is_none() {
                    if let Some(pkg) = table.crate_idents.get(head) {
                        if pkg != &caller.crate_name && !visible.contains(pkg.as_str()) {
                            return Vec::new(); // not a declared dependency
                        }
                        target_crate = Some(pkg.clone());
                        segs.remove(0);
                        continue;
                    }
                }
                break;
            }
        }
    }
    let Some(&name) = segs.last() else {
        return Vec::new();
    };
    // `…::Type::name` — a type-qualified call if the qualifier is
    // capitalized (workspace style: types are UpperCamelCase).
    let owner_seg = segs
        .len()
        .checked_sub(2)
        .and_then(|i| segs.get(i))
        .copied()
        .filter(|s| s.chars().next().map(char::is_uppercase).unwrap_or(false));
    if let Some(owner) = owner_seg {
        return owner_lookup(table, visible, owner, name, target_crate.as_deref());
    }
    match target_crate {
        Some(pkg) => table
            .by_crate_name
            .get(&(pkg, name.to_string()))
            .cloned()
            .unwrap_or_default(),
        // `Type` with no crate head that did not match an owner, or a
        // plain module path with no known crate: try the caller's own
        // crate, else give up (std / foreign).
        None => table
            .by_crate_name
            .get(&(caller.crate_name.clone(), name.to_string()))
            .cloned()
            .unwrap_or_default(),
    }
}

/// `(owner type, method)` lookup, narrowed to one crate when known and
/// to visible crates otherwise.
fn owner_lookup(
    table: &SymbolTable,
    visible: &BTreeSet<&str>,
    owner: &str,
    name: &str,
    crate_hint: Option<&str>,
) -> Vec<usize> {
    let ids = table
        .by_owner
        .get(&(owner.to_string(), name.to_string()))
        .cloned()
        .unwrap_or_default();
    let narrowed: Vec<usize> = match crate_hint {
        Some(pkg) => ids
            .iter()
            .copied()
            .filter(|&id| {
                table
                    .fns
                    .get(id)
                    .map(|f| f.crate_name == pkg)
                    .unwrap_or(false)
            })
            .collect(),
        None => Vec::new(),
    };
    if !narrowed.is_empty() {
        return narrowed;
    }
    ids.into_iter()
        .filter(|&id| {
            table
                .fns
                .get(id)
                .map(|f| visible.contains(f.crate_name.as_str()))
                .unwrap_or(false)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::symbols::FileInput;

    fn table(files: &[(&str, &str, &str)]) -> SymbolTable {
        SymbolTable::build(
            files
                .iter()
                .map(|(rel, crate_name, src)| FileInput {
                    rel: rel.to_string(),
                    crate_name: crate_name.to_string(),
                    kind: FileKind::Library,
                    parsed: parse(&lex(src)),
                })
                .collect(),
        )
    }

    fn id_of(t: &SymbolTable, key: &str) -> usize {
        t.fns
            .iter()
            .position(|f| f.key == key)
            .unwrap_or(usize::MAX)
    }

    #[test]
    fn free_method_and_path_calls_resolve() {
        let t = table(&[
            (
                "crates/a/src/lib.rs",
                "a",
                r#"
use b_lib::deep;
pub fn entry() { helper(); deep(); x.frob(); }
fn helper() {}
"#,
            ),
            (
                "crates/b/src/lib.rs",
                "b-lib",
                "pub fn deep() {}\npub struct X;\nimpl X { pub fn frob(&self) {} }",
            ),
        ]);
        let g = CallGraph::build(&t);
        let entry = id_of(&t, "a::entry");
        let callees: Vec<&str> = g.edges[entry]
            .iter()
            .map(|&c| t.fns[c].key.as_str())
            .collect();
        assert_eq!(callees, vec!["a::helper", "b-lib::deep", "b-lib::X::frob"]);
    }

    #[test]
    fn transitive_panic_reachability_with_distance() {
        let t = table(&[(
            "crates/a/src/lib.rs",
            "a",
            r#"
pub fn top() { mid() }
fn mid() { bottom() }
fn bottom() { inner.unwrap() }
pub fn clean() -> u32 { 1 }
"#,
        )]);
        let g = CallGraph::build(&t);
        let r = g.reach();
        assert_eq!(r.dist[id_of(&t, "a::top")], Some(2));
        assert_eq!(r.dist[id_of(&t, "a::mid")], Some(1));
        assert_eq!(r.dist[id_of(&t, "a::bottom")], Some(0));
        assert_eq!(r.dist[id_of(&t, "a::clean")], None);
        let ev = g.evidence(&t, &r, id_of(&t, "a::top"));
        assert_eq!(
            ev,
            "a::top -> a::mid -> a::bottom, which hits `unwrap` at line 4"
        );
    }

    #[test]
    fn layering_bounds_method_resolution() {
        // demt-model depends on nothing, so a `.frob()` in demt-model
        // must not edge to a method defined in demt-sim.
        let t = table(&[
            (
                "crates/model/src/lib.rs",
                "demt-model",
                "pub fn entry(x: X) { x.frob() }",
            ),
            (
                "crates/sim/src/lib.rs",
                "demt-sim",
                "pub struct Y;\nimpl Y { pub fn frob(&self) { None::<u32>.unwrap() } }",
            ),
        ]);
        let g = CallGraph::build(&t);
        assert!(g.edges[id_of(&t, "demt-model::entry")].is_empty());
    }

    #[test]
    fn callgraph_json_is_deterministic() {
        let files = [(
            "crates/a/src/lib.rs",
            "a",
            "pub fn top() { mid() }\nfn mid() { x.unwrap() }",
        )];
        let t1 = table(&files);
        let g1 = CallGraph::build(&t1);
        let j1 = g1.render_json(&t1, &g1.reach());
        let t2 = table(&files);
        let g2 = CallGraph::build(&t2);
        let j2 = g2.render_json(&t2, &g2.reach());
        assert_eq!(j1, j2);
        assert!(j1.contains("\"panic_reachable_pub_fns\": 1"));
    }
}
