//! Output checkers. They read only the graph, never the program's own
//! verifiers, so a bug shared by a protocol and its verifier still shows.

use congest_graph::{Graph, NodeId};

/// No two members of `in_set` are adjacent.
pub fn independent(g: &Graph, in_set: &[bool]) -> Result<(), String> {
    if in_set.len() != g.num_nodes() {
        return Err(format!(
            "{} flags for {} nodes",
            in_set.len(),
            g.num_nodes()
        ));
    }
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        if in_set[u.index()] && in_set[v.index()] {
            return Err(format!("members {} and {} are adjacent", u.0, v.0));
        }
    }
    Ok(())
}

/// `in_set` is independent and every non-member has a member neighbor.
pub fn maximal_independent(g: &Graph, in_set: &[bool]) -> Result<(), String> {
    independent(g, in_set)?;
    for v in g.nodes() {
        if !in_set[v.index()] && !g.neighbor_ids(v).iter().any(|u| in_set[u.index()]) {
            return Err(format!("node {} could join the set", v.0));
        }
    }
    Ok(())
}

/// `pairs` is a matching of `g` (every pair an edge, no shared
/// endpoint) that is maximal (no edge joins two free nodes). Returns
/// its weight.
pub fn maximal_matching(g: &Graph, pairs: &[(u32, u32)]) -> Result<u64, String> {
    let mut matched = vec![false; g.num_nodes()];
    let mut weight = 0u64;
    for &(u, v) in pairs {
        let (Some(&mu), Some(&mv)) = (matched.get(u as usize), matched.get(v as usize)) else {
            return Err(format!("pair ({u}, {v}) is out of range"));
        };
        let Some(e) = g.find_edge(NodeId(u), NodeId(v)) else {
            return Err(format!("pair ({u}, {v}) is not an edge"));
        };
        if u == v || mu || mv {
            return Err(format!("pair ({u}, {v}) reuses an endpoint"));
        }
        matched[u as usize] = true;
        matched[v as usize] = true;
        weight += g.edge_weight(e);
    }
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        if !matched[u.index()] && !matched[v.index()] {
            return Err(format!("edge ({}, {}) joins two free nodes", u.0, v.0));
        }
    }
    Ok(weight)
}

/// Membership flags from a list of member ids.
pub fn flags(n: usize, members: impl IntoIterator<Item = u32>) -> Vec<bool> {
    let mut f = vec![false; n];
    for v in members {
        if let Some(slot) = f.get_mut(v as usize) {
            *slot = true;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_approx::matching::mwm_grouped;
    use congest_graph::generators;
    use congest_mis::{LubyMis, MisResult};
    use congest_sim::{run_protocol, SimConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn graph() -> Graph {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut g = generators::gnp_skip(300, 8.0 / 299.0, &mut rng);
        generators::randomize_edge_weights(&mut g, 1 << 16, &mut rng);
        g
    }

    fn luby(g: &Graph) -> Vec<bool> {
        run_protocol(g, SimConfig::congest_for(g), |_| LubyMis::new(), 3)
            .into_outputs()
            .into_iter()
            .map(|r| r == MisResult::InSet)
            .collect()
    }

    fn grouped(g: &Graph) -> Vec<(u32, u32)> {
        let run = mwm_grouped(g, 3);
        run.matching
            .edges(g)
            .map(|e| {
                let (u, v) = g.endpoints(e);
                (u.0, v.0)
            })
            .collect()
    }

    #[test]
    fn real_answers_pass() {
        let g = graph();
        maximal_independent(&g, &luby(&g)).expect("Luby output is an MIS");
        let pairs = grouped(&g);
        let weight = maximal_matching(&g, &pairs).expect("grouped output is a maximal matching");
        assert_eq!(weight, mwm_grouped(&g, 3).matching.weight(&g));
    }

    #[test]
    fn one_extra_mis_member_fails() {
        let g = graph();
        let mut set = luby(&g);
        let outsider = set.iter().position(|&m| !m).expect("some node is outside");
        set[outsider] = true;
        assert!(maximal_independent(&g, &set).is_err());
        assert!(independent(&g, &set).is_err());
    }

    #[test]
    fn one_missing_mis_member_fails() {
        let g = graph();
        let mut set = luby(&g);
        let member = set.iter().position(|&m| m).expect("some node is in");
        set[member] = false;
        assert!(maximal_independent(&g, &set).is_err());
    }

    #[test]
    fn one_flipped_matching_edge_fails() {
        let g = graph();
        let pairs = grouped(&g);
        // Dropping a pair frees two adjacent nodes.
        assert!(maximal_matching(&g, &pairs[1..]).is_err());
        // Swapping a pair for another edge at one endpoint reuses it.
        let (u, _) = pairs[0];
        let w = g
            .neighbor_ids(NodeId(u))
            .iter()
            .find(|x| x.0 != pairs[0].1)
            .expect("degree ≥ 2");
        let mut flipped = pairs.clone();
        flipped.push((u.min(w.0), u.max(w.0)));
        assert!(maximal_matching(&g, &flipped).is_err());
        // A pair that is not an edge.
        let mut bogus = pairs.clone();
        let non_edge = (0..g.num_nodes() as u32)
            .flat_map(|a| (a + 1..g.num_nodes() as u32).map(move |b| (a, b)))
            .find(|&(a, b)| !g.has_edge(NodeId(a), NodeId(b)))
            .expect("sparse graph has a non-edge");
        bogus[0] = non_edge;
        assert!(maximal_matching(&g, &bogus).is_err());
    }
}
