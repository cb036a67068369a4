//! Ahead-of-time task graphs (§3.1, §4.1).
//!
//! "In addition to invoking individual functions, users can build task
//! graphs, which opens up optimization opportunities such as pipelining
//! or physical co-location." A [`TaskGraph`] names its stages (function
//! images) and their data dependencies. The structure is declarative —
//! execution lives in the kernel (`pcsi-cloud::graphs`) — but the
//! analyses the scheduler needs are here: validation, topological order,
//! and co-location grouping.

use std::collections::HashMap;

use pcsi_core::PcsiError;
use pcsi_net::node::Resources;

/// One stage of a task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Function image name to invoke.
    pub function: String,
    /// Preferred variant (`None` lets the optimizer choose).
    pub variant: Option<String>,
    /// Indices of stages whose outputs feed this stage.
    pub deps: Vec<usize>,
}

/// A static task graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    stages: Vec<StageSpec>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A linear pipeline `f0 -> f1 -> ... -> fn` (Figure 2's shape).
    pub fn linear(functions: &[&str]) -> Self {
        let mut g = TaskGraph::new();
        let mut prev: Option<usize> = None;
        for f in functions {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(g.add_stage(f, None, deps));
        }
        g
    }

    /// Adds a stage, returning its index.
    pub fn add_stage(&mut self, function: &str, variant: Option<&str>, deps: Vec<usize>) -> usize {
        self.stages.push(StageSpec {
            function: function.to_owned(),
            variant: variant.map(str::to_owned),
            deps,
        });
        self.stages.len() - 1
    }

    /// The stages in index order.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the graph has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Validates dependency indices and acyclicity, returning a
    /// topological order (Kahn's algorithm; stable: ready stages emit in
    /// index order, keeping execution deterministic).
    pub fn topo_order(&self) -> Result<Vec<usize>, PcsiError> {
        let n = self.stages.len();
        let mut indegree = vec![0usize; n];
        for (i, s) in self.stages.iter().enumerate() {
            for &d in &s.deps {
                if d >= n {
                    return Err(PcsiError::BadPayload(format!(
                        "stage {i} depends on missing stage {d}"
                    )));
                }
                if d == i {
                    return Err(PcsiError::BadPayload(format!(
                        "stage {i} depends on itself"
                    )));
                }
                indegree[i] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&next) = ready.iter().min() {
            ready.retain(|&x| x != next);
            order.push(next);
            for (i, s) in self.stages.iter().enumerate() {
                if s.deps.contains(&next) {
                    indegree[i] -= s.deps.iter().filter(|&&d| d == next).count();
                    if indegree[i] == 0 {
                        ready.push(i);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(PcsiError::BadPayload("task graph contains a cycle".into()));
        }
        Ok(order)
    }

    /// Direct consumers of each stage.
    pub fn consumers(&self, stage: usize) -> Vec<usize> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.deps.contains(&stage))
            .map(|(i, _)| i)
            .collect()
    }

    /// Co-location groups: connected components of the dependency graph.
    ///
    /// §4.1: "Since the task graph indicates that these two functions
    /// will be composed, the system can schedule the first CPU function
    /// on a physical server that also contains a GPU." Stages in one
    /// component exchange intermediate data, so the executor tries to run
    /// the whole component on one node. Groups are sorted by smallest
    /// member for determinism.
    pub fn colocation_groups(&self) -> Vec<Vec<usize>> {
        let n = self.stages.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for (i, s) in self.stages.iter().enumerate() {
            for &d in &s.deps {
                if d < n {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, d));
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        for g in &mut out {
            g.sort_unstable();
        }
        out.sort_by_key(|g| g[0]);
        out
    }

    /// Combined peak resource demand of a group when its stages run
    /// pipelined on one node (demands sum because different requests
    /// occupy different stages concurrently).
    ///
    /// `demand_of(stage)` supplies each stage's chosen-variant demand.
    pub fn group_demand(
        &self,
        group: &[usize],
        demand_of: impl Fn(usize) -> Resources,
    ) -> Resources {
        let mut total = Resources::default();
        for &s in group {
            total.give(&demand_of(s));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_pipeline_shape() {
        let g = TaskGraph::linear(&["pre", "nn", "post"]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.stages()[0].deps, Vec::<usize>::new());
        assert_eq!(g.stages()[1].deps, vec![0]);
        assert_eq!(g.stages()[2].deps, vec![1]);
        assert_eq!(g.topo_order().unwrap(), vec![0, 1, 2]);
        assert_eq!(g.consumers(0), vec![1]);
        assert_eq!(g.consumers(2), Vec::<usize>::new());
    }

    #[test]
    fn diamond_topology() {
        let mut g = TaskGraph::new();
        let a = g.add_stage("a", None, vec![]);
        let b = g.add_stage("b", None, vec![a]);
        let c = g.add_stage("c", None, vec![a]);
        let d = g.add_stage("d", None, vec![b, c]);
        assert_eq!(g.topo_order().unwrap(), vec![a, b, c, d]);
        assert_eq!(g.consumers(a), vec![b, c]);
    }

    #[test]
    fn cycles_detected() {
        let mut g = TaskGraph::new();
        g.add_stage("a", None, vec![1]);
        g.add_stage("b", None, vec![0]);
        assert!(matches!(g.topo_order(), Err(PcsiError::BadPayload(_))));
    }

    #[test]
    fn self_and_missing_deps_detected() {
        let mut g = TaskGraph::new();
        g.add_stage("a", None, vec![0]);
        assert!(g.topo_order().is_err());
        let mut g2 = TaskGraph::new();
        g2.add_stage("a", None, vec![7]);
        assert!(g2.topo_order().is_err());
    }

    #[test]
    fn colocation_groups_are_components() {
        let mut g = TaskGraph::new();
        let a = g.add_stage("a", None, vec![]);
        let b = g.add_stage("b", None, vec![a]);
        let c = g.add_stage("c", None, vec![]); // Independent component.
        let d = g.add_stage("d", None, vec![b]);
        let groups = g.colocation_groups();
        assert_eq!(groups, vec![vec![a, b, d], vec![c]]);
    }

    #[test]
    fn group_demand_sums() {
        let g = TaskGraph::linear(&["pre", "nn", "post"]);
        let demand = g.group_demand(&[0, 1, 2], |s| {
            if s == 1 {
                Resources {
                    cpu: 2,
                    gpu: 1,
                    tpu: 0,
                    mem_gib: 16,
                }
            } else {
                Resources::cpu(2, 4)
            }
        });
        assert_eq!(
            demand,
            Resources {
                cpu: 6,
                gpu: 1,
                tpu: 0,
                mem_gib: 24
            }
        );
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert!(g.topo_order().unwrap().is_empty());
        assert!(g.colocation_groups().is_empty());
    }
}
