//! Arbitrary-depth tier trees: the N-tier generalization of the
//! three-tier cloud → edge → worker [`Hierarchy`].
//!
//! A [`TierTree`] lists one [`TierSpec`] per parent → child relation,
//! top-down: `levels[0]` describes the root's children, `levels.last()`
//! the workers under each leaf-parent ("edge") node. Each spec carries
//! the subtree *fanout*, the aggregation *interval* in units of the
//! children's own rounds (the paper's τ at the leaf level, π one level
//! up — generalized to τ₁…τ_d), and the [`LinkClass`] of the boundary.
//!
//! Depth-3 trees are in exact correspondence with the seed
//! `(Hierarchy::balanced, τ, π)` triple via [`TierTree::three_tier`] /
//! [`TierTree::edge_hierarchy`], which is what the depth-equivalence
//! suite (`tests/tier_equivalence.rs`) pins bitwise.
//!
//! # Interval semantics
//!
//! Workers step once per tick. The leaf-parent ("edge") tier aggregates
//! every `levels.last().interval = τ` ticks; a tier at depth `d`
//! aggregates every `levels[d].interval` rounds *of its children*, so in
//! edge rounds its boundary is the suffix product
//! [`TierTree::sync_rounds`]. The root fires every
//! [`TierTree::pi_total`] edge rounds.
//!
//! # Collapse rule
//!
//! A middle tier whose nodes merely forward their children — interval 1
//! and [`TierAggregation::Identity`] — is observationally removable:
//! [`TierTree::collapse`] deletes such levels, multiplying their fanout
//! into the parent relation. A depth-4 tree with a pass-through middle
//! tier trains bitwise identically to its collapsed depth-3 counterpart
//! (property-tested in `tests/tier_equivalence.rs`).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::hierarchy::Hierarchy;

/// Link technology class of one tier boundary. Used by the co-simulation
/// layer to pick delay profiles; the training math never reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Local-area (worker ↔ leaf-parent in the paper's testbed).
    Lan,
    /// Metro-area (edge ↔ regional aggregator).
    #[default]
    Man,
    /// Wide-area (uplink to the cloud root).
    Wan,
}

/// How a tier's nodes combine their children's states.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TierAggregation {
    /// Data-weighted averaging (the paper's rule at every level).
    #[default]
    Average,
    /// Pass-through: the node forwards its children untouched. Together
    /// with `interval == 1` this makes the tier removable — see
    /// [`TierTree::collapse`].
    Identity,
}

/// One parent → child relation of a [`TierTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierSpec {
    /// Children per parent node at this level.
    pub fanout: usize,
    /// Aggregation interval, in units of the children's own rounds
    /// (ticks at the leaf level).
    pub interval: usize,
    /// Link class of this boundary.
    #[serde(default)]
    pub link_class: LinkClass,
    /// Aggregation rule applied by the parent nodes of this relation.
    #[serde(default)]
    pub aggregation: TierAggregation,
}

impl TierSpec {
    /// A spec with the default link class and averaging aggregation.
    pub fn new(fanout: usize, interval: usize) -> Self {
        TierSpec {
            fanout,
            interval,
            link_class: LinkClass::default(),
            aggregation: TierAggregation::default(),
        }
    }

    /// A pass-through spec (interval 1, identity aggregation): removable
    /// by [`TierTree::collapse`].
    pub fn pass_through(fanout: usize) -> Self {
        TierSpec {
            fanout,
            interval: 1,
            link_class: LinkClass::default(),
            aggregation: TierAggregation::Identity,
        }
    }

    /// `true` when this relation's parents merely forward their children
    /// every round.
    pub fn is_pass_through(&self) -> bool {
        self.interval == 1 && self.aggregation == TierAggregation::Identity
    }
}

/// A validated, arbitrary-depth, balanced tier tree.
///
/// Depth is `levels().len() + 1` (the root is implicit): a depth-3 tree
/// has two levels and is the seed worker → edge → cloud shape.
///
/// # Example
///
/// ```
/// use hieradmo_topology::{TierSpec, TierTree};
///
/// // 4-tier: cloud → 2 regions (every 2 group rounds) → 2 edges per
/// // region (every 2 edge rounds) → 2 workers per edge (τ = 5).
/// let tree = TierTree::new(vec![
///     TierSpec::new(2, 2),
///     TierSpec::new(2, 2),
///     TierSpec::new(2, 5),
/// ]).unwrap();
/// assert_eq!(tree.depth(), 4);
/// assert_eq!(tree.num_workers(), 8);
/// assert_eq!(tree.num_edges(), 4);
/// assert_eq!(tree.tau(), 5);
/// assert_eq!(tree.pi_total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierTree {
    levels: Vec<TierSpec>,
}

// The wire form is the bare level list; deserialization re-runs the
// validator so a hand-edited config cannot smuggle in a degenerate tree.
// (Hand-written because the vendored serde_derive lacks `try_from`.)
impl Serialize for TierTree {
    fn to_value(&self) -> serde::Value {
        self.levels.to_value()
    }
}

impl Deserialize for TierTree {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let levels = Vec::<TierSpec>::from_value(v)?;
        TierTree::new(levels).map_err(serde::DeError::msg)
    }
}

impl TierTree {
    /// Builds and validates a tree from top-down level specs.
    ///
    /// # Errors
    ///
    /// Returns a message when there are fewer than two levels (depth < 3),
    /// any fanout or interval is zero, or the actor counts or the root
    /// period in ticks (the product of every interval) overflow.
    pub fn new(levels: Vec<TierSpec>) -> Result<Self, String> {
        if levels.len() < 2 {
            return Err(format!(
                "a tier tree needs at least 2 levels (depth 3: worker → edge \
                 → cloud), got {}",
                levels.len()
            ));
        }
        let (mut actors, mut ticks) = (1usize, 1usize);
        for (d, spec) in levels.iter().enumerate() {
            if spec.fanout == 0 {
                return Err(format!("level {d} has zero fanout"));
            }
            if spec.interval == 0 {
                return Err(format!("level {d} has zero interval"));
            }
            actors = actors
                .checked_mul(spec.fanout)
                .ok_or_else(|| format!("actor count overflows at level {d}"))?;
            ticks = ticks
                .checked_mul(spec.interval)
                .ok_or_else(|| format!("root period in ticks overflows at level {d}"))?;
        }
        Ok(TierTree { levels })
    }

    /// The seed three-tier shape: `edges` leaf-parent nodes of
    /// `workers_per_edge` workers each, aggregating every `tau` ticks,
    /// with a cloud round every `pi` edge rounds.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn three_tier(edges: usize, workers_per_edge: usize, tau: usize, pi: usize) -> Self {
        TierTree::new(vec![
            TierSpec {
                fanout: edges,
                interval: pi,
                link_class: LinkClass::Wan,
                aggregation: TierAggregation::Average,
            },
            TierSpec {
                fanout: workers_per_edge,
                interval: tau,
                link_class: LinkClass::Lan,
                aggregation: TierAggregation::Average,
            },
        ])
        .expect("three_tier arguments must be positive")
    }

    /// Top-down level specs.
    pub fn levels(&self) -> &[TierSpec] {
        &self.levels
    }

    /// Tree depth counting every tier: root + one per level. The seed
    /// shape is depth 3.
    pub fn depth(&self) -> usize {
        self.levels.len() + 1
    }

    /// Worker–edge aggregation period `τ` (the leaf level's interval, in
    /// ticks).
    pub fn tau(&self) -> usize {
        self.levels[self.levels.len() - 1].interval
    }

    /// Edge rounds per root round: the product of every non-leaf
    /// interval (`π` for depth 3, `π·ρ·…` for deeper trees).
    pub fn pi_total(&self) -> usize {
        self.levels[..self.levels.len() - 1]
            .iter()
            .map(|s| s.interval)
            .product()
    }

    /// Number of nodes at tier depth `d` (`0` = root, `levels().len()` =
    /// workers).
    ///
    /// # Panics
    ///
    /// Panics if `d > levels().len()`.
    pub fn nodes_at(&self, d: usize) -> usize {
        assert!(d <= self.levels.len(), "depth {d} out of range");
        self.levels[..d].iter().map(|s| s.fanout).product()
    }

    /// Total workers (leaves).
    pub fn num_workers(&self) -> usize {
        self.nodes_at(self.levels.len())
    }

    /// Number of leaf-parent ("edge") nodes.
    pub fn num_edges(&self) -> usize {
        self.nodes_at(self.levels.len() - 1)
    }

    /// Depths of the *middle* aggregator tiers — strictly between the
    /// root and the leaf-parent tier. Empty for depth-3 trees.
    pub fn middle_depths(&self) -> std::ops::Range<usize> {
        1..self.levels.len() - 1
    }

    /// Aggregation boundary of the depth-`d` tier, in edge rounds: the
    /// suffix product of intervals `levels[d] · … · levels[len-2]`.
    /// `sync_rounds(0) == pi_total()`; the lowest middle tier has the
    /// smallest boundary.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not an aggregator depth (`0..levels().len() - 1`).
    pub fn sync_rounds(&self, d: usize) -> usize {
        assert!(
            d < self.levels.len() - 1,
            "depth {d} is not an upper aggregator tier"
        );
        self.levels[d..self.levels.len() - 1]
            .iter()
            .map(|s| s.interval)
            .product()
    }

    /// Number of edges in the subtree of one depth-`d` node.
    ///
    /// # Panics
    ///
    /// Panics if `d >= levels().len()`.
    pub fn edges_per_node(&self, d: usize) -> usize {
        assert!(d < self.levels.len(), "depth {d} out of range");
        self.levels[d..self.levels.len() - 1]
            .iter()
            .map(|s| s.fanout)
            .product()
    }

    /// The root-to-edge path of edge `edge`: one local child index per
    /// aggregator level (`levels[0..len-1]`), most significant first, so
    /// that `edge` is the row-major mixed-radix number the path spells.
    /// The inverse of [`TierPath::node_index`] restricted to the edge
    /// tier; depth-3 trees yield the single-component path `[edge]`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn edge_path(&self, edge: usize) -> Vec<usize> {
        assert!(edge < self.num_edges(), "edge {edge} out of range");
        let n = self.levels.len() - 1;
        let mut path = vec![0; n];
        let mut rem = edge;
        for d in (0..n).rev() {
            let f = self.levels[d].fanout;
            path[d] = rem % f;
            rem /= f;
        }
        path
    }

    /// The balanced three-tier [`Hierarchy`] spanned by the edge tier:
    /// `num_edges()` edges of `levels.last().fanout` workers each. This
    /// is the shape the execution engines lay worker state out in,
    /// whatever the tree's depth.
    pub fn edge_hierarchy(&self) -> Hierarchy {
        Hierarchy::balanced(self.num_edges(), self.levels[self.levels.len() - 1].fanout)
    }

    /// Removes every pass-through middle level (interval 1, identity
    /// aggregation), multiplying its fanout into the parent relation.
    /// Training on the collapsed tree is bitwise identical to the
    /// original (the depth-equivalence suite's headline property).
    pub fn collapse(&self) -> TierTree {
        let mut levels: Vec<TierSpec> = Vec::with_capacity(self.levels.len());
        for (d, spec) in self.levels.iter().enumerate() {
            let removable = d >= 1 && d <= self.levels.len().saturating_sub(2);
            if removable && spec.is_pass_through() {
                let parent = levels.last_mut().expect("d >= 1 implies a parent level");
                parent.fanout *= spec.fanout;
            } else {
                levels.push(*spec);
            }
        }
        TierTree::new(levels).expect("collapsing preserves validity")
    }
}

/// A path from the root of a [`TierTree`] to one of its nodes: element
/// `i` selects a child at depth `i + 1`. A full-length path addresses a
/// worker; shorter paths address aggregator nodes. This is the actor
/// addressing scheme fault and adversary plans use on N-tier runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TierPath(pub Vec<usize>);

impl fmt::Display for TierPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "root");
        }
        let parts: Vec<String> = self.0.iter().map(usize::to_string).collect();
        write!(f, "{}", parts.join("/"))
    }
}

impl TierPath {
    /// The node index among its tier's nodes (row-major over the
    /// balanced tree), after validating every component against the
    /// tree's fanouts.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending component when the path is
    /// longer than the tree is deep or a component exceeds its fanout.
    pub fn node_index(&self, tree: &TierTree) -> Result<usize, String> {
        if self.0.len() > tree.levels().len() {
            return Err(format!(
                "path {self} has {} components for a tree of depth {}",
                self.0.len(),
                tree.depth()
            ));
        }
        let mut idx = 0usize;
        for (d, &c) in self.0.iter().enumerate() {
            let fanout = tree.levels()[d].fanout;
            if c >= fanout {
                return Err(format!(
                    "path {self} component {d} is {c}, but level {d} has fanout \
                     {fanout}"
                ));
            }
            idx = idx * fanout + c;
        }
        Ok(idx)
    }

    /// The flat worker index this path addresses (paths must reach the
    /// leaf tier).
    ///
    /// # Errors
    ///
    /// Returns a message when the path does not have exactly one
    /// component per level or any component is out of range.
    pub fn flat_worker(&self, tree: &TierTree) -> Result<usize, String> {
        if self.0.len() != tree.levels().len() {
            return Err(format!(
                "worker path {self} must have {} components (one per level), \
                 got {}",
                tree.levels().len(),
                self.0.len()
            ));
        }
        self.node_index(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth4() -> TierTree {
        TierTree::new(vec![
            TierSpec::new(2, 2),
            TierSpec::new(3, 2),
            TierSpec::new(2, 5),
        ])
        .unwrap()
    }

    #[test]
    fn three_tier_matches_seed_quantities() {
        let t = TierTree::three_tier(2, 2, 10, 2);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.num_workers(), 4);
        assert_eq!(t.tau(), 10);
        assert_eq!(t.pi_total(), 2);
        assert!(t.middle_depths().is_empty());
        let h = t.edge_hierarchy();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.num_workers(), 4);
    }

    #[test]
    fn depth4_counts_and_boundaries() {
        let t = depth4();
        assert_eq!(t.depth(), 4);
        assert_eq!(t.nodes_at(0), 1);
        assert_eq!(t.nodes_at(1), 2);
        assert_eq!(t.nodes_at(2), 6);
        assert_eq!(t.num_edges(), 6);
        assert_eq!(t.num_workers(), 12);
        assert_eq!(t.tau(), 5);
        // Root every 2·2 = 4 edge rounds; the single middle tier every 2.
        assert_eq!(t.pi_total(), 4);
        assert_eq!(t.middle_depths().collect::<Vec<_>>(), vec![1]);
        assert_eq!(t.sync_rounds(1), 2);
        assert_eq!(t.sync_rounds(0), 4);
        assert_eq!(t.edges_per_node(1), 3);
        assert_eq!(t.edges_per_node(0), 6);
    }

    #[test]
    fn rejects_degenerate_trees() {
        assert!(TierTree::new(vec![TierSpec::new(4, 10)]).is_err());
        assert!(TierTree::new(vec![TierSpec::new(0, 1), TierSpec::new(2, 5)]).is_err());
        assert!(TierTree::new(vec![TierSpec::new(2, 0), TierSpec::new(2, 5)]).is_err());
        assert!(TierTree::new(vec![TierSpec::new(usize::MAX, 1), TierSpec::new(2, 5)]).is_err());
        assert!(TierTree::new(vec![TierSpec::new(1, 1 << 33), TierSpec::new(1, 1 << 33)]).is_err());
    }

    #[test]
    fn serde_round_trips_and_validates() {
        let t = depth4();
        let json = serde_json::to_string(&t).unwrap();
        let back: TierTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        // Specs omit default link/aggregation fields on the wire.
        let minimal: TierTree =
            serde_json::from_str(r#"[{"fanout":2,"interval":2},{"fanout":2,"interval":5}]"#)
                .unwrap();
        assert_eq!(minimal.levels()[0].link_class, LinkClass::Man);
        assert_eq!(minimal.levels()[0].aggregation, TierAggregation::Average);
        // Deserialization runs the validator.
        let bad = r#"[{"fanout":0,"interval":1},{"fanout":2,"interval":5}]"#;
        assert!(serde_json::from_str::<TierTree>(bad).is_err());
        let shallow = r#"[{"fanout":4,"interval":10}]"#;
        assert!(serde_json::from_str::<TierTree>(shallow).is_err());
        let long = r#"[{"fanout":1,"interval":8589934592},{"fanout":1,"interval":8589934592}]"#;
        assert!(serde_json::from_str::<TierTree>(long).is_err());
    }

    #[test]
    fn collapse_removes_pass_through_middles_only() {
        let t = TierTree::new(vec![
            TierSpec::new(2, 2),
            TierSpec::pass_through(3),
            TierSpec::new(2, 5),
        ])
        .unwrap();
        let c = t.collapse();
        assert_eq!(c.depth(), 3);
        assert_eq!(c.levels()[0].fanout, 6);
        assert_eq!(c.levels()[0].interval, 2);
        assert_eq!(c.levels()[1], TierSpec::new(2, 5));
        assert_eq!(c.num_workers(), t.num_workers());
        assert_eq!(c.pi_total(), t.pi_total());
        assert_eq!(c.tau(), t.tau());

        // A middle tier with interval > 1 or averaging aggregation stays.
        assert_eq!(depth4().collapse(), depth4());
        // Root and leaf relations are never removed, even if they look
        // pass-through.
        let edgey = TierTree::new(vec![TierSpec::pass_through(2), TierSpec::new(2, 5)]).unwrap();
        assert_eq!(edgey.collapse(), edgey);
    }

    #[test]
    fn tier_paths_address_nodes_and_workers() {
        let t = depth4();
        // Worker 0/2/1 → edge (0·3 + 2) = 2, worker 2·2 + 1 = 5.
        let p = TierPath(vec![0, 2, 1]);
        assert_eq!(p.flat_worker(&t).unwrap(), 5);
        assert_eq!(p.to_string(), "0/2/1");
        assert_eq!(TierPath(vec![1, 0]).node_index(&t).unwrap(), 3);
        assert_eq!(TierPath(vec![]).to_string(), "root");
        assert_eq!(TierPath(vec![]).node_index(&t).unwrap(), 0);
        // Partial paths cannot address workers.
        assert!(TierPath(vec![0, 1]).flat_worker(&t).is_err());
        // Out-of-range components are named in the error.
        let err = TierPath(vec![0, 3, 0]).flat_worker(&t).unwrap_err();
        assert!(err.contains("fanout"), "{err}");
        assert!(TierPath(vec![0, 0, 0, 0]).node_index(&t).is_err());
    }

    #[test]
    fn last_worker_path_maps_to_last_flat_index() {
        let t = depth4();
        let p = TierPath(vec![1, 2, 1]);
        assert_eq!(p.flat_worker(&t).unwrap(), t.num_workers() - 1);
    }
}
