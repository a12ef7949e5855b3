//! Communication topologies for the push model.
//!
//! The paper's model is stated on the complete graph — every push lands on
//! a uniformly random agent — but graph-structured push is the natural
//! bridge to the LOCAL-model literature the repository tracks (fractional
//! coloring, linear-in-Δ lower bounds), where *who can talk to whom* is
//! the whole story. This module adds that axis:
//!
//! * [`TopologySpec`] — a small, copyable description of a topology family
//!   (`complete`, `ring`, `torus`, `regular(d)`, `er(p)`), with a
//!   round-trippable textual form used by scenario spec files, spelled
//!   through the one grammar of spec values ([`noisy_channel::text`]).
//! * [`Topology`] — the materialized graph: flat CSR-style neighbor lists
//!   (`offsets` + `neighbors`), built once per [`Network`](crate::Network)
//!   and consulted on every push.
//!
//! Under a non-complete topology every opinionated agent pushes to a
//! uniformly random *neighbor* instead of a uniformly random node. The
//! complete graph is special-cased: it stores no adjacency at all and
//! draws destinations with the same single `gen_range(0..n)` the
//! pre-topology simulator used, so complete-graph runs are **bit-for-bit
//! identical** to the historical RNG stream (all fixed-seed fixtures
//! remain valid).
//!
//! Random families (`regular(d)`, `er(p)`) are built from a *dedicated*
//! RNG derived from the simulation seed, so the delivery RNG stream is
//! never perturbed by graph construction and the graph is a deterministic
//! function of the seed.
//!
//! ## Support boundaries
//!
//! On the agent backend only process O
//! ([`DeliverySemantics::Exact`](crate::DeliverySemantics)) is defined on
//! sparse topologies: the deferred processes B and P shuffle phase
//! messages into *uniform* bins, which is a complete-graph notion (a
//! pending count has no sender, hence no neighborhood). The count-based
//! backends recover the deferred process P off the complete graph by
//! aggregating over exchangeable blocks, per (degree class, opinion)
//! ([`CountLevelNetwork`](crate::blockcounting::CountLevelNetwork), via
//! [`DegreeClasses`]): the complete graph and every degree-homogeneous
//! family are a single class. Which backend is certified for which family
//! is a rule of the [`admission`](crate::admission) table.

use crate::error::{checked_len, filled, too_large, with_room, SimError};
use noisy_channel::text::{Form, Grammar};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;

/// A description of a communication topology family.
///
/// The textual form (`Display` / [`FromStr`], both through
/// [`noisy_channel::text`]) round-trips exactly and is the spelling
/// scenario spec files use (`topology = regular(8)`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum TopologySpec {
    /// The complete graph: every push lands on a uniformly random node
    /// (the paper's model; the default).
    #[default]
    Complete,
    /// The cycle: node `i` is adjacent to `i ± 1 (mod n)`.
    Ring,
    /// The 2-dimensional torus grid: `n` must be a perfect square
    /// `side²`; node `(r, c)` is adjacent to its four wrap-around grid
    /// neighbors.
    Torus2D,
    /// A uniformly random simple `d`-regular graph (stub matching with
    /// edge-swap repair); requires `1 ≤ d < n` and `n·d` even.
    RandomRegular {
        /// The degree `d` of every node.
        degree: usize,
    },
    /// The Erdős–Rényi graph `G(n, p)`: every unordered pair is an edge
    /// independently with probability `p ∈ [0, 1]`.
    ErdosRenyi {
        /// The edge probability.
        p: f64,
    },
}

impl TopologySpec {
    /// `true` for the complete graph (the paper's model).
    pub fn is_complete(&self) -> bool {
        matches!(self, TopologySpec::Complete)
    }

    /// `true` for families whose every realization is degree-homogeneous
    /// by construction — the complete graph, the ring, the torus and
    /// `regular(d)` — i.e. families with a single degree class, where all
    /// agents are exchangeable at the population level. (Strictly, a
    /// random `regular(d)` realization need not admit a vertex-transitive
    /// automorphism group; degree homogeneity is the property the
    /// block-counting aggregation actually needs, and the conventional
    /// name sticks.) `er(p)` is not: its realizations carry a nontrivial
    /// degree distribution, so the block-counting backend buckets them by
    /// exact degree only when explicitly requested.
    pub fn is_vertex_transitive(&self) -> bool {
        !matches!(self, TopologySpec::ErdosRenyi { .. })
    }

    /// `true` for the randomized families (`regular(d)`, `er(p)`) whose
    /// realizations can be resampled from a fresh RNG draw — the
    /// families edge churn ([`ChurnSpec::rewire`](crate::ChurnSpec))
    /// can rewire at phase boundaries. The deterministic families
    /// (`ring`, `torus`) have a single realization and nothing to
    /// resample; the complete graph has no materialized edges at all.
    pub fn is_resampleable(&self) -> bool {
        matches!(
            self,
            TopologySpec::RandomRegular { .. } | TopologySpec::ErdosRenyi { .. }
        )
    }

    /// Checks that this topology can be built over `num_nodes` agents.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] if the parameters are infeasible:
    /// a torus whose `n` is not a perfect square, a `regular(d)` with
    /// `d = 0`, `d ≥ n` or `n·d` odd, or an `er(p)` with `p` outside
    /// `[0, 1]`.
    pub fn check(&self, num_nodes: usize) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::InvalidTopology { reason });
        match *self {
            TopologySpec::Complete => Ok(()),
            TopologySpec::Ring => {
                // A 1-node "ring" would be a self-loop, breaking the
                // simple-graph invariant every built topology satisfies.
                if num_nodes >= 2 {
                    Ok(())
                } else {
                    fail(format!("ring needs at least 2 nodes, got {num_nodes}"))
                }
            }
            TopologySpec::Torus2D => {
                let side = (num_nodes as f64).sqrt().round() as usize;
                if side.checked_mul(side) == Some(num_nodes) {
                    Ok(())
                } else {
                    fail(format!(
                        "torus needs a perfect-square number of nodes, got {num_nodes}"
                    ))
                }
            }
            TopologySpec::RandomRegular { degree } => {
                if degree == 0 || degree >= num_nodes {
                    fail(format!(
                        "regular({degree}) needs 1 <= degree < n = {num_nodes}"
                    ))
                } else if !num_nodes.is_multiple_of(2) && !degree.is_multiple_of(2) {
                    fail(format!(
                        "regular({degree}) needs an even number of stubs, \
                         but n*d = {num_nodes}*{degree} is odd"
                    ))
                } else {
                    Ok(())
                }
            }
            TopologySpec::ErdosRenyi { p } => {
                if p.is_finite() && (0.0..=1.0).contains(&p) {
                    Ok(())
                } else {
                    fail(format!("{ER} needs a probability in [0, 1], got {p}"))
                }
            }
        }
    }
}

const COMPLETE: Form = "complete";
const RING: Form = "ring";
const TORUS: Form = "torus";
const TORUS2D: Form = "torus2d";
const REGULAR: Form = "regular(d)";
const ER: Form = "er(p)";
const ERDOS_RENYI: Form = "erdos-renyi(p)";
const TOPOLOGY: Grammar = Grammar::single(
    "topology",
    &[COMPLETE, RING, TORUS, TORUS2D, REGULAR, ER, ERDOS_RENYI],
);

impl fmt::Display for TopologySpec {
    /// The canonical spec-file spelling: `complete`, `ring`, `torus`,
    /// `regular(d)`, `er(p)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::Complete => TOPOLOGY.write(f, COMPLETE, &[]),
            TopologySpec::Ring => TOPOLOGY.write(f, RING, &[]),
            TopologySpec::Torus2D => TOPOLOGY.write(f, TORUS, &[]),
            TopologySpec::RandomRegular { degree } => TOPOLOGY.write(f, REGULAR, &[&degree]),
            TopologySpec::ErdosRenyi { p } => TOPOLOGY.write(f, ER, &[&p]),
        }
    }
}

impl FromStr for TopologySpec {
    type Err = String;

    /// Parses the canonical spelling or its aliases `torus2d` and
    /// `erdos-renyi(p)`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let term = TOPOLOGY.parse(s)?;
        Ok(match term.form {
            COMPLETE => TopologySpec::Complete,
            RING => TopologySpec::Ring,
            TORUS | TORUS2D => TopologySpec::Torus2D,
            REGULAR => TopologySpec::RandomRegular { degree: term.arg(0)? },
            _ => TopologySpec::ErdosRenyi { p: term.arg(0)? },
        })
    }
}

/// Where the pushes of one round go: [`AnyNode`] on the complete graph,
/// [`NeighborRows`] on every other family. The agent backend picks the
/// route once per round, so no push re-tests the family.
pub(crate) trait Route {
    /// `true` if `node` has someone to push to.
    fn can_push(&self, node: usize) -> bool;

    /// Draws the destination of one push from `node` (guard with
    /// [`can_push`](Self::can_push)).
    fn destination(&self, node: usize, rng: &mut StdRng) -> usize;
}

/// The complete graph on `n` nodes: every agent pushes to a uniformly
/// random node, itself included, with one `gen_range(0..n)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AnyNode(pub(crate) usize);

impl Route for AnyNode {
    #[inline]
    fn can_push(&self, _node: usize) -> bool {
        true
    }

    #[inline]
    fn destination(&self, _node: usize, rng: &mut StdRng) -> usize {
        rng.gen_range(0..self.0)
    }
}

/// The CSR rows of a sparse graph: every agent pushes to a uniformly
/// random neighbor, and an agent without one stays silent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NeighborRows<'a> {
    offsets: &'a [usize],
    neighbors: &'a [u32],
}

impl Route for NeighborRows<'_> {
    #[inline]
    fn can_push(&self, node: usize) -> bool {
        self.offsets[node + 1] > self.offsets[node]
    }

    #[inline]
    fn destination(&self, node: usize, rng: &mut StdRng) -> usize {
        let row = &self.neighbors[self.offsets[node]..self.offsets[node + 1]];
        row[rng.gen_range(0..row.len())] as usize
    }
}

/// A materialized communication graph: flat CSR-style neighbor lists.
///
/// Built once by [`Topology::build`] and then read-only. The complete
/// graph stores no adjacency (destinations are drawn directly as
/// `gen_range(0..n)`, preserving the pre-topology RNG stream bit for
/// bit); every other family stores `offsets` (length `n + 1`) into a flat
/// `neighbors` array.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    spec: TopologySpec,
    num_nodes: usize,
    /// CSR row offsets (length `n + 1`); empty for the complete graph.
    offsets: Vec<usize>,
    /// Flat neighbor list; each undirected edge appears twice.
    neighbors: Vec<u32>,
}

impl Topology {
    /// Builds the graph described by `spec` over `num_nodes` agents.
    ///
    /// `rng` drives the construction of random families (`regular(d)`,
    /// `er(p)`); deterministic families never touch it. Callers that need
    /// a stable delivery RNG stream (the simulator does) should pass a
    /// *dedicated* RNG derived from the seed.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] under the same conditions as
    /// [`TopologySpec::check`], or if a random-regular graph could not be
    /// realized (practically unreachable for feasible `(n, d)`).
    pub fn build(
        spec: TopologySpec,
        num_nodes: usize,
        rng: &mut StdRng,
    ) -> Result<Self, SimError> {
        spec.check(num_nodes)?;
        let edges = match spec {
            TopologySpec::Complete => {
                return Ok(Self {
                    spec,
                    num_nodes,
                    offsets: Vec::new(),
                    neighbors: Vec::new(),
                })
            }
            TopologySpec::Ring => ring_edges(num_nodes)?,
            TopologySpec::Torus2D => torus_edges(num_nodes)?,
            TopologySpec::RandomRegular { degree } => {
                random_regular_edges(num_nodes, degree, rng)?
            }
            TopologySpec::ErdosRenyi { p } => erdos_renyi_edges(num_nodes, p, rng),
        };
        let (offsets, neighbors) = csr_from_edges(num_nodes, &edges)?;
        Ok(Self {
            spec,
            num_nodes,
            offsets,
            neighbors,
        })
    }

    /// The family this graph was built from.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// Re-sizes a **complete** graph in place (population churn moves `n`
    /// at phase boundaries; the complete graph stores no adjacency, so the
    /// destination range is the only state to update).
    pub(crate) fn resize_complete(&mut self, num_nodes: usize) {
        debug_assert!(
            self.is_complete(),
            "only the adjacency-free complete graph can be resized in place"
        );
        self.num_nodes = num_nodes;
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// `true` for the complete graph.
    pub fn is_complete(&self) -> bool {
        self.spec.is_complete()
    }

    /// The number of undirected edges (`n·(n−1)/2` for the complete
    /// graph).
    pub fn num_edges(&self) -> u64 {
        if self.is_complete() {
            let n = self.num_nodes as u64;
            n * (n - 1) / 2
        } else {
            self.neighbors.len() as u64 / 2
        }
    }

    /// The degree of `node`. On the complete graph every node can reach
    /// all `n` nodes (pushes may land on the sender itself, exactly like
    /// the paper's uniform push).
    pub fn degree(&self, node: usize) -> usize {
        if self.is_complete() {
            self.num_nodes
        } else {
            self.offsets[node + 1] - self.offsets[node]
        }
    }

    /// The neighbor list of `node` (empty slice on the complete graph,
    /// which stores no adjacency).
    pub fn neighbors(&self, node: usize) -> &[u32] {
        if self.is_complete() {
            &[]
        } else {
            &self.neighbors[self.offsets[node]..self.offsets[node + 1]]
        }
    }

    /// `true` if `node` has someone to push to (always true on the
    /// complete graph; sparse nodes with degree 0 — possible under
    /// `er(p)` — stay silent).
    pub fn can_push(&self, node: usize) -> bool {
        if self.is_complete() {
            AnyNode(self.num_nodes).can_push(node)
        } else {
            self.neighbor_rows().can_push(node)
        }
    }

    /// Draws the destination of one push from `node`: a uniformly random
    /// node on the complete graph (one `gen_range(0..n)`, bit-identical
    /// to the pre-topology simulator), a uniformly random neighbor
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `node` has no neighbors (guard with
    /// [`can_push`](Self::can_push)).
    pub fn push_destination(&self, node: usize, rng: &mut StdRng) -> usize {
        if self.is_complete() {
            AnyNode(self.num_nodes).destination(node, rng)
        } else {
            self.neighbor_rows().destination(node, rng)
        }
    }

    /// The [`Route`] of a graph that is not complete: its neighbor rows.
    pub(crate) fn neighbor_rows(&self) -> NeighborRows<'_> {
        NeighborRows {
            offsets: &self.offsets,
            neighbors: &self.neighbors,
        }
    }

    /// `true` if the graph is connected (BFS from node 0; the complete
    /// graph trivially is). Used by tests and diagnostics — consensus on
    /// a disconnected graph is generally unreachable.
    pub fn is_connected(&self) -> bool {
        if self.is_complete() {
            return true;
        }
        let n = self.num_nodes;
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(v) = queue.pop_front() {
            for &w in self.neighbors(v) {
                let w = w as usize;
                if !seen[w] {
                    seen[w] = true;
                    visited += 1;
                    queue.push_back(w);
                }
            }
        }
        visited == n
    }

    /// The degree-class decomposition of this graph, derived from the CSR
    /// adjacency in `O(n + |E|)`. This is the general (materialized) path;
    /// [`DegreeClasses::build`] derives the same decomposition
    /// analytically for the deterministic families without ever building
    /// the graph.
    pub fn degree_classes(&self) -> DegreeClasses {
        DegreeClasses::from_topology(self)
    }
}

/// The degree-class decomposition of a topology: nodes bucketed by exact
/// degree, plus the class-to-class directed edge counts.
///
/// This is the state space of the
/// [`CountLevelNetwork`](crate::blockcounting::CountLevelNetwork): within a
/// degree class all agents are exchangeable under uniform-neighbor push, so
/// delivery only needs to know *how many* messages flow from class `c` to
/// class `c'`, never which node sent them. A uniform push from a node of
/// class `c` lands in class `c'` with probability
/// `E[c][c'] / (n_c · d_c)`, where `E[c][c']` counts ordered adjacent
/// pairs — the per-class analogue of the complete graph's uniform
/// destination.
///
/// Degree-homogeneous families (ring, torus, `regular(d)`, complete) have
/// a single class (`C = 1`); `er(p)` realizations are bucketed by exact
/// degree. Classes are sorted by increasing degree and every class is
/// non-empty. Isolated nodes (degree 0, possible under `er(p)`) form a
/// silent class: they never push and never receive.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeClasses {
    /// Per-class population `n_c` (every class non-empty).
    sizes: Vec<u64>,
    /// Per-class degree `d_c`, strictly increasing across classes. The
    /// complete graph reports degree `n` (a push may land on the sender,
    /// exactly like the paper's uniform push).
    degrees: Vec<u64>,
    /// Row-major `C×C` matrix of directed edge counts `E[c][c']`: ordered
    /// pairs `(u, v)` with `u` in class `c`, `v` in class `c'` and `v`
    /// reachable from `u` in one push. Row sums satisfy
    /// `Σ_c' E[c][c'] = n_c · d_c`.
    edges: Vec<u64>,
    /// `node → class` map; `None` when `C = 1` (every node is class 0).
    class_of: Option<Vec<u32>>,
    num_nodes: usize,
}

impl DegreeClasses {
    /// A single-class decomposition: all `num_nodes` nodes share `degree`.
    fn single(num_nodes: usize, degree: u64) -> Self {
        Self {
            sizes: vec![num_nodes as u64],
            degrees: vec![degree],
            // Saturates only past n ≈ 4·10⁹ on the complete graph, where
            // the single class's destination probability is 1 either way.
            edges: vec![(num_nodes as u64).saturating_mul(degree)],
            class_of: None,
            num_nodes,
        }
    }

    /// Derives the decomposition for `spec` over `num_nodes` agents.
    ///
    /// Deterministic and degree-homogeneous families (`complete`, `ring`,
    /// `torus`, `regular(d)`) are resolved **analytically** — no graph is
    /// ever materialized, so construction is `O(1)` even at `n = 10⁷`.
    /// `regular(d)` is exact for *any* realization (every node has degree
    /// `d` by construction, and `E = n·d` directed pairs regardless of
    /// which matching was drawn). Only `er(p)` builds the graph: `rng`
    /// must then be the same dedicated topology RNG the agent backend
    /// uses, so both backends bucket the *same* realization.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] under the same conditions as
    /// [`TopologySpec::check`].
    pub fn build(
        spec: TopologySpec,
        num_nodes: usize,
        rng: &mut StdRng,
    ) -> Result<Self, SimError> {
        spec.check(num_nodes)?;
        Ok(match spec {
            TopologySpec::Complete => Self::single(num_nodes, num_nodes as u64),
            // n = 2 degenerates to a single edge (degree 1, not 2).
            TopologySpec::Ring => Self::single(num_nodes, if num_nodes == 2 { 1 } else { 2 }),
            TopologySpec::Torus2D => {
                // Wraparound parallels are deduplicated by the builder:
                // side = 1 is a single isolated node, side = 2 a 4-cycle.
                let side = (num_nodes as f64).sqrt().round() as usize;
                let degree = match side {
                    1 => 0,
                    2 => 2,
                    _ => 4,
                };
                Self::single(num_nodes, degree)
            }
            TopologySpec::RandomRegular { degree } => Self::single(num_nodes, degree as u64),
            TopologySpec::ErdosRenyi { .. } => {
                Topology::build(spec, num_nodes, rng)?.degree_classes()
            }
        })
    }

    /// Buckets a materialized graph by exact degree.
    fn from_topology(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        if topo.is_complete() {
            return Self::single(n, n as u64);
        }
        let mut distinct: Vec<usize> = (0..n).map(|v| topo.degree(v)).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let class_index = |deg: usize| distinct.binary_search(&deg).expect("degree was collected");
        let c = distinct.len();
        let mut sizes = vec![0u64; c];
        let mut edges = vec![0u64; c * c];
        let mut class_of = vec![0u32; n];
        for (v, slot) in class_of.iter_mut().enumerate() {
            let cv = class_index(topo.degree(v));
            *slot = cv as u32;
            sizes[cv] += 1;
        }
        for v in 0..n {
            let cv = class_of[v] as usize;
            for &w in topo.neighbors(v) {
                edges[cv * c + class_of[w as usize] as usize] += 1;
            }
        }
        Self {
            sizes,
            degrees: distinct.iter().map(|&d| d as u64).collect(),
            edges,
            class_of: (c > 1).then_some(class_of),
            num_nodes: n,
        }
    }

    /// The number of degree classes `C`.
    pub fn num_classes(&self) -> usize {
        self.sizes.len()
    }

    /// The total number of nodes across all classes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The population `n_c` of class `class`.
    pub fn size(&self, class: usize) -> u64 {
        self.sizes[class]
    }

    /// The common degree `d_c` of class `class`.
    pub fn degree(&self, class: usize) -> u64 {
        self.degrees[class]
    }

    /// The directed edge count `E[from][to]` (ordered adjacent pairs).
    pub fn directed_edges(&self, from: usize, to: usize) -> u64 {
        self.edges[from * self.num_classes() + to]
    }

    /// The class of `node`.
    pub fn class_of(&self, node: usize) -> usize {
        debug_assert!(node < self.num_nodes);
        match &self.class_of {
            Some(map) => map[node] as usize,
            None => 0,
        }
    }

    /// The destination-class distribution of a uniform push from class
    /// `from`: entry `c'` is `E[from][c'] / (n_from · d_from)`. All zeros
    /// for a silent (degree-0) class.
    pub fn destination_probabilities(&self, from: usize) -> Vec<f64> {
        let c = self.num_classes();
        let stubs = self.sizes[from].saturating_mul(self.degrees[from]);
        if stubs == 0 {
            return vec![0.0; c];
        }
        (0..c)
            .map(|to| self.edges[from * c + to] as f64 / stubs as f64)
            .collect()
    }
}

/// Cycle edges `i — i+1 (mod n)`, deduplicated for `n = 2`.
fn ring_edges(n: usize) -> Result<Vec<(u32, u32)>, SimError> {
    if n == 2 {
        return Ok(vec![(0, 1)]);
    }
    let mut edges = with_room(n, "ring edges")?;
    edges.extend((0..n).map(|i| (i as u32, ((i + 1) % n) as u32)));
    Ok(edges)
}

/// 2-D torus grid edges over `side × side` nodes (right and down per node
/// covers every edge once), deduplicated for `side ≤ 2` where wraparound
/// would create parallel edges.
fn torus_edges(n: usize) -> Result<Vec<(u32, u32)>, SimError> {
    let side = (n as f64).sqrt().round() as usize;
    debug_assert_eq!(side * side, n, "checked by TopologySpec::check");
    let mut edges = with_room(checked_len(n, 2, "torus edges")?, "torus edges")?;
    // xlint: allow(map-order) — dedup membership check only; edges are emitted in loop order, the set is never iterated
    let mut seen = HashSet::new();
    seen.try_reserve(edges.capacity())
        .map_err(|e| too_large(edges.capacity(), "torus edges", e))?;
    let id = |r: usize, c: usize| (r * side + c) as u32;
    for r in 0..side {
        for c in 0..side {
            let here = id(r, c);
            for (nr, nc) in [(r, (c + 1) % side), ((r + 1) % side, c)] {
                let there = id(nr, nc);
                if here != there && seen.insert(normalize(here, there)) {
                    edges.push((here, there));
                }
            }
        }
    }
    Ok(edges)
}

fn normalize(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A uniformly random simple `d`-regular graph via stub matching with
/// edge-swap repair: pair up shuffled stubs, then swap away self-loops and
/// parallel edges (the standard practical construction — plain rejection
/// has success probability `≈ e^{−(d²−1)/4}` per attempt and is hopeless
/// for `d = 8`).
fn random_regular_edges(
    n: usize,
    d: usize,
    rng: &mut StdRng,
) -> Result<Vec<(u32, u32)>, SimError> {
    let mut stubs: Vec<u32> = with_room(checked_len(n, d, "regular stubs")?, "regular stubs")?;
    for v in 0..n {
        stubs.extend(std::iter::repeat_n(v as u32, d));
    }
    let mut edges = with_room(stubs.len() / 2, "regular edges")?;
    for _attempt in 0..20 {
        stubs.shuffle(rng);
        edges.clear();
        edges.extend(stubs.chunks_exact(2).map(|c| (c[0], c[1])));
        if swap_repair(&mut edges, rng)? {
            return Ok(edges);
        }
    }
    Err(SimError::InvalidTopology {
        reason: format!("failed to realize a simple {d}-regular graph on {n} nodes"),
    })
}

/// Repairs a stub pairing in place: while a self-loop or parallel edge
/// remains, swap its endpoints with a random *good* edge when the swap
/// produces two fresh simple edges. Returns `false` if the iteration
/// budget runs out (caller reshuffles and retries).
fn swap_repair(edges: &mut [(u32, u32)], rng: &mut StdRng) -> Result<bool, SimError> {
    // xlint: allow(map-order) — membership insert/contains/remove only; repair order comes from the `bad` Vec and the seeded RNG, the set is never iterated
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    seen.try_reserve(edges.len())
        .map_err(|e| too_large(edges.len(), "regular edges", e))?;
    let mut bad: Vec<usize> = Vec::new();
    for (i, &(a, b)) in edges.iter().enumerate() {
        if a == b || !seen.insert(normalize(a, b)) {
            bad.push(i);
        }
    }
    let mut budget = 200 * edges.len() + 1_000;
    while let Some(&i) = bad.last() {
        if budget == 0 {
            return Ok(false);
        }
        budget -= 1;
        let j = rng.gen_range(0..edges.len());
        if j == i || bad.contains(&j) {
            continue;
        }
        let (a, b) = edges[i];
        let (c, d) = edges[j];
        // Propose the 2-swap (a,b),(c,d) → (a,d),(c,b).
        if a == d || c == b {
            continue;
        }
        let e1 = normalize(a, d);
        let e2 = normalize(c, b);
        if e1 == e2 || seen.contains(&e1) || seen.contains(&e2) {
            continue;
        }
        // Edge i was never inserted into `seen` (it is bad); edge j was.
        seen.remove(&normalize(c, d));
        seen.insert(e1);
        seen.insert(e2);
        edges[i] = (a, d);
        edges[j] = (c, b);
        bad.pop();
    }
    Ok(true)
}

/// `G(n, p)` via the Batagelj–Brandes geometric-skip enumeration: expected
/// `O(n + |E|)` time instead of `O(n²)` Bernoulli draws.
fn erdos_renyi_edges(n: usize, p: f64, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    if p <= 0.0 || n < 2 {
        return edges;
    }
    if p >= 1.0 {
        for v in 1..n {
            for w in 0..v {
                edges.push((w as u32, v as u32));
            }
        }
        return edges;
    }
    let ln_q = (1.0 - p).ln();
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < n {
        let r: f64 = rng.gen_range(0.0..1.0);
        w += 1 + ((1.0 - r).ln() / ln_q).floor() as i64;
        while v < n && w >= v as i64 {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            edges.push((w as u32, v as u32));
        }
    }
    edges
}

/// Builds CSR offsets + flat neighbor lists from an undirected edge list.
fn csr_from_edges(n: usize, edges: &[(u32, u32)]) -> Result<(Vec<usize>, Vec<u32>), SimError> {
    // Saturating: `usize::MAX` offsets cannot be reserved either.
    let rows = n.saturating_add(1);
    let mut offsets = filled(rows, 0usize, "CSR offsets")?;
    for &(a, b) in edges {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = with_room(rows, "CSR cursors")?;
    cursor.extend_from_slice(&offsets);
    let mut neighbors = filled(checked_len(edges.len(), 2, "neighbors")?, 0u32, "neighbors")?;
    for &(a, b) in edges {
        neighbors[cursor[a as usize]] = b;
        cursor[a as usize] += 1;
        neighbors[cursor[b as usize]] = a;
        cursor[b as usize] += 1;
    }
    Ok((offsets, neighbors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn build(spec: TopologySpec, n: usize) -> Topology {
        let mut rng = StdRng::seed_from_u64(7);
        Topology::build(spec, n, &mut rng).unwrap()
    }

    /// Every CSR invariant a built graph must satisfy: symmetric, simple,
    /// in-range.
    fn check_invariants(topo: &Topology) {
        let n = topo.num_nodes();
        let mut edge_count = 0u64;
        for v in 0..n {
            let row = topo.neighbors(v);
            assert_eq!(row.len(), topo.degree(v));
            let mut distinct = HashSet::new();
            for &w in row {
                let w = w as usize;
                assert!(w < n, "neighbor in range");
                assert_ne!(w, v, "no self-loops");
                assert!(distinct.insert(w), "no parallel edges");
                assert!(
                    topo.neighbors(w).contains(&(v as u32)),
                    "adjacency is symmetric"
                );
            }
            edge_count += row.len() as u64;
        }
        assert_eq!(edge_count / 2, topo.num_edges());
    }

    #[test]
    fn complete_stores_no_adjacency_and_always_pushes() {
        let topo = build(TopologySpec::Complete, 10);
        assert!(topo.is_complete());
        assert!(topo.neighbors(3).is_empty());
        assert_eq!(topo.degree(3), 10);
        assert_eq!(topo.num_edges(), 45);
        assert!(topo.can_push(0));
        assert!(topo.is_connected());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert!(topo.push_destination(0, &mut rng) < 10);
        }
    }

    #[test]
    fn ring_is_a_connected_2_regular_cycle() {
        let topo = build(TopologySpec::Ring, 9);
        check_invariants(&topo);
        assert!(topo.is_connected());
        for v in 0..9 {
            assert_eq!(topo.degree(v), 2);
        }
        assert!(topo.neighbors(0).contains(&1));
        assert!(topo.neighbors(0).contains(&8));
        // n = 2 degenerates to a single edge; n = 1 would be a self-loop
        // and is rejected.
        let tiny = build(TopologySpec::Ring, 2);
        check_invariants(&tiny);
        assert_eq!(tiny.degree(0), 1);
        assert!(tiny.is_connected());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            Topology::build(TopologySpec::Ring, 1, &mut rng),
            Err(SimError::InvalidTopology { .. })
        ));
    }

    #[test]
    fn torus_is_4_regular_on_a_square() {
        let topo = build(TopologySpec::Torus2D, 36);
        check_invariants(&topo);
        assert!(topo.is_connected());
        for v in 0..36 {
            assert_eq!(topo.degree(v), 4);
        }
        // Node (1, 1) = 7 touches 1, 13, 6, 8 on a 6 × 6 grid.
        let mut row: Vec<u32> = topo.neighbors(7).to_vec();
        row.sort_unstable();
        assert_eq!(row, vec![1, 6, 8, 13]);
        // Non-square sizes are rejected.
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            Topology::build(TopologySpec::Torus2D, 37, &mut rng),
            Err(SimError::InvalidTopology { .. })
        ));
        // side = 2 dedupes wraparound parallels: degree 2, not 4.
        let small = build(TopologySpec::Torus2D, 4);
        check_invariants(&small);
        assert_eq!(small.degree(0), 2);
    }

    #[test]
    fn random_regular_is_simple_regular_and_deterministic_in_the_seed() {
        for &(n, d) in &[(50usize, 3usize), (200, 8), (101, 4)] {
            let topo = build(TopologySpec::RandomRegular { degree: d }, n);
            check_invariants(&topo);
            for v in 0..n {
                assert_eq!(topo.degree(v), d, "every node has degree {d}");
            }
            assert!(topo.is_connected(), "regular({d}) on {n} nodes connects");
        }
        let a = build(TopologySpec::RandomRegular { degree: 8 }, 200);
        let b = build(TopologySpec::RandomRegular { degree: 8 }, 200);
        assert_eq!(a, b, "same seed, same graph");
        // Infeasible parameters are rejected up front.
        let mut rng = StdRng::seed_from_u64(1);
        for (n, d) in [(10, 0), (10, 10), (9, 3)] {
            assert!(matches!(
                Topology::build(TopologySpec::RandomRegular { degree: d }, n, &mut rng),
                Err(SimError::InvalidTopology { .. })
            ));
        }
    }

    #[test]
    fn erdos_renyi_matches_the_expected_edge_count() {
        let n = 2_000;
        let p = 0.01;
        let topo = build(TopologySpec::ErdosRenyi { p }, n);
        check_invariants(&topo);
        let expected = p * (n * (n - 1) / 2) as f64;
        let observed = topo.num_edges() as f64;
        assert!(
            (observed - expected).abs() < 4.0 * expected.sqrt(),
            "observed {observed}, expected {expected}"
        );
        // Extremes: p = 0 is empty (nobody can push), p = 1 is complete.
        let empty = build(TopologySpec::ErdosRenyi { p: 0.0 }, 50);
        assert_eq!(empty.num_edges(), 0);
        assert!(!empty.can_push(0));
        let full = build(TopologySpec::ErdosRenyi { p: 1.0 }, 20);
        check_invariants(&full);
        assert_eq!(full.num_edges(), 190);
        // Out-of-range probabilities are rejected.
        assert!(TopologySpec::ErdosRenyi { p: 1.5 }.check(10).is_err());
        assert!(TopologySpec::ErdosRenyi { p: f64::NAN }.check(10).is_err());
    }

    #[test]
    fn push_destination_is_a_uniform_neighbor() {
        let topo = build(TopologySpec::Ring, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = [0u32; 10];
        for _ in 0..10_000 {
            hits[topo.push_destination(5, &mut rng)] += 1;
        }
        assert_eq!(hits[4] + hits[6], 10_000, "only the two ring neighbors");
        let frac = f64::from(hits[4]) / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "uniform split, got {frac}");
    }

    /// Row sums of the directed edge-count matrix must equal the stub
    /// count `n_c · d_c` of each class, and sizes must cover every node.
    fn check_class_invariants(classes: &DegreeClasses) {
        let c = classes.num_classes();
        let total: u64 = (0..c).map(|i| classes.size(i)).sum();
        assert_eq!(total, classes.num_nodes() as u64);
        for i in 0..c {
            assert!(classes.size(i) > 0, "class {i} is non-empty");
            if i > 0 {
                assert!(classes.degree(i) > classes.degree(i - 1), "sorted by degree");
            }
            let row: u64 = (0..c).map(|j| classes.directed_edges(i, j)).sum();
            assert_eq!(row, classes.size(i) * classes.degree(i), "row sum = stubs");
            let probs = classes.destination_probabilities(i);
            let mass: f64 = probs.iter().sum();
            if classes.degree(i) > 0 {
                assert!((mass - 1.0).abs() < 1e-12, "probabilities sum to 1");
            } else {
                assert_eq!(mass, 0.0, "silent class pushes nowhere");
            }
        }
    }

    #[test]
    fn analytic_degree_classes_match_the_materialized_graph() {
        // Every degree-homogeneous family, including the degenerate
        // dedup cases (ring n = 2, torus side ≤ 2), must agree with the
        // CSR-derived bucketing of the same realization.
        let cases = [
            (TopologySpec::Complete, 10usize),
            (TopologySpec::Ring, 9),
            (TopologySpec::Ring, 2),
            (TopologySpec::Torus2D, 36),
            (TopologySpec::Torus2D, 4),
            (TopologySpec::Torus2D, 1),
            (TopologySpec::RandomRegular { degree: 8 }, 200),
            (TopologySpec::RandomRegular { degree: 3 }, 50),
        ];
        for (spec, n) in cases {
            let mut rng = StdRng::seed_from_u64(7);
            let analytic = DegreeClasses::build(spec, n, &mut rng).unwrap();
            let materialized = build(spec, n).degree_classes();
            assert_eq!(analytic, materialized, "{spec} on {n} nodes");
            check_class_invariants(&analytic);
            assert_eq!(analytic.num_classes(), 1, "{spec} is degree-homogeneous");
            assert_eq!(analytic.class_of(n - 1), 0);
        }
        assert!(matches!(
            DegreeClasses::build(TopologySpec::Torus2D, 37, &mut StdRng::seed_from_u64(7)),
            Err(SimError::InvalidTopology { .. })
        ));
    }

    #[test]
    fn erdos_renyi_degree_classes_bucket_the_same_realization() {
        let spec = TopologySpec::ErdosRenyi { p: 0.01 };
        let n = 2_000;
        let topo = build(spec, n);
        let mut rng = StdRng::seed_from_u64(7);
        let classes = DegreeClasses::build(spec, n, &mut rng).unwrap();
        assert_eq!(classes, topo.degree_classes(), "same seed, same buckets");
        check_class_invariants(&classes);
        assert!(classes.num_classes() > 1, "er(p) has a degree distribution");
        for v in 0..n {
            assert_eq!(
                classes.degree(classes.class_of(v)),
                topo.degree(v) as u64,
                "node {v} sits in the class of its own degree"
            );
        }
        // Directed edges are symmetric in aggregate: E[c][c'] = E[c'][c].
        for i in 0..classes.num_classes() {
            for j in 0..classes.num_classes() {
                assert_eq!(classes.directed_edges(i, j), classes.directed_edges(j, i));
            }
        }
    }

    #[test]
    fn vertex_transitivity_is_a_family_property() {
        assert!(TopologySpec::Complete.is_vertex_transitive());
        assert!(TopologySpec::Ring.is_vertex_transitive());
        assert!(TopologySpec::Torus2D.is_vertex_transitive());
        assert!(TopologySpec::RandomRegular { degree: 8 }.is_vertex_transitive());
        assert!(!TopologySpec::ErdosRenyi { p: 0.5 }.is_vertex_transitive());
    }

    #[test]
    fn spec_text_round_trips() {
        let specs = [
            TopologySpec::Complete,
            TopologySpec::Ring,
            TopologySpec::Torus2D,
            TopologySpec::RandomRegular { degree: 8 },
            TopologySpec::ErdosRenyi { p: 0.001 },
        ];
        for spec in specs {
            let text = spec.to_string();
            assert_eq!(text.parse::<TopologySpec>().unwrap(), spec, "{text}");
        }
        assert_eq!("TORUS2D".parse::<TopologySpec>().unwrap(), TopologySpec::Torus2D);
        assert_eq!(
            "erdos-renyi(0.5)".parse::<TopologySpec>().unwrap(),
            TopologySpec::ErdosRenyi { p: 0.5 }
        );
        assert!("hypercube".parse::<TopologySpec>().is_err());
        assert!("regular(x)".parse::<TopologySpec>().is_err());
        assert_eq!(TopologySpec::default(), TopologySpec::Complete);
    }
}
