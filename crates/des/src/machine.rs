//! Machine model: topology, link parameters and per-run randomness.

use pselinv_trees::rng::{hash2, splitmix64};

/// Parameters of the simulated machine. Defaults approximate NERSC Edison
/// (Cray XC30): 24-core Ivy Bridge nodes, ~10 GFlop/s effective per-core
/// DGEMM rate, Aries interconnect.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Ranks packed per node.
    pub ranks_per_node: usize,
    /// Effective per-rank compute rate in flop/s.
    pub flops_per_sec: f64,
    /// Latency of an intra-node message (seconds).
    pub latency_intra: f64,
    /// Base latency of an inter-node message (seconds).
    pub latency_inter: f64,
    /// Intra-node bandwidth (bytes/s) — shared-memory copies.
    pub bw_intra: f64,
    /// Base inter-node bandwidth per NIC (bytes/s).
    pub bw_inter: f64,
    /// Fixed per-message overhead added to NIC occupancy (seconds) —
    /// penalizes many small messages.
    pub msg_overhead: f64,
    /// CPU time the *sending rank's core* spends per `MPI_Isend`
    /// (marshalling + injection call). A flat-tree root issues `p̄-1` of
    /// these back to back, stalling its own compute — one of the
    /// mechanisms behind the paper's flat-tree hot spots.
    pub cpu_per_msg: f64,
    /// Fixed per-task dispatch overhead (seconds).
    pub task_overhead: f64,
    /// Relative spread of the per-node-pair inter-node link factor
    /// (0 = homogeneous network, 0.3 = links vary by ±30 %).
    pub jitter: f64,
    /// Per-run seed: selects node placement and link factors.
    pub seed: u64,
    /// When `false`, NIC serialization is disabled (every transfer sees a
    /// dedicated link) — the ablation showing end-point contention is what
    /// separates the tree schemes.
    pub nic_contention: bool,
    /// When `true` (Cray XC30-like), all ranks of a node additionally
    /// share one node-level NIC for inter-node traffic (with
    /// `node_bw_factor × bw_inter` aggregate bandwidth); intra-node
    /// messages bypass it (shared-memory copies). Per-rank injection is
    /// always serialized — an MPI rank issues its sends one at a time,
    /// which is what makes a flat-tree root a hot spot.
    pub nic_per_node: bool,
    /// Aggregate node NIC bandwidth as a multiple of the per-rank
    /// injection bandwidth `bw_inter`.
    pub node_bw_factor: f64,
    /// When `true`, tree-forwarding tasks occupy the compute core like any
    /// other task (MPI progress driven by application polling); when
    /// `false` they run on an asynchronous progress engine.
    pub forward_on_core: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            ranks_per_node: 24,
            flops_per_sec: 10e9,
            latency_intra: 8e-7,
            latency_inter: 2.5e-6,
            bw_intra: 8e9,
            bw_inter: 3e9,
            msg_overhead: 1.2e-6,
            cpu_per_msg: 1.5e-6,
            task_overhead: 2e-7,
            jitter: 0.35,
            seed: 0,
            nic_contention: true,
            nic_per_node: true,
            node_bw_factor: 4.0,
            forward_on_core: true,
        }
    }
}

impl MachineConfig {
    /// Checks that the simulator can run on this machine, naming the first
    /// field it cannot: rates and bandwidths divide, so they must be
    /// finite and positive; times and the jitter spread add to the clock,
    /// so they must be finite and non-negative. Anything else puts NaN or
    /// negative times into the event queue, whose order then means
    /// nothing.
    pub fn check(&self) -> Result<(), String> {
        if self.ranks_per_node == 0 {
            return Err("ranks_per_node is 0".into());
        }
        for (name, v) in [
            ("flops_per_sec", self.flops_per_sec),
            ("bw_intra", self.bw_intra),
            ("bw_inter", self.bw_inter),
            ("node_bw_factor", self.node_bw_factor),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} is {v}, not a finite positive number"));
            }
        }
        for (name, v) in [
            ("latency_intra", self.latency_intra),
            ("latency_inter", self.latency_inter),
            ("msg_overhead", self.msg_overhead),
            ("cpu_per_msg", self.cpu_per_msg),
            ("task_overhead", self.task_overhead),
            ("jitter", self.jitter),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} is {v}, not a finite non-negative number"));
            }
        }
        Ok(())
    }
}

/// Resolved per-run topology: rank→physical-node placement plus link
/// factor hashing.
#[derive(Clone, Debug)]
pub struct Topology {
    cfg: MachineConfig,
    /// Physical node of each rank.
    node_of_rank: Vec<u32>,
}

impl Topology {
    /// Builds the topology for `nranks` ranks: ranks fill logical nodes
    /// consecutively; logical nodes are then mapped to physical nodes by a
    /// seeded random permutation (per-run placement).
    pub fn new(nranks: usize, cfg: MachineConfig) -> Self {
        let nodes = nranks.div_ceil(cfg.ranks_per_node);
        // Seeded Fisher–Yates over node ids.
        let mut phys: Vec<u32> = (0..nodes as u32).collect();
        let mut state = splitmix64(cfg.seed ^ 0x70b0);
        for i in (1..nodes).rev() {
            state = splitmix64(state);
            let j = (state % (i as u64 + 1)) as usize;
            phys.swap(i, j);
        }
        let node_of_rank = (0..nranks).map(|r| phys[r / cfg.ranks_per_node]).collect();
        Self { cfg, node_of_rank }
    }

    /// Physical node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> u32 {
        self.node_of_rank[rank]
    }

    /// `true` when both ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of_rank[a] == self.node_of_rank[b]
    }

    /// Random multiplicative cost factor (≥ 1) of the link between two
    /// physical nodes: distant/congested node pairs are slower. Drawn by
    /// hashing `(seed, node pair)` so it is stable within a run and
    /// re-drawn across runs.
    fn pair_factor(&self, a: u32, b: u32) -> f64 {
        if self.cfg.jitter == 0.0 {
            return 1.0;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let h = hash2(self.cfg.seed ^ 0x11f0, ((lo as u64) << 32) | hi as u64);
        // uniform in [1, 1 + 2*jitter]
        1.0 + 2.0 * self.cfg.jitter * (h as f64 / u64::MAX as f64)
    }

    /// Latency of a message between two ranks (seconds).
    pub fn latency(&self, src: usize, dst: usize) -> f64 {
        if self.same_node(src, dst) {
            self.cfg.latency_intra
        } else {
            self.cfg.latency_inter * self.pair_factor(self.node_of(src), self.node_of(dst))
        }
    }

    /// Seconds of NIC occupancy to move `bytes` between two ranks.
    pub fn transfer_time(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        let t = if self.same_node(src, dst) {
            bytes as f64 / self.cfg.bw_intra
        } else {
            bytes as f64 / self.cfg.bw_inter
                * self.pair_factor(self.node_of(src), self.node_of(dst))
        };
        t + self.cfg.msg_overhead
    }

    /// The random link-cost factor between the nodes of two ranks (1.0
    /// within a node). Applied to node-NIC occupancy as well, so the
    /// per-run inhomogeneity reaches the binding resource.
    pub fn pair_cost_factor(&self, src: usize, dst: usize) -> f64 {
        if self.same_node(src, dst) {
            1.0
        } else {
            self.pair_factor(self.node_of(src), self.node_of(dst))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_names_every_field_it_rejects() {
        let ok = MachineConfig::default();
        assert_eq!(ok.check(), Ok(()));
        let zero_time = MachineConfig { task_overhead: 0.0, jitter: 0.0, ..ok };
        assert_eq!(zero_time.check(), Ok(()), "zero times are a legal machine");
        let bad: [(&str, MachineConfig); 16] = [
            ("ranks_per_node", MachineConfig { ranks_per_node: 0, ..ok }),
            ("flops_per_sec", MachineConfig { flops_per_sec: 0.0, ..ok }),
            ("flops_per_sec", MachineConfig { flops_per_sec: f64::INFINITY, ..ok }),
            ("bw_intra", MachineConfig { bw_intra: f64::NAN, ..ok }),
            ("bw_inter", MachineConfig { bw_inter: 0.0, ..ok }),
            ("bw_inter", MachineConfig { bw_inter: -3e9, ..ok }),
            ("node_bw_factor", MachineConfig { node_bw_factor: 0.0, ..ok }),
            ("latency_intra", MachineConfig { latency_intra: -1e-6, ..ok }),
            ("latency_inter", MachineConfig { latency_inter: f64::NAN, ..ok }),
            ("msg_overhead", MachineConfig { msg_overhead: f64::INFINITY, ..ok }),
            ("cpu_per_msg", MachineConfig { cpu_per_msg: -1.0, ..ok }),
            ("task_overhead", MachineConfig { task_overhead: f64::NAN, ..ok }),
            ("task_overhead", MachineConfig { task_overhead: -0.1, ..ok }),
            ("jitter", MachineConfig { jitter: -0.35, ..ok }),
            ("jitter", MachineConfig { jitter: f64::NAN, ..ok }),
            ("bw_intra", MachineConfig { bw_intra: 0.0, jitter: -1.0, ..ok }),
        ];
        for (field, cfg) in bad {
            let why = cfg.check().expect_err(field);
            assert!(why.starts_with(field), "{field}: message is {why:?}");
        }
    }

    #[test]
    fn ranks_pack_onto_nodes() {
        let cfg = MachineConfig { ranks_per_node: 4, jitter: 0.0, ..Default::default() };
        let t = Topology::new(10, cfg);
        assert!(t.same_node(0, 3));
        assert!(!t.same_node(3, 4));
        assert!(t.same_node(8, 9));
    }

    #[test]
    fn intra_node_is_cheaper() {
        let cfg = MachineConfig { ranks_per_node: 4, ..Default::default() };
        let t = Topology::new(8, cfg);
        assert!(t.latency(0, 1) < t.latency(0, 5));
        assert!(t.transfer_time(0, 1, 1 << 20) < t.transfer_time(0, 5, 1 << 20));
    }

    #[test]
    fn placement_varies_with_seed() {
        let mk = |seed| {
            Topology::new(96, MachineConfig { seed, ranks_per_node: 24, ..Default::default() })
        };
        let a = mk(1);
        let b = mk(2);
        let nodes_a: Vec<u32> = (0..96).map(|r| a.node_of(r)).collect();
        let nodes_b: Vec<u32> = (0..96).map(|r| b.node_of(r)).collect();
        assert_ne!(nodes_a, nodes_b, "placements should differ across seeds");
        // but each run is internally deterministic
        let a2 = mk(1);
        assert_eq!(nodes_a, (0..96).map(|r| a2.node_of(r)).collect::<Vec<_>>());
    }

    #[test]
    fn jitter_spreads_link_costs() {
        let cfg = MachineConfig { ranks_per_node: 1, jitter: 0.4, ..Default::default() };
        let t = Topology::new(40, cfg);
        let costs: Vec<f64> = (1..40).map(|d| t.transfer_time(0, d, 1 << 20)).collect();
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.2, "jitter should spread link costs: {min} vs {max}");
    }

    #[test]
    fn zero_jitter_is_homogeneous() {
        let cfg = MachineConfig { ranks_per_node: 1, jitter: 0.0, ..Default::default() };
        let t = Topology::new(10, cfg);
        let c1 = t.transfer_time(0, 5, 4096);
        let c2 = t.transfer_time(3, 9, 4096);
        assert_eq!(c1, c2);
    }
}
