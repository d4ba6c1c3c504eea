//! Critical-path extraction from a simulated schedule.
//!
//! The DES engine records, for every task, when it became ready, when it
//! ran, and *which* predecessor bound its start time: the last task on
//! the same core (the rank was busy), a local dependency, or a message
//! (with its injection and delivery times). Walking those binding
//! predecessors backward from the last task to finish yields the
//! critical path — the single chain of task executions, message
//! transfers and idle gaps whose total length *is* the makespan. Its
//! per-kind breakdown answers the scalability question directly: is the
//! run bound by compute, by Col-Bcast forwarding, by Row-Reduce, or by
//! waiting?

use pselinv_des::{CritPred, SimProfile};
use pselinv_dist::taskgraph::{TaskGraph, TaskId};
use pselinv_trace::{unpack_task_tag, CollKind, Json};

/// What one critical-path segment was doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// A task executing on a core.
    Task,
    /// A message in flight (send NIC + network + receive NIC).
    Transfer,
    /// The destination core idle with nothing runnable.
    Wait,
}

impl StepKind {
    pub fn name(self) -> &'static str {
        match self {
            StepKind::Task => "task",
            StepKind::Transfer => "transfer",
            StepKind::Wait => "wait",
        }
    }
}

/// One segment of the critical path, in forward time order.
#[derive(Clone, Copy, Debug)]
pub struct CritStep {
    pub kind: StepKind,
    /// Collective kind of the task executed / being enabled.
    pub coll: CollKind,
    /// The executed task ([`StepKind::Task`] only).
    pub task: Option<TaskId>,
    /// Rank the segment is attributed to (destination rank for
    /// transfers).
    pub rank: u32,
    pub start_us: u64,
    pub end_us: u64,
}

impl CritStep {
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// The critical path of one simulated run.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Segments in forward time order; contiguous from 0 to the
    /// makespan.
    pub steps: Vec<CritStep>,
    /// End time of the last task (µs) — the simulated makespan.
    pub makespan_us: u64,
}

impl CriticalPath {
    /// Extracts the critical path of the schedule recorded in `prof`.
    ///
    /// Starting from the task with the latest end time, each step's
    /// binding predecessor is followed backward: a [`CritPred::Msg`]
    /// contributes a transfer segment, and any gap the recorded
    /// boundaries do not explain becomes an explicit wait segment, so
    /// the returned path is contiguous and its length equals the
    /// makespan exactly.
    pub fn extract(graph: &TaskGraph, prof: &SimProfile) -> Self {
        let n = graph.num_tasks();
        assert!(n > 0, "empty task graph has no critical path");
        assert_eq!(prof.task_end_us.len(), n, "profile does not match graph");
        let mut t: TaskId = 0;
        for i in 1..n {
            if prof.task_end_us[i] > prof.task_end_us[t as usize] {
                t = i as TaskId;
            }
        }
        let makespan_us = prof.task_end_us[t as usize];
        let mut steps = Vec::new();
        loop {
            let ti = t as usize;
            let rank = graph.tasks()[ti].rank;
            let (coll, _) = unpack_task_tag(graph.tasks()[ti].tag);
            let start = prof.task_start_us[ti];
            steps.push(CritStep {
                kind: StepKind::Task,
                coll,
                task: Some(t),
                rank,
                start_us: start,
                end_us: prof.task_end_us[ti],
            });
            let gap = |steps: &mut Vec<CritStep>, from: u64| {
                if start > from {
                    steps.push(CritStep {
                        kind: StepKind::Wait,
                        coll,
                        task: None,
                        rank,
                        start_us: from,
                        end_us: start,
                    });
                }
            };
            match prof.pred[ti] {
                CritPred::None => {
                    gap(&mut steps, 0);
                    break;
                }
                CritPred::Dep(p) | CritPred::RankPrev(p) => {
                    gap(&mut steps, prof.task_end_us[p as usize]);
                    t = p;
                }
                CritPred::Msg { src_task, sent_us, deliver_us } => {
                    gap(&mut steps, deliver_us);
                    if deliver_us > sent_us {
                        steps.push(CritStep {
                            kind: StepKind::Transfer,
                            coll,
                            task: None,
                            rank,
                            start_us: sent_us,
                            end_us: deliver_us,
                        });
                    }
                    // The message is injected when its producer finishes,
                    // so this closes the chain back to src_task with no
                    // gap; guard anyway so the path stays contiguous.
                    let pe = prof.task_end_us[src_task as usize];
                    if sent_us > pe {
                        steps.push(CritStep {
                            kind: StepKind::Wait,
                            coll,
                            task: None,
                            rank: graph.tasks()[src_task as usize].rank,
                            start_us: pe,
                            end_us: sent_us,
                        });
                    }
                    t = src_task;
                }
            }
        }
        steps.reverse();
        CriticalPath { steps, makespan_us }
    }

    /// Total length of the path (µs); equals [`CriticalPath::makespan_us`]
    /// because the path is contiguous.
    pub fn length_us(&self) -> u64 {
        self.steps.iter().map(CritStep::dur_us).sum()
    }

    /// Time spent executing tasks of `coll` on the path.
    pub fn task_us(&self, coll: CollKind) -> u64 {
        self.steps
            .iter()
            .filter(|s| s.kind == StepKind::Task && s.coll == coll)
            .map(CritStep::dur_us)
            .sum()
    }

    /// Time spent in message transfers on the path.
    pub fn transfer_us(&self) -> u64 {
        self.steps.iter().filter(|s| s.kind == StepKind::Transfer).map(CritStep::dur_us).sum()
    }

    /// Idle time on the path.
    pub fn wait_us(&self) -> u64 {
        self.steps.iter().filter(|s| s.kind == StepKind::Wait).map(CritStep::dur_us).sum()
    }

    /// Ranks the path visits (task segments only, consecutive
    /// duplicates collapsed).
    pub fn rank_sequence(&self) -> Vec<u32> {
        let mut seq: Vec<u32> = Vec::new();
        for s in &self.steps {
            if s.kind == StepKind::Task && seq.last() != Some(&s.rank) {
                seq.push(s.rank);
            }
        }
        seq
    }

    /// Per-category breakdown as `(name, µs)` pairs: one `task:<kind>`
    /// entry per active kind, then `transfer` and `wait`.
    pub fn breakdown(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for coll in CollKind::ALL {
            let us = self.task_us(coll);
            if us > 0 || self.steps.iter().any(|s| s.kind == StepKind::Task && s.coll == coll) {
                out.push((format!("task:{}", coll.name()), us));
            }
        }
        out.push(("transfer".to_string(), self.transfer_us()));
        out.push(("wait".to_string(), self.wait_us()));
        out
    }

    /// ASCII summary: length vs makespan, breakdown percentages, and the
    /// rank sequence.
    pub fn ascii(&self) -> String {
        let len = self.length_us().max(1);
        let mut out = format!(
            "critical path: {} segments, {} µs (makespan {} µs)\n",
            self.steps.len(),
            self.length_us(),
            self.makespan_us
        );
        for (name, us) in self.breakdown() {
            out.push_str(&format!(
                "  {name:<18} {us:>12} µs  ({:5.1}%)\n",
                us as f64 * 100.0 / len as f64
            ));
        }
        let seq = self.rank_sequence();
        let shown: Vec<String> = seq.iter().take(24).map(u32::to_string).collect();
        let ell = if seq.len() > 24 { " -> ..." } else { "" };
        out.push_str(&format!(
            "  rank sequence ({} hops): {}{}\n",
            seq.len().saturating_sub(1),
            shown.join(" -> "),
            ell
        ));
        out
    }

    /// JSON rendering.
    pub fn json(&self) -> Json {
        let steps = self
            .steps
            .iter()
            .map(|s| {
                Json::obj([
                    ("kind", s.kind.name().into()),
                    ("coll", s.coll.name().into()),
                    ("task", s.task.map_or(Json::Null, |t| Json::from(t as u64))),
                    ("rank", (s.rank as u64).into()),
                    ("start_us", s.start_us.into()),
                    ("end_us", s.end_us.into()),
                ])
            })
            .collect();
        let breakdown =
            Json::Obj(self.breakdown().into_iter().map(|(k, v)| (k, Json::from(v))).collect());
        Json::obj([
            ("makespan_us", self.makespan_us.into()),
            ("length_us", self.length_us().into()),
            ("breakdown", breakdown),
            (
                "rank_sequence",
                Json::Arr(self.rank_sequence().iter().map(|&r| Json::from(r as u64)).collect()),
            ),
            ("steps", Json::Arr(steps)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_des::{simulate_profiled, MachineConfig};
    use pselinv_dist::taskgraph::{Task, TaskKind};
    use pselinv_trace::pack_task_tag;

    fn flat_cfg() -> MachineConfig {
        MachineConfig {
            ranks_per_node: 1,
            jitter: 0.0,
            msg_overhead: 0.0,
            task_overhead: 0.0,
            latency_intra: 0.0,
            latency_inter: 0.0,
            cpu_per_msg: 0.0,
            nic_per_node: false,
            ..Default::default()
        }
    }

    /// Hand-built graph: tasks as `(rank, flops, coll)`, edges as
    /// `(from, to, bytes)`.
    fn graph(
        nranks: usize,
        tasks: &[(usize, f64, CollKind)],
        edges: &[(u32, u32, u64)],
    ) -> TaskGraph {
        let tasks = tasks
            .iter()
            .map(|&(r, f, c)| Task::new(r, f, 0, TaskKind::Compute, pack_task_tag(c, 0)))
            .collect();
        TaskGraph::from_edge_list(nranks, tasks, edges)
    }

    fn assert_contiguous(cp: &CriticalPath) {
        assert!(!cp.steps.is_empty());
        assert_eq!(cp.steps[0].start_us, 0, "path must start at t=0");
        for w in cp.steps.windows(2) {
            assert_eq!(w[0].end_us, w[1].start_us, "gap between {:?} and {:?}", w[0], w[1]);
        }
        assert_eq!(cp.steps.last().unwrap().end_us, cp.makespan_us);
    }

    #[test]
    fn serial_chain_path_equals_makespan() {
        // 1 s + 2 s + 1 s on one rank: the whole run is the path.
        let g = graph(
            1,
            &[
                (0, 10e9, CollKind::Compute),
                (0, 20e9, CollKind::Compute),
                (0, 10e9, CollKind::Compute),
            ],
            &[(0, 1, 0), (1, 2, 0)],
        );
        let (res, _, prof) = simulate_profiled(&g, flat_cfg(), "cp/serial", &[]);
        let cp = CriticalPath::extract(&g, &prof);
        assert_contiguous(&cp);
        assert_eq!(cp.length_us(), cp.makespan_us);
        assert_eq!(cp.makespan_us, (res.makespan * 1e6) as u64);
        assert_eq!(cp.steps.len(), 3);
        assert!(cp.steps.iter().all(|s| s.kind == StepKind::Task));
        assert_eq!(cp.task_us(CollKind::Compute), cp.length_us());
        assert_eq!(cp.rank_sequence(), vec![0]);
    }

    #[test]
    fn cross_rank_message_appears_as_transfer() {
        // rank 0 computes 1 s, ships 3 GB (2 s on the wire with
        // store-and-forward NICs), rank 1 computes 1 s.
        let g = graph(
            2,
            &[(0, 10e9, CollKind::Compute), (1, 10e9, CollKind::ColBcast)],
            &[(0, 1, 3_000_000_000)],
        );
        let (res, _, prof) = simulate_profiled(&g, flat_cfg(), "cp/xfer", &[]);
        let cp = CriticalPath::extract(&g, &prof);
        assert_contiguous(&cp);
        assert_eq!(cp.length_us(), cp.makespan_us);
        assert_eq!(cp.makespan_us, (res.makespan * 1e6) as u64);
        let xfer = cp.transfer_us();
        assert!((1_999_000..=2_001_000).contains(&xfer), "transfer {xfer}");
        assert_eq!(cp.rank_sequence(), vec![0, 1]);
        // The transfer is attributed to the consuming task's kind lane in
        // the breakdown.
        let names: Vec<String> = cp.breakdown().into_iter().map(|(k, _)| k).collect();
        assert!(names.contains(&"transfer".to_string()));
        assert!(names.contains(&"task:ColBcast".to_string()));
    }

    #[test]
    fn path_picks_the_longer_branch() {
        // Fork: a cheap branch on rank 1 and an expensive branch on
        // rank 2, joining on rank 0. The path must route through rank 2.
        let g = graph(
            3,
            &[
                (0, 10e9, CollKind::Compute),
                (1, 10e9, CollKind::Compute),
                (2, 50e9, CollKind::Compute),
                (0, 10e9, CollKind::Compute),
            ],
            &[(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 0)],
        );
        let (_, _, prof) = simulate_profiled(&g, flat_cfg(), "cp/fork", &[]);
        let cp = CriticalPath::extract(&g, &prof);
        assert_contiguous(&cp);
        assert_eq!(cp.length_us(), cp.makespan_us);
        let tasks: Vec<TaskId> = cp.steps.iter().filter_map(|s| s.task).collect();
        assert!(tasks.contains(&2), "path skipped the slow branch: {tasks:?}");
        assert!(!tasks.contains(&1), "path took the fast branch: {tasks:?}");
    }

    #[test]
    fn ascii_and_json_are_nonempty_and_consistent() {
        let g = graph(
            2,
            &[(0, 10e9, CollKind::Compute), (1, 10e9, CollKind::RowReduce)],
            &[(0, 1, 1_000_000)],
        );
        let (_, _, prof) = simulate_profiled(&g, flat_cfg(), "cp/render", &[]);
        let cp = CriticalPath::extract(&g, &prof);
        let text = cp.ascii();
        assert!(text.contains("critical path:"));
        assert!(text.contains("rank sequence"));
        let doc = Json::parse(&cp.json().to_string_pretty()).unwrap();
        assert_eq!(
            doc.get("length_us").unwrap().as_f64(),
            doc.get("makespan_us").unwrap().as_f64()
        );
        let steps = doc.get("steps").unwrap().as_arr().unwrap();
        assert!(!steps.is_empty());
        // Breakdown entries sum to the path length.
        let Json::Obj(bd) = doc.get("breakdown").unwrap() else {
            panic!("breakdown not an object")
        };
        let sum: f64 = bd.iter().map(|(_, v)| v.as_f64().unwrap()).sum();
        assert_eq!(sum, doc.get("length_us").unwrap().as_f64().unwrap());
    }
}
