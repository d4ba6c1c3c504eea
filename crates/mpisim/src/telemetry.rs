//! Live run telemetry: a sampler thread that snapshots per-rank gauges
//! while a run executes.
//!
//! A [`Telemetry`] handle is a cloneable ring buffer. Passing one in
//! [`RunOptions::telemetry`](crate::RunOptions) makes the run spawn a
//! sampler thread alongside the rank threads; on its cadence it reads each
//! rank's gauges — blocked-on state, inbox depth, stash size, outstanding
//! nonblocking collectives, bytes sent/copied, and the progress counter —
//! and appends one [`TelemetrySample`] per rank to the ring.
//!
//! The cost model mirrors the trace layer: with telemetry off (the
//! default) the hot send/receive path pays exactly one predictable branch
//! per potential gauge update and performs no allocation and takes no
//! lock — the inbox depth excepted, which the watchdog needs too and which
//! is therefore always kept. With telemetry on, rank threads touch only relaxed atomics on the
//! hot path (the channel's own synchronization orders inbox-depth updates);
//! the sampler thread owns all locking and allocation.
//!
//! Exports: [`Telemetry::to_jsonl`] for a line-per-sample time series and
//! [`Telemetry::prometheus`] for a Prometheus-style text rendition of the
//! latest sample per rank.

use crate::runtime::{BlockedOn, Shared};
use pselinv_trace::Json;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One per-rank gauge snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Microseconds since the run started.
    pub t_us: u64,
    /// The sampled rank.
    pub rank: usize,
    /// What the rank was blocked on, if it was blocked in a receive.
    pub blocked: Option<BlockedOn>,
    /// Messages queued in the rank's inbox channel.
    pub inbox: usize,
    /// Messages parked in the out-of-order stash.
    pub stash: usize,
    /// Nonblocking collectives in flight (the async engine's window).
    pub outstanding: usize,
    /// Total bytes sent so far.
    pub sent_bytes: u64,
    /// Total payload bytes physically copied so far.
    pub copied_bytes: u64,
    /// The rank's progress counter (sends + inbox pops so far).
    pub progress: u64,
    /// Intra-rank pool tasks executing at the sampling instant (0 both
    /// when the pool is idle and when the run never used a pool).
    pub pool_busy: usize,
}

impl TelemetrySample {
    /// The sample as one ordered JSON object (one JSONL line).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("t_us", self.t_us.into()),
            ("rank", self.rank.into()),
            ("blocked", self.blocked.map_or(Json::Null, |b| Json::Str(b.to_string()))),
            ("inbox", self.inbox.into()),
            ("stash", self.stash.into()),
            ("outstanding", self.outstanding.into()),
            ("sent_bytes", self.sent_bytes.into()),
            ("copied_bytes", self.copied_bytes.into()),
            ("progress", self.progress.into()),
            ("pool_busy", self.pool_busy.into()),
        ])
    }
}

#[derive(Debug)]
struct TelemetryInner {
    every: Duration,
    capacity: usize,
    ring: Mutex<VecDeque<TelemetrySample>>,
}

/// Cloneable handle to a bounded ring of [`TelemetrySample`]s.
///
/// Create one, clone it into [`RunOptions::telemetry`](crate::RunOptions),
/// and read [`Telemetry::samples`] during or after the run.
#[derive(Clone, Debug)]
pub struct Telemetry(Arc<TelemetryInner>);

impl Telemetry {
    /// A handle sampling every `every`, keeping the newest `capacity`
    /// samples (older ones are dropped from the front of the ring).
    pub fn new(every: Duration, capacity: usize) -> Self {
        Telemetry(Arc::new(TelemetryInner {
            every,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }))
    }

    /// The sampling cadence.
    pub fn interval(&self) -> Duration {
        self.0.every
    }

    /// A snapshot of the ring contents, oldest first.
    pub fn samples(&self) -> Vec<TelemetrySample> {
        self.0.ring.lock().unwrap().iter().cloned().collect()
    }

    /// Appends a sampling round, evicting the oldest samples past capacity.
    pub(crate) fn push(&self, batch: Vec<TelemetrySample>) {
        let mut ring = self.0.ring.lock().unwrap();
        ring.extend(batch);
        while ring.len() > self.0.capacity {
            ring.pop_front();
        }
    }

    /// The whole ring as JSON Lines: one object per sample, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.0.ring.lock().unwrap().iter() {
            out.push_str(&s.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Prometheus-style text exposition of the latest sample per rank.
    pub fn prometheus(&self) -> String {
        let ring = self.0.ring.lock().unwrap();
        // Latest sample per rank (ring is in time order).
        let mut latest: Vec<&TelemetrySample> = Vec::new();
        for s in ring.iter() {
            if s.rank >= latest.len() {
                latest.resize(s.rank + 1, s);
            }
            latest[s.rank] = s;
        }
        type Gauge = fn(&TelemetrySample) -> u64;
        let gauges: [(&str, Gauge); 8] = [
            ("inbox_depth", |s| s.inbox as u64),
            ("stash_depth", |s| s.stash as u64),
            ("outstanding", |s| s.outstanding as u64),
            ("sent_bytes", |s| s.sent_bytes),
            ("copied_bytes", |s| s.copied_bytes),
            ("progress", |s| s.progress),
            ("blocked", |s| u64::from(s.blocked.is_some())),
            ("pool_busy", |s| s.pool_busy as u64),
        ];
        let mut out = String::new();
        for (name, get) in gauges {
            out.push_str(&format!("# TYPE pselinv_{name} gauge\n"));
            for s in &latest {
                out.push_str(&format!("pselinv_{name}{{rank=\"{}\"}} {}\n", s.rank, get(s)));
            }
        }
        out
    }
}

/// Takes one gauge snapshot of every rank.
fn snapshot(shared: &Shared, nranks: usize, t_us: u64) -> Vec<TelemetrySample> {
    (0..nranks)
        .map(|rank| {
            let st = &shared.states[rank];
            TelemetrySample {
                t_us,
                rank,
                blocked: *st.blocked.lock().unwrap(),
                inbox: st.inbox_len.load(Ordering::Relaxed),
                stash: st.stash_len.load(Ordering::Relaxed),
                outstanding: st.outstanding.load(Ordering::Relaxed),
                sent_bytes: st.sent_bytes.load(Ordering::Relaxed),
                copied_bytes: st.copied_bytes.load(Ordering::Relaxed),
                progress: st.progress.load(Ordering::Relaxed),
                pool_busy: st.pool_busy.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Sampler thread body: snapshots every `tel.interval()` until the run
/// finishes or aborts, then takes one final snapshot so even runs shorter
/// than the cadence yield at least one sample per rank.
pub(crate) fn sampler(shared: &Shared, nranks: usize, tel: &Telemetry, epoch: Instant) {
    let every = tel.interval();
    let mut last = Instant::now();
    loop {
        // The condvar is notified on finish/abort; the timeout bounds the
        // sampling latency in between.
        let guard = shared.cv_lock.lock().unwrap();
        let wait = every.saturating_sub(last.elapsed()).max(Duration::from_micros(200));
        drop(shared.cv.wait_timeout_while(guard, wait, |_| !shared.run_over(nranks)).unwrap());
        if shared.run_over(nranks) {
            break;
        }
        if last.elapsed() >= every {
            tel.push(snapshot(shared, nranks, epoch.elapsed().as_micros() as u64));
            last = Instant::now();
        }
    }
    tel.push(snapshot(shared, nranks, epoch.elapsed().as_micros() as u64));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rank: usize, t_us: u64) -> TelemetrySample {
        TelemetrySample {
            t_us,
            rank,
            blocked: None,
            inbox: 1,
            stash: 2,
            outstanding: 3,
            sent_bytes: 400,
            copied_bytes: 50,
            progress: 6,
            pool_busy: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_past_capacity() {
        let tel = Telemetry::new(Duration::from_millis(1), 3);
        tel.push(vec![sample(0, 10), sample(1, 10)]);
        tel.push(vec![sample(0, 20), sample(1, 20)]);
        let got = tel.samples();
        assert_eq!(got.len(), 3);
        assert_eq!((got[0].rank, got[0].t_us), (1, 10));
        assert_eq!((got[2].rank, got[2].t_us), (1, 20));
    }

    #[test]
    fn jsonl_lines_parse_and_roundtrip_fields() {
        let tel = Telemetry::new(Duration::from_millis(1), 16);
        let mut s = sample(2, 123);
        s.blocked = Some(BlockedOn { src: Some(1), tag: Some(7) });
        tel.push(vec![sample(0, 123), s]);
        let jsonl = tel.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = Json::parse(lines[1]).unwrap();
        assert_eq!(v.get("rank").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("sent_bytes").unwrap().as_f64(), Some(400.0));
        assert_eq!(v.get("blocked").unwrap().as_str(), Some("recv(src=1, tag=7)"));
        let v0 = Json::parse(lines[0]).unwrap();
        assert_eq!(v0.get("blocked"), Some(&Json::Null));
    }

    #[test]
    fn the_stash_gauge_reads_the_stash_depth() {
        // Rank 0 takes tag 7 past two tag-5 messages and finishes holding
        // them; rank 1 stashes nothing. The final sample runs after every
        // rank finished, so it reads the depths the ranks ended with.
        let tel = Telemetry::new(Duration::from_millis(1), 64);
        let opts = crate::RunOptions { telemetry: Some(tel.clone()), ..Default::default() };
        crate::try_run(2, &opts, |ctx| {
            if ctx.rank() == 1 {
                for tag in [5, 5, 7] {
                    ctx.send(0, tag, vec![1.0]);
                }
            } else {
                ctx.recv(1, 7);
            }
        })
        .unwrap();
        let samples = tel.samples();
        let last = &samples[samples.len() - 2..];
        assert_eq!(last.iter().map(|s| (s.rank, s.stash)).collect::<Vec<_>>(), [(0, 2), (1, 0)]);
        assert!(samples.iter().all(|s| s.stash <= 2), "{samples:?}");
    }

    #[test]
    fn prometheus_reports_latest_sample_per_rank() {
        let tel = Telemetry::new(Duration::from_millis(1), 16);
        tel.push(vec![sample(0, 10), sample(1, 10)]);
        let mut newer = sample(1, 20);
        newer.inbox = 9;
        tel.push(vec![newer]);
        let text = tel.prometheus();
        assert!(text.contains("# TYPE pselinv_inbox_depth gauge\n"));
        assert!(text.contains("pselinv_inbox_depth{rank=\"0\"} 1\n"));
        assert!(text.contains("pselinv_inbox_depth{rank=\"1\"} 9\n"));
        assert!(text.contains("pselinv_blocked{rank=\"0\"} 0\n"));
    }
}
