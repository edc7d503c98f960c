//! [`Recorder`] — the batteries-included [`Probe`]: owns a copy of
//! every superstep observation plus a metrics [`Registry`], and feeds
//! the exporters, the drift report, and the calibrator.

use crate::metrics::{self, CounterId, HistogramId, MetricSample, Registry};
use crate::probe::{ObsEvent, Probe, StepRecord, StepWall};
use crate::span::{Span, SpanKind};
use hbsp_core::{Level, ProcId};
use std::sync::Mutex;

/// Highest hierarchy level tracked with a dedicated per-level metric;
/// deeper traffic still lands in the aggregate counters.
pub const MAX_TRACKED_LEVELS: usize = 8;

/// Number of per-processor `f64` columns in the arena.
const F_COLS: usize = 6;

/// Owned mirror of a [`StepRecord`]: everything observed about one
/// executed superstep.
///
/// All per-processor and per-level columns live in two flat arenas —
/// one `f64`, one `u64` — so recording a step costs two allocations
/// however many columns the schema carries (the old per-field `Vec`s
/// cost ten or more). Columns are exposed as slices through accessor
/// methods.
///
/// Arena layout, for `p` processors and `L` traffic levels:
///
/// ```text
/// f: [starts | compute_done | send_done | finish | releases | work]  6·p
/// u: [sent_words]                                                      p
///    [words_by_level | messages_by_level]                            2·L
///    [body_start_ns | body_end_ns]                  2·p, wall runs only
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    /// Superstep index.
    pub step: usize,
    /// Barrier level; `None` for the final drain step.
    pub barrier: Option<Level>,
    /// Observed h-relation.
    pub hrelation: f64,
    procs: usize,
    levels: usize,
    has_wall: bool,
    leader_done_ns: u64,
    f: Box<[f64]>,
    u: Box<[u64]>,
}

impl StepTrace {
    /// Copy a borrowed [`StepRecord`] into one owned arena.
    pub fn from_record(r: &StepRecord<'_>) -> StepTrace {
        let p = r.starts.len();
        let levels = r.words_by_level.len();
        assert_eq!(r.compute_done.len(), p);
        assert_eq!(r.send_done.len(), p);
        assert_eq!(r.finish.len(), p);
        assert_eq!(r.releases.len(), p);
        assert_eq!(r.work.len(), p);
        assert_eq!(r.sent_words.len(), p);
        assert_eq!(r.messages_by_level.len(), levels);
        let f_total = F_COLS * p;
        let u_total = p + 2 * levels + if r.wall.is_some() { 2 * p } else { 0 };
        let mut f = Vec::with_capacity(f_total);
        for col in [
            r.starts,
            r.compute_done,
            r.send_done,
            r.finish,
            r.releases,
            r.work,
        ] {
            f.extend_from_slice(col);
        }
        let mut u = Vec::with_capacity(u_total);
        u.extend_from_slice(r.sent_words);
        u.extend_from_slice(r.words_by_level);
        u.extend_from_slice(r.messages_by_level);
        if let Some(w) = &r.wall {
            assert_eq!(w.body_start_ns.len(), p);
            assert_eq!(w.body_end_ns.len(), p);
            u.extend_from_slice(w.body_start_ns);
            u.extend_from_slice(w.body_end_ns);
        }
        debug_assert_eq!((f.len(), u.len()), (f_total, u_total));
        StepTrace {
            step: r.step,
            barrier: r.barrier,
            hrelation: r.hrelation,
            procs: p,
            levels,
            has_wall: r.wall.is_some(),
            leader_done_ns: r.wall.as_ref().map(|w| w.leader_done_ns).unwrap_or(0),
            f: f.into_boxed_slice(),
            u: u.into_boxed_slice(),
        }
    }

    /// The `i`-th per-processor `f64` column.
    fn fcol(&self, i: usize) -> &[f64] {
        &self.f[i * self.procs..(i + 1) * self.procs]
    }

    /// Per-processor start times.
    pub fn starts(&self) -> &[f64] {
        self.fcol(0)
    }

    /// Per-processor compute-done times.
    pub fn compute_done(&self) -> &[f64] {
        self.fcol(1)
    }

    /// Per-processor send-done times.
    pub fn send_done(&self) -> &[f64] {
        self.fcol(2)
    }

    /// Per-processor finish times.
    pub fn finish(&self) -> &[f64] {
        self.fcol(3)
    }

    /// Per-processor release times.
    pub fn releases(&self) -> &[f64] {
        self.fcol(4)
    }

    /// Per-processor charged work units.
    pub fn work(&self) -> &[f64] {
        self.fcol(5)
    }

    /// Per-processor outgoing words.
    pub fn sent_words(&self) -> &[u64] {
        &self.u[..self.procs]
    }

    /// Words per hierarchy level (index 0 = self-sends).
    pub fn words_by_level(&self) -> &[u64] {
        &self.u[self.procs..self.procs + self.levels]
    }

    /// Messages per hierarchy level (index 0 = self-sends).
    pub fn messages_by_level(&self) -> &[u64] {
        let base = self.procs + self.levels;
        &self.u[base..base + self.levels]
    }

    /// Wall-clock marks (threaded engine only).
    pub fn wall(&self) -> Option<StepWall<'_>> {
        if !self.has_wall {
            return None;
        }
        let base = self.procs + 2 * self.levels;
        let p = self.procs;
        Some(StepWall {
            body_start_ns: &self.u[base..base + p],
            body_end_ns: &self.u[base + p..base + 2 * p],
            leader_done_ns: self.leader_done_ns,
        })
    }

    /// Number of processors observed.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Step duration in virtual time: `max(release) - min(start)`.
    pub fn duration(&self) -> f64 {
        let start = self.starts().iter().copied().fold(f64::INFINITY, f64::min);
        let release = self.releases().iter().copied().fold(0.0f64, f64::max);
        release - start
    }

    /// Largest per-processor compute interval — the observed `w` term.
    pub fn observed_work_time(&self) -> f64 {
        self.starts()
            .iter()
            .zip(self.compute_done())
            .map(|(s, c)| c - s)
            .fold(0.0f64, f64::max)
    }

    /// Total words moved (self-sends included).
    pub fn total_words(&self) -> u64 {
        self.words_by_level().iter().sum()
    }

    /// Total messages (self-sends included).
    pub fn total_messages(&self) -> u64 {
        self.messages_by_level().iter().sum()
    }

    /// Virtual-time spans for processor `pid`, in time order. Same
    /// derivation as `hbsp_sim::step_spans` except that the closing
    /// [`SpanKind::BarrierWait`] is *always* emitted for a barriered
    /// step (even zero-length) so "barrier wait terminates the step"
    /// holds structurally; other empty spans are elided.
    pub fn spans(&self, pid: usize) -> Vec<Span> {
        let mut out = Vec::with_capacity(4);
        let mut push = |kind, start: f64, end: f64| {
            if end > start {
                out.push(Span { kind, start, end });
            }
        };
        push(
            SpanKind::Compute,
            self.starts()[pid],
            self.compute_done()[pid],
        );
        push(
            SpanKind::Send,
            self.compute_done()[pid],
            self.send_done()[pid],
        );
        push(SpanKind::Unpack, self.send_done()[pid], self.finish()[pid]);
        if self.barrier.is_some() || self.releases()[pid] > self.finish()[pid] {
            out.push(Span {
                kind: SpanKind::BarrierWait,
                start: self.finish()[pid],
                end: self.releases()[pid],
            });
        }
        out
    }

    /// Wall-clock spans for processor `pid` in nanoseconds: body
    /// (labelled [`SpanKind::Compute`]) then [`SpanKind::BarrierWait`]
    /// until the leader section completed. Empty on the simulator.
    pub fn wall_spans(&self, pid: usize) -> Vec<Span> {
        let Some(wall) = self.wall() else {
            return Vec::new();
        };
        let body_start = wall.body_start_ns[pid] as f64;
        let body_end = wall.body_end_ns[pid] as f64;
        let release = wall.leader_done_ns as f64;
        let mut out = Vec::with_capacity(2);
        if body_end > body_start {
            out.push(Span {
                kind: SpanKind::Compute,
                start: body_start,
                end: body_end,
            });
        }
        out.push(Span {
            kind: SpanKind::BarrierWait,
            start: body_end,
            end: release.max(body_end),
        });
        out
    }
}

/// Owned mirror of an [`ObsEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventTrace {
    /// A barrier watchdog fired.
    WatchdogFired {
        /// Superstep being waited on.
        step: usize,
        /// Processors that never arrived.
        missing: Vec<ProcId>,
    },
    /// The executor degraded the machine.
    Degraded {
        /// Failing superstep boundary.
        step: usize,
        /// Removed processors.
        dead: Vec<ProcId>,
        /// Leaves remaining.
        remaining: usize,
    },
    /// Recovery attempt started.
    RecoveryAttempt {
        /// Attempt number (1-based).
        attempt: usize,
    },
    /// The adaptive controller re-planned the remaining work.
    Replan {
        /// Adaptive segment index (0-based).
        segment: usize,
        /// Global supersteps executed before the re-plan.
        step: usize,
        /// Observed drift that tripped the threshold.
        drift: f64,
        /// Strategy tag of the new plan.
        strategy: String,
        /// Predicted virtual time of the re-planned remainder.
        predicted: f64,
    },
    /// The streaming anomaly detector flagged an outlier.
    Anomaly {
        /// Superstep the outlier was observed at.
        step: usize,
        /// Flagged processor.
        pid: ProcId,
        /// Statistic name (`barrier_skew` or `duration_drift`).
        metric: String,
        /// Signed z-score of the observation.
        zscore: f64,
        /// The observed value.
        value: f64,
        /// The trailing mean it was compared against.
        mean: f64,
    },
}

/// Handles for the stable metric set a [`Recorder`] maintains.
#[derive(Debug)]
struct StdMetrics {
    steps_total: CounterId,
    messages_total: CounterId,
    words_total: CounterId,
    level_words: Vec<CounterId>,
    level_messages: Vec<CounterId>,
    watchdog_firings: CounterId,
    degrade_events: CounterId,
    recovery_attempts: CounterId,
    adaptive_replans: CounterId,
    anomaly_events: CounterId,
    adaptive_drift: HistogramId,
    barrier_wait_virtual: HistogramId,
    hrelation: HistogramId,
    step_duration_virtual: HistogramId,
    step_wall_ns: HistogramId,
}

/// A probe that records everything: owned [`StepTrace`]s, out-of-band
/// [`EventTrace`]s, and the standard metric set. `Mutex`-protected
/// vectors are fine here — `on_step` fires once per superstep from a
/// single thread (the simulator loop or the leader section), never from
/// the per-processor hot path.
#[derive(Debug)]
pub struct Recorder {
    steps: Mutex<Vec<StepTrace>>,
    events: Mutex<Vec<EventTrace>>,
    /// `Some(n)`: keep only the last `n` steps (see
    /// [`Recorder::keep_last`]).
    bound: Option<usize>,
    /// Steps discarded by the bound.
    dropped: std::sync::atomic::AtomicU64,
    registry: Registry,
    std: StdMetrics,
    poison_base: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Fresh recorder with the standard metric set registered.
    pub fn new() -> Recorder {
        let mut registry = Registry::new();
        let std = StdMetrics {
            steps_total: registry.counter("hbsp_steps_total"),
            messages_total: registry.counter("hbsp_messages_total"),
            words_total: registry.counter("hbsp_words_total"),
            level_words: (0..MAX_TRACKED_LEVELS)
                .map(|l| registry.counter(format!("hbsp_words_total{{level=\"{l}\"}}")))
                .collect(),
            level_messages: (0..MAX_TRACKED_LEVELS)
                .map(|l| registry.counter(format!("hbsp_messages_total{{level=\"{l}\"}}")))
                .collect(),
            watchdog_firings: registry.counter("hbsp_watchdog_firings_total"),
            degrade_events: registry.counter("hbsp_degrade_events_total"),
            recovery_attempts: registry.counter("hbsp_recovery_attempts_total"),
            adaptive_replans: registry.counter("hbsp_adaptive_replans_total"),
            anomaly_events: registry.counter("hbsp_anomaly_events_total"),
            adaptive_drift: registry.histogram("hbsp_adaptive_drift"),
            barrier_wait_virtual: registry.histogram("hbsp_barrier_wait_virtual"),
            hrelation: registry.histogram("hbsp_hrelation_observed"),
            step_duration_virtual: registry.histogram("hbsp_step_duration_virtual"),
            step_wall_ns: registry.histogram("hbsp_step_wall_ns"),
        };
        Recorder {
            steps: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            bound: None,
            dropped: std::sync::atomic::AtomicU64::new(0),
            registry,
            std,
            poison_base: metrics::poison_recoveries(),
        }
    }

    /// Bound memory: keep only the last `n` recorded steps (min 1),
    /// discarding the oldest as new ones arrive. Metrics still count
    /// every step; [`Recorder::dropped`] reports how many full
    /// [`StepTrace`]s were discarded. The adaptive executor bounds
    /// each window's recorder this way so long runs stop accumulating
    /// every trace.
    pub fn keep_last(mut self, n: usize) -> Recorder {
        self.bound = Some(n.max(1));
        self
    }

    /// Steps discarded by the [`Recorder::keep_last`] bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Copy of the recorded steps, in execution order. Steps from
    /// every attempt of a recovering run accumulate in sequence.
    pub fn steps(&self) -> Vec<StepTrace> {
        self.steps.lock().expect("recorder lock").clone()
    }

    /// Copy of the recorded out-of-band events.
    pub fn events(&self) -> Vec<EventTrace> {
        self.events.lock().expect("recorder lock").clone()
    }

    /// Hand over the recorded steps and events, in order, and start
    /// empty again; metrics keep counting. A caller that consumes the
    /// telemetry slice by slice (one scheduler batch at a time) takes
    /// each slice once instead of copying the whole history.
    pub fn take(&self) -> (Vec<StepTrace>, Vec<EventTrace>) {
        let steps = std::mem::take(&mut *self.steps.lock().expect("recorder lock"));
        let events = std::mem::take(&mut *self.events.lock().expect("recorder lock"));
        (steps, events)
    }

    /// Snapshot of every metric, with the process-global poison-
    /// recovery delta appended as
    /// `hbsp_poisoned_lock_recoveries_total`.
    pub fn metrics(&self) -> Vec<MetricSample> {
        let mut out = self.registry.snapshot();
        out.push(MetricSample {
            name: "hbsp_poisoned_lock_recoveries_total".to_string(),
            value: crate::metrics::MetricValue::Counter(
                metrics::poison_recoveries().saturating_sub(self.poison_base),
            ),
        });
        out
    }

    /// Text rendering of [`Recorder::metrics`].
    pub fn metrics_text(&self) -> String {
        let mut text = self.registry.render_text();
        use std::fmt::Write as _;
        let _ = writeln!(
            text,
            "hbsp_poisoned_lock_recoveries_total {}",
            metrics::poison_recoveries().saturating_sub(self.poison_base)
        );
        text
    }

    /// Direct registry access (read-only use expected).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Per-processor virtual-time span timelines reconstructed from
    /// the recorded steps, as `(proc rank, spans)` pairs. Mirrors the
    /// engines' `.trace(true)` `ProcTimeline`s.
    pub fn timelines(&self) -> Vec<(usize, Vec<Span>)> {
        let steps = self.steps.lock().expect("recorder lock");
        let procs = steps.iter().map(StepTrace::procs).max().unwrap_or(0);
        (0..procs)
            .map(|pid| {
                let spans = steps
                    .iter()
                    .filter(|st| pid < st.procs())
                    .flat_map(|st| st.spans(pid))
                    .collect();
                (pid, spans)
            })
            .collect()
    }

    /// Chrome trace-event JSON of everything recorded. See
    /// [`crate::export::chrome_trace`].
    pub fn chrome_trace(&self) -> String {
        crate::export::chrome_trace(&self.steps())
    }

    /// JSONL export of steps, spans, events, and metrics. See
    /// [`crate::export::jsonl`].
    pub fn jsonl(&self) -> String {
        crate::export::jsonl(&self.steps(), &self.events(), &self.metrics())
    }

    fn record_metrics(&self, r: &StepRecord<'_>) {
        let m = &self.std;
        let reg = &self.registry;
        reg.c(m.steps_total).inc();
        reg.c(m.words_total)
            .add(r.words_by_level.iter().sum::<u64>());
        reg.c(m.messages_total)
            .add(r.messages_by_level.iter().sum::<u64>());
        for (l, &w) in r.words_by_level.iter().enumerate().take(MAX_TRACKED_LEVELS) {
            reg.c(m.level_words[l]).add(w);
        }
        for (l, &n) in r
            .messages_by_level
            .iter()
            .enumerate()
            .take(MAX_TRACKED_LEVELS)
        {
            reg.c(m.level_messages[l]).add(n);
        }
        reg.h(m.hrelation).record(r.hrelation);
        for (f, rel) in r.finish.iter().zip(r.releases) {
            reg.h(m.barrier_wait_virtual).record(rel - f);
        }
        let start = r.starts.iter().copied().fold(f64::INFINITY, f64::min);
        let release = r.releases.iter().copied().fold(0.0f64, f64::max);
        reg.h(m.step_duration_virtual).record(release - start);
        if let Some(wall) = &r.wall {
            let first = wall.body_start_ns.iter().copied().min().unwrap_or(0);
            reg.h(m.step_wall_ns)
                .record(wall.leader_done_ns.saturating_sub(first) as f64);
        }
    }
}

impl Probe for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn on_step(&self, r: &StepRecord<'_>) {
        self.record_metrics(r);
        let trace = StepTrace::from_record(r);
        let mut steps = self.steps.lock().expect("recorder lock");
        if let Some(bound) = self.bound {
            if steps.len() >= bound {
                steps.remove(0);
                self.dropped
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        steps.push(trace);
    }

    fn on_event(&self, ev: &ObsEvent<'_>) {
        let owned = match ev {
            ObsEvent::WatchdogFired { step, missing } => {
                self.registry.c(self.std.watchdog_firings).inc();
                EventTrace::WatchdogFired {
                    step: *step,
                    missing: missing.to_vec(),
                }
            }
            ObsEvent::Degraded {
                step,
                dead,
                remaining,
            } => {
                self.registry.c(self.std.degrade_events).inc();
                EventTrace::Degraded {
                    step: *step,
                    dead: dead.to_vec(),
                    remaining: *remaining,
                }
            }
            ObsEvent::RecoveryAttempt { attempt } => {
                self.registry.c(self.std.recovery_attempts).inc();
                EventTrace::RecoveryAttempt { attempt: *attempt }
            }
            ObsEvent::Replan {
                segment,
                step,
                drift,
                strategy,
                predicted,
            } => {
                self.registry.c(self.std.adaptive_replans).inc();
                // Forced re-plans report infinite drift (a structural
                // mismatch, not a measurement); keep the histogram sums
                // finite.
                if drift.is_finite() {
                    self.registry.h(self.std.adaptive_drift).record(*drift);
                }
                EventTrace::Replan {
                    segment: *segment,
                    step: *step,
                    drift: *drift,
                    strategy: (*strategy).to_string(),
                    predicted: *predicted,
                }
            }
            ObsEvent::Anomaly {
                step,
                pid,
                metric,
                zscore,
                value,
                mean,
            } => {
                self.registry.c(self.std.anomaly_events).inc();
                EventTrace::Anomaly {
                    step: *step,
                    pid: *pid,
                    metric: (*metric).to_string(),
                    zscore: *zscore,
                    value: *value,
                    mean: *mean,
                }
            }
        };
        self.events.lock().expect("recorder lock").push(owned);
    }
}

/// Check the span invariants over a recorded run, per processor:
///
/// 1. spans are monotonically ordered and non-overlapping;
/// 2. each step's spans exactly cover `[start, release)` with no gaps;
/// 3. a barriered step's last span is [`SpanKind::BarrierWait`];
/// 4. consecutive steps abut (`start == previous release`).
///
/// Returns a description of the first violation, if any.
pub fn check_span_invariants(steps: &[StepTrace]) -> Result<(), String> {
    let procs = steps.iter().map(StepTrace::procs).max().unwrap_or(0);
    for pid in 0..procs {
        let mut prev_release: Option<f64> = None;
        for st in steps.iter().filter(|st| pid < st.procs()) {
            let spans = st.spans(pid);
            let step = st.step;
            if let Some(prev) = prev_release {
                if st.starts()[pid] != prev {
                    return Err(format!(
                        "proc {pid} step {step}: starts at {} but previous release was {prev}",
                        st.starts()[pid]
                    ));
                }
            }
            let mut cursor = st.starts()[pid];
            for (si, span) in spans.iter().enumerate() {
                if span.start != cursor {
                    return Err(format!(
                        "proc {pid} step {step} span {si} ({:?}): gap/overlap — starts at {} , cursor {cursor}",
                        span.kind, span.start
                    ));
                }
                if span.end < span.start {
                    return Err(format!(
                        "proc {pid} step {step} span {si} ({:?}): end {} before start {}",
                        span.kind, span.end, span.start
                    ));
                }
                cursor = span.end;
            }
            if cursor != st.releases()[pid] {
                return Err(format!(
                    "proc {pid} step {step}: spans end at {cursor}, release is {}",
                    st.releases()[pid]
                ));
            }
            if st.barrier.is_some() {
                match spans.last() {
                    Some(last) if last.kind == SpanKind::BarrierWait => {}
                    other => {
                        return Err(format!(
                            "proc {pid} step {step}: barriered step not terminated by \
                             BarrierWait (last span {other:?})"
                        ));
                    }
                }
            }
            prev_release = Some(st.releases()[pid]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reborrow an owned trace as the record it came from.
    fn record_of(st: &StepTrace) -> StepRecord<'_> {
        StepRecord {
            step: st.step,
            barrier: st.barrier,
            starts: st.starts(),
            compute_done: st.compute_done(),
            send_done: st.send_done(),
            finish: st.finish(),
            releases: st.releases(),
            words_by_level: st.words_by_level(),
            messages_by_level: st.messages_by_level(),
            hrelation: st.hrelation,
            work: st.work(),
            sent_words: st.sent_words(),
            wall: st.wall(),
        }
    }

    fn synthetic_step(step: usize, barrier: Option<Level>, t0: f64) -> StepTrace {
        synthetic_step_released(step, barrier, t0, [t0 + 6.0, t0 + 6.0])
    }

    /// Like [`synthetic_step`] but with explicit release times (pass
    /// the finish times to exercise zero-length barrier waits).
    fn synthetic_step_released(
        step: usize,
        barrier: Option<Level>,
        t0: f64,
        releases: [f64; 2],
    ) -> StepTrace {
        StepTrace::from_record(&StepRecord {
            step,
            barrier,
            starts: &[t0, t0],
            compute_done: &[t0 + 2.0, t0 + 4.0],
            send_done: &[t0 + 3.0, t0 + 4.0],
            finish: &[t0 + 3.5, t0 + 5.0],
            releases: &releases,
            words_by_level: &[0, 8],
            messages_by_level: &[0, 2],
            hrelation: 8.0,
            work: &[2.0, 4.0],
            sent_words: &[4, 4],
            wall: None,
        })
    }

    #[test]
    fn recorder_owns_steps_and_counts_metrics() {
        let rec = Recorder::new();
        let st = synthetic_step(0, Some(1), 0.0);
        rec.on_step(&record_of(&st));
        assert_eq!(rec.steps(), vec![st]);
        let text = rec.metrics_text();
        assert!(text.contains("hbsp_steps_total 1\n"), "{text}");
        assert!(text.contains("hbsp_words_total 8\n"), "{text}");
        assert!(text.contains("hbsp_messages_total 2\n"), "{text}");
        assert!(text.contains("hbsp_words_total{level=\"1\"} 8\n"), "{text}");
        assert!(
            text.contains("hbsp_poisoned_lock_recoveries_total"),
            "{text}"
        );
    }

    #[test]
    fn events_are_recorded_and_counted() {
        let rec = Recorder::new();
        rec.on_event(&ObsEvent::WatchdogFired {
            step: 3,
            missing: &[ProcId(1)],
        });
        rec.on_event(&ObsEvent::Degraded {
            step: 3,
            dead: &[ProcId(1)],
            remaining: 7,
        });
        rec.on_event(&ObsEvent::RecoveryAttempt { attempt: 1 });
        assert_eq!(rec.events().len(), 3);
        let text = rec.metrics_text();
        assert!(text.contains("hbsp_watchdog_firings_total 1\n"));
        assert!(text.contains("hbsp_degrade_events_total 1\n"));
        assert!(text.contains("hbsp_recovery_attempts_total 1\n"));
    }

    #[test]
    fn take_hands_over_each_slice_once() {
        let rec = Recorder::new();
        let (a, b) = (
            synthetic_step(0, Some(1), 0.0),
            synthetic_step(1, Some(1), 10.0),
        );
        rec.on_step(&record_of(&a));
        rec.on_event(&ObsEvent::RecoveryAttempt { attempt: 1 });
        let (steps, events) = rec.take();
        assert_eq!(steps, vec![a]);
        assert_eq!(events.len(), 1);
        assert!(rec.steps().is_empty() && rec.events().is_empty());
        rec.on_step(&record_of(&b));
        assert_eq!(rec.take(), (vec![b], Vec::new()));
        // Metrics count across takes.
        assert!(rec.metrics_text().contains("hbsp_steps_total 2\n"));
    }

    #[test]
    fn spans_cover_step_and_end_in_barrier_wait() {
        let st = synthetic_step(0, Some(2), 10.0);
        let spans = st.spans(0);
        assert_eq!(
            spans.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![
                SpanKind::Compute,
                SpanKind::Send,
                SpanKind::Unpack,
                SpanKind::BarrierWait
            ]
        );
        // Proc 1 has no send span (compute_done == send_done) but still
        // ends in a barrier wait.
        let spans1 = st.spans(1);
        assert_eq!(spans1.first().unwrap().kind, SpanKind::Compute);
        assert_eq!(spans1.last().unwrap().kind, SpanKind::BarrierWait);
        assert!(check_span_invariants(&[st]).is_ok());
    }

    #[test]
    fn zero_length_barrier_wait_is_still_emitted() {
        let st = synthetic_step_released(0, Some(1), 0.0, [3.5, 5.0]);
        let spans = st.spans(1);
        let last = spans.last().unwrap();
        assert_eq!(last.kind, SpanKind::BarrierWait);
        assert_eq!(last.duration(), 0.0);
        assert!(check_span_invariants(&[st]).is_ok());
    }

    #[test]
    fn invariant_checker_finds_gaps_and_missing_waits() {
        // Gap between steps.
        let a = synthetic_step(0, Some(1), 0.0);
        let mut b = synthetic_step(1, Some(1), 7.0); // should start at 6.0
        b.step = 1;
        let err = check_span_invariants(&[a.clone(), b]).unwrap_err();
        assert!(err.contains("previous release"), "{err}");

        // Releases matching the finishes on a drain step are legal.
        let c = synthetic_step_released(0, None, 0.0, [3.5, 5.0]);
        assert!(check_span_invariants(&[c]).is_ok());
    }

    #[test]
    fn timelines_concatenate_steps_per_proc() {
        let rec = Recorder::new();
        for (i, t0) in [(0usize, 0.0), (1usize, 6.0)] {
            let st = synthetic_step(i, Some(1), t0);
            rec.on_step(&record_of(&st));
        }
        let tls = rec.timelines();
        assert_eq!(tls.len(), 2);
        let (pid, spans) = &tls[0];
        assert_eq!(*pid, 0);
        assert_eq!(spans.len(), 8, "two steps × four spans for proc 0");
        assert_eq!(spans[0].start, 0.0);
        assert_eq!(spans.last().unwrap().end, 12.0);
    }

    #[test]
    fn keep_last_bounds_memory_but_not_metrics() {
        let rec = Recorder::new().keep_last(3);
        for i in 0..10 {
            let st = synthetic_step(i, Some(1), i as f64 * 6.0);
            rec.on_step(&record_of(&st));
        }
        let steps = rec.steps();
        assert_eq!(steps.len(), 3);
        assert_eq!(
            steps.iter().map(|s| s.step).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(rec.dropped(), 7);
        // Metrics still saw every step.
        assert!(rec.metrics_text().contains("hbsp_steps_total 10\n"));
        // Unbounded recorders report zero drops.
        assert_eq!(Recorder::new().dropped(), 0);
    }

    #[test]
    fn anomaly_events_are_recorded_and_counted() {
        let rec = Recorder::new();
        rec.on_event(&ObsEvent::Anomaly {
            step: 7,
            pid: ProcId(2),
            metric: "barrier_skew",
            zscore: 4.5,
            value: 50.0,
            mean: 1.0,
        });
        match &rec.events()[0] {
            EventTrace::Anomaly {
                step, pid, metric, ..
            } => {
                assert_eq!((*step, *pid), (7, ProcId(2)));
                assert_eq!(metric, "barrier_skew");
            }
            other => panic!("expected anomaly, got {other:?}"),
        }
        assert!(rec.metrics_text().contains("hbsp_anomaly_events_total 1\n"));
    }

    #[test]
    fn wall_spans_decompose_into_body_and_wait() {
        let base = synthetic_step(0, Some(1), 0.0);
        let st = StepTrace::from_record(&StepRecord {
            wall: Some(StepWall {
                body_start_ns: &[100, 150],
                body_end_ns: &[300, 500],
                leader_done_ns: 650,
            }),
            ..record_of(&base)
        });
        let spans = st.wall_spans(0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Compute);
        assert_eq!((spans[0].start, spans[0].end), (100.0, 300.0));
        assert_eq!(spans[1].kind, SpanKind::BarrierWait);
        assert_eq!((spans[1].start, spans[1].end), (300.0, 650.0));
        assert!(st.spans(0).len() > 1, "virtual spans still present");
        assert!(synthetic_step(0, None, 0.0).wall_spans(0).is_empty());
    }
}
